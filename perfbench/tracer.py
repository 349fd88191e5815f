"""Traced run of one ``latcon`` command, from outside the program.

Usage (PYTHONPATH must point at the checkout's ``src``)::

    python3 perfbench/tracer.py SUMMARY.json verify 10

The command's own stdout goes to this process's stdout unchanged, so the
caller checks it exactly like an untraced run.  The span summary is
written to SUMMARY.json.

Every traced function is replaced by a wrapper in each ``latcon`` module
namespace that binds it: modules import names with ``from .poset import
find_embedding``, so patching only the defining module would miss every
call made through another module's binding.  A wrapper records one span
(name, start, end, parent); spans stay in memory in flat arrays and are
aggregated into calls, total and self seconds when the command ends.
Worker processes of ``verify --jobs K`` keep their spans to themselves,
so for that command the summary covers the parent process only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function, wrap inside the defining module too).  Calls a module
# makes to its own function are counted where they are the layer's work
# (principal congruences inside jir_quasiorder, the enumeration inside
# verify_theorem) and left inside the caller's span where they are a
# detail of another public function (canonical_form relabels through
# canonical_relabel, is_isomorphic searches through find_embedding).
TRACED = (
    ("cli", "parse_lattice_text", True),
    ("enumeration", "enumerate_lattices", True),
    ("enumeration", "verify_theorem", True),
    ("enumeration", "spectrum", True),
    ("enumeration", "_extend_semilattice", True),
    ("poset", "canonical_form", True),
    ("poset", "canonical_relabel", False),
    ("poset", "find_embedding", False),
    ("poset", "count_downsets", True),
    ("lattice", "validate_lattice", True),
    ("lattice", "irreducibles", True),
    ("congruence", "con_count", True),
    ("congruence", "jir_quasiorder", True),
    ("congruence", "principal_congruence", True),
    ("congruence", "con_count_oracle", True),
    ("planarity", "is_planar_kr", True),
    ("planarity", "is_dismantlable", True),
    ("planarity", "is_planar_graph_oracle", True),
    ("planarity", "kr_catalog", True),
)


class Tracer:
    """Spans in memory: name id, parent index, start and end per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.results: dict[str, list] = {}
        self.via: dict[str, dict[str, array]] = {}

    def wrap(self, name: str, fn, via: str, keep_result=None):
        """A wrapper recording a span per call made through module ``via``.

        keep_result(result) is stored for every call when given.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        kept = self.results.setdefault(name, []) if keep_result else None
        calls_via = array("q", [0])
        self.via.setdefault(name, {})[via] = calls_via

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls_via[0] += 1
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(keep_result(result))
            return result

        return wrapper

    def summary(self) -> dict:
        """Per name: calls, total and self seconds, calls per calling module."""
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        child = [0.0] * k
        for i in range(len(self.start)):
            nid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            total[nid] += dur
            p = self.parent[i]
            if p >= 0:
                child[self.name_of[p]] += dur
        return {
            name: {
                "calls": calls[i],
                "total_s": total[i],
                "self_s": total[i] - child[i],
                "via": {m: c[0] for m, c in self.via[name].items()},
            }
            for i, name in enumerate(self.names)
        }


def _witness(verdict) -> str | None:
    if verdict.witness is None:
        return None
    name, _, into_dual = verdict.witness
    return f"{name}.{'dual' if into_dual else 'direct'}"


KEEP_RESULT = {
    "enumeration._extend_semilattice": len,
    "planarity.is_planar_kr": _witness,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function in every latcon namespace; returns the missing ones."""
    mods = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "latcon" or name.startswith("latcon."))
    }
    missing = []
    for home, fname, inside_home in TRACED:
        home_mod = mods.get(f"latcon.{home}")
        fn = getattr(home_mod, fname, None)
        if fn is None:
            missing.append(f"{home}.{fname}")
            continue
        key = f"{home}.{fname}"
        for modname, mod in mods.items():
            if mod is home_mod and not inside_home:
                continue
            via = modname.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, tracer.wrap(key, fn, via, KEEP_RESULT.get(key)))
    return missing


def clear_caches() -> None:
    """Empty the in-process caches that would turn repetitions into hits."""
    from latcon import enumeration, planarity

    for attr in ("_semis_cache", "_lattice_cache"):
        cache = getattr(enumeration, attr, None)
        if cache is not None:
            cache.clear()
            if cache:
                raise RuntimeError(f"enumeration.{attr} not empty after clear")
    catalog = getattr(planarity, "kr_catalog", None)
    if hasattr(catalog, "cache_clear"):
        catalog.cache_clear()
        if catalog.cache_info().currsize:
            raise RuntimeError("kr_catalog cache not empty after clear")


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    t0 = time.perf_counter()
    import latcon.cli

    import_s = time.perf_counter() - t0
    clear_caches()
    tracer = Tracer()
    missing = install(tracer)
    traced_main = tracer.wrap("cli.main", latcon.cli.main, "-")
    rc = traced_main(command)
    from latcon import enumeration

    semis = getattr(enumeration, "_semis_cache", {})
    summary = {
        "import_s": import_s,
        "span_count": len(tracer.start),
        "spans": tracer.summary(),
        "results": tracer.results,
        "semilattices_kept": sum(len(v) for m, v in semis.items() if m >= 2),
        "missing": missing,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
