"""Command-line front end.

Lattice text format (at most MAX_INPUT_CHARS characters): first
non-comment line is the element count n (at most MAX_ELEMENTS), every
further non-empty non-# line is "i j" meaning i < j (0-indexed; the cover
relation is recomputed, so the pairs need not be covers).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterator

from .congruence import ORACLE_MAX_N, con_count_oracle, exceeds_threshold, jir_quasiorder
from .lattice import (
    Lattice,
    NotLatticeError,
    SizeError,
    dual_lattice,
    irreducibles,
    make_boolean,
    make_chain,
    make_l_family,
    make_mk,
    make_ordinal_sum,
    make_product,
    validate_lattice,
)
from .planarity import is_dismantlable, is_planar_kr, planar_realizer
from .poset import CycleError, canonical_relabel, count_downsets, find_embedding, poset_from_covers

if TYPE_CHECKING:
    from .enumeration import TheoremReport

# Largest element count a lattice file may declare, checked before anything
# is allocated: twice the scale the bitmask posets are meant for.
MAX_ELEMENTS = 64
# Longest lattice text read, in characters; a MAX_ELEMENTS-element file of
# every comparable pair is about 12 KB.
MAX_INPUT_CHARS = 1 << 20


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_lattice_text(text: str) -> Lattice:
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"expected element count, got {line!r}", lineno)
            if n < 0:
                raise ParseError("element count must be nonnegative", lineno)
            if n > MAX_ELEMENTS:
                raise ParseError(f"element count {n} above the limit {MAX_ELEMENTS}", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'i j', got {line!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected integers, got {line!r}", lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"index out of range in {line!r}", lineno)
        pairs.append((i, j))
    if n is None:
        raise ParseError("empty input", 1)
    return validate_lattice(poset_from_covers(n, pairs))


def serialize_lattice(l: Lattice) -> str:
    lines = [str(l.n)]
    lines += [f"{a} {b}" for a, b in l.poset.covers]
    return "\n".join(lines) + "\n"


def emit_dot(l: Lattice) -> str:
    """DOT digraph with cover edges pointing upward and height ranks."""
    heights = l.poset.heights
    by_height: dict[int, list[int]] = {}
    for v in range(l.n):
        by_height.setdefault(heights[v], []).append(v)
    out = ["digraph lattice {", "  rankdir=BT;", "  node [shape=circle];"]
    for h in sorted(by_height):
        members = " ".join(f"v{v};" for v in sorted(by_height[h]))
        out.append(f"  {{ rank=same; {members} }}")
    for a, b in l.poset.covers:
        out.append(f"  v{a} -> v{b};")
    out.append("}")
    return "\n".join(out) + "\n"


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for "-"; at most MAX_INPUT_CHARS
    characters, one more is read to see that the input is longer."""
    if path == "-":
        text = sys.stdin.read(MAX_INPUT_CHARS + 1)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    if len(text) > MAX_INPUT_CHARS:
        raise SizeError(f"{path}: input longer than the limit of {MAX_INPUT_CHARS} characters")
    return text


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _pair_names(n: int) -> list[list[str]]:
    """The text "a-b" of every pair of elements below n, at [a][b]; a
    report builds it once for its n and formats every cover pair from it."""
    return [[f"{a}-{b}" for b in range(n)] for a in range(n)]


def _fmt_covers(covers, names: list[list[str]]) -> str:
    return ",".join([names[a][b] for a, b in covers]) if covers else "-"


def _fmt_embedding(emb) -> str:
    return " ".join(f"{i}->{v}" for i, v in enumerate(emb.mapping))


def _cmd_analyze(args) -> int:
    l = parse_lattice_text(_read_text(args.file))
    jir, mir, jred, mred = irreducibles(l)
    print(f"n={l.n}")
    print(f"Jir={jir}")
    print(f"Mir={mir}")
    print(f"Jred={jred}")
    print(f"Mred={mred}")
    # |Con| as con_count computes it, with the quasiorder built only once.
    qu = jir_quasiorder(l) if l.n >= 2 else None
    con = count_downsets(qu) if qu is not None else 1
    print(f"Con={con}")
    if l.n <= ORACLE_MAX_N:
        print(f"Con_oracle={con_count_oracle(l)}")
    if qu is not None:
        canon, _ = canonical_relabel(qu)
        print(f"Qu_n={qu.n}")
        print(f"Qu_covers={_fmt_covers(canon.covers, _pair_names(canon.n))}")
    # planar= and planar_graph= (a key kept from the graph route the
    # 2-realizer replaced) both print the dimension route's verdict.
    planar = planar_realizer(l) is not None
    print(f"planar={_fmt_bool(planar)}")
    kr = is_planar_kr(l)
    print(f"planar_kr={_fmt_bool(kr.planar)}")
    if kr.witness is not None:
        name, emb, into_dual = kr.witness
        side = "dual" if into_dual else "direct"
        print(f"witness={name} {side} {_fmt_embedding(emb)}")
    print(f"planar_graph={_fmt_bool(planar)}")
    print(f"dismantlable={_fmt_bool(is_dismantlable(l))}")
    print(f"verdict={'many' if exceeds_threshold(l.n, con) else 'few'}")
    return 0


class ConstructError(ValueError):
    """A construct parameter that is missing, not an integer or too large."""


# Builder of each sized family and the largest size whose lattice has at
# most MAX_ELEMENTS elements: chain n and lfamily n have n, mk k has
# k + 2, boolean k has 2**k.
_SIZED_FAMILIES = {
    "chain": (make_chain, MAX_ELEMENTS),
    "boolean": (make_boolean, MAX_ELEMENTS.bit_length() - 1),
    "mk": (make_mk, MAX_ELEMENTS - 2),
    "lfamily": (make_l_family, MAX_ELEMENTS),
}
# Families built from lattice files, with the number of files each takes.
_FILE_FAMILIES = {"ordsum": 2, "product": 2, "dual": 1}


def _construct_size(fam: str, params: list[str]) -> int:
    """The family's size parameter, checked before anything is built."""
    if len(params) != 1:
        raise ConstructError(f"{fam} takes one size, got {len(params)} parameters")
    try:
        value = int(params[0])
    except ValueError:
        raise ConstructError(f"{fam} size must be an integer, got {params[0]!r}")
    limit = _SIZED_FAMILIES[fam][1]
    if value > limit:
        raise ConstructError(
            f"{fam} size {value} above the limit {limit}: lattices have at most {MAX_ELEMENTS} elements"
        )
    return value


def _construct(args) -> Lattice:
    fam = args.family
    params = args.params
    if fam in _SIZED_FAMILIES:
        return _SIZED_FAMILIES[fam][0](_construct_size(fam, params))
    if fam not in _FILE_FAMILIES:
        raise ConstructError(f"unknown family {fam!r}")
    if len(params) != _FILE_FAMILIES[fam]:
        raise ConstructError(f"{fam} takes {_FILE_FAMILIES[fam]} lattice files, got {len(params)}")
    lattices = [parse_lattice_text(_read_text(path)) for path in params]
    if fam == "dual":
        return dual_lattice(lattices[0])
    l1, l2 = lattices
    size = l1.n * l2.n if fam == "product" else l1.n + l2.n
    if size > MAX_ELEMENTS:
        raise ConstructError(f"{fam} would have {size} elements, above the limit {MAX_ELEMENTS}")
    return make_product(l1, l2) if fam == "product" else make_ordinal_sum(l1, l2)


def _cmd_construct(args) -> int:
    l = _construct(args)
    _write_text(args.output, serialize_lattice(l))
    return 0


# The sweep commands import latcon.enumeration when they run: it adds to
# the start-up of every command, and analyze, construct, embed and dot
# never call it.

def _cmd_enumerate(args) -> int:
    from .enumeration import _record_covers, _sorted_records

    records = _sorted_records(args.n)
    names = _pair_names(args.n)
    for record in records:
        print(_fmt_covers(_record_covers(record), names))
    return 0


def _cmd_spectrum(args) -> int:
    from .enumeration import spectrum

    rep = spectrum(args.n)
    print(f"spectrum n={rep.n}")
    print(f"classes={rep.total_classes}")
    print("value count")
    for v in rep.values:
        print(f"{v} {rep.counts[v]}")
    return 0


def _render_verify(rep: TheoremReport) -> Iterator[str]:
    """The verify report, one newline-terminated line at a time."""
    yield f"verify n={rep.n}\n"
    yield f"classes={rep.classes_checked}\n"
    yield f"many={rep.many_congruence_classes}\n"
    yield f"violations={len(rep.violations)}\n"
    yield "covers;con;planar;dismantlable;many\n"
    names = _pair_names(rep.n)
    for r in rep.records:
        yield (
            f"{_fmt_covers(r.covers, names)};{r.con};{_fmt_bool(r.planar)};"
            f"{_fmt_bool(r.dismantlable)};{_fmt_bool(r.many)}\n"
        )


def _cmd_verify(args) -> int:
    from .enumeration import verify_theorem

    # The CPUs this process may run on, which taskset or a container can
    # make fewer than the machine's.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    jobs = min(args.jobs, cpus)
    rep = verify_theorem(args.n, jobs=jobs)
    sys.stdout.writelines(_render_verify(rep))
    return 0 if not rep.violations else 1


def _cmd_embed(args) -> int:
    k = parse_lattice_text(_read_text(args.kfile))
    l = parse_lattice_text(_read_text(args.lfile))
    for key, host in (("embedding", l), ("dual_embedding", dual_lattice(l))):
        emb = find_embedding(k.poset, host.poset)
        print(f"{key}={'none' if emb is None else _fmt_embedding(emb)}")
    return 0


def _cmd_dot(args) -> int:
    l = parse_lattice_text(_read_text(args.file))
    sys.stdout.write(emit_dot(l))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latcon",
        description="Congruence counting and planarity for finite lattices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one lattice file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="build a named lattice")
    p.add_argument("family", choices=[*_SIZED_FAMILIES, *_FILE_FAMILIES])
    p.add_argument("params", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="stream all n-element lattices")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("spectrum", help="distinct congruence counts at size n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="check the many-congruences-implies-planar sweep")
    p.add_argument("n", type=int)
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes, at most the number of usable CPUs (more are clamped)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="search K as induced subposet of L")
    p.add_argument("kfile")
    p.add_argument("lfile")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("dot", help="emit a DOT Hasse diagram")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dot)

    return ap


# Errors that mean the input was bad; anything else is a bug and propagates.
_INPUT_ERRORS = (
    ParseError,
    CycleError,
    NotLatticeError,
    SizeError,
    ConstructError,
    UnicodeDecodeError,
    OSError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover - downstream closed the pipe
        return 0
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
