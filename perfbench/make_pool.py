"""Record the reference outputs the benchmark's output gate compares against.

Run once, at the commit whose output is the reference, from the root of
the checkout::

    PYTHONPATH=src python3 perfbench/make_pool.py

It writes two files next to itself:

* ``pool.json``: the lattices ``analyze-batch`` draws its files from, each
  with the sha256 of ``latcon analyze``'s stdout on it.  ``n10`` holds
  10-element classes from ``sample_lattices``, where ``analyze`` also runs
  the partition oracle; ``big`` holds 11- to 13-element lattices built with
  the library constructors, where it does not.
* ``expected.json``: the stdout digest, exit code and header fields of each
  sweep the benchmark runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from latcon import cli
from latcon.enumeration import enumerate_lattices, sample_lattices
from latcon.lattice import (
    dual_lattice,
    make_chain,
    make_l_family,
    make_mk,
    make_ordinal_sum,
    make_product,
)
from latcon.planarity import is_planar_kr

HERE = Path(__file__).resolve().parent
POOL_SEED = 1807
N10_COUNT = 240
ORDINAL_SUMS = 80
NONPLANAR_PIECES = 10
SWEEPS = ("verify 10", "spectrum 10", "verify 8", "spectrum 8")


def constructed() -> list[tuple[str, object]]:
    """11- to 13-element lattices from every constructor the CLI exposes."""
    rng = random.Random(POOL_SEED)
    out = []
    for n in (11, 12, 13):
        out.append((f"make_l_family({n})", make_l_family(n)))
    for k in (9, 10, 11):
        out.append((f"make_mk({k})", make_mk(k)))
    for a, b in ((2, 6), (6, 2), (3, 4), (4, 3)):
        out.append((f"make_product(chain {a}, chain {b})", make_product(make_chain(a), make_chain(b))))
    for i, x in enumerate(enumerate_lattices(6)):
        out.append((f"make_product(chain 2, L6[{i}])", make_product(make_chain(2), x)))
    for i, x in enumerate(enumerate_lattices(4)):
        out.append((f"make_product(chain 3, L4[{i}])", make_product(make_chain(3), x)))
    for _ in range(ORDINAL_SUMS):
        total = rng.choice((11, 12, 13))
        a = rng.randint(total - 10, 10)
        b = total - a
        la = enumerate_lattices(a, max_n=10)
        lb = enumerate_lattices(b, max_n=10)
        i, j = rng.randrange(len(la)), rng.randrange(len(lb))
        out.append((f"make_ordinal_sum(L{a}[{i}], L{b}[{j}])", make_ordinal_sum(la[i], lb[j])))
    # Non-planar pieces whose witness is not the self-dual A_0: stacked on a
    # chain and dualized, they give witnesses on both sides.
    for size in (9, 10):
        pieces = [
            (i, l)
            for i, l in enumerate(enumerate_lattices(size, max_n=10))
            if (w := is_planar_kr(l).witness) is not None and w[0] != "A_0"
        ]
        for i, piece in rng.sample(pieces, min(NONPLANAR_PIECES, len(pieces))):
            k = rng.randint(11 - size, 13 - size)
            chain = make_chain(k)
            if rng.random() < 0.5:
                name, l = f"make_ordinal_sum(L{size}[{i}], chain {k})", make_ordinal_sum(piece, chain)
            else:
                name, l = f"make_ordinal_sum(chain {k}, L{size}[{i}])", make_ordinal_sum(chain, piece)
            out.append((name, l))
    out += [(f"dual_lattice({name})", dual_lattice(l)) for name, l in out]
    return out


def analyze_digest(l) -> str:
    with tempfile.NamedTemporaryFile("w", suffix=".lat", delete=False) as fh:
        fh.write(cli.serialize_lattice(l))
        path = fh.name
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["analyze", path])
    finally:
        os.unlink(path)
    if rc != 0:
        raise SystemExit(f"analyze failed on {cli.serialize_lattice(l)!r}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def entry(ident: str, source: str, l) -> dict:
    verdict = is_planar_kr(l)
    witness = None
    if verdict.witness is not None:
        name, _, into_dual = verdict.witness
        witness = f"{name}.{'dual' if into_dual else 'direct'}"
    return {
        "id": ident,
        "source": source,
        "n": l.n,
        "covers": [list(c) for c in l.poset.covers],
        "planar": verdict.planar,
        "witness": witness,
        "stdout_sha256": analyze_digest(l),
    }


def make_pool() -> dict:
    n10 = [
        entry(f"s10-{i:03d}", f"sample_lattices(10, {N10_COUNT}, seed={POOL_SEED})[{i}]", l)
        for i, l in enumerate(sample_lattices(10, N10_COUNT, seed=POOL_SEED))
    ]
    seen = set()
    big = []
    for source, l in constructed():
        text = cli.serialize_lattice(l)
        if text in seen:
            continue
        seen.add(text)
        big.append(entry(f"c{l.n}-{len(big):03d}", source, l))
    return {"n10": n10, "big": big}


def sweep_reference(command: str) -> dict:
    got = subprocess.run(
        [sys.executable, "-c", "import sys; from latcon.cli import main; sys.exit(main())",
         *command.split()],
        capture_output=True,
        check=False,
    )
    fields = {}
    for line in got.stdout.decode().splitlines()[:4]:
        key, _, value = line.partition("=")
        if key in ("classes", "many", "violations"):
            fields[key] = int(value)
    return {
        "stdout_sha256": hashlib.sha256(got.stdout).hexdigest(),
        "exit_code": got.returncode,
        "classes": fields["classes"],
        "fields": fields,
    }


def main() -> int:
    expected = {command: sweep_reference(command) for command in SWEEPS}
    pool = make_pool()
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    with open(HERE / "pool.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for k, kind in enumerate(("n10", "big")):
            rows = ",\n".join(json.dumps(e) for e in pool[kind])
            fh.write(f'"{kind}": [\n{rows}\n]{"," if k == 0 else ""}\n')
        fh.write("}\n")
    kinds = {}
    for e in pool["big"] + pool["n10"]:
        kinds[e["witness"] or "planar"] = kinds.get(e["witness"] or "planar", 0) + 1
    print(f"n10={len(pool['n10'])} big={len(pool['big'])} kinds={kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
