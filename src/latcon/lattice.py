"""Lattice validation, join/meet tables, irreducibles and constructors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poset import Poset, dual, poset_from_covers


class NotLatticeError(ValueError):
    """Carries the first pair (in index order) missing a lub or glb."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class SizeError(ValueError):
    """A constructor precondition on the size parameter is violated."""


class IntervalError(ValueError):
    """An interval endpoint pair is not ordered."""


@dataclass(frozen=True)
class Lattice:
    """A validated lattice: poset plus total join/meet tables."""

    poset: Poset
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return self.poset.n

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lattice(n={self.n}, covers={list(self.poset.covers)})"


@dataclass(frozen=True)
class IrreducibleSets:
    """Join/meet (ir)reducible classification of a lattice.

    jred is computed as L minus bottom minus jir; the identity with
    {x or y : x parallel y} is exercised by the test suite.
    """

    jir: frozenset[int]
    mir: frozenset[int]
    dir: frozenset[int]
    jred: frozenset[int]
    mred: frozenset[int]
    lower_cover: dict[int, int]
    upper_cover: dict[int, int]


def _minimal_of(mask: int, down: tuple[int, ...]) -> list[int]:
    out = []
    rest = mask
    while rest:
        b = rest & -rest
        i = b.bit_length() - 1
        rest ^= b
        if down[i] & mask == b:
            out.append(i)
    return out


def validate_lattice(p: Poset) -> Lattice:
    """Check unique bottom/top and total lub/glb tables.

    Raises NotLatticeError with the first failing pair in index order.
    """
    n = p.n
    if n == 0:
        raise NotLatticeError("empty poset is not a lattice")
    full = p.full_mask
    bottoms = [i for i in range(n) if p.up[i] == full]
    tops = [i for i in range(n) if p.down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        mins = _minimal_of(full, p.down)
        if len(mins) >= 2:
            raise NotLatticeError(
                f"no glb for ({mins[0]}, {mins[1]})", (mins[0], mins[1])
            )
        maxs = _minimal_of(full, p.up)
        raise NotLatticeError(
            f"no lub for ({maxs[0]}, {maxs[1]})", (maxs[0], maxs[1])
        )

    # A pair has a lub exactly when its common up-set is some element's
    # up-set, and a glb exactly when its common down-set is some element's
    # down-set.
    up, down = p.up, p.down
    by_up = {row: i for i, row in enumerate(up)}
    by_down = {row: i for i, row in enumerate(down)}
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        join[i][i] = i
        meet[i][i] = i
        for j in range(i + 1, n):
            lub = by_up.get(up[i] & up[j])
            if lub is None:
                raise NotLatticeError(f"no lub for ({i}, {j})", (i, j))
            glb = by_down.get(down[i] & down[j])
            if glb is None:
                raise NotLatticeError(f"no glb for ({i}, {j})", (i, j))
            join[i][j] = join[j][i] = lub
            meet[i][j] = meet[j][i] = glb

    return Lattice(
        poset=p,
        join=tuple(tuple(r) for r in join),
        meet=tuple(tuple(r) for r in meet),
        bottom=bottoms[0],
        top=tops[0],
    )


def lattice_from_covers(n: int, pairs) -> Lattice:
    return validate_lattice(poset_from_covers(n, pairs))


def dual_lattice(l: Lattice) -> Lattice:
    return Lattice(
        poset=dual(l.poset),
        join=l.meet,
        meet=l.join,
        bottom=l.top,
        top=l.bottom,
    )


@lru_cache(maxsize=1)
def irreducibles(l: Lattice) -> IrreducibleSets:
    """Join/meet (ir)reducible classification.

    The last result is kept, so the congruence count and the planarity
    test of one class share a single computation; keeping one per
    lattice would hold a few kilobytes for every enumerated class.  The
    result is shared between callers and must not be mutated.
    """
    n = l.n
    lower: dict[int, list[int]] = {i: [] for i in range(n)}
    upper: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in l.poset.covers:
        lower[b].append(a)
        upper[a].append(b)
    jir = frozenset(i for i in range(n) if i != l.bottom and len(lower[i]) == 1)
    mir = frozenset(i for i in range(n) if i != l.top and len(upper[i]) == 1)
    jred = frozenset(range(n)) - {l.bottom} - jir
    mred = frozenset(range(n)) - {l.top} - mir
    return IrreducibleSets(
        jir=jir,
        mir=mir,
        dir=jir & mir,
        jred=jred,
        mred=mred,
        lower_cover={i: lower[i][0] for i in jir},
        upper_cover={i: upper[i][0] for i in mir},
    )


def transposes_up(l: Lattice, a: int, b: int, c: int, d: int) -> bool:
    """[a,b] transposes up to [c,d]: b meet c = a and b join c = d."""
    if not l.leq(a, b):
        raise IntervalError(f"{a} is not below {b}")
    if not l.leq(c, d):
        raise IntervalError(f"{c} is not below {d}")
    return l.meet[b][c] == a and l.join[b][c] == d


def transposes_down(l: Lattice, a: int, b: int, c: int, d: int) -> bool:
    return transposes_up(l, c, d, a, b)


def is_distributive(l: Lattice) -> bool:
    """Exhaustive triple check of x meet (y join z) = (x meet y) join (x meet z)."""
    n = l.n
    join = l.join
    meet = l.meet
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            for z in range(y + 1, n):
                if mx[join[y][z]] != join[mx[y]][mx[z]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_chain(n: int) -> Lattice:
    if n < 1:
        raise SizeError("chain needs n >= 1")
    return lattice_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def make_boolean(k: int) -> Lattice:
    """Powerset of k atoms; element i is the subset with bitmask i."""
    if k < 0:
        raise SizeError("boolean lattice needs k >= 0")
    n = 1 << k
    pairs = []
    for i in range(n):
        for b in range(k):
            if not i >> b & 1:
                pairs.append((i, i | 1 << b))
    return lattice_from_covers(n, pairs)


def make_mk(k: int) -> Lattice:
    """M_k: bottom 0, atoms 1..k, top k+1."""
    if k < 1:
        raise SizeError("M_k needs k >= 1")
    pairs = [(0, a) for a in range(1, k + 1)] + [(a, k + 1) for a in range(1, k + 1)]
    return lattice_from_covers(k + 2, pairs)


def make_ordinal_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Disjoint union with every element of l1 below every element of l2.

    l1 keeps its indices, l2 is shifted by |l1|.
    """
    s = l1.n
    pairs = list(l1.poset.covers)
    pairs += [(a + s, b + s) for a, b in l2.poset.covers]
    pairs.append((l1.top, l2.bottom + s))
    return lattice_from_covers(s + l2.n, pairs)


def make_l_family(n: int) -> Lattice:
    """The eight-element boolean lattice with an (n-8)-chain stacked on top."""
    if n < 8:
        raise SizeError("family is defined for n >= 8")
    cube = make_boolean(3)
    if n == 8:
        return cube
    return make_ordinal_sum(cube, make_chain(n - 8))


def make_product(l1: Lattice, l2: Lattice) -> Lattice:
    """Direct product; (i, j) becomes index i * |l2| + j."""
    n2 = l2.n
    pairs = []
    for i in range(l1.n):
        for a, b in l2.poset.covers:
            pairs.append((i * n2 + a, i * n2 + b))
    for a, b in l1.poset.covers:
        for j in range(n2):
            pairs.append((a * n2 + j, b * n2 + j))
    return lattice_from_covers(l1.n * n2, pairs)
