"""Lattice validation, join/meet tables, irreducibles and constructors.

A lattice is kept as its poset's relation rows: the lub of i and j is
the element whose up-row is ``up[i] & up[j]``, the glb the one whose
down-row is ``down[i] & down[j]``, and p is join-irreducible with lower
cover c exactly when its strict down-set is ``down[c]``.  Each is one
dict lookup, so the per-class layers of a sweep build no n x n table.
Validation looks up lubs only: a finite poset with a least element in
which every pair has a lub is a lattice, since the glb of a pair is the
lub of its common lower bounds.  The join and meet tables are built on
first use, for the callers that read many entries.  A lattice keeps the
up-row index validation built.  ``_irreducibles`` is the one place that
finds the join- and meet-irreducibles: one pass over the rows gives both
with their covers, their masks and the up-arrow row of each
meet-irreducible.  The lattice keeps that pass as ``_irreducible_rows``,
its one caller, and every reader shares it, so a lattice runs one pass
whichever reader asks first: the congruence count, the only one in a
sweep, and ``lower_covers`` and ``upper_covers``, read by
``_reducible_counts`` (the catalog search's prefilter in ``latcon
analyze``) and ``irreducibles`` (the four counts it prints).
"""

from __future__ import annotations

from functools import cached_property

from .poset import Poset, _Immutable, dual, poset_from_covers


class NotLatticeError(ValueError):
    """Carries a pair missing a lub or glb, as validate_lattice picks it."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class SizeError(ValueError):
    """A constructor precondition on the size parameter is violated."""


class Lattice(_Immutable):
    """A validated lattice: its poset, bottom and top.

    ``join`` and ``meet`` are the total n x n tables, built on first use
    from the poset's up- and down-rows.  ``up_index`` maps each up-row to
    its element (validate_lattice stores the one it built), and
    ``lower_covers`` and ``upper_covers`` map each join- or
    meet-irreducible element to its one lower or upper cover, both read
    from the kept ``_irreducible_rows``.  None of these is a field, so
    equality and the hash depend on the poset, bottom and top only; the
    dicts are shared and must not be mutated.
    """

    poset: Poset
    bottom: int
    top: int

    def __init__(self, poset: Poset, bottom: int, top: int):
        self.__dict__.update(poset=poset, bottom=bottom, top=top)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poset, self.bottom, self.top) == (other.poset, other.bottom, other.top)

    def __hash__(self) -> int:
        return hash((self.poset, self.bottom, self.top))

    @property
    def n(self) -> int:
        return self.poset.n

    @cached_property
    def join(self) -> tuple[tuple[int, ...], ...]:
        return _table(self.poset.up)

    @cached_property
    def meet(self) -> tuple[tuple[int, ...], ...]:
        return _table(self.poset.down)

    @cached_property
    def up_index(self) -> dict[int, int]:
        return {row: i for i, row in enumerate(self.poset.up)}

    @cached_property
    def _irreducible_rows(self) -> tuple[dict[int, int], dict[int, int], int, int, list[int]]:
        return _irreducibles(self)

    @property
    def lower_covers(self) -> dict[int, int]:
        return self._irreducible_rows[0]

    @property
    def upper_covers(self) -> dict[int, int]:
        return self._irreducible_rows[1]

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lattice(n={self.n}, covers={list(self.poset.covers)})"


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


def _table(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is the element whose row is rows[i] & rows[j].

    On up-rows this is the join table, on down-rows the meet table; the
    rows must be a lattice's.
    """
    index = {row: i for i, row in enumerate(rows)}
    return tuple(tuple([index[a & b] for b in rows]) for a in rows)


def _irreducibles(l: Lattice) -> tuple[dict[int, int], dict[int, int], int, int, list[int]]:
    """One pass over the rows: the join-irreducibles with their lower
    covers, the meet-irreducibles with their upper covers, the masks of
    both, and the up-arrow row of each meet-irreducible m with upper
    cover m*, down[m*] & ~down[m] (the p with p <= m* and p not <= m),
    indexed by element and 0 for the others.

    x is join-irreducible with lower cover c exactly when its strict
    down-set is down[c], and meet-irreducible with upper cover c when its
    strict up-set is up[c]; each is one dict lookup.
    """
    up, down = l.poset.up, l.poset.down
    by_up = l.up_index
    by_down = {row: i for i, row in enumerate(down)}
    lower: dict[int, int] = {}
    upper: dict[int, int] = {}
    jmask = mmask = 0
    arrow = [0] * len(up)
    for x, row in enumerate(down):
        bit = 1 << x
        c = by_down.get(row ^ bit)
        if c is not None:
            lower[x] = c
            jmask |= bit
        c = by_up.get(up[x] ^ bit)
        if c is not None:
            upper[x] = c
            mmask |= bit
            arrow[x] = down[c] & ~row
    return lower, upper, jmask, mmask, arrow


def validate_lattice(p: Poset) -> Lattice:
    """Check a unique bottom and top and a lub for every pair.

    Raises NotLatticeError naming a failing pair: without a unique
    bottom the first two minimal elements, as missing a glb, else without
    a unique top the first two maximal ones, as missing a lub (on
    0, 1 < 2, 3 that is "no glb for (0, 1)", though (0, 1) has no lub
    either); otherwise the first pair in index order missing a lub or a
    glb, its lub checked first.  The returned lattice keeps the up-row
    index built here as its ``up_index``.
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
    # up-set.  With a bottom, lubs for all pairs make a lattice, so glbs are
    # looked up only to name the first failing pair.
    up = p.up
    by_up = {row: i for i, row in enumerate(up)}
    for i, ui in enumerate(up):
        for uj in up[i + 1 :]:
            if ui & uj not in by_up:
                raise _first_failure(p, by_up)
    l = Lattice(poset=p, bottom=bottoms[0], top=tops[0])
    vars(l)["up_index"] = by_up
    return l


def _first_failure(p: Poset, by_up: dict[int, int]) -> NotLatticeError:
    """The error naming the first pair that misses a lub or a glb; some pair must."""
    up, down = p.up, p.down
    by_down = {row: i for i, row in enumerate(down)}
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if up[i] & up[j] not in by_up:
                return NotLatticeError(f"no lub for ({i}, {j})", (i, j))
            if down[i] & down[j] not in by_down:
                return NotLatticeError(f"no glb for ({i}, {j})", (i, j))
    raise RuntimeError("a pair without a lub was not found again")


def lattice_from_covers(n: int, pairs) -> Lattice:
    return validate_lattice(poset_from_covers(n, pairs))


def dual_lattice(l: Lattice) -> Lattice:
    """The order reversed; its join table is l's meet table and vice versa."""
    return Lattice(poset=dual(l.poset), bottom=l.top, top=l.bottom)


def _reducible_counts(l: Lattice) -> tuple[int, int]:
    """|Jred| and |Mred|: the elements other than the bottom that are not
    join-irreducible, and those other than the top that are not
    meet-irreducible."""
    return l.n - 1 - len(l.lower_covers), l.n - 1 - len(l.upper_covers)


def irreducibles(l: Lattice) -> tuple[int, int, int, int]:
    """|Jir|, |Mir|, |Jred| and |Mred|, the counts ``latcon analyze`` prints."""
    return len(l.lower_covers), len(l.upper_covers), *_reducible_counts(l)


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
