"""Congruences of a finite lattice.

The counting path goes through the quasiorder on join-irreducible
elements: p is below q when the principal congruence collapsing p with
its lower cover refines the one collapsing q with its lower cover.  That
quasiorder is the reflexive-transitive closure of the dependency
relation p D q (some x has p <= q v x but not p <= q_* v x), which is
read off the arrow relations with bitmasks, without computing any
congruence or join table: p D q exactly when p up-arrow m and
q down-arrow m for some meet-irreducible m (see _dependency_rows).
One pass over the rows, which the lattice keeps and every reader
shares, finds the join- and meet-irreducibles, their masks and every
up-arrow row; a second loop reads the dependencies off them.
Hereditary subsets of the quasiorder are in bijection with congruences
(Freese, Jezek and Nation, Free Lattices, Thm 2.35), so con_count
counts the hereditary subsets straight from the closed rows and their
transpose; no quotient poset is built.  jir_quasiorder builds the
quotient poset for `latcon analyze`, which prints it; counting its
downsets is a second route to the same number.  The independent routes
read only the join and meet tables: the partition oracle, a depth-first
search over set partitions that drops a partial partition at the first
compatibility implication it breaks, and principal_congruence, the
union-find closure of one pair that the tests check the dependency rows
against.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import Lattice, SizeError
from .poset import Poset, _bits, _close_rows, _count_hereditary, quotient_of_quasiorder

# Largest lattice the partition oracle accepts unless told otherwise;
# `latcon analyze` prints its count up to this size.
ORACLE_MAX_N = 10


class Congruence(NamedTuple):
    """Partition of the element set, blocks sorted by least member."""

    blocks: tuple[tuple[int, ...], ...]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def principal_congruence(l: Lattice, a: int, b: int) -> Congruence:
    """con(a, b): the least congruence collapsing a and b.

    Union-find closure over the join and meet tables: whenever two
    blocks merge, all join and meet translates of the merged pair are
    merged as well, to a fixed point.
    """
    n = l.n
    join = l.join
    meet = l.meet
    parent = list(range(n))
    work: list[tuple[int, int]] = []

    def union(a: int, b: int) -> None:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            work.append((ra, rb))

    union(a, b)
    while work:
        x, y = work.pop()
        jx, jy = join[x], join[y]
        mx, my = meet[x], meet[y]
        for z in range(n):
            union(jx[z], jy[z])
            union(mx[z], my[z])
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(_find(parent, x), []).append(x)
    return Congruence(tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])))


def jir_quasiorder(l: Lattice) -> Poset:
    """The quotient poset of the join-irreducibles quasi-ordered by
    refinement of con(p_*, p): the rows of _dependency_rows, with the
    i-th join-irreducible as element i and mutually related ones
    collapsed."""
    jmask, above, _ = _dependency_rows(l)
    jir = _bits(jmask)
    index = {p: i for i, p in enumerate(jir)}
    rel = [sum(1 << index[q] for q in _bits(above[p])) for p in jir]
    return quotient_of_quasiorder(len(jir), rel)


def _dependency_rows(l: Lattice) -> tuple[int, list[int], list[int]]:
    """The join-irreducibles as a mask, the rows of their quasiorder and
    the transposed rows, indexed by element.

    Bit q of above[p], and bit p of below[q], say that con(p_*, p)
    refines con(q_*, q); both are reflexive and transitively closed on
    the join-irreducibles, and the rows of the other elements are 0.

    Built from the dependency relation p D q (p != q, and some x has
    p <= q v x but not p <= q_* v x): its reflexive-transitive closure
    holds at (p, q) exactly when con(p_*, p) refines con(q_*, q)
    (Freese, Jezek, Nation, Free Lattices, Thm 2.35 / Lemma 2.36).

    p D q holds exactly when some meet-irreducible m, with upper cover
    m*, has p up-arrow m (p <= m*, p not <= m) and q down-arrow m
    (q_* <= m, q not <= m); each p with p up-arrow m is in the mask
    down[m*] & ~down[m], which the lattice's kept irreducible pass
    builds (Lattice._irreducible_rows).  Such an m is a witness, since
    q_* v m = m and m* <= q v m.  Conversely, given any witness x, take
    m maximal among the elements above q_* v x that are not above p.
    Then m is not the top, each element strictly above m is above p, and
    two upper covers of m would have the meet m above p; so m has one
    upper cover, which is above p.  And m is not above q, or
    m = q v m >= q v x would be above p.
    """
    up = l.poset.up
    lower, _, jmask, mmask, arrow = l._irreducible_rows
    below = [0] * l.n
    for q, c in lower.items():
        dep = 1 << q
        for m in _bits(up[c] & ~up[q] & mmask):
            dep |= arrow[m]
        below[q] = dep & jmask
    jir = _bits(jmask)
    _close_rows(below, jir)
    above = [0] * l.n
    for q in jir:
        bit = 1 << q
        for p in _bits(below[q]):
            above[p] |= bit
    return jmask, above, below


def con_count(l: Lattice) -> int:
    """|Con(L)|: the hereditary subsets of the join-irreducible quasiorder."""
    jmask, above, below = _dependency_rows(l)
    return _count_hereditary(above, below, jmask)


def con_count_oracle(l: Lattice) -> int:
    """Count the set partitions of the elements that respect join and meet.

    Depth-first over restricted-growth strings: element 0 takes block 0,
    and element k one of the blocks used so far or a new one.  Every
    implication "x ~ y implies x v z ~ y v z and x ^ z ~ y ^ z" with
    x < y is checked at the step where the last of its four elements
    gets a block (sides that are equal, or are x and y again, hold
    trivially), and a prefix that breaks one is dropped with all its
    extensions.  The leaves reached are exactly the partitions meeting
    every implication.  Reads only the join and meet tables, so it is
    independent of the quasiorder route.
    """
    n = l.n
    if n > ORACLE_MAX_N:
        raise SizeError(f"partition oracle capped at n = {ORACLE_MAX_N}")
    join, meet = l.join, l.meet
    checks: list[set[tuple[int, int, int, int]]] = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            for row_x, row_y in ((join[x], join[y]), (meet[x], meet[y])):
                for a, b in zip(row_x, row_y):
                    if a > b:
                        a, b = b, a
                    if a != b and (a, b) != (x, y):
                        checks[max(y, b)].add((x, y, a, b))
    code = [0] * n

    def extend(k: int, used: int) -> int:
        if k == n:
            return 1
        found = 0
        for block in range(used + 1):
            code[k] = block
            for x, y, a, b in checks[k]:
                if code[x] == code[y] and code[a] != code[b]:
                    break
            else:
                found += extend(k + 1, used + (block == used))
        return found

    return extend(1, 1)


def exceeds_threshold(n: int, con: int) -> bool:
    """con strictly above 2^(n-5), the paper's bound for n elements.

    For n < 5 the threshold is a fraction below 1, so any count
    qualifies; the comparison stays in exact integer arithmetic.
    """
    return n < 5 or con > 1 << (n - 5)
