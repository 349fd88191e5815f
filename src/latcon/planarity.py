"""Planarity of finite lattices.

Two independent routes:

* the dimension route, the one the commands decide by: a finite lattice
  is planar exactly when its order dimension is at most 2 (Baker,
  Fishburn and Roberts 1971), and then :func:`planar_realizer` returns
  two linear extensions whose intersection is the order, checked by
  :func:`realizer_is_valid`; ``analyze`` reads it for its ``planar=``
  and ``planar_graph=`` lines, one TRO per input.  Only the sweep
  places (see :func:`planar_and_dismantlable`, which also settles its
  dismantlability verdicts): dimension does not grow on subposets, and
  a lattice with its bottom last and an atom x before it, as every leaf
  of the growth, is P + x + the bottom, P its first n - 2 elements.
  Where x fits into P's 2-realizer, the lattice's is placed from it and
  checked.  A lattice whose P has no 2-realizer has none either, since
  P's incomparability graph is an induced subgraph of its own: it is
  non-planar with no TRO of its own.  TRO runs once on each parent with
  leaves and on each leaf not placed into its parent's 2-realizer,
  2,379 times at n = 10;
* the forbidden-subposet criterion: a finite lattice is planar exactly
  when no member of the Kelly-Rival catalog embeds as a subposet into it
  or into its dual; a non-planar verdict carries the embedding, checked
  before it is returned.  Only ``analyze``'s ``planar_kr=`` and
  ``witness=`` lines read it, its prefilter from the irreducible pass
  the lattice keeps, and the tests compare it with the first route.

The catalog is built from the table in ``_kr_data`` and the A family,
and every entry is proven non-planar by the dimension route when it is
built.  Its reference is the oracle ``minimal_nonplanar`` in
``tests/oracles.py``, which sweeps every class, keeps the non-planar
ones into which no smaller obstruction embeds, directly or dually, and
gives exactly the catalog's entries: through ten elements in the tests,
eleven in CI and thirteen by a manual run.  The covering-graph
route, :func:`is_planar_graph_oracle`, needs networkx and serves the
tests as a third, external cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Literal, NamedTuple

from ._kr_data import MEMBERS, REDUCIBLE_33_ENTRIES, _a_family
from .lattice import Lattice, NotLatticeError, _reducible_counts, validate_lattice
from .poset import (
    Embedding,
    Poset,
    _bits,
    _poset_from_up,
    dual,
    embedding_is_valid,
    find_embedding,
    is_isomorphic,
    poset_from_covers,
)


class CatalogValidationError(ValueError):
    """A catalog entry violates one of its structural invariants."""


class KRCatalogEntry(NamedTuple):
    """One forbidden lattice: family tag, index within the family, poset,
    and its numbers of join- and meet-reducible elements."""

    name: str
    family: str
    index: int
    poset: Poset
    jred: int
    mred: int

    @property
    def size(self) -> int:
        return self.poset.n


class PlanarityVerdict(NamedTuple):
    planar: bool
    witness: tuple[str, Embedding, bool] | None


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _entry(name: str, n: int, covers) -> KRCatalogEntry:
    """The validated entry; its family and index are read from the name."""
    family, _, index = name.partition("_")
    poset = poset_from_covers(n, covers)
    jred, mred = _validate_entry(name, family, poset)
    return KRCatalogEntry(
        name=name,
        family=family,
        index=int(index or 0),
        poset=poset,
        jred=jred,
        mred=mred,
    )


def _validate_entry(name: str, family: str, poset: Poset) -> tuple[int, int]:
    """Structural invariants; violations would mean a transcription error.

    Returns the entry's |Jred| and |Mred|.

    The source characterization suggests every member apart from E_0 and
    F_0 has at least four join-reducible or four meet-reducible elements;
    the exhaustively computed list refutes that for exactly one more
    member (G_0, with three and three), so that entry is a documented
    exception rather than a validation failure.
    """
    try:
        l = validate_lattice(poset)
    except NotLatticeError as exc:
        raise CatalogValidationError(f"{name}: not a lattice ({exc})") from exc
    if planar_realizer(l) is not None:
        raise CatalogValidationError(f"{name}: planar, cannot be an obstruction")
    njred, nmred = _reducible_counts(l)
    if name in REDUCIBLE_33_ENTRIES:
        if njred != 3 or nmred != 3:
            raise CatalogValidationError(
                f"{name}: expected |Jred| = |Mred| = 3, got {njred}, {nmred}"
            )
    elif njred < 4 and nmred < 4:
        raise CatalogValidationError(
            f"{name}: expected |Jred| >= 4 or |Mred| >= 4, got {njred}, {nmred}"
        )
    if family == "A":
        if not is_isomorphic(poset, dual(poset)):
            raise CatalogValidationError(f"{name}: not self-dual")
    return njred, nmred


@lru_cache(maxsize=None)
def kr_catalog(max_size: int) -> tuple[KRCatalogEntry, ...]:
    """All catalog members with at most max_size elements, validated."""
    if max_size < 1:
        raise ValueError("max_size must be positive")
    entries = [_entry(name, n, covers) for name, (n, covers) in MEMBERS.items() if n <= max_size]
    # A_i has 2i + 8 elements.
    entries += [_entry(f"A_{i}", *_a_family(i)) for i in range((max_size - 6) // 2)]
    entries.sort(key=lambda e: (e.size, e.name))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def is_planar_kr(l: Lattice) -> PlanarityVerdict:
    """Forbidden-subposet planarity test with an explicit witness."""
    for entry, host, into_dual in _searches(l):
        verdict = _witnessed(entry, host, into_dual)
        if verdict is not None:
            return verdict
    return PlanarityVerdict(planar=True, witness=None)


def _searches(l: Lattice) -> Iterator[tuple[KRCatalogEntry, Poset, bool]]:
    """(entry, host, into_dual) for each embedding search is_planar_kr makes, in order.

    By Lemma 3.1(c) of the source paper, a lattice embedded as a
    subposet has no more join-reducible and no more meet-reducible
    elements than its host, and the two counts swap on the dual side, so
    an entry is searched for only where its counts fit.
    """
    jred, mred = _reducible_counts(l)
    d = dual(l.poset)
    for entry in kr_catalog(l.n):
        if entry.jred <= jred and entry.mred <= mred:
            yield entry, l.poset, False
        if entry.jred <= mred and entry.mred <= jred:
            yield entry, d, True


def _witnessed(entry: KRCatalogEntry, host: Poset, into_dual: bool) -> PlanarityVerdict | None:
    """The non-planar verdict for an embedding of entry into host, checked."""
    emb = find_embedding(entry.poset, host)
    if emb is None:
        return None
    if not embedding_is_valid(entry.poset, host, emb):
        raise RuntimeError(f"{entry.name}: find_embedding returned an invalid embedding")
    return PlanarityVerdict(planar=False, witness=(entry.name, emb, into_dual))


def cover_graph_edges(l: Lattice) -> list[tuple[int, int]]:
    """Cover graph edges plus the bottom-top closure edge, deduplicated."""
    edges = {tuple(sorted(e)) for e in l.poset.covers}
    if l.n >= 2:
        edges.add(tuple(sorted((l.bottom, l.top))))
    return sorted(edges)


def is_planar_graph_oracle(l: Lattice) -> bool:
    """Graph planarity of the cover graph with the bottom-top edge added."""
    # Imported here: networkx is only a test dependency, and importing it
    # would slow down the start-up of every command.
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(l.n))
    g.add_edges_from(cover_graph_edges(l))
    ok, _ = nx.check_planarity(g)
    return ok


# ---------------------------------------------------------------------------
# Order dimension at most 2
# ---------------------------------------------------------------------------

Realizer = tuple[tuple[int, ...], tuple[int, ...]]


def planar_realizer(l: Lattice) -> Realizer | None:
    """Two linear extensions whose intersection is the order, or None.

    A finite lattice is planar exactly when its order dimension is at
    most 2 (Baker, Fishburn and Roberts 1971).  An order has a 2-realizer
    exactly when its incomparability graph has a transitive orientation
    T (Dushnik and Miller 1941), and then P + T and P + T^-1 are one.
    Each linear extension is given as up-rows, like ``Poset.up``: bit j
    of row i says i <= j.  None means the dimension is above 2.
    """
    return _realizer(l.poset)


def _realizer(p: Poset) -> Realizer | None:
    """planar_realizer for any finite poset, checked before it is returned."""
    incomparable = [p.full_mask & ~(p.up[x] | p.down[x]) for x in range(p.n)]
    t = _transitive_orientation(incomparable)
    if t is None:
        return None
    # T^-1 holds the incomparable pairs that T does not.
    realizer = (
        tuple(u | r for u, r in zip(p.up, t)),
        tuple(u | (i & ~r) for u, i, r in zip(p.up, incomparable, t)),
    )
    if not realizer_is_valid(p, *realizer):
        raise RuntimeError("transitive orientation gave an invalid 2-realizer")
    return realizer


def _placed_realizer(l: Lattice) -> Realizer | None | Literal[False]:
    """A 2-realizer of l placed into that of P = range(k), False or None.

    The placement needs l in the layout of the growth's leaves: k = n - 2,
    the bottom is element k + 1, and x = k is an atom.  Then nothing in P
    lies below x or the bottom, so P's up-rows are l's first k rows and l
    is P + x + the bottom, with the up-set U of x in P above x.  Take P's
    2-realizer (L1, L2).  Where a suffix S1 of L1 and a suffix S2 of L2
    have S1 & S2 = U and S1 | S2 = P, x goes just below S1 in L1 and just
    below S2 in L2, and the bottom first in both: above x in both lies
    exactly U, below it in both only the bottom, as below an atom.  Each
    suffix of L1 that holds U is tried as S1, and S2 = U | (P - S1) must
    then be a suffix of L2, that is one of its rows; at most k tries of
    O(k) mask operations each.  The placed realizer is checked before it
    is returned.

    False where P has no 2-realizer: P's incomparability graph is an
    induced subgraph of l's, so l has none either.  None outside the
    layout or where no two suffixes fit; planar_realizer then decides l
    on its own.
    """
    p = l.poset
    k = p.n - 2
    full = (1 << k + 2) - 1
    if k < 1 or p.up[k + 1] != full or p.down[k].bit_count() != 2:
        return None
    mask = (1 << k) - 1
    # P's down-rows are l's less x and the bottom: P computes none, and the
    # leaves of one parent give one key.
    orders = _parent_realizer(p.up[:k], tuple([row & mask for row in p.down[:k]]))
    if orders is None:
        return False
    l1, l2 = orders
    upset = p.up[k] ^ 1 << k
    for s1 in l1:
        s2 = upset | mask & ~s1
        if not upset & ~s1 and s2 in l2:
            break
    else:
        return None
    # An element lies in the suffix S exactly when its row lies in S; the
    # others go below x, so x joins their rows.
    x = 1 << k
    realizer = (
        (*[row | x if row & ~s1 else row for row in l1], s1 | x, full),
        (*[row | x if row & ~s2 else row for row in l2], s2 | x, full),
    )
    if not realizer_is_valid(p, *realizer):
        raise RuntimeError("placement gave an invalid 2-realizer")
    return realizer


@lru_cache(maxsize=1)
def _parent_realizer(up: tuple[int, ...], down: tuple[int, ...]) -> Realizer | None:
    """The 2-realizer of the poset with these up- and down-rows, or None.

    One entry is enough: the growth yields the leaves of one parent one
    after another, so TRO runs once per parent, when its first leaf asks,
    and a sweep that decides no planarity runs none.
    """
    return _realizer(_poset_from_up(up, down))


def _transitive_orientation(adj: list[int]) -> list[int] | None:
    """Rows of a transitive orientation of the graph, or None if it has none.

    Golumbic's TRO (Algorithmic Graph Theory and Perfect Graphs, ch. 5):
    take an edge a -> b of the remaining graph and grow its implication
    class there by Gamma-forcing (a -> b forces a -> c when c is a
    neighbour of a but not of b, and c -> b when c is a neighbour of b
    but not of a), then orient the class and remove its edges.  A class
    holding an edge in both directions means no transitive orientation
    exists.  ``adj[v]`` is the neighbourhood of v; bit y of row x of the
    result says x -> y.
    """
    n = len(adj)
    adj = list(adj)
    out = [0] * n
    for a in range(n):
        while adj[a]:
            b = (adj[a] & -adj[a]).bit_length() - 1
            fwd = [0] * n  # the class: bit y of fwd[x] says x -> y
            bwd = [0] * n  # its transpose
            fwd[a], bwd[b] = 1 << b, 1 << a
            stack = [(a, b)]
            while stack:
                x, y = stack.pop()
                heads = adj[x] & ~adj[y] & ~(1 << y) & ~fwd[x]
                tails = adj[y] & ~adj[x] & ~(1 << x) & ~bwd[y]
                if heads & bwd[x] or tails & fwd[y]:
                    return None
                fwd[x] |= heads
                bwd[y] |= tails
                for z in _bits(heads):
                    bwd[z] |= 1 << x
                    stack.append((x, z))
                for z in _bits(tails):
                    fwd[z] |= 1 << y
                    stack.append((z, y))
            for x in range(n):
                out[x] |= fwd[x]
                adj[x] &= ~(fwd[x] | bwd[x])
    return out


def realizer_is_valid(p: Poset, l1: tuple[int, ...], l2: tuple[int, ...]) -> bool:
    """l1 and l2 are linear orders on p's elements meeting in exactly p.

    O(n) row operations of n bits each.
    """
    return (
        _is_linear_order(l1, p.n)
        and _is_linear_order(l2, p.n)
        and all(a & b == u for a, b, u in zip(l1, l2, p.up))
    )


def _is_linear_order(rows: tuple[int, ...], n: int) -> bool:
    """rows are the up-rows of a linear order on range(n).

    Sorted by row size, the k-th smallest row must be exactly the k
    elements it holds so far: the top alone, then the top two, and so on.
    """
    if len(rows) != n:
        return False
    above = 0
    for x in sorted(range(n), key=lambda x: rows[x].bit_count()):
        above |= 1 << x
        if rows[x] != above:
            return False
    return True


# ---------------------------------------------------------------------------
# Dismantlability
# ---------------------------------------------------------------------------

def planar_and_dismantlable(l: Lattice) -> tuple[bool, bool]:
    """A sweep leaf's verdicts: a checked 2-realizer, and dismantlability.

    The realizer is placed where l is in the layout of the growth's
    leaves and fits, and l is non-planar with no TRO of its own where P
    has no 2-realizer (see _placed_realizer); elsewhere planar_realizer
    decides from scratch.  Every finite planar lattice is dismantlable
    (Kelly and Rival, "Crowns, fences, and dismantlable lattices", 1974),
    so only the others are dismantled; some of them are dismantlable
    too."""
    realizer = _placed_realizer(l)
    if realizer is None:
        realizer = planar_realizer(l)
    planar = bool(realizer)
    return planar, planar or is_dismantlable(l)


def is_dismantlable(l: Lattice) -> bool:
    """Removal of doubly irreducible elements, in passes, down to a point.

    The elements still present form the bitmask ``left``.  Each pass
    removes, in index order, every element with at most one lower and at
    most one upper cover inside it, and the passes repeat until one
    removes nothing.  Such a removal leaves a sublattice, so nothing is
    revalidated, and it keeps every other doubly irreducible element
    doubly irreducible (the removed element's one lower or upper cover
    takes its place), so the verdict is that of removing one element at
    a time.
    """
    up, down = l.poset.up, l.poset.down
    left = l.poset.full_mask
    while left & (left - 1):
        before = left
        for x in _bits(left):
            bit = 1 << x
            if _empty_or_greatest(down[x] & left & ~bit, down) and _empty_or_greatest(
                up[x] & left & ~bit, up
            ):
                left &= ~bit
        if left == before:
            return False
    return True


def _empty_or_greatest(mask: int, down: tuple[int, ...]) -> bool:
    """mask is empty or has a greatest element; given up-sets, a least one.

    About half the masks met while dismantling hold at most one element,
    and those are settled before any row is read.
    """
    if not mask & (mask - 1):
        return True
    rest = mask
    while rest:
        b = rest & -rest
        if mask & ~down[b.bit_length() - 1] == 0:
            return True
        rest ^= b
    return False
