"""Planarity of finite lattices.

Two independent routes:

* the forbidden-subposet criterion: a finite lattice is planar exactly
  when no member of the Kelly-Rival catalog embeds as a subposet into it
  or into its dual;
* the covering-graph route: the lattice is planar exactly when its cover
  graph plus a bottom-to-top edge is a planar graph.

The catalog below is generated family by family. The cover lists were
recovered by exhaustive computation (every minimal non-planar lattice
through thirteen elements, modulo duality, against the graph route) and
every release is gated by cross-checking the two routes over the full
enumerated universe of small lattices plus the constructor families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import networkx as nx

from ._kr_data import _FAMILY_BUILDERS, REDUCIBLE_33_ENTRIES, SMALLEST_MEMBER
from .lattice import Lattice, irreducibles, validate_lattice
from .poset import (
    Embedding,
    Poset,
    _bits,
    dual,
    find_embedding,
    is_isomorphic,
    poset_from_covers,
)


class CatalogValidationError(ValueError):
    """A catalog entry violates one of its structural invariants."""


@dataclass(frozen=True)
class KRCatalogEntry:
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


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    witness: tuple[str, Embedding, bool] | None

    def __bool__(self) -> bool:
        return self.planar


# ---------------------------------------------------------------------------
# Catalog (filled in from the transcription; see _FAMILY_COVERS below)
# ---------------------------------------------------------------------------

_SPORADIC = ("B", "C", "D")


def _entry(family: str, index: int, n: int, covers) -> KRCatalogEntry:
    name = family if family in _SPORADIC else f"{family}_{index}"
    poset = poset_from_covers(n, covers)
    jred, mred = _validate_entry(name, family, poset)
    return KRCatalogEntry(
        name=name, family=family, index=index, poset=poset, jred=jred, mred=mred
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
    except Exception as exc:
        raise CatalogValidationError(f"{name}: not a lattice ({exc})") from exc
    if is_planar_graph_oracle(l):
        raise CatalogValidationError(f"{name}: planar, cannot be an obstruction")
    irr = irreducibles(l)
    njred, nmred = len(irr.jred), len(irr.mred)
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
    entries = [e for family in _FAMILY_BUILDERS for e in _family_members(family, max_size)]
    entries.sort(key=lambda e: (e.size, e.name))
    return tuple(entries)


def _family_members(family: str, max_size: int):
    builder = _FAMILY_BUILDERS[family]
    index = 0
    while True:
        spec = builder(index)
        if spec is None:
            return
        n, covers = spec
        if n > max_size:
            return
        yield _entry(family, index, n, covers)
        if family in _SPORADIC:
            return
        index += 1


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def is_planar_kr(l: Lattice) -> PlanarityVerdict:
    """Forbidden-subposet planarity test with an explicit witness.

    An entry K is searched for only where it can embed: by Lemma 3.1(c)
    of the source paper, a lattice embedded as a subposet has no more
    join-reducible and no more meet-reducible elements than its host,
    and the two counts swap on the dual side.
    """
    if l.n < SMALLEST_MEMBER:
        return PlanarityVerdict(planar=True, witness=None)
    irr = irreducibles(l)
    jred, mred = len(irr.jred), len(irr.mred)
    d = dual(l.poset)
    for entry in kr_catalog(l.n):
        if entry.jred <= jred and entry.mred <= mred:
            emb = find_embedding(entry.poset, l.poset)
            if emb is not None:
                return PlanarityVerdict(planar=False, witness=(entry.name, emb, False))
        if entry.jred <= mred and entry.mred <= jred:
            emb = find_embedding(entry.poset, d)
            if emb is not None:
                return PlanarityVerdict(planar=False, witness=(entry.name, emb, True))
    return PlanarityVerdict(planar=True, witness=None)


def cover_graph_edges(l: Lattice) -> list[tuple[int, int]]:
    """Cover graph edges plus the bottom-top closure edge, deduplicated."""
    edges = {tuple(sorted(e)) for e in l.poset.covers}
    if l.n >= 2:
        edges.add(tuple(sorted((l.bottom, l.top))))
    return sorted(edges)


def is_planar_graph_oracle(l: Lattice) -> bool:
    """Graph planarity of the cover graph with the bottom-top edge added."""
    g = nx.Graph()
    g.add_nodes_from(range(l.n))
    g.add_edges_from(cover_graph_edges(l))
    ok, _ = nx.check_planarity(g)
    return ok


def _paths_exist(adj: list[int], pairs: list[tuple[int, int]], free: int) -> bool:
    """Pack internally disjoint paths for all pairs using free vertices."""
    if not pairs:
        return True
    a, b = pairs[0]

    def walk(v: int, used: int) -> bool:
        if adj[v] >> b & 1:
            return _paths_exist(adj, pairs[1:], free & ~used)
        rest = adj[v] & free & ~used
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if walk(w, used | 1 << w):
                return True
        return False

    return walk(a, 0)


def has_kuratowski_subdivision(n: int, edges: list[tuple[int, int]]) -> bool:
    """Exhaustive K5/K33 subdivision search; intended for n <= 12."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    deg = [bin(m).count("1") for m in adj]
    full = (1 << n) - 1

    for branch in combinations([v for v in range(n) if deg[v] >= 4], 5):
        free = full & ~sum(1 << v for v in branch)
        pairs = list(combinations(branch, 2))
        if _paths_exist(adj, pairs, free):
            return True
    cand3 = [v for v in range(n) if deg[v] >= 3]
    for six in combinations(cand3, 6):
        for left in combinations(six, 3):
            if six[0] not in left:
                continue
            right = tuple(v for v in six if v not in left)
            free = full & ~sum(1 << v for v in six)
            pairs = [(a, b) for a in left for b in right]
            if _paths_exist(adj, pairs, free):
                return True
    return False


def is_planar_graph_bruteforce(l: Lattice) -> bool:
    """Kuratowski-subdivision fallback used to validate the fast oracle."""
    return not has_kuratowski_subdivision(l.n, cover_graph_edges(l))


# ---------------------------------------------------------------------------
# Dismantlability
# ---------------------------------------------------------------------------

def is_dismantlable(l: Lattice) -> bool:
    """Greedy removal of doubly irreducible elements down to a point.

    The elements still present form the bitmask ``left``; each step
    removes the lowest-index element with at most one lower and at most
    one upper cover inside it.  Such a removal leaves a sublattice, so
    nothing is revalidated.
    """
    up, down = l.poset.up, l.poset.down
    left = l.poset.full_mask
    while left & (left - 1):
        for x in _bits(left):
            bit = 1 << x
            if _empty_or_greatest(down[x] & left & ~bit, down) and _empty_or_greatest(
                up[x] & left & ~bit, up
            ):
                left &= ~bit
                break
        else:
            return False
    return True


def _empty_or_greatest(mask: int, down: tuple[int, ...]) -> bool:
    """mask is empty or has a greatest element; given up-sets, a least one."""
    return not mask or any(mask & ~down[y] == 0 for y in _bits(mask))
