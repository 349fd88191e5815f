"""Test-only oracles: slow, independent routes the fast code is checked against."""

from itertools import combinations

from latcon.lattice import Lattice
from latcon.planarity import cover_graph_edges


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
    """Kuratowski-subdivision search, the check on the networkx graph oracle."""
    return not has_kuratowski_subdivision(l.n, cover_graph_edges(l))
