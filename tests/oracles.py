"""Test-only oracles: slow, independent routes the fast code is checked against.

Two more such routes stay in latcon, because perfbench's tracer lists
them and its self-test requires every name it lists: the union-find
principal congruence and the networkx graph-planarity oracle.  They are
imported here with the others.
"""

from itertools import combinations
from typing import Sequence

from latcon.congruence import Congruence, principal_congruence
from latcon.lattice import Lattice, NotLatticeError, SizeError, _minimal_of, lattice_from_covers
from latcon.planarity import cover_graph_edges, is_planar_graph_oracle, planar_realizer
from latcon.poset import (
    Poset,
    _bits,
    _poset_from_up,
    canonical_form,
    canonical_relabel,
    count_downsets,
    dual,
    find_embedding,
    quotient_of_quasiorder,
)


Table = tuple[tuple[int, ...], ...]

# The pentagon: 0 < 1 < 3 < 4 and 0 < 2 < 4.
N5 = lattice_from_covers(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])


def validate_lattice_eager(p: Poset) -> tuple[Table, Table, int, int]:
    """(join, meet, bottom, top) by a full scan that fills both tables.

    Checks a unique bottom and top, then every pair in index order, its
    lub before its glb, and raises NotLatticeError at the first failure:
    the scan validate_lattice made before it looked up lubs only.
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
            raise NotLatticeError(f"no glb for ({mins[0]}, {mins[1]})", (mins[0], mins[1]))
        maxs = _minimal_of(full, p.up)
        raise NotLatticeError(f"no lub for ({maxs[0]}, {maxs[1]})", (maxs[0], maxs[1]))
    up, down = p.up, p.down
    by_up = {row: i for i, row in enumerate(up)}
    by_down = {row: i for i, row in enumerate(down)}
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        join[i][i] = meet[i][i] = i
        for j in range(i + 1, n):
            lub = by_up.get(up[i] & up[j])
            if lub is None:
                raise NotLatticeError(f"no lub for ({i}, {j})", (i, j))
            glb = by_down.get(down[i] & down[j])
            if glb is None:
                raise NotLatticeError(f"no glb for ({i}, {j})", (i, j))
            join[i][j] = join[j][i] = lub
            meet[i][j] = meet[j][i] = glb
    return tuple(map(tuple, join)), tuple(map(tuple, meet)), bottoms[0], tops[0]


def dependency_rel_all_x(l: Lattice) -> tuple[int, ...]:
    """The rows of congruence._dependency_rows(l) on the join-irreducibles,
    the i-th as element i, with every element x tried as a witness of
    p D q (p <= q v x, not p <= q_* v x): the loop the quasiorder ran
    before it read the arrow relations of the meet-irreducibles."""
    up, down = l.poset.up, l.poset.down
    lower = l.lower_covers
    jir = tuple(lower)
    m = len(jir)
    by_up = {row: i for i, row in enumerate(up)}
    rel = [1 << i for i in range(m)]
    for b, q in enumerate(jir):
        uq, us = up[q], up[lower[q]]
        dep = 0
        for ux in up:
            dep |= down[by_up[uq & ux]] & ~down[by_up[us & ux]]
        for a, p in enumerate(jir):
            if dep >> p & 1:
                rel[a] |= 1 << b
    for k in range(m):
        for i in range(m):
            if rel[i] >> k & 1:
                rel[i] |= rel[k]
    return tuple(rel)


def is_dismantlable_restart(l: Lattice) -> bool:
    """Remove one doubly irreducible element at a time, each time the
    lowest-index one, until one element is left or none can go: the loop
    is_dismantlable ran before it removed elements in passes, with the
    cover test it ran then."""

    def empty_or_greatest(mask: int, down: tuple[int, ...]) -> bool:
        return not mask or any(mask & ~down[y] == 0 for y in _bits(mask))

    up, down = l.poset.up, l.poset.down
    left = l.poset.full_mask
    while left & (left - 1):
        for x in _bits(left):
            bit = 1 << x
            if empty_or_greatest(down[x] & left & ~bit, down) and empty_or_greatest(
                up[x] & left & ~bit, up
            ):
                left &= ~bit
                break
        else:
            return False
    return True


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


class IntervalError(ValueError):
    """An interval endpoint pair is not ordered."""


def transposes_up(l: Lattice, a: int, b: int, c: int, d: int) -> bool:
    """[a,b] transposes up to [c,d]: b meet c = a and b join c = d."""
    if not l.leq(a, b):
        raise IntervalError(f"{a} is not below {b}")
    if not l.leq(c, d):
        raise IntervalError(f"{c} is not below {d}")
    return l.meet[b][c] == a and l.join[b][c] == d


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


def refines(c1: Congruence, c2: Congruence) -> bool:
    """c1 <= c2 in Con(L): every block of c1 lies inside a block of c2."""
    idx2 = {x: b for b, block in enumerate(c2.blocks) for x in block}
    return all(len({idx2[x] for x in block}) == 1 for block in c1.blocks)


def _row_pairs(l: Lattice) -> list[tuple[int, int, list[tuple[int, int, int, int]]]]:
    """(x, y, [(x v z, y v z, x ^ z, y ^ z) for each z]) for every x < y."""
    join, meet = l.join, l.meet
    return [
        (x, y, list(zip(join[x], join[y], meet[x], meet[y])))
        for x in range(l.n)
        for y in range(x + 1, l.n)
    ]


def _compatible(pairs, code) -> bool:
    """Whether the partition with block index code[x] for each x respects join and meet.

    pairs is _row_pairs(l): when x and y share a block, x v z and y v z
    must share one, and so must x ^ z and y ^ z.
    """
    for x, y, rows in pairs:
        if code[x] == code[y]:
            for a, b, c, d in rows:
                if code[a] != code[b] or code[c] != code[d]:
                    return False
    return True


def is_congruence(l: Lattice, blocks) -> bool:
    """Compatibility of an arbitrary partition with join and meet."""
    idx = [0] * l.n
    for b, block in enumerate(blocks):
        for x in block:
            idx[x] = b
    return _compatible(_row_pairs(l), idx)


def _iter_partitions(n: int):
    """Set partitions of range(n) as restricted-growth block-index lists."""
    code = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield code
            return
        for b in range(used + 1):
            code[i] = b
            yield from rec(i + 1, used if b < used else used + 1)

    if n == 0:
        yield []
        return
    yield from rec(1, 1)


def con_count_bruteforce(l: Lattice) -> int:
    """Count congruences by checking every set partition for compatibility."""
    pairs = _row_pairs(l)
    return sum(_compatible(pairs, code) for code in _iter_partitions(l.n))


class NotQuasiorderError(ValueError):
    """A relation claimed to be a quasiorder is not reflexive-transitive."""


def count_hereditary_quasi(n: int, rel: Sequence[Sequence[bool]]) -> int:
    """Hereditary subsets of a quasiorder via its quotient poset."""
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                rows[i] |= 1 << j
    for i in range(n):
        if not rows[i] >> i & 1:
            raise NotQuasiorderError(f"relation not reflexive at {i}")
        rest = rows[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[j] & ~rows[i]:
                raise NotQuasiorderError(f"relation not transitive through ({i}, {j})")
    return count_downsets(quotient_of_quasiorder(n, rows))


def enumerate_lattices_oracle(n: int) -> int:
    """Isomorphism-class count by brute force over naturally labeled posets.

    Chooses for each j in turn a down-closed strict down-set among
    0..j-1, which reaches every poset whose relation respects the index
    order; every isomorphism class has such a labeling.  Under this
    labeling meets never change once both elements exist, so pairs
    without a glb prune immediately; joins and the unique top are checked
    at the leaves.  Lattices are deduplicated by canonical form.
    """
    if n < 1:
        raise SizeError("lattices need n >= 1")
    if n > 7:
        raise SizeError("oracle capped at n = 7")
    if n == 1:
        return 1

    forms: set[bytes] = set()
    downfull = [1 << i for i in range(n)]

    def downsets_of_prefix(j: int):
        def rec(k: int, cur: int):
            if k == j:
                yield cur
                return
            yield from rec(k + 1, cur)
            if downfull[k] & ~cur == 1 << k:
                yield from rec(k + 1, cur | 1 << k)

        yield from rec(0, 0)

    def meets_ok(j: int) -> bool:
        dj = downfull[j]
        for i in range(j):
            common = downfull[i] & dj
            if not common:
                return False
            w = common.bit_length() - 1
            if common & ~downfull[w]:
                return False
        return True

    def joins_ok() -> bool:
        up = [0] * n
        for i in range(n):
            for k in _bits(downfull[i]):
                up[k] |= 1 << i
        if sum(1 for i in range(n) if downfull[i] == (1 << n) - 1) != 1:
            return False
        for i in range(n):
            for j in range(i + 1, n):
                common = up[i] & up[j]
                if not common:
                    return False
                w = (common & -common).bit_length() - 1
                if common & ~up[w]:
                    return False
        forms.add(canonical_form(_poset_from_up(up)))
        return True

    def build(j: int) -> None:
        if j == n:
            joins_ok()
            return
        for d in downsets_of_prefix(j):
            downfull[j] = d | 1 << j
            if meets_ok(j):
                build(j + 1)
        downfull[j] = 1 << j

    build(0)
    return len(forms)


def twin_groups_bruteforce(p: Poset) -> set[int]:
    """The twin classes of two or more elements, as masks, by comparing
    every pair: u and v are twins when they are incomparable and every
    third element is below (above) u exactly when it is below (above) v."""

    def twins(u: int, v: int) -> bool:
        if u == v:
            return True
        if p.up[u] >> v & 1 or p.up[v] >> u & 1:
            return False
        return all(
            p.up[u] >> w & 1 == p.up[v] >> w & 1 and p.up[w] >> u & 1 == p.up[w] >> v & 1
            for w in range(p.n)
            if w not in (u, v)
        )

    classes = {sum(1 << v for v in range(p.n) if twins(u, v)) for u in range(p.n)}
    return {c for c in classes if c & (c - 1)}


def subposet(p: Poset, elements: Sequence[int]) -> Poset:
    """Induced subposet on the given elements, relabelled 0..len-1."""
    return _poset_from_up(
        [sum(1 << b for b, j in enumerate(elements) if p.up[i] >> j & 1) for i in elements]
    )


def passes_tied_deletion_rule(c: Poset, p: Poset) -> bool:
    """The growth's acceptance rule before its orbit test: C minus its
    canonical deletion is isomorphic to the parent p.

    c is a child C = p + x as the growth hands it on: a semilattice with
    one element more than p, or C with a bottom added, a lattice with
    two more.  The canonical deletion is the minimal element of C (an
    atom of the lattice) with the largest invariant (|up|, sum of |up(j)|
    over up) and, among ties, the least position in c's canonical
    labelling.  This rule lets repeats through: C - star and C - x can be
    isomorphic without an automorphism of C that maps x to star.
    """
    position = canonical_relabel(c)[1]
    bottom = [i for i in range(c.n) if c.up[i] == c.full_mask] if c.n == p.n + 2 else []
    floor = sum(1 << i for i in bottom)
    minimal = [i for i in range(c.n) if i not in bottom and c.down[i] & ~floor == 1 << i]
    size = [row.bit_count() for row in c.up]
    invariant = {i: (size[i], sum(size[j] for j in _bits(c.up[i]))) for i in minimal}
    best = max(invariant.values())
    star = min((i for i in minimal if invariant[i] == best), key=position.__getitem__)
    rest = [i for i in range(c.n) if i != star and i not in bottom]
    return canonical_form(subposet(c, rest)) == canonical_form(p)


def count_isomorphisms(p: Poset, q: Poset, limit: int = 0) -> int:
    """The number of order isomorphisms from p onto q, counting stops at
    limit when limit > 0.  Every image is tried for each element of p in
    turn, and a partial map is dropped at the first relation it does not
    preserve in both directions; colours, twins and canonical labels play
    no part."""
    n = p.n
    if q.n != n:
        return 0
    image: list[int] = []

    def extend(i: int, used: int) -> int:
        if i == n:
            return 1
        found = 0
        for v in range(n):
            if used >> v & 1:
                continue
            if all(
                p.up[i] >> j & 1 == q.up[v] >> image[j] & 1 and p.up[j] >> i & 1 == q.up[image[j]] >> v & 1
                for j in range(i)
            ):
                image.append(v)
                found += extend(i + 1, used | 1 << v)
                image.pop()
                if limit and found >= limit:
                    break
        return found

    return extend(0, 0)


def count_automorphisms(p: Poset) -> int:
    """The number of order automorphisms of p (see count_isomorphisms)."""
    return count_isomorphisms(p, p)


def count_isomorphism_classes(posets: Sequence[Poset]) -> int:
    """The number of isomorphism classes among posets, by pairwise
    count_isomorphisms within buckets of equal (|down|, |up|) multisets,
    read from the up-rows alone."""
    buckets: dict[tuple, list[Poset]] = {}
    for p in posets:
        key = tuple(
            sorted((sum(row >> i & 1 for row in p.up), bin(p.up[i]).count("1")) for i in range(p.n))
        )
        buckets.setdefault(key, []).append(p)
    classes = 0
    for bucket in buckets.values():
        reps: list[Poset] = []
        for p in bucket:
            if not any(count_isomorphisms(p, r, limit=1) for r in reps):
                reps.append(p)
        classes += len(reps)
    return classes


def closed_masks(rows: Sequence[int], order: Sequence[int]) -> list[int]:
    """Every set S with rows[x] inside S for each x in S, as bitmasks.

    The elements of order decide in turn, leaving x out before taking it
    in, so the empty set comes first.  order must put every element after
    the rest of its row: x can then join when the rest of its row has.
    Built level by level: each element follows every mask with its
    extension by x, where x may join, so earlier decisions rank first.
    """
    masks = [0]
    for x in order:
        bit = 1 << x
        row = rows[x]
        nxt = []
        for cur in masks:
            nxt.append(cur)
            if row & ~cur == bit:
                nxt.append(cur | bit)
        masks = nxt
    return masks


def extend_semilattice_reference(
    p: Poset, twins: tuple[int, ...], autos: tuple[tuple[int, ...], ...]
) -> list[tuple[int, list[int]]]:
    """What enumeration._extend_semilattice returns, by a chain of
    filters over every nonempty up-set, none of them built into the walk.

    The up-sets come in closed_masks order over p's lowest-index-first
    linear extension, reversed.  A twin outside U with a smaller index
    than one inside it drops U; so does a minimal element outside U with
    a larger invariant (|up|, sum of |up(j)| over j in up) than x's, an
    automorphism followed by twin swaps that maps U onto a smaller mask,
    and joins that are not total.  The rivals are the minimal elements
    outside U with x's invariant, in index order.
    """
    from latcon.enumeration import _image, _joins_total

    n = p.n
    up = p.up
    size = [row.bit_count() for row in up]
    weight = [sum(size[j] for j in _bits(row)) for row in up]
    minimal = [i for i in range(n) if p.down[i] == 1 << i]
    lowest = [(g, [sum(1 << b for b in _bits(g)[:c]) for c in range(g.bit_count() + 1)]) for g in twins]
    out = []
    for upset in closed_masks(up, p._linear_extension[::-1])[1:]:
        if any(g & ~upset & (1 << (g & upset).bit_length()) - 1 for g in twins):
            continue
        members = _bits(upset)
        fx = (len(members) + 1, len(members) + 1 + sum(size[j] for j in members))
        rivals = [i for i in minimal if not upset >> i & 1 and (size[i], weight[i]) >= fx]
        if any((size[i], weight[i]) > fx for i in rivals):
            continue
        if any(_image(members, sigma, lowest) < upset for sigma in autos):
            continue
        if _joins_total(up, upset):
            out.append((upset, rivals))
    return out


def minimal_nonplanar(max_n: int) -> list[Poset]:
    """The minimal non-planar lattices with at most max_n elements, one
    per dual pair, as the sweep finds them: the Kelly-Rival catalog
    reproduced from the enumerator.

    The sizes m = 1, ..., max_n are swept in turn.  A class is non-planar
    when it has no 2-realizer, and it is kept when no lattice kept so far,
    of a smaller size or of its own, embeds into it or into its dual.
    Order dimension does not grow on subposets, so every lattice that
    contains a kept one, directly or dually, is non-planar; what is kept
    are the minimal ones, and the dual of a kept class that is not
    self-dual is found as a copy of it.  No prefilter on the reducible
    counts is applied, so this route shares nothing with the catalog
    search but find_embedding.
    """
    from latcon.enumeration import _sweep

    kept: list[Poset] = []

    def keep_if_minimal(l: Lattice, order, parent) -> None:
        if planar_realizer(l) is None:
            leaf = l.poset
            hosts = (leaf, dual(leaf))
            if all(find_embedding(k, host) is None for k in kept for host in hosts):
                kept.append(leaf)

    for m in range(1, max_n + 1):
        _sweep(m, keep_if_minimal)
    return kept
