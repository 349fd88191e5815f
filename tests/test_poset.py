import random
from itertools import combinations, permutations

import pytest

from latcon.poset import (
    CycleError,
    Poset,
    _bits,
    canonical_form,
    canonical_relabel,
    count_downsets,
    dual,
    embedding_is_valid,
    find_embedding,
    poset_from_covers,
    relabel,
)
from oracles import NotQuasiorderError, closed_masks, count_hereditary_quasi, subposet

N5_COVERS = [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]


def chain(n):
    return poset_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return poset_from_covers(n, [])


def all_posets_upto(nmax):
    """All naturally labeled posets with at most nmax elements."""
    out = []
    for n in range(1, nmax + 1):
        downfull = [1 << i for i in range(n)]

        def downsets(j):
            def rec(k, cur):
                if k == j:
                    yield cur
                    return
                yield from rec(k + 1, cur)
                if downfull[k] & ~cur == 1 << k:
                    yield from rec(k + 1, cur | 1 << k)

            yield from rec(0, 0)

        def build(j):
            if j == n:
                up = [1 << i for i in range(n)]
                for i in range(n):
                    m = downfull[i] & ~(1 << i)
                    while m:
                        k = (m & -m).bit_length() - 1
                        m &= m - 1
                        up[k] |= 1 << i
                out.append(Poset(n, tuple(up)))
                return
            for d in downsets(j):
                downfull[j] = d | 1 << j
                build(j + 1)
            downfull[j] = 1 << j

        build(0)
    return out


def test_bits_are_the_set_bits_lowest_first():
    """Every mask below 2^12 is read from the table, larger ones are
    walked; each answer is a tuple, so no caller can change what the next
    one reads."""
    masks = list(range(1 << 12)) + [1 << 12, (1 << 12) + 5, 1 << 63 | 3, (1 << 64) - 1]
    for m in masks:
        got = _bits(m)
        assert type(got) is tuple
        assert got == tuple(i for i in range(m.bit_length()) if m >> i & 1)


def test_from_covers_singleton():
    p = poset_from_covers(1, [])
    assert p.n == 1 and p.leq(0, 0)


def test_from_covers_chain_closure():
    p = poset_from_covers(3, [(0, 1), (1, 2)])
    assert p.covers == ((0, 1), (1, 2))
    assert p.leq(0, 2) and not p.leq(2, 0)


def test_from_covers_cycle():
    with pytest.raises(CycleError):
        poset_from_covers(2, [(0, 1), (1, 0)])


def test_from_covers_out_of_range():
    with pytest.raises(IndexError):
        poset_from_covers(2, [(0, 2)])


def test_reduction_closure_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        p = poset_from_covers(n, pairs)
        again = poset_from_covers(n, p.covers)
        assert again.up == p.up


def test_dual_chain():
    p = chain(3)
    assert dual(p).covers == ((1, 0), (2, 1))


def test_dual_n5_selfdual():
    p = poset_from_covers(5, N5_COVERS)
    assert canonical_form(dual(p)) == canonical_form(p)


def test_dual_involution():
    for p in all_posets_upto(5):
        assert dual(dual(p)).up == p.up


def test_dual_down_sets_are_up_sets():
    """dual() stores p's up-sets as its down-sets; they match a fresh computation."""
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 12)
        perm = rng.sample(range(n), n)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        p = poset_from_covers(n, pairs)
        d = dual(p)
        assert d.down == p.up
        assert Poset(n, d.up).down == p.up
        assert dual(d) == p
        assert p.down == tuple(
            sum(1 << i for i in range(n) if p.up[i] >> j & 1) for j in range(n)
        )


def test_relabel_carries_known_down_sets():
    """relabel moves the down-sets its source holds, and the moved rows
    match a fresh computation; from a source that holds none, the copy
    holds none either and computes them on first use."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 14)
        perm = rng.sample(range(n), n)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        p = poset_from_covers(n, pairs)
        target = rng.sample(range(n), n)
        assert "down" not in vars(relabel(p, target))
        p.down
        q = relabel(p, target)
        assert vars(q)["down"] == Poset(q.n, q.up).down


def test_canonical_relabeling_invariance():
    p = chain(3)
    q = relabel(p, [2, 0, 1])
    assert canonical_form(p) == canonical_form(q)


def test_canonical_distinguishes():
    assert canonical_form(chain(3)) != canonical_form(antichain(3))
    n5 = poset_from_covers(5, N5_COVERS)
    m3 = poset_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert canonical_form(n5) != canonical_form(m3)


def test_canonical_relabel_is_isomorphic_copy():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        p = poset_from_covers(n, pairs)
        rep, perm = canonical_relabel(p)
        assert relabel(p, perm).up == rep.up


def test_canonical_classes_match_orbit_sizes():
    """Canonical classes of labeled posets have size n!/|Aut|, summing to the total."""
    for n in range(1, 6):
        labeled = set()
        for p in all_posets_upto(n):
            if p.n != n:
                continue
            for perm in permutations(range(n)):
                labeled.add(relabel(p, perm).up)
        classes = {}
        for up in labeled:
            classes.setdefault(canonical_form(Poset(n, up)), []).append(up)
        total = 0
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        for form, members in classes.items():
            rep = Poset(n, members[0])
            autos = sum(
                1
                for perm in permutations(range(n))
                if relabel(rep, perm).up == rep.up
            )
            assert len(members) == fact // autos
            total += len(members)
        assert total == len(labeled)


def test_embedding_chain_in_n5():
    k = chain(3)
    l = poset_from_covers(5, N5_COVERS)
    emb = find_embedding(k, l)
    assert emb is not None and embedding_is_valid(k, l, emb)


def test_embedding_antichain_in_chain_none():
    assert find_embedding(antichain(3), chain(8)) is None


def test_embedding_identity():
    cube = poset_from_covers(
        8,
        [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6),
         (3, 7), (5, 7), (6, 7)],
    )
    emb = find_embedding(cube, cube)
    assert emb is not None and embedding_is_valid(cube, cube, emb)


def test_embedding_against_bruteforce():
    """Exhaustive injective-map oracle agrees on existence, both directions."""

    def brute(k, l):
        for sub in combinations(range(l.n), k.n):
            for perm in permutations(sub):
                if all(
                    (k.up[x] >> y & 1) == (l.up[perm[x]] >> perm[y] & 1)
                    for x in range(k.n)
                    for y in range(k.n)
                ):
                    return True
        return False

    rng = random.Random(11)
    pool = [p for p in all_posets_upto(6)]
    small = [p for p in pool if p.n <= 5]
    sample = rng.sample(small, 40) + rng.sample(pool, 25)
    targets = rng.sample(pool, 12)
    for k in sample:
        for l in targets:
            if k.n > l.n:
                continue
            emb = find_embedding(k, l)
            if emb is not None:
                assert embedding_is_valid(k, l, emb)
            assert (emb is not None) == brute(k, l)


def test_count_downsets_antichain():
    assert count_downsets(antichain(3)) == 8


def test_count_downsets_chain():
    assert count_downsets(chain(4)) == 5


def test_count_downsets_qu_of_n5():
    v = poset_from_covers(3, [(0, 1), (0, 2)])
    assert count_downsets(v) == 5


def test_count_downsets_matches_enumeration():
    """count_downsets counts the subsets that hold the down-set of each member."""
    for p in all_posets_upto(5):
        every = range(1 << p.n)
        assert count_downsets(p) == sum(all(p.down[x] & ~m == 0 for x in _bits(m)) for m in every)


def _iter_upsets_recursion(p):
    """The nonempty up-sets in the order of the recursion the enumeration
    used before it built them level by level."""
    order = list(reversed(p._linear_extension))

    def rec(idx, cur):
        if idx == p.n:
            if cur:
                yield cur
            return
        x = order[idx]
        yield from rec(idx + 1, cur)
        if p.up[x] & ~cur == 1 << x:
            yield from rec(idx + 1, cur | 1 << x)

    return list(rec(0, 0))


def test_closed_masks_keep_the_upset_order():
    """On a canonical representative, deciding the elements from n - 1
    down, as the growth's up-set walk does, gives the empty set, then the
    up-sets in the old recursion's order, which is increasing mask order."""
    for p in all_posets_upto(6):
        rep = canonical_relabel(p)[0]
        masks = closed_masks(rep.up, range(rep.n - 1, -1, -1))
        assert masks == [0] + _iter_upsets_recursion(rep) == sorted(masks)


def test_canonical_representatives_are_linearly_ordered():
    """A canonical representative lists every element after everything
    below it, so its lowest-index-first linear extension is the identity;
    each poset is passed with its labels reversed, so only an antichain
    comes in already so listed."""
    for p in all_posets_upto(6):
        rep = canonical_relabel(relabel(p, range(p.n - 1, -1, -1)))[0]
        assert all(i <= j for i in range(rep.n) for j in _bits(rep.up[i])), p.up
        assert rep._linear_extension == tuple(range(rep.n))


def test_hereditary_quasi_identity():
    rel = [[i == j for j in range(3)] for i in range(3)]
    assert count_hereditary_quasi(3, rel) == 8


def test_hereditary_quasi_full_relation():
    for k in (1, 2, 4):
        rel = [[True] * k for _ in range(k)]
        assert count_hereditary_quasi(k, rel) == 2


def test_hereditary_quasi_two_cycle_plus_point():
    rel = [
        [True, True, False],
        [True, True, False],
        [False, False, True],
    ]
    assert count_hereditary_quasi(3, rel) == 4


def test_hereditary_quasi_rejects_non_quasiorder():
    with pytest.raises(NotQuasiorderError):
        count_hereditary_quasi(2, [[False, False], [False, True]])
    with pytest.raises(NotQuasiorderError):
        count_hereditary_quasi(3, [[True, True, False], [False, True, True], [False, False, True]])


def test_hereditary_quasi_matches_direct_enumeration():
    """Random quasiorders: quotient-based count equals subset enumeration."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 7)
        rel = [[i == j for j in range(n)] for i in range(n)]
        for _ in range(n):
            i, j = rng.randrange(n), rng.randrange(n)
            rel[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        direct = 0
        for mask in range(1 << n):
            ok = True
            for x in range(n):
                if not mask >> x & 1:
                    continue
                for y in range(n):
                    if rel[y][x] and not mask >> y & 1:
                        ok = False
                        break
                if not ok:
                    break
            direct += ok
        assert count_hereditary_quasi(n, rel) == direct


def test_count_hereditary_reads_quasiorder_rows():
    """_count_hereditary on the rows of a quasiorder and their transpose,
    with no quotient built, equals the quotient-based oracle on random
    quasiorders with up to eight elements."""
    from latcon.poset import _count_hereditary

    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(0, 9)
        rows = [1 << i for i in range(n)]
        for _ in range(rng.randrange(0, 2 * n + 1)):
            rows[rng.randrange(n)] |= 1 << rng.randrange(n)
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        below = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
        rel = [[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)]
        assert _count_hereditary(rows, below, (1 << n) - 1) == count_hereditary_quasi(n, rel)


def test_subposet_induced():
    p = poset_from_covers(5, N5_COVERS)
    s = subposet(p, [0, 1, 3])
    assert s.covers == ((0, 1), (1, 2))


def _refined_colors_per_round_walk(p):
    """The colour refinement that re-walked every row through _bits each
    round, kept as an oracle for the one that builds index lists once."""
    n = p.n
    col = [(bin(p.down[i]).count("1"), bin(p.up[i]).count("1")) for i in range(n)]
    ranks = {c: r for r, c in enumerate(sorted(set(col)))}
    cur = [ranks[c] for c in col]
    for _ in range(n):
        sig = []
        for i in range(n):
            above = sorted(cur[j] for j in _bits(p.up[i] & ~(1 << i)))
            below = sorted(cur[j] for j in _bits(p.down[i] & ~(1 << i)))
            sig.append((cur[i], tuple(above), tuple(below)))
        ranks = {c: r for r, c in enumerate(sorted(set(sig)))}
        nxt = [ranks[c] for c in sig]
        if nxt == cur:
            break
        cur = nxt
    return cur


def test_refined_colors_match_per_round_walk(monkeypatch):
    """Same colours, and so the same canonical permutation, as the old
    refinement: on every lattice class n <= 8 relabelled at random, and
    on random posets up to 12 elements."""
    from latcon import poset as poset_mod
    from latcon.enumeration import enumerate_lattices

    rng = random.Random(29)
    posets = []
    for n in range(1, 9):
        for l in enumerate_lattices(n):
            posets.append(relabel(l.poset, rng.sample(range(n), n)))
    for _ in range(300):
        n = rng.randrange(1, 13)
        perm = rng.sample(range(n), n)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        posets.append(poset_from_covers(n, pairs))
    new = [canonical_relabel(p)[1] for p in posets]
    assert [poset_mod._refined_colors(p, poset_mod._twin_groups(p)) for p in posets] == [
        _refined_colors_per_round_walk(p) for p in posets
    ]
    monkeypatch.setattr(
        poset_mod, "_refined_colors", lambda p, group: _refined_colors_per_round_walk(p)
    )
    assert [canonical_relabel(p)[1] for p in posets] == new


def test_refinement_skips_classes_that_are_one_twin_group(monkeypatch):
    """Twins have equal signatures in every round, so refinement builds no
    signature for a class that is a single twin group, and where every
    initial (|down|, |up|) class is one it reads no neighbour row and runs
    no round: on 698 of the 1,078 leaves of the n = 9 sweep.  The colours
    stay those of the per-round walk."""
    from latcon import poset as poset_mod
    from latcon.enumeration import _sweep

    leaves = _sweep(9, lambda l, order, parent: l.poset)
    expected = []
    for p in leaves:
        colors = _refined_colors_per_round_walk(p)
        group = _twin_groups_pairwise(p, colors)
        cells = {}
        for v in range(p.n):
            cells.setdefault((p.down[v].bit_count(), p.up[v].bit_count()), set()).add(group[v])
        expected.append((colors, all(len(groups) == 1 for groups in cells.values())))
    reads = []
    bits = poset_mod._bits
    monkeypatch.setattr(poset_mod, "_bits", lambda mask: reads.append(mask) or bits(mask))
    for p, (colors, settled) in zip(leaves, expected):
        reads.clear()
        assert poset_mod._refined_colors(p, poset_mod._twin_groups(p)) == colors
        assert (not reads) == settled
    assert (len(leaves), sum(settled for _, settled in expected)) == (1078, 698)


def _twin_groups_pairwise(p, colors):
    """Twin groups by comparing every pair of vertices, as the search does."""
    group = list(range(p.n))
    for u in range(p.n):
        for v in range(u + 1, p.n):
            if colors[u] != colors[v] or group[v] != v:
                continue
            if p.up[u] >> v & 1 or p.up[v] >> u & 1:
                continue
            pair = (1 << u) | (1 << v)
            if p.up[u] & ~pair == p.up[v] & ~pair and p.down[u] & ~pair == p.down[v] & ~pair:
                group[v] = group[u]
    return group


def _canonical_relabel_full_search(p):
    """canonical_relabel as it was before the one-path case: always a
    search over the colour classes, never branching within a twin group,
    on colours from the globally sorted refinement above, with the
    pairwise twin groups.  It prunes against the current best leaf and
    returns the first least leaf in the same order of branches as
    _search."""
    n = p.n
    if n == 0:
        return p, ()
    colors = _refined_colors_per_round_walk(p)
    group = _twin_groups_pairwise(p, colors)
    class_of_pos = sorted(colors)
    best = []

    def search(placed, flat):
        pos = len(placed)
        if pos == n:
            if not best or flat < best[0]:
                best[:] = [flat, placed]
            return
        seen_groups = set()
        for v in range(n):
            if v in placed or colors[v] != class_of_pos[pos] or group[v] in seen_groups:
                continue
            seen_groups.add(group[v])
            chunk = [(p.up[u] >> v & 1) << 1 | (p.up[v] >> u & 1) for u in placed]
            # Prune a branch whose matrix prefix already exceeds the best.
            if best and flat + chunk > best[0][: len(flat) + len(chunk)]:
                continue
            search(placed + [v], flat + chunk)

    search([], [])
    inverse = [0] * n
    for pos, v in enumerate(best[1]):
        inverse[v] = pos
    return relabel(p, inverse), tuple(inverse)


def _crown(k):
    """Minimal elements 0..k-1, maximal k..2k-1, each maximal element above
    two cyclically adjacent minimal ones: every class of the refinement
    is an antichain but none is a twin group."""
    return poset_from_covers(2 * k, [(i, k + j) for j in range(k) for i in (j, (j + 1) % k)])


def test_canonical_relabel_matches_full_search(monkeypatch):
    """Same colours, permutation and representative as the full search on
    every input, whether or not the search still runs."""
    from latcon import poset as poset_mod
    from latcon.enumeration import enumerate_lattices
    from latcon.lattice import make_boolean, make_mk

    rng = random.Random(61)

    def shuffled(q):
        return relabel(q, rng.sample(range(q.n), q.n))

    posets = [shuffled(l.poset) for n in range(1, 9) for l in enumerate_lattices(n)]
    posets += all_posets_upto(6)
    for _ in range(300):
        n = rng.randrange(1, 13)
        perm = rng.sample(range(n), n)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        posets.append(poset_from_covers(n, pairs))
    posets += [shuffled(make_mk(k).poset) for k in range(1, 9)]
    posets += [shuffled(make_boolean(k).poset) for k in range(1, 5)]
    posets += [antichain(n) for n in range(1, 9)]
    non_twin = [_crown(3), _crown(4), poset_from_covers(4, [(0, 1), (2, 3)])]
    posets += [shuffled(q) for q in non_twin]

    searched = []
    search = poset_mod._search
    monkeypatch.setattr(
        poset_mod, "_search", lambda p, colors, group: searched.append(p) or search(p, colors, group)
    )
    for p in posets:
        group = poset_mod._twin_groups(p)
        colors = poset_mod._refined_colors(p, group)
        assert colors == _refined_colors_per_round_walk(p)
        assert group == _twin_groups_pairwise(p, colors)
        rep, perm = canonical_relabel(p)
        old_rep, old_perm = _canonical_relabel_full_search(p)
        assert perm == old_perm and rep == old_rep
        if not searched or searched[-1] is not p:
            # The one-path case: each colour class is one twin group.
            assert len(set(_twin_groups_pairwise(p, colors))) == len(set(colors))
    assert all(any(s is p for s in searched) for p in posets[-len(non_twin):])
    assert 0 < len(searched) < len(posets) // 4


def test_search_runs_for_a_minority_of_classes(monkeypatch):
    from latcon import enumeration
    from latcon import poset as poset_mod

    calls = {"relabel": 0, "search": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(
        enumeration, "_relabel_with_twins", counted("relabel", poset_mod._relabel_with_twins)
    )
    monkeypatch.setattr(poset_mod, "_search", counted("search", poset_mod._search))
    classes = enumeration._sweep(8, lambda l, order, parent: enumeration._relabel_with_twins(l.poset, order))
    assert len(classes) == 222
    assert calls["relabel"] >= len(classes)
    assert 0 < calls["search"] < len(classes) // 2


def test_labelling_lists_every_automorphism_once():
    """Every automorphism of a representative is a permutation inside its
    twin groups composed with exactly one automorphism that
    _relabel_with_twins lists, or with the identity: an exhaustive count
    equals the product of |G|! times one more than the number listed, and
    each listed one maps the representative onto itself.  The inputs
    include a 10-element lattice whose search meets a leaf equal to its
    best so far and then a smaller best, whose equal leaves no longer
    give automorphisms."""
    from math import factorial, prod

    from latcon import poset as poset_mod
    from latcon.lattice import make_boolean, make_mk
    from oracles import count_automorphisms

    rng = random.Random(17)
    best_changes = poset_mod._poset_from_up([1023, 418, 340, 456, 272, 288, 320, 384, 256, 816])
    posets = [best_changes] + [relabel(best_changes, rng.sample(range(10), 10)) for _ in range(8)]
    posets += [_crown(k) for k in range(2, 5)] + [make_boolean(3).poset]
    posets += [make_mk(k).poset for k in range(1, 6)]
    for _ in range(150):
        n = rng.randrange(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        posets.append(relabel(poset_from_covers(n, pairs), rng.sample(range(n), n)))
    listed = 0
    for p in posets:
        rep, twins, autos = poset_mod._relabel_with_twins(p)
        for sigma in autos:
            assert sorted(sigma) == list(range(p.n)) and relabel(rep, sigma) == rep
        twin_order = prod(factorial(g.bit_count()) for g in twins)
        assert count_automorphisms(rep) == twin_order * (1 + len(autos))
        listed += len(autos)
    assert listed > 20
