import random
from itertools import permutations

import pytest

from latcon.lattice import (
    NotLatticeError,
    SizeError,
    _reducible_counts,
    dual_lattice,
    irreducibles,
    lattice_from_covers,
    make_boolean,
    make_chain,
    make_l_family,
    make_mk,
    make_ordinal_sum,
    make_product,
    validate_lattice,
)
from latcon.poset import canonical_form, dual, poset_from_covers
from oracles import N5, IntervalError, is_distributive, transposes_up, validate_lattice_eager
from test_poset import all_posets_upto


def test_validate_chain():
    l = make_chain(3)
    for i in range(3):
        for j in range(3):
            assert l.join[i][j] == max(i, j)
            assert l.meet[i][j] == min(i, j)
    assert l.bottom == 0 and l.top == 2


def test_validate_antichain_fails():
    with pytest.raises(NotLatticeError) as exc:
        validate_lattice(poset_from_covers(2, []))
    assert exc.value.witness == (0, 1)


def test_validate_no_lub_witness():
    # two incomparable upper bounds over a shared pair
    p = poset_from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(NotLatticeError):
        validate_lattice(p)


def _validate_by_minimal_bounds(p):
    """Join and meet tables from the minimal common upper (maximal common
    lower) bounds of each pair; (pair, message) of the first failure."""

    def minimal_of(mask, down):
        return [i for i in range(p.n) if mask >> i & 1 and down[i] & mask == 1 << i]

    join = [[i] * p.n for i in range(p.n)]
    meet = [[i] * p.n for i in range(p.n)]
    for i in range(p.n):
        for j in range(i + 1, p.n):
            ups = minimal_of(p.up[i] & p.up[j], p.down)
            if len(ups) != 1:
                return (i, j), f"no lub for ({i}, {j})"
            downs = minimal_of(p.down[i] & p.down[j], p.up)
            if len(downs) != 1:
                return (i, j), f"no glb for ({i}, {j})"
            join[i][j] = join[j][i] = ups[0]
            meet[i][j] = meet[j][i] = downs[0]
    return join, meet


def test_validate_matches_minimal_bounds_route():
    """Random bounded posets, about a quarter of them not lattices: the same first
    failing pair and message, or the same tables."""
    rng = random.Random(5)
    failures = {"lub": 0, "glb": 0}
    for _ in range(600):
        m = rng.randrange(2, 9)
        # inner elements 1..m in random layers, related across adjacent
        # layers at random; bottom 0 and top m + 1 around them
        layer = {v: rng.randrange(3) for v in range(1, m + 1)}
        pairs = [(u, v) for u in layer for v in layer if layer[v] == layer[u] + 1 and rng.random() < 0.7]
        pairs += [(0, v) for v in layer] + [(v, m + 1) for v in layer]
        p = poset_from_covers(m + 2, pairs)
        expected = _validate_by_minimal_bounds(p)
        if isinstance(expected[1], str):
            with pytest.raises(NotLatticeError) as exc:
                validate_lattice(p)
            assert exc.value.witness == expected[0]
            assert str(exc.value) == expected[1]
            failures[expected[1][3:6]] += 1
        else:
            l = validate_lattice(p)
            assert [list(r) for r in l.join] == expected[0]
            assert [list(r) for r in l.meet] == expected[1]
    assert failures["lub"] > 50 and failures["glb"] > 50


def _random_posets(count, seed):
    """Posets of 1 to 12 elements with shuffled labels, most given a bottom and a top."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 13)
        density = rng.choice((0.15, 0.3, 0.5))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        if n > 1 and rng.random() < 0.7:
            pairs += [(0, j) for j in range(1, n)] + [(i, n - 1) for i in range(n - 1)]
        perm = list(range(n))
        rng.shuffle(perm)
        yield poset_from_covers(n, [(perm[i], perm[j]) for i, j in pairs])


def test_lazy_tables_match_eager_scan():
    """validate_lattice and the full scan that fills both tables reject the
    same posets with the same message and witness; on the rest, the tables
    built on first use are the scan's, and the dual's are swapped."""
    # Every labelling of the bounded bowtie (0, 1 < 2, 3, between 4 and 5),
    # so that each pair of labels is for some poset the one without a lub.
    bowtie = [(4, 0), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 5), (3, 5)]
    bowties = [poset_from_covers(6, [(perm[a], perm[b]) for a, b in bowtie]) for perm in permutations(range(6))]
    outcomes = {"lattice": 0, "no lub": 0, "no glb": 0}
    for p in [*all_posets_upto(6), *_random_posets(300, seed=12), *bowties]:
        try:
            join, meet, bottom, top = validate_lattice_eager(p)
        except NotLatticeError as expected:
            with pytest.raises(NotLatticeError) as exc:
                validate_lattice(p)
            assert str(exc.value) == str(expected)
            assert exc.value.witness == expected.witness
            outcomes[str(expected)[:6]] += 1
            continue
        l = validate_lattice(p)
        assert (l.join, l.meet, l.bottom, l.top) == (join, meet, bottom, top)
        d = dual_lattice(l)
        assert (d.join, d.meet, d.bottom, d.top) == (meet, join, top, bottom)
        outcomes["lattice"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_irreducibles_computed_once_per_class(monkeypatch):
    """A class's record finds each side's irreducibles once: the
    congruence count reads the covers the lattice caches, and the
    up-row index is the one validate_lattice built; the planarity
    verdict, a 2-realizer, reads no covers.  The counts analyze prints
    read the same cached covers."""
    from latcon import lattice
    from latcon.enumeration import _class_record

    p = make_l_family(9).poset
    calls = []
    single_covers = lattice._single_covers

    def counted(rows, index):
        calls.append(rows)
        return single_covers(rows, index)

    monkeypatch.setattr(lattice, "_single_covers", counted)
    monkeypatch.setattr(lattice.Lattice, "up_index", None)
    l = validate_lattice(p)
    assert l.up_index == {row: i for i, row in enumerate(p.up)}
    _class_record(l, None, None)
    assert sorted(calls) == sorted([p.up, p.down])
    calls.clear()
    l = validate_lattice(p)
    assert irreducibles(l) == (4, 4, 4, 4)
    assert sorted(calls) == sorted([p.up, p.down])


def test_n5_tables():
    assert N5.join[1][2] == 4
    assert N5.meet[1][2] == 0
    assert N5.bottom == 0 and N5.top == 4


def _reducible(l):
    """The join-reducible elements (not the bottom, not join-irreducible)
    and the meet-reducible ones (not the top, not meet-irreducible)."""
    every = set(range(l.n))
    return every - {l.bottom} - set(l.lower_covers), every - {l.top} - set(l.upper_covers)


def test_irreducibles_n5():
    assert set(N5.lower_covers) == {1, 2, 3}
    assert _reducible(N5)[0] == {4}
    assert N5.lower_covers[3] == 1
    assert set(N5.upper_covers) == {1, 2, 3}
    assert irreducibles(N5) == (3, 3, 1, 1)


def test_irreducibles_boolean():
    l = make_boolean(3)
    assert set(l.lower_covers) == {1, 2, 4}
    assert _reducible_counts(l)[0] == 4


def test_irreducibles_chain():
    l = make_chain(6)
    assert set(l.lower_covers) == set(range(1, 6))
    assert _reducible(l) == (set(), set())
    assert _reducible_counts(l) == (0, 0)


def test_jred_equals_joins_of_incomparable_pairs():
    """The join-reducible elements are the joins of incomparable pairs,
    the meet-reducible ones their meets, and the two counts the catalog
    prefilter reads off the order rows are the sizes of those sets, in
    that order: on every class with n <= 8, on L(11) and M_3 + C_2, and
    on their duals."""
    import latcon.enumeration as en

    lattices = [l for n in range(1, 9) for l in en.enumerate_lattices(n)]
    lattices += [make_l_family(11), make_ordinal_sum(make_mk(3), make_chain(2))]
    lattices += [dual_lattice(l) for l in lattices]
    uneven = False
    for l in lattices:
        incomparable = [
            (x, y) for x in range(l.n) for y in range(x + 1, l.n) if not (l.leq(x, y) or l.leq(y, x))
        ]
        jred, mred = _reducible(l)
        assert {l.join[x][y] for x, y in incomparable} == jred
        assert {l.meet[x][y] for x, y in incomparable} == mred
        assert _reducible_counts(l) == (len(jred), len(mred))
        uneven |= len(jred) != len(mred)
    assert uneven


def test_duality_swaps_irreducibles():
    for l in (N5, make_boolean(3), make_mk(4), make_l_family(9)):
        d = dual_lattice(l)
        assert set(d.lower_covers) == set(l.upper_covers)
        assert _reducible(d)[1] == _reducible(l)[0]


def test_transposes_up_n5():
    # [0, b] up to [a, top] with b=2, a=1
    assert transposes_up(N5, 0, 2, 1, 4)


def test_transposes_degenerate():
    assert transposes_up(N5, 3, 3, 3, 3)


def test_transposes_chain_false():
    l = make_chain(3)
    assert not transposes_up(l, 0, 1, 1, 2)


def test_transposes_interval_error():
    with pytest.raises(IntervalError):
        transposes_up(N5, 1, 0, 0, 4)


def test_make_chain_and_sum():
    s = make_ordinal_sum(make_chain(2), make_chain(3))
    assert canonical_form(s.poset) == canonical_form(make_chain(5).poset)


def test_ordinal_sum_order():
    s = make_ordinal_sum(N5, make_mk(3))
    for x in range(5):
        for y in range(5, 10):
            assert s.leq(x, y)


def test_make_mk():
    m3 = make_mk(3)
    assert m3.n == 5
    assert set(m3.lower_covers) == {1, 2, 3} and set(m3.upper_covers) == {1, 2, 3}
    assert m3.join[1][2] == 4 and m3.meet[1][2] == 0


def test_make_boolean_small():
    assert make_boolean(0).n == 1
    assert make_boolean(1).n == 2
    b2 = make_boolean(2)
    assert canonical_form(b2.poset) == canonical_form(
        lattice_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).poset
    )


def test_l_family_base_is_cube():
    assert canonical_form(make_l_family(8).poset) == canonical_form(make_boolean(3).poset)


@pytest.mark.parametrize("n", range(8, 13))
def test_l_family_sizes_and_jir(n):
    l = make_l_family(n)
    assert l.n == n
    assert len(l.lower_covers) == n - 5


def test_constructor_size_errors():
    with pytest.raises(SizeError):
        make_chain(0)
    with pytest.raises(SizeError):
        make_mk(0)
    with pytest.raises(SizeError):
        make_l_family(7)
    with pytest.raises(SizeError):
        make_boolean(-1)


def test_make_product_grid():
    g = make_product(make_chain(2), make_chain(3))
    assert g.n == 6
    assert canonical_form(g.poset) == canonical_form(
        poset_from_covers(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (1, 4), (2, 5)])
    )


def test_product_of_chains_is_boolean():
    c2 = make_chain(2)
    cube = make_product(make_product(c2, c2), c2)
    assert canonical_form(cube.poset) == canonical_form(make_boolean(3).poset)


def test_distributive():
    assert is_distributive(make_chain(5))
    assert is_distributive(make_boolean(3))
    assert not is_distributive(N5)
    assert not is_distributive(make_mk(3))
    assert is_distributive(make_l_family(10))


def test_join_is_least_upper_bound():
    for l in (N5, make_mk(5), make_boolean(3), make_l_family(12)):
        n = l.n
        for x in range(n):
            for y in range(n):
                j = l.join[x][y]
                assert l.leq(x, j) and l.leq(y, j)
                for z in range(n):
                    if l.leq(x, z) and l.leq(y, z):
                        assert l.leq(j, z)


def test_dual_lattice_tables():
    d = dual_lattice(N5)
    assert d.join == N5.meet and d.meet == N5.join
    assert d.bottom == N5.top
    assert canonical_form(dual(dual(N5.poset))) == canonical_form(N5.poset)
