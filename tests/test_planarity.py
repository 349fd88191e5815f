import pytest

from latcon.enumeration import enumerate_lattices
from latcon.lattice import (
    dual_lattice,
    make_boolean,
    make_chain,
    make_l_family,
    make_mk,
    make_ordinal_sum,
    make_product,
    validate_lattice,
)
from latcon.planarity import (
    is_dismantlable,
    is_planar_kr,
    kr_catalog,
    planar_and_dismantlable,
    planar_realizer,
    realizer_is_valid,
)
from latcon.poset import (
    _poset_from_up,
    canonical_form,
    dual,
    embedding_is_valid,
    find_embedding,
    poset_from_covers,
)
from oracles import (
    N5,
    cover_graph_edges,
    is_dismantlable_restart,
    is_planar_graph_oracle,
    minimal_nonplanar,
    subposet,
)


def test_graph_oracle_basics():
    assert is_planar_graph_oracle(make_chain(5))
    assert not is_planar_graph_oracle(make_boolean(3))
    assert is_planar_graph_oracle(N5)
    assert is_planar_graph_oracle(make_mk(7))
    assert is_planar_graph_oracle(make_chain(1))
    assert is_planar_graph_oracle(make_chain(2))


def test_cover_graph_edges_dedup():
    assert cover_graph_edges(make_chain(2)) == [(0, 1)]


def test_kr_chain_planar():
    v = is_planar_kr(make_chain(8))
    assert v.planar and v.witness is None


def test_kr_cube_nonplanar_with_witness():
    v = is_planar_kr(make_boolean(3))
    assert not v.planar
    name, emb, into_dual = v.witness
    assert name == "A_0"
    entry = next(e for e in kr_catalog(8) if e.name == name)
    target = make_boolean(3).poset
    if into_dual:
        target = dual(target)
    assert embedding_is_valid(entry.poset, target, emb)


def test_kr_mk_planar():
    assert is_planar_kr(make_mk(7)).planar


def _rows(sequence):
    """Up-rows of the linear order listing sequence from bottom to top."""
    rows = [0] * len(sequence)
    above = 0
    for x in reversed(sequence):
        above |= 1 << x
        rows[x] = above
    return tuple(rows)


def _sequence(rows):
    """The elements of a linear order, given as up-rows, from bottom to top."""
    return sorted(range(len(rows)), key=lambda x: -bin(rows[x]).count("1"))


def test_realizer_checker_rejects_tampering():
    l = make_product(make_chain(3), make_chain(4))
    l1, l2 = planar_realizer(l)
    p = l.poset
    assert realizer_is_valid(p, l1, l2)
    order = _sequence(l1)
    for k in range(l.n - 1):
        swapped = order[:k] + [order[k + 1], order[k]] + order[k + 2:]
        assert not realizer_is_valid(p, _rows(swapped), l2)
    bottom, top = order[0], order[-1]
    broken = list(l1)
    broken[bottom] &= ~(1 << top)
    assert not realizer_is_valid(p, tuple(broken), l2)
    assert not realizer_is_valid(p, l1, l1)
    assert not realizer_is_valid(p, l1[:-1], l2)


def test_invalid_realizer_raises(monkeypatch):
    from latcon import planarity

    monkeypatch.setattr(planarity, "_transitive_orientation", lambda adj: [0] * len(adj))
    assert planar_realizer(make_chain(4)) is not None
    with pytest.raises(RuntimeError):
        planar_realizer(N5)


def _suffixes(rows):
    """The suffixes of a linear order given as up-rows: its rows and the empty set."""
    return set(rows) | {0}


def test_placement_finds_every_fitting_pair_of_suffixes(monkeypatch):
    """Every leaf of the sweeps n = 3..9 is in the layout the placement
    reads: its bottom last and an atom x before it, so it is P + x + the
    bottom, P its first n - 2 elements.  A realizer is placed exactly when
    P has one, (L1, L2), and some suffix S1 of L1 and S2 of L2 meet in the
    up-set of x and together hold P, by a search over all pairs of
    suffixes; a placed realizer is one of the leaf.  Leaves whose P has no
    2-realizer get none.  Each P that TRO runs on carries its own
    down-rows, so it computes none."""
    from latcon import enumeration, planarity

    posets = []
    realizer_of = planarity._realizer

    def recorded(p):
        posets.append((p, vars(p).get("down")))
        return realizer_of(p)

    monkeypatch.setattr(planarity, "_realizer", recorded)
    planarity._parent_realizer.cache_clear()
    placed = unplaced = non_planar_parent = 0
    for n in range(3, 10):
        k = n - 2
        for l in enumeration._sweep(n, lambda l, order: l):
            assert l.poset.up[k + 1] == l.poset.full_mask and l.poset.down[k] == 3 << k
            parent = _poset_from_up(l.poset.up[:k])
            upset = l.poset.up[k] ^ 1 << k
            realizer = planarity._placed_realizer(l)
            parent_realizer = realizer_of(parent)
            if parent_realizer is None:
                assert realizer is None
                assert planar_realizer(l) is None
                non_planar_parent += 1
                continue
            l1, l2 = parent_realizer
            assert planarity._parent_realizer(parent.up, parent.down) == (l1, l2)
            fits = any(
                s1 & s2 == upset and s1 | s2 == parent.full_mask
                for s1 in _suffixes(l1)
                for s2 in _suffixes(l2)
            )
            assert (realizer is not None) == fits, (l.poset.up, parent.up)
            if realizer is not None:
                assert realizer_is_valid(l.poset, *realizer)
                placed += 1
            else:
                unplaced += 1
    assert (placed, unplaced, non_planar_parent) == (1171, 203, 2)
    assert posets
    for p, down in posets:
        assert down == _poset_from_up(p.up).down, p.up


def test_placement_decides_lattices_the_growth_did_not_build():
    """For every class with n <= 9 and its dual, the planar verdict of
    planar_and_dismantlable is planar_realizer's.  Some of the duals have
    their bottom last and an atom before it, and take the placement.  The
    chain 3 < 0 < 2 < 1 has its bottom last, but element 2 is no atom:
    TRO alone decides it."""
    from latcon import planarity

    placed = 0
    for n in range(1, 10):
        for rep in enumerate_lattices(n):
            for l in (rep, dual_lattice(rep)):
                assert planar_and_dismantlable(l)[0] == (planar_realizer(l) is not None), l.poset.up
                placed += planarity._placed_realizer(l) is not None
    assert placed > 0
    chain = validate_lattice(poset_from_covers(4, [(3, 0), (0, 2), (2, 1)]))
    assert planarity._placed_realizer(chain) is None
    assert planar_and_dismantlable(chain) == (True, True)


def test_planar_realizer_only_where_placement_fails(monkeypatch):
    """spectrum and enumerate_lattices run no TRO.  verify_theorem(9)
    runs it once on each of the 222 parents of its leaves, the first
    time a leaf asks, and once on each of the 180 leaves that get no
    placed realizer: the 2 leaves of B_3 less its bottom, the one parent
    without a 2-realizer, which inherit nothing, and the 178 whose
    parent's realizer has no two suffixes that fit."""
    from latcon import enumeration, planarity

    sizes = []
    orientation = planarity._transitive_orientation

    def counted(adj):
        sizes.append(len(adj))
        return orientation(adj)

    monkeypatch.setattr(planarity, "_transitive_orientation", counted)
    monkeypatch.setattr(enumeration, "_lattice_cache", {})
    planarity._parent_realizer.cache_clear()
    enumeration.spectrum(9)
    enumeration.enumerate_lattices(9)
    assert sizes == []

    leaves = {"placed": 0, "planar parent": 0, "non-planar parent": 0}
    place = planarity._placed_realizer
    parent_realizer = planarity._parent_realizer
    asked = []

    def recorded_parent(up, down):
        asked.append(parent_realizer(up, down))
        return asked[-1]

    def recorded(l):
        asked.clear()
        realizer = place(l)
        if realizer is not None:
            leaves["placed"] += 1
        elif asked[0] is None:
            leaves["non-planar parent"] += 1
        else:
            leaves["planar parent"] += 1
        return realizer

    monkeypatch.setattr(planarity, "_parent_realizer", recorded_parent)
    monkeypatch.setattr(planarity, "_placed_realizer", recorded)
    enumeration.verify_theorem(9)
    assert leaves == {"placed": 898, "planar parent": 178, "non-planar parent": 2}
    assert {size: sizes.count(size) for size in set(sizes)} == {7: 222, 9: 180}


def test_invalid_witness_raises(monkeypatch):
    from latcon import planarity
    from latcon.poset import Embedding

    def bogus(k, host):
        return Embedding(tuple(range(k.n)))

    monkeypatch.setattr(planarity, "find_embedding", bogus)
    with pytest.raises(RuntimeError):
        is_planar_kr(make_l_family(9))


def test_validate_entry_reports_only_non_lattices(monkeypatch):
    from latcon import planarity
    from latcon.poset import poset_from_covers

    antichain = poset_from_covers(2, [])
    with pytest.raises(planarity.CatalogValidationError):
        planarity._validate_entry("X", "X", antichain)

    def broken(p):
        raise KeyError("bug")

    monkeypatch.setattr(planarity, "validate_lattice", broken)
    with pytest.raises(KeyError):
        planarity._validate_entry("X", "X", antichain)


def test_catalog_small_empty():
    assert kr_catalog(7) == ()


def test_catalog_entries_validate():
    entries = kr_catalog(13)
    assert [e.name for e in entries if e.size == 8] == ["A_0"]
    for e in entries:
        l = validate_lattice(e.poset)
        assert not is_planar_graph_oracle(l)
        assert planar_realizer(l) is None
        assert e.size <= 13


def test_prefilter_never_skips_an_entry_that_embeds():
    """On every class with n <= 9 and its dual, every catalog entry that
    find_embedding embeds into either side is among the searches
    is_planar_kr makes, on that side, and the reducible counts skip some
    of the searches."""
    from latcon.planarity import _searches

    searches = unfiltered = 0
    for n in range(1, 10):
        for rep in enumerate_lattices(n):
            hosts = (rep.poset, dual(rep.poset))
            embeds = {
                (e.name, side)
                for e in kr_catalog(n)
                for side in (False, True)
                if find_embedding(e.poset, hosts[side]) is not None
            }
            for l, flip in ((rep, False), (dual_lattice(rep), True)):
                made = {(e.name, into_dual != flip) for e, _, into_dual in _searches(l)}
                assert embeds <= made
                searches += len(made)
                unfiltered += 2 * len(kr_catalog(n))
    assert 0 < searches < unfiltered


def test_reducible_prefilter_settles_a_large_ordinal_sum(monkeypatch):
    """M20 + M20 (44 elements) has two join- and two meet-reducible
    elements, fewer than any catalog entry, so is_planar_kr makes no
    embedding search on it.  Without the prefilter the search runs for
    more than 20 s there."""
    from latcon import planarity

    l = make_ordinal_sum(make_mk(20), make_mk(20))
    assert l.n == 44
    assert list(planarity._searches(l)) == []

    def never(k, host):
        raise AssertionError("find_embedding was called")

    monkeypatch.setattr(planarity, "find_embedding", never)
    assert is_planar_kr(l).planar


def test_catalog_a_family_selfdual():
    for e in kr_catalog(12):
        if e.family == "A":
            assert canonical_form(e.poset) == canonical_form(dual(e.poset))


def test_catalog_members_pairwise_incomparable():
    """No member embeds in another member or its dual (minimality)."""
    entries = kr_catalog(12)
    for a in entries:
        for b in entries:
            if a.name != b.name and a.size <= b.size:
                hosts = (b.poset, dual(b.poset))
                assert all(find_embedding(a.poset, host) is None for host in hosts), (a.name, b.name)


def test_dismantlable_chain():
    assert is_dismantlable(make_chain(7))


def test_dismantlable_cube_false():
    assert not is_dismantlable(make_boolean(3))


def test_dismantlable_n5():
    assert is_dismantlable(N5)


def test_greedy_dismantling_matches_exhaustive():
    """Order-exploring search agrees with greedy removal on the small universe."""

    def exhaustive(l):
        memo = {}

        def rec(elements):
            if len(elements) == 1:
                return True
            key = elements
            if key in memo:
                return memo[key]
            sub = validate_lattice(subposet(l.poset, list(elements)))
            ok = ({sub.bottom} | set(sub.lower_covers)) & ({sub.top} | set(sub.upper_covers))
            res = False
            for pos in sorted(ok):
                rest = tuple(v for i, v in enumerate(elements) if i != pos)
                if rec(rest):
                    res = True
                    break
            memo[key] = res
            return res

        return rec(tuple(range(l.n)))

    for n in range(1, 9):
        for l in enumerate_lattices(n):
            assert is_dismantlable(l) == exhaustive(l)
    from latcon.enumeration import sample_lattices

    for l in sample_lattices(9, 120, seed=31):
        assert is_dismantlable(l) == exhaustive(l)


def test_dismantling_in_passes_matches_restart_loop():
    """Removal in passes and removal one element at a time, restarting at
    the lowest index, agree on every class up to nine elements, on the
    duals and on the constructed families."""
    lattices = [l for n in range(1, 10) for l in enumerate_lattices(n)]
    lattices += [make_chain(7), make_boolean(3), make_boolean(4), make_mk(5), N5]
    lattices += [make_l_family(n) for n in range(8, 13)]
    lattices += [make_product(make_chain(3), make_chain(4)), make_ordinal_sum(N5, make_boolean(3))]
    verdicts = {True: 0, False: 0}
    for l in lattices:
        for host in (l, dual_lattice(l)):
            verdict = is_dismantlable(host)
            assert verdict == is_dismantlable_restart(host)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_kr_catalog_rejects_bad_max():
    with pytest.raises(ValueError):
        kr_catalog(0)


def test_catalog_matches_golden_fixtures():
    """The members through 13 elements, in catalog order, each as its
    size and then one "a b" line per cover (the CLI lattice format),
    hash to the recorded sha256: a changed, dropped or reordered cover
    of any member shows here."""
    import hashlib

    entries = kr_catalog(13)
    assert [e.name for e in entries] == [
        "A_0", "B", "C", "D", "E_0", "F_0", "A_1", "G_0", "E_1", "F_1", "H_0", "A_2", "E_2", "F_2"
    ]
    text = "".join(f"{e.size}\n" + "".join(f"{a} {b}\n" for a, b in e.poset.covers) for e in entries)
    want = "7adcf35408ed2f1da399ca27462d0aeda5605a48fea522529b2c0a7f11372b74"
    assert hashlib.sha256(text.encode()).hexdigest() == want


def check_minimal_nonplanar(n, names):
    """The sweep's minimal non-planar lattices through n elements are
    kr_catalog(n), whose members are named names, up to isomorphism and
    duality: the catalog reproduced from the enumerator, and each entry
    non-planar by the covering-graph oracle too."""
    found = minimal_nonplanar(n)
    entries = kr_catalog(n)
    assert [e.name for e in entries] == names

    def up_to_duality(p):
        return min(canonical_form(p), canonical_form(dual(p)))

    assert sorted(map(up_to_duality, found)) == sorted(up_to_duality(e.poset) for e in entries), (
        f"{len(found)} minimal non-planar lattices, not those of kr_catalog({n})"
    )
    for p in found:
        assert not is_planar_graph_oracle(validate_lattice(p))


def test_minimal_nonplanar_lattices_are_the_catalog():
    """check_minimal_nonplanar through ten elements; CI runs it through 11."""
    check_minimal_nonplanar(10, ["A_0", "B", "C", "D", "E_0", "F_0", "A_1", "G_0"])


def test_catalog_g0_documented_exception():
    """E_0, F_0 and G_0 are the only members through 13 elements with
    fewer than four join- and fewer than four meet-reducible elements,
    and each has three and three, as computed and in its jred and mred
    fields."""
    from latcon.lattice import _reducible_counts

    entries = kr_catalog(13)
    counts = {e.name: _reducible_counts(validate_lattice(e.poset)) for e in entries}
    low = {name for name, (j, m) in counts.items() if j < 4 and m < 4}
    assert low == {"E_0", "F_0", "G_0"}
    for e in entries:
        if e.name in low:
            assert counts[e.name] == (e.jred, e.mred) == (3, 3)


def test_a_family_parametric_sizes():
    for e in kr_catalog(16):
        if e.family == "A":
            assert e.size == 2 * e.index + 8


def test_e0_f0_containment_forces_few_congruences():
    """Wherever E_0 or F_0 embeds, the host has few congruences (n <= 9)."""
    from latcon.congruence import con_count, exceeds_threshold

    entries = {e.name: e.poset for e in kr_catalog(9)}
    e0, f0 = entries["E_0"], entries["F_0"]
    fired = 0
    for n in range(1, 10):
        for l in enumerate_lattices(n):
            if l.n < 9:
                continue
            if find_embedding(e0, l.poset) or find_embedding(f0, l.poset):
                fired += 1
                assert not exceeds_threshold(l.n, con_count(l))
    assert fired >= 2
