"""Acceptance suite: one test per criterion, each printing a PASS line.

Exhaustive over the full enumerated universe where the criterion says so;
sampling above is seeded and deterministic.
"""

import pytest

from latcon import congruence
from latcon.congruence import _dependency_rows, con_count, con_count_oracle, exceeds_threshold, jir_quasiorder
from latcon.enumeration import (
    enumerate_lattices,
    sample_lattices,
    spectrum,
    verify_theorem,
)
from latcon.lattice import (
    Lattice,
    _reducible_counts,
    dual_lattice,
    lattice_from_covers,
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
    planar_realizer,
    realizer_is_valid,
)
from latcon.poset import _bits, canonical_form, count_downsets, dual, embedding_is_valid, find_embedding
from oracles import (
    N5,
    is_distributive,
    is_planar_graph_bruteforce,
    is_planar_graph_oracle,
    principal_congruence,
    transposes_up,
)


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def constructed_families():
    """The constructor-built lattices and their duals used by the
    cross-oracle criteria; B_3 + M_3, B_4 and B_5 have more than 12
    elements."""
    fams: list[Lattice] = []
    fams += [make_chain(n) for n in (1, 2, 3, 5, 8, 12)]
    fams += [make_boolean(k) for k in range(6)]
    fams += [make_mk(k) for k in range(1, 11)]
    fams += [make_l_family(n) for n in range(8, 13)]
    fams += [
        make_ordinal_sum(make_mk(3), make_mk(3)),
        make_ordinal_sum(make_mk(3), make_mk(4)),
        make_ordinal_sum(make_mk(4), make_mk(4)),
        make_ordinal_sum(N5, N5),
        make_ordinal_sum(make_boolean(2), make_boolean(2)),
        make_ordinal_sum(make_chain(2), make_boolean(3)),
        make_ordinal_sum(make_boolean(3), make_mk(3)),
        make_product(make_chain(2), make_chain(6)),
        make_product(make_chain(3), make_chain(4)),
        make_product(make_chain(2), make_chain(2)),
        make_product(make_mk(3), make_chain(2)),
        make_product(make_boolean(2), make_chain(3)),
    ]
    return fams + [dual_lattice(l) for l in fams]


def test_criterion_1_theorem_sweep():
    """verify n for n = 1..9 reports zero violations."""
    for n in range(1, 10):
        rep = verify_theorem(n)
        assert rep.violations == (), f"violations at n={n}"
    _ok(1, "theorem sweep n=1..9, zero violations in every class")


def test_criterion_2_sharpness():
    for n in range(8, 13):
        l = make_l_family(n)
        assert con_count(l) == 2 ** (n - 5)
        assert not is_planar_kr(l).planar
        assert not is_planar_graph_oracle(l)
        assert not is_dismantlable(l)
    _ok(2, "L(n) for n=8..12: |Con| = 2^(n-5), non-planar twice over, non-dismantlable")


def test_criterion_3_spectrum_top_five():
    expect = {
        6: (32, 16, 10, 8, 7),
        7: (64, 32, 20, 16, 14),
        8: (128, 64, 40, 32, 28),
    }
    for n, top in expect.items():
        rep = spectrum(n)
        assert rep.values[:5] == top, f"n={n}: {rep.values[:5]}"
        scale = 2 ** (n - 5)
        assert top == (16 * scale, 8 * scale, 5 * scale, 4 * scale, 7 * scale // 2)
    _ok(3, "spectrum top five at n=6,7,8 match 16,8,5,4,7/2 times 2^(n-5)")


def test_criterion_4_congruence_oracle_equivalence():
    """con_count counts the hereditary sets straight from the closed
    dependency rows and their transpose; counting the downsets of the
    quotient poset jir_quasiorder builds, and the partition oracle, give
    the same number on every class with n <= 9 and its dual, and on 60
    classes sampled at n = 10."""
    lattices = [l for n in range(1, 10) for rep in enumerate_lattices(n) for l in (rep, dual_lattice(rep))]
    assert len(lattices) == 2 * (1 + 1 + 1 + 2 + 5 + 15 + 53 + 222 + 1078)
    sampled = sample_lattices(10, 60, seed=2024)
    assert len(sampled) == 60
    for l in lattices + sampled:
        jmask, above, below = _dependency_rows(l)
        assert jmask == sum(1 << p for p in l.lower_covers)
        for x in range(l.n):
            assert above[x] | below[x] == 0 or jmask >> x & 1
            assert below[x] == sum(1 << p for p in range(l.n) if above[p] >> x & 1)
        assert con_count(l) == count_downsets(jir_quasiorder(l)) == con_count_oracle(l)
    _ok(4, f"FJN count equals the quotient route and the partition oracle on all {len(lattices)} "
        f"classes n <= 9 and their duals + {len(sampled)} sampled at n = 10")


@pytest.fixture(scope="module")
def report_10():
    """verify_theorem(10), one sweep for the tests below."""
    return verify_theorem(10)


def check_sweep_shortcuts(report, classes, oracle, many, non_planar):
    """The verdicts verify_theorem records by its shortcuts, checked on
    the representatives it prints: |Con| against the partition oracle on
    every class that is many-congruence or non-planar, the only classes
    whose theorem verdict rests on |Con|; the dismantlable flag, which a
    checked 2-realizer settles by Kelly-Rival, against the full
    dismantling on every class; and the planar flag, which a realizer
    placed into the parent's settles for most classes, against
    planar_realizer run from scratch on every class.  The report has
    `classes` classes, and the oracle checks `oracle` of them: `many`
    many-congruence ones and `non_planar` non-planar ones."""
    records = list(report.records)
    assert len(records) == classes, f"{len(records)} classes"
    counted = found_many = found_non_planar = 0
    with pytest.MonkeyPatch.context() as patch:
        # the partition oracle's cap, raised to the report's n for this check only
        patch.setattr(congruence, "ORACLE_MAX_N", max(report.n, congruence.ORACLE_MAX_N))
        for r in records:
            l = lattice_from_covers(r.n, r.covers)
            assert is_dismantlable(l) == r.dismantlable, r.covers
            assert (planar_realizer(l) is not None) == r.planar, r.covers
            if r.many or not r.planar:
                assert con_count_oracle(l) == r.con, r.covers
                counted += 1
                found_many += r.many
                found_non_planar += not r.planar
    assert (counted, found_many, found_non_planar) == (oracle, many, non_planar), (
        f"oracle on {counted} classes: {found_many} many, {found_non_planar} non-planar"
    )


def test_sweep_shortcuts_match_second_routes_at_10(report_10):
    """check_sweep_shortcuts at n = 10; CI runs it at n = 11 too."""
    check_sweep_shortcuts(report_10, classes=5994, oracle=598, many=348, non_planar=250)
    _ok(4, "n = 10: |Con| equals the partition oracle on the 598 many-or-non-planar "
        "classes, and the dismantlable flag equals full dismantling and the planar flag "
        "planar_realizer from scratch on all 5,994")


def _interval(l: Lattice, mask: int) -> Lattice:
    """The interval of l whose elements are the bits of mask, as a
    lattice: an interval is convex, so its covers are l's covers inside it."""
    index = {x: i for i, x in enumerate(_bits(mask))}
    return lattice_from_covers(len(index), [
        (index[a], index[b]) for a, b in l.poset.covers if a in index and b in index
    ])


def check_glued_sums(report, classes, cut_classes):
    """The records of classes with a cut, an element c other than the
    bottom and top that is comparable to every element, checked against
    the two intervals [0, c] and [c, 1] that l is glued from at c: |Con|
    is the product of theirs, since a congruence of l is one of each
    interval, and l is planar exactly when both are.  Every cut of each
    such class is checked.  The report has `classes` classes, and
    `cut_classes` of them have a cut."""
    records = list(report.records)
    assert len(records) == classes, f"{len(records)} classes"
    found = 0
    for r in records:
        l = lattice_from_covers(r.n, r.covers)
        up, down, full = l.poset.up, l.poset.down, l.poset.full_mask
        cuts = [c for c in range(l.n) if c not in (l.bottom, l.top) and up[c] | down[c] == full]
        found += bool(cuts)
        for c in cuts:
            lower, upper = _interval(l, down[c]), _interval(l, up[c])
            assert con_count(lower) * con_count(upper) == r.con, (r.covers, c)
            both = planar_realizer(lower) is not None and planar_realizer(upper) is not None
            assert both == r.planar, (r.covers, c)
    assert found == cut_classes, f"{found} classes with a cut"


def test_glued_sums_match_their_intervals_at_10(report_10):
    """check_glued_sums at n = 10; CI runs it at n = 11 too."""
    check_glued_sums(report_10, classes=5994, cut_classes=2040)
    _ok(4, "n = 10: on the 2,040 classes with a cut, |Con| is the product of the two "
        "intervals' and the planar flag their AND")


def _b3_between_chains(n):
    """The ordinal sums C_a + B_3 + C_b with a + b = n - 8, an empty chain
    left out."""
    out = []
    for a in range(n - 7):
        l = make_boolean(3)
        if a:
            l = make_ordinal_sum(make_chain(a), l)
        if n - 8 - a:
            l = make_ordinal_sum(l, make_chain(n - 8 - a))
        out.append(l)
    return out


def test_sharpness_census(report_10):
    """For n = 8, 9, 10 the non-planar classes with exactly 2^(n-5)
    congruences, the bound of the theorem, are exactly the n - 7 classes
    of B_3 with chains stacked below and above it, in every split."""
    for n in (8, 9, 10):
        records = (report_10 if n == 10 else verify_theorem(n)).records
        sharp = sorted(
            canonical_form(lattice_from_covers(n, r.covers).poset)
            for r in records
            if not r.planar and r.con == 2 ** (n - 5)
        )
        built = sorted(canonical_form(l.poset) for l in _b3_between_chains(n))
        assert len(set(built)) == n - 7
        assert sharp == built, n
    _ok(2, "n = 8, 9, 10: the non-planar classes with |Con| = 2^(n-5) are C_a + B_3 + C_b, a + b = n - 8")


def test_criterion_5_planarity_oracle_equivalence():
    """The catalog verdict, the covering-graph oracle and the 2-realizer
    route, whose realizer is checked, agree on every class n <= 10 and on
    the constructed families; a lattice is planar iff the catalog finds
    no witness.  The Kuratowski subdivision search agrees with the graph
    oracle on every class n <= 8 and every family of at most 12
    elements."""
    # the spec gate is n <= 8; the catalog supports exhausting n <= 10
    classes = [l for n in range(1, 11) for l in enumerate_lattices(n)]
    families = constructed_families()
    for lattices, kuratowski_max_n in ((classes, 8), (families, 12)):
        for l in lattices:
            graph = is_planar_graph_oracle(l)
            v = is_planar_kr(l)
            assert v.planar == graph == (v.witness is None)
            realizer = planar_realizer(l)
            assert (realizer is not None) == graph
            assert realizer is None or realizer_is_valid(l.poset, *realizer)
            if l.n <= kuratowski_max_n:
                assert graph == is_planar_graph_bruteforce(l)
    _ok(5, f"Kelly-Rival verdict equals covering-graph oracle and the 2-realizer route "
           f"on {len(classes) + len(families)} lattices, every class n <= 10 among them")


def _unpruned_witness(l: Lattice):
    """First catalog entry embedding into l, then into its dual, with no prefilter."""
    d = dual(l.poset)
    for entry in kr_catalog(l.n):
        for target, into_dual in ((l.poset, False), (d, True)):
            emb = find_embedding(entry.poset, target)
            if emb is not None:
                return entry.name, emb, into_dual
    return None


def test_kr_prefilter_keeps_witnesses():
    """Skipping entries by Lemma 3.1(c) leaves every witness unchanged."""
    lattices = [l for n in range(1, 9) for l in enumerate_lattices(n)]
    lattices += constructed_families()
    lattices += [make_l_family(13), dual_lattice(make_l_family(13))]
    # entries with |Jred| != |Mred| are found on the dual side of their duals
    entries = [validate_lattice(e.poset) for e in kr_catalog(13)]
    lattices += entries + [dual_lattice(k) for k in entries]
    for l in lattices:
        assert is_planar_kr(l).witness == _unpruned_witness(l)


def _lemma31_check(k: Lattice, l: Lattice, mapping):
    m = mapping
    nk = k.n
    kj, lj = k.join, l.join
    (jred_k, mred_k), (jred_l, mred_l) = _reducible_counts(k), _reducible_counts(l)
    # (a) joins in L are below joins computed in K
    for x in range(nk):
        for y in range(nk):
            assert l.leq(lj[m[x]][m[y]], m[kj[x][y]])
    # (b) distinct K-joins map to distinct L-joins
    pairs = [(x, y) for x in range(nk) for y in range(x + 1, nk)]
    for i, (x, y) in enumerate(pairs):
        for u, v in pairs[i + 1 :]:
            if kj[x][y] != kj[u][v]:
                assert lj[m[x]][m[y]] != lj[m[u]][m[v]]
    # (c) reducible-element counts can only grow
    assert jred_l >= jred_k
    assert mred_l >= mred_k
    # (d) with equal Jred counts, equal incomparable K-joins force equal L-joins
    if jred_l == jred_k:
        inc = [
            (x, y)
            for x, y in pairs
            if not k.leq(x, y) and not k.leq(y, x)
        ]
        for i, (x, y) in enumerate(inc):
            for u, v in inc[i + 1 :]:
                if kj[x][y] == kj[u][v]:
                    assert lj[m[x]][m[y]] == lj[m[u]][m[v]]


def test_criterion_7_property_suites():
    # Eq. (2) bound chain and Eq. (3) distributive equality, exhaustive n <= 7
    for n in range(1, 8):
        for l in enumerate_lattices(n):
            if n >= 2:
                assert con_count(l) <= 2 ** jir_quasiorder(l).n <= 2 ** len(l.lower_covers)
            if is_distributive(l):
                assert con_count(l) == 2 ** len(l.lower_covers)
    # sampled above
    for n, take in ((8, 40), (9, 40), (10, 30)):
        for l in sample_lattices(n, take, seed=7):
            assert con_count(l) <= 2 ** jir_quasiorder(l).n <= 2 ** len(l.lower_covers)
            if is_distributive(l):
                assert con_count(l) == 2 ** len(l.lower_covers)

    # Eq. (5): transposed intervals generate equal principal congruences
    for n in range(2, 8):
        for l in enumerate_lattices(n):
            cons = {}
            for a in range(n):
                for b in range(n):
                    if l.leq(a, b):
                        cons[(a, b)] = principal_congruence(l, a, b).blocks
            for (a, b), cab in cons.items():
                for (c, d), ccd in cons.items():
                    if transposes_up(l, a, b, c, d):
                        assert cab == ccd

    # Lemma 3.1 on every found embedding
    found = 0
    small = [l for n in range(2, 6) for l in enumerate_lattices(n)]
    bigger = [l for n in range(4, 7) for l in enumerate_lattices(n)]
    for k in small:
        for l in bigger:
            if k.n > l.n:
                continue
            emb = find_embedding(k.poset, l.poset)
            if emb is None:
                continue
            assert embedding_is_valid(k.poset, l.poset, emb)
            _lemma31_check(k, l, emb.mapping)
            found += 1
    # witnesses produced by the planarity route on non-planar lattices
    for l in [make_l_family(n) for n in range(8, 13)] + [
        make_product(make_mk(3), make_chain(2))
    ]:
        v = is_planar_kr(l)
        assert not v.planar
        name, emb, into_dual = v.witness
        entry = next(e for e in kr_catalog(l.n) if e.name == name)
        target = dual_lattice(l) if into_dual else l
        assert embedding_is_valid(entry.poset, target.poset, emb)
        _lemma31_check(validate_lattice(entry.poset), target, emb.mapping)
        found += 1

    # Lemma 4.1 consistency, exhaustive n <= 8: four or more join- or
    # meet-reducible elements, or three join-reducible ones and two
    # join-irreducibles in one block of the quasiorder, mean few
    # congruences; and planar implies dismantlable
    upto_8 = [l for n in range(1, 9) for l in enumerate_lattices(n)]
    for l in upto_8:
        jred, mred = _reducible_counts(l)
        many = exceeds_threshold(l.n, con_count(l))
        if jred >= 4 or mred >= 4:
            assert not many
        if jred == 3 and jir_quasiorder(l).n < len(l.lower_covers):
            assert not many
        if is_planar_kr(l).planar:
            assert is_dismantlable(l)

    # duality invariance of |Con| and the catalog verdict
    for l in upto_8 + sample_lattices(9, 30, seed=13) + [
        N5, make_mk(4), make_boolean(3), make_l_family(9), make_chain(6)
    ]:
        d = dual_lattice(l)
        assert con_count(l) == con_count(d)
        assert is_planar_kr(l).planar == is_planar_kr(d).planar

    _ok(7, f"property suites hold (eq bounds, transposition, {found} embeddings, "
           "lemma consistency, planar=>dismantlable, duality)")


def test_criterion_8_known_single_values():
    for n in range(1, 9):
        assert con_count(make_chain(n)) == 2 ** (n - 1)
    for k in range(3, 9):
        assert con_count(make_mk(k)) == 2
    assert con_count(make_boolean(3)) == 8
    # N5 value fixed by the partition oracle
    assert con_count_oracle(N5) == 5
    assert con_count(N5) == 5
    _ok(8, "chains 2^(n-1); M_k = 2; B_3 = 8; N5 = 5 (oracle-fixed)")
