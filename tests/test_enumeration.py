import gc
from math import factorial, prod

import pytest

from latcon import enumeration
from latcon import poset as poset_mod
from latcon.congruence import con_count, con_count_oracle
from latcon.enumeration import (
    ClassRecord,
    enumerate_lattices,
    sample_lattices,
    spectrum,
    verify_theorem,
)
from latcon.lattice import SizeError, validate_lattice
from latcon.planarity import is_planar_kr, kr_catalog
from latcon.poset import _bits, _encode_rows, _poset_from_up, canonical_form, canonical_relabel, relabel
from oracles import (
    count_automorphisms,
    count_isomorphism_classes,
    enumerate_lattices_oracle,
    extend_semilattice_reference,
    is_dismantlable_restart,
    passes_tied_deletion_rule,
    twin_groups_bruteforce,
)

# OEIS A006966: unlabeled lattices on n nodes.
KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994}


def _global_seen_growth(max_n):
    """Canonical lattice posets for n = 1..max_n by breadth-first growth.

    The generator that canonical augmentation replaced, kept as an
    oracle: every semilattice child of every kept semilattice is
    canonicalised and checked against one set of all forms of its size,
    and each lattice is relabelled canonically at the end.
    """

    def children(s):
        n = s.n
        order = list(reversed(s._linear_extension))
        upsets = [0]
        for x in order:
            upsets += [u | 1 << x for u in upsets if s.up[x] & ~(u | 1 << x) == 0]
        for upset in upsets:
            if not upset:
                continue
            joins_total = all(
                upset >> y & 1
                or any(upset & s.up[y] & ~s.up[w] == 0 for w in _bits(upset & s.up[y]))
                for y in range(n)
            )
            if joins_total:
                yield _poset_from_up(list(s.up) + [upset | 1 << n])

    semis = {1: [_poset_from_up([1])]}
    for m in range(2, max_n):
        seen, reps = set(), []
        for s in semis[m - 1]:
            for child in children(s):
                form = canonical_form(child)
                if form not in seen:
                    seen.add(form)
                    reps.append(child)
        semis[m] = reps
    out = {1: semis[1]}
    for n in range(2, max_n + 1):
        posets = [_poset_from_up([(1 << n) - 1] + [row << 1 for row in s.up]) for s in semis[n - 1]]
        out[n] = sorted((canonical_relabel(q)[0] for q in posets), key=lambda q: _encode_rows(q.up))
    return out


@pytest.fixture(scope="module")
def old_growth():
    return _global_seen_growth(9)


@pytest.mark.parametrize("n", range(1, 8))
def test_generator_matches_oracle(n):
    assert len(enumerate_lattices(n)) == enumerate_lattices_oracle(n) == KNOWN_COUNTS[n]


def test_counts_extend():
    assert len(enumerate_lattices(8)) == KNOWN_COUNTS[8]
    assert len(enumerate_lattices(9)) == KNOWN_COUNTS[9]
    assert len(enumerate_lattices(10)) == KNOWN_COUNTS[10]


@pytest.mark.parametrize("n", range(1, 10))
def test_matches_global_seen_growth(n, old_growth):
    """Same canonical representatives in the same order as the old generator."""
    assert [l.poset.covers for l in enumerate_lattices(n)] == [q.covers for q in old_growth[n]]


def test_tied_deletions_yield_each_class_once(monkeypatch):
    """A child whose new element x ties on the cheap invariant with an
    element that is not its twin is labelled, and kept only where x lies
    in the orbit of the tied element of least canonical position.  A
    lattice child whose x ties only with its own twins is accepted as
    built, unlabelled.  Both paths run, and each class still comes out
    once: the twin-only acceptance from n = 4; orbit tests between x and
    a tied element that is neither x nor its twin from n = 6, where a
    listed automorphism relates them, and rejections from n = 7."""
    tests = []
    same_orbit = enumeration._same_orbit

    def recorded(u, v, group, autos):
        kept = same_orbit(u, v, group, autos)
        tests.append((n, group[u] == group[v], kept))
        return kept

    monkeypatch.setattr(enumeration, "_same_orbit", recorded)
    for n in range(4, 9):
        leaves = enumeration._sweep(n, lambda l, order, parent: (l.poset, order))
        forms = [canonical_form(leaf) for leaf, _ in leaves]
        assert len(forms) == len(set(forms)) == KNOWN_COUNTS[n]
        assert any(not twin for m, twin, _ in tests if m == n) == (n >= 6), f"non-twin ties at n={n}"
        assert any(not kept for m, _, kept in tests if m == n) == (n >= 7), f"rejections at n={n}"
        # A leaf built by the growth ends with x and then the bottom; the
        # twins of x are the other atoms with its strict up-set.
        x, bottom = n - 2, 1 << n - 1
        twin_tied = [
            leaf
            for leaf, order in leaves
            if order is None
            and any(
                leaf.down[i] == bottom | 1 << i and leaf.up[i] & ~(1 << i) == leaf.up[x] & ~(1 << x)
                for i in range(x)
            )
        ]
        assert twin_tied, f"no twin-only tie accepted unlabelled at n={n}"
    # A twin or x itself is always in the orbit.
    assert all(kept for _, twin, kept in tests if twin)


def test_orbit_test_keeps_only_what_the_tied_deletion_rule_keeps(monkeypatch):
    """Every child the growth keeps in the sweeps n <= 9, semilattice or
    lattice, labelled or as built, passes the rule the orbit test
    replaced: C minus its canonical deletion is isomorphic to the parent.
    That rule alone lets repeats through (5,995 leaves at n = 10, one
    class twice), so the n = 10 sweep must give 5,994 distinct forms."""
    parents = []
    kept = []
    grow = enumeration._grow

    def recorded(p, *args, **kwargs):
        if parents:
            kept.append((parents[-1], p))
        parents.append(p)
        try:
            grow(p, *args, **kwargs)
        finally:
            parents.pop()

    monkeypatch.setattr(enumeration, "_grow", recorded)
    for n in range(3, 10):
        enumeration._sweep(n, lambda l, order, parent: kept.append((parents[-1], l.poset)))
    assert len(kept) > 1500
    assert {c.n - p.n for p, c in kept} == {1, 2}
    for p, c in kept:
        assert passes_tied_deletion_rule(c, p), (p.up, c.up)
    monkeypatch.undo()
    forms = [_encode_rows(l.poset.up) for l in enumerate_lattices(10)]
    assert len(forms) == len(set(forms)) == KNOWN_COUNTS[10]


def test_oracle_guard():
    with pytest.raises(SizeError):
        enumerate_lattices_oracle(8)
    with pytest.raises(SizeError):
        enumerate_lattices(13)


def test_stream_is_deterministic_and_distinct():
    first = [l.poset.covers for l in enumerate_lattices(6)]
    second = [l.poset.covers for l in enumerate_lattices(6)]
    assert first == second
    forms = {canonical_form(l.poset) for l in enumerate_lattices(6)}
    assert len(forms) == 15


def test_streamed_lattices_validate():
    for n in range(1, 8):
        for l in enumerate_lattices(n):
            validate_lattice(l.poset)


def test_sample_deterministic():
    a = sample_lattices(8, 10, seed=42)
    b = sample_lattices(8, 10, seed=42)
    assert [l.poset.covers for l in a] == [l.poset.covers for l in b]
    assert len(a) == 10


def test_spectrum_n5():
    rep = spectrum(5)
    assert rep.total_classes == 5
    assert rep.values[:4] == (16, 8, 5, 2)
    assert rep.counts[8] == 2
    assert rep.counts[16] == 1


@pytest.mark.parametrize(
    "n,top5",
    [
        (6, (32, 16, 10, 8, 7)),
        (7, (64, 32, 20, 16, 14)),
    ],
)
def test_spectrum_top_values(n, top5):
    rep = spectrum(n)
    assert rep.values[:5] == top5
    assert rep.values[0] == 2 ** (n - 1)


def test_spectrum_max_is_chain():
    for n in range(2, 8):
        assert spectrum(n).values[0] == 2 ** (n - 1)


def test_verify_theorem_small():
    rep = verify_theorem(5)
    assert rep.classes_checked == 5
    assert rep.many_congruence_classes == 5
    assert rep.violations == ()
    assert all(r.planar for r in rep.records)


def test_verify_theorem_seven():
    rep = verify_theorem(7)
    assert rep.classes_checked == 53
    assert rep.violations == ()


def test_verify_records_match_direct_computation():
    rep = verify_theorem(6)
    from latcon.poset import poset_from_covers

    for r in rep.records:
        l = validate_lattice(poset_from_covers(r.n, r.covers))
        assert con_count(l) == r.con


def test_verify_parallel_identical():
    for n in (6, 8):
        assert verify_theorem(n, jobs=2) == verify_theorem(n, jobs=1)


@pytest.mark.parametrize("n", range(1, 6))
def test_sweep_from_the_root(n):
    """Up to n = 5 the split point is the one-element semilattice (n >= 3)
    or no growth at all (n <= 2); every route still sees every class."""
    assert [(root.up, twins, autos) for root, twins, autos in enumeration._parents(n)] == [((1,), (), ())]
    assert verify_theorem(n, jobs=2) == verify_theorem(n)
    assert verify_theorem(n).classes_checked == spectrum(n).total_classes == KNOWN_COUNTS[n]
    assert len(enumerate_lattices(n)) == KNOWN_COUNTS[n]


def test_parents_are_the_smaller_semilattice_classes():
    """The parents of n are the canonical (n-4)-element semilattices, one
    per class of (n-3)-element lattices, each with its twin groups."""
    for n in range(6, 13):
        parents = enumeration._parents(n)
        assert all(p.n == n - 4 for p, _, _ in parents)
        assert len({_encode_rows(p.up) for p, _, _ in parents}) == len(parents) == KNOWN_COUNTS[n - 3]
        assert all(canonical_relabel(p)[0] == p for p, _, _ in parents)
        assert all(set(twins) == twin_groups_bruteforce(p) for p, twins, _ in parents)


def test_sweeps_keep_no_lattices(monkeypatch, capsys):
    """verify_theorem, spectrum and the enumerate command run their own
    walk, not enumerate_lattices, so its cache stays empty;
    enumerate_lattices still fills it."""
    from latcon import cli

    cache = {}
    monkeypatch.setattr(enumeration, "_lattice_cache", cache)
    assert verify_theorem(7, jobs=2).classes_checked == 53
    assert verify_theorem(7).classes_checked == 53
    assert spectrum(7).total_classes == 53
    assert cli.main(["enumerate", "7"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 53
    assert cache == {}
    assert len(enumerate_lattices(7)) == 53
    assert list(cache) == [7]


def test_verify_eight_reports_sharp_class_without_violation():
    """The boolean cube sits exactly at the threshold: reported, no violation."""
    from latcon.lattice import make_boolean
    from latcon.poset import poset_from_covers

    cube_form = canonical_form(make_boolean(3).poset)
    rep = verify_theorem(8)
    assert rep.violations == ()
    hits = [
        r
        for r in rep.records
        if canonical_form(poset_from_covers(r.n, r.covers)) == cube_form
    ]
    assert len(hits) == 1
    rec = hits[0]
    assert rec.con == 8 and not rec.planar and not rec.many and not rec.dismantlable


def test_report_keeps_one_packed_record_per_class():
    """A sweep keeps one bytes record per class and no object per record:
    bytes hold no references, so the cyclic GC does not track them.  The
    records sort as their canonical forms, which all have one length,
    and decode to the representatives' covers."""
    rep = verify_theorem(7)
    reps = enumerate_lattices(7)
    length = len(_encode_rows(reps[0].poset.up))
    assert len(rep.packed) == rep.classes_checked == 53
    assert all(type(r) is bytes and not gc.is_tracked(r) for r in rep.packed)
    assert list(rep.packed) == sorted(rep.packed)
    assert [r[:length] for r in rep.packed] == [_encode_rows(l.poset.up) for l in reps]
    assert [r.covers for r in rep.records] == [l.poset.covers for l in reps]


@pytest.mark.parametrize("n", range(1, 9))
def test_decoded_records_match_direct_computation(n):
    """The decoded records of verify_theorem(n), with one and with two
    workers, equal the records computed on each canonical representative
    by the second routes: the partition oracle, the Kelly-Rival catalog
    and dismantling one element at a time."""
    direct = []
    for l in enumerate_lattices(n):
        con = con_count_oracle(l)
        direct.append(
            ClassRecord(
                covers=l.poset.covers,
                n=n,
                con=con,
                planar=is_planar_kr(l).planar,
                dismantlable=is_dismantlable_restart(l),
                many=n < 5 or con > 2 ** (n - 5),
            )
        )
    for jobs in (1, 2):
        rep = verify_theorem(n, jobs=jobs)
        assert list(rep.records) == direct
        assert rep.many_congruence_classes == sum(r.many for r in direct)
        assert rep.violations == tuple(r for r in direct if r.many and not r.planar)


@pytest.mark.parametrize("n", range(1, 10))
def test_leaf_order_gives_the_relabelled_form_and_covers(n):
    """For every leaf of the n-element sweep, the class record read off
    the leaf's canonical order holds the form and covers of the
    representative _relabel_with_twins builds, and decodes to those
    covers; a leaf that comes with an order comes with its own."""
    leaves = enumeration._sweep(n, lambda l, order, parent: (l, order))
    for l, order in leaves:
        rep = poset_mod._relabel_with_twins(l.poset)[0]
        record = _encode_rows(rep.up) + bytes([x for pair in rep.covers for x in pair])
        assert enumeration._form_and_covers(l, None, None) == record
        assert enumeration._record_covers(record) == rep.covers
        if order is not None:
            assert order == poset_mod._canonical_order(l.poset)
            assert enumeration._form_and_covers(l, order, None) == record


def test_down_sets_computed_only_for_roots(monkeypatch):
    """No lattice of a sweep computes its down-sets: the growth hands
    them down, and the congruence count reads the transposed dependency
    rows, not a quotient poset.  spectrum(9) and verify_theorem(9)
    compute them for the one-element root of _parents only: the 15
    subtree roots come with the down-sets their growth handed them.
    verify_theorem decides planarity by the 2-realizer, so it builds no
    catalog."""
    roots = [(1,)]
    computed = []
    down = poset_mod.Poset.__dict__["down"]
    func = down.func

    def recorded(p):
        computed.append(p.up)
        return func(p)

    monkeypatch.setattr(down, "func", recorded)
    assert spectrum(9).total_classes == 1078
    assert sorted(computed) == sorted(roots)
    computed.clear()
    kr_catalog.cache_clear()
    assert verify_theorem(9).classes_checked == 1078
    assert sorted(computed) == sorted(roots)
    assert kr_catalog.cache_info().currsize == 0


def test_verify_dismantles_only_the_classes_without_a_realizer(monkeypatch):
    """A class with a checked 2-realizer is planar, so dismantlable by
    Kelly-Rival: verify_theorem(9) dismantles only its 17 non-planar
    classes, and records every other class as dismantlable."""
    from latcon import planarity

    dismantled = []
    full = planarity.is_dismantlable
    monkeypatch.setattr(planarity, "is_dismantlable", lambda l: dismantled.append(l) or full(l))
    records = list(verify_theorem(9).records)
    assert len(dismantled) == sum(not r.planar for r in records) == 17
    assert all(r.dismantlable for r in records if r.planar)


def test_children_get_their_down_sets_from_the_parent(monkeypatch):
    """Every poset the growth labels carries down-sets equal to the ones
    computed from its rows, at the inner levels and at the last, where the
    bottom is added, and so does every representative it builds and every
    leaf it emits, with an order or as built.  The subtree roots come
    labelled, so nothing is labelled from its rows alone, and no lattice
    leaf is relabelled."""
    labelled = []
    reps = []
    canonical_order = poset_mod._canonical_order
    relabel_with_twins = enumeration._relabel_with_twins

    def order(p):
        labelled.append((p, vars(p).get("down")))
        return canonical_order(p)

    def record(p, order=None):
        node = relabel_with_twins(p, order)
        reps.append((node[0], vars(node[0]).get("down")))
        return node

    for module in (enumeration, poset_mod):
        monkeypatch.setattr(module, "_canonical_order", order)
    monkeypatch.setattr(enumeration, "_relabel_with_twins", record)
    leaves = enumeration._sweep(8, lambda l, order, parent: (l.poset, order, vars(l.poset).get("down")))
    assert len(leaves) == KNOWN_COUNTS[8]
    assert any(order is None for _, order, _ in leaves)
    assert any(order is not None for _, order, _ in leaves)
    assert {p.n for p, _ in labelled} == {2, 3, 4, 5, 6, 8}
    assert {p.n for p, _ in reps} == {2, 3, 4, 5, 6}
    for p, down in labelled + reps + [(leaf, down) for leaf, _, down in leaves]:
        assert down == _poset_from_up(p.up).down


def _labelled_in_sweeps(
    monkeypatch, sizes, per_class=lambda l, order, parent: enumeration._relabel_with_twins(l.poset, order)
):
    """(rep, twins, autos, searched) for every representative the sweeps
    of these sizes build with this per-class function: the semilattice
    children and roots, and the lattices, which the default relabels from
    the order the growth found or from none.  searched says whether
    _search ran on the poset; where it did not, the labelling must return
    no automorphisms."""
    calls = []
    relabel_with_twins = enumeration._relabel_with_twins
    search = poset_mod._search
    searched = {}

    def record(p, order=None):
        rep, twins, autos = relabel_with_twins(p, order)
        assert id(p) in searched or autos == ()
        calls.append((rep, twins, autos, id(p) in searched))
        return rep, twins, autos

    def recorded_search(p, *args):
        searched[id(p)] = p
        return search(p, *args)

    monkeypatch.setattr(enumeration, "_relabel_with_twins", record)
    monkeypatch.setattr(poset_mod, "_search", recorded_search)
    for n in sizes:
        assert len(enumeration._sweep(n, per_class)) == KNOWN_COUNTS[n]
    return calls


def _labelling_counts(monkeypatch, run, n):
    """The canonical orders found and the representatives built by run(n)."""
    count = {"orders": 0, "reps": 0}

    def counted(name, f):
        def wrapper(*args):
            count[name] += 1
            return f(*args)

        return wrapper

    with monkeypatch.context() as patch:
        for module in (enumeration, poset_mod):
            patch.setattr(module, "_canonical_order", counted("orders", module._canonical_order))
        patch.setattr(enumeration, "_relabel_with_twins", counted("reps", enumeration._relabel_with_twins))
        patch.setattr(enumeration, "_lattice_cache", {})
        run(n)
    return count


def test_twin_groups_are_automorphisms_of_the_representative(monkeypatch):
    """Every twin group returned beside a representative is a twin class
    of that representative, in its labels, and each transposition inside
    it maps the representative onto itself; so does every automorphism
    returned beside it, a permutation other than the identity: for every
    class with n <= 8 and every semilattice it is grown from but the
    one-element root."""
    calls = _labelled_in_sweeps(monkeypatch, range(3, 9))
    assert {rep.n for rep, _, _, _ in calls} == set(range(2, 9))
    assert any(autos and twins for _, twins, autos, _ in calls)
    for rep, twins, autos, _ in calls:
        assert set(twins) == twin_groups_bruteforce(rep)
        assert len(set(twins)) == len(twins)
        for g in twins:
            members = _bits(g)
            for u in members:
                for v in members:
                    swap = list(range(rep.n))
                    swap[u], swap[v] = v, u
                    assert relabel(rep, swap) == rep
        for sigma in autos:
            assert sorted(sigma) == list(range(rep.n)) and sigma != tuple(range(rep.n))
            assert relabel(rep, sigma) == rep


def test_twin_permutations_and_listed_automorphisms_give_all_of_them(monkeypatch):
    """Every automorphism of a representative is a permutation inside its
    twin groups composed with exactly one listed automorphism or with the
    identity, so an exhaustive count equals the product of |G|! times one
    more than the number listed.  Where no search ran, none are listed:
    the twin permutations are all of them."""
    calls = _labelled_in_sweeps(monkeypatch, range(3, 9))
    small = {_encode_rows(call[0].up): call for call in calls if call[0].n <= 7}
    assert sum(not searched for _, _, _, searched in small.values()) > 100
    assert sum(searched for _, _, _, searched in small.values()) > 5
    assert sum(bool(autos) for _, _, autos, _ in small.values()) > 5
    for rep, twins, autos, _ in small.values():
        twin_order = prod(factorial(g.bit_count()) for g in twins)
        assert count_automorphisms(rep) == twin_order * (1 + len(autos))


def test_sweep_labels_one_extension_per_automorphism_orbit(monkeypatch):
    """The n = 9 sweep that labels every class finds 1,402 canonical
    orders: 23 while growing the 15 roots, each root once, and 1,379 in
    the subtrees, in the growth or for the lattices it accepts
    unlabelled.  One extension per orbit of the twin swaps alone took
    1,505 labellings, and labelling every extension 2,040, both counted
    when each root was labelled a second time in its subtree."""

    def sweep(n):
        return enumeration._sweep(n, lambda l, order, parent: order or enumeration._canonical_order(l.poset))

    assert _labelling_counts(monkeypatch, enumeration._parents, 9)["orders"] == 23
    assert _labelling_counts(monkeypatch, sweep, 9)["orders"] == 1402


def test_spectrum_labels_only_where_acceptance_needs_it(monkeypatch):
    """At n = 9, spectrum finds the canonical orders of the semilattices
    and only of the lattices whose acceptance needed one, 390 in all,
    and builds the representatives of the 298 semilattices it grows
    further or roots a subtree at.  enumerate_lattices and
    verify_theorem build the same ones and find only the canonical order
    of the 1,012 lattices accepted unlabelled: each class once, 1,402 in
    all, as a sweep that labels every class does.  No node is labelled
    twice: a subtree labels nothing before it extends its root, which
    _parents labelled."""
    for run, orders in ((spectrum, 390), (enumerate_lattices, 1402), (verify_theorem, 1402)):
        assert _labelling_counts(monkeypatch, run, 9) == {"orders": orders, "reps": 298}, run.__name__
    events = []

    def logged(name, f):
        def wrapper(*args):
            events.append(name)
            return f(*args)

        return wrapper

    for module in (enumeration, poset_mod):
        monkeypatch.setattr(module, "_canonical_order", logged("label", module._canonical_order))
    monkeypatch.setattr(enumeration, "_relabel_with_twins", logged("label", enumeration._relabel_with_twins))
    monkeypatch.setattr(enumeration, "_extend_semilattice", logged("extend", enumeration._extend_semilattice))
    monkeypatch.setattr(enumeration, "_subtree", logged("subtree", enumeration._subtree))
    spectrum(9)
    starts = [i for i, event in enumerate(events) if event == "subtree"]
    assert len(starts) == 15
    assert all(events[i + 1] == "extend" for i in starts)


def test_growth_needs_the_automorphisms_and_the_twin_test(monkeypatch):
    """Two broken growths give the wrong number of classes at n = 8: one
    whose labellings drop the automorphisms their search met, so its
    orbit tests and up-set walks see too small a group, and one that
    treats every tie on the invariant as a tie with a twin of x, so it
    neither labels those lattices nor runs the orbit test."""
    canonical_order = enumeration._canonical_order
    extend = enumeration._extend_semilattice

    def sweep_size():
        return len(enumeration._sweep(8, lambda l, order, parent: None))

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_canonical_order", lambda p: canonical_order(p)[:2] + ([],))
        assert sweep_size() != KNOWN_COUNTS[8]
    with monkeypatch.context() as patch:
        patch.setattr(
            enumeration,
            "_extend_semilattice",
            lambda p, twins, autos: [(upset, []) for upset, _ in extend(p, twins, autos)],
        )
        assert sweep_size() != KNOWN_COUNTS[8]
    assert sweep_size() == KNOWN_COUNTS[8]


def sweep_parents(n):
    """(p, twins, autos) for every call of _extend_semilattice in the
    n-element sweep, and the number of classes the sweep gives.  The
    sweep for n grows every parent the sweeps for smaller sizes grow."""
    calls = []
    extend = enumeration._extend_semilattice

    def record(p, twins, autos):
        calls.append((p, twins, autos))
        return extend(p, twins, autos)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_extend_semilattice", record)
        classes = len(enumeration._sweep(n, lambda l, order, parent: None))
    return calls, classes


def check_extension_upsets(n, parents, classes):
    """The up-set walk, with the twin rule and the invariant built in,
    returns exactly what the filter chain over every up-set returns, in
    the same order, for every parent of the n-element sweep, which has
    `parents` parents and gives `classes` classes: the up-sets with their
    rivals, some parents with twins, some with automorphisms, some
    up-sets with rivals."""
    calls, found = sweep_parents(n)
    assert (len(calls), found) == (parents, classes), f"{len(calls)} parents, {found} classes"
    assert any(twins for _, twins, _ in calls)
    assert any(autos for _, _, autos in calls)
    tried = []
    for p, twins, autos in calls:
        got = enumeration._extend_semilattice(p, twins, autos)
        assert got == extend_semilattice_reference(p, twins, autos), p.up
        tried += got
    assert len(tried) > 1000
    assert any(rivals for _, rivals in tried)


def test_extension_upsets_match_the_filter_chain():
    """check_extension_upsets on the n = 9 sweep, whose parents are those
    of every sweep n <= 9; CI runs it on the n = 11 sweep."""
    check_extension_upsets(9, parents=299, classes=KNOWN_COUNTS[9])


def test_sweep_parents_are_linearly_ordered():
    """Every parent the growth extends lists each element after everything
    below it: bit j of up[i] set implies i <= j.  The up-set walk relies
    on it (see _extend_semilattice)."""
    for p, _, _ in sweep_parents(9)[0]:
        assert all(i <= j for i in range(p.n) for j in _bits(p.up[i])), p.up


@pytest.mark.parametrize("n", range(1, 10))
def test_unlabelled_leaves_complete_the_labelled_ones(n):
    """The leaves the growth accepted as built, once labelled, and the
    leaves it labelled give every canonical form of enumerate_lattices(n)
    exactly once; every sweep has leaves that come without an order, and
    from n = 6 on some come with one."""
    leaves = enumeration._sweep(n, lambda l, order, parent: (canonical_form(l.poset), order is None))
    forms = sorted(form for form, _ in leaves)
    assert forms == [_encode_rows(l.poset.up) for l in enumerate_lattices(n)]
    assert len(forms) == len(set(forms)) == KNOWN_COUNTS[n]
    assert any(unlabelled for _, unlabelled in leaves)
    assert any(not unlabelled for _, unlabelled in leaves) == (n >= 6)


@pytest.mark.parametrize("n", range(4, 9))
def test_sweep_leaves_are_pairwise_non_isomorphic(n):
    """Without any canonical labelling: the leaves of the sweep, as
    handed to the per-class function, fall into KNOWN_COUNTS[n]
    isomorphism classes by a brute-force isomorphism test."""
    leaves = enumeration._sweep(n, lambda l, order, parent: l.poset)
    assert len(leaves) == count_isomorphism_classes(leaves) == KNOWN_COUNTS[n]
