import pytest

from latcon.congruence import (
    CapExceededError,
    Congruence,
    con_count,
    con_count_oracle,
    con_enumerate,
    congruence_join,
    few_criteria,
    has_many_congruences,
    jir_quasiorder,
    principal_congruence,
)
from latcon.enumeration import enumerate_lattices, sample_lattices
from latcon.lattice import (
    SizeError,
    dual_lattice,
    irreducibles,
    lattice_from_covers,
    make_boolean,
    make_chain,
    make_l_family,
    make_mk,
    make_product,
    transposes_up,
)
from latcon.poset import canonical_form, poset_from_covers
from oracles import _iter_partitions, con_count_bruteforce, dependency_rel_all_x, is_congruence, refines

N5 = lattice_from_covers(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])


def test_principal_reflexive_pair_is_identity():
    c = principal_congruence(N5, 2, 2)
    assert c.blocks == ((0,), (1,), (2,), (3,), (4,))


def test_principal_n5_bottom_b():
    c = principal_congruence(N5, 0, 2)
    assert c.blocks == ((0, 2), (1, 3, 4))


def test_principal_n5_a_c():
    c = principal_congruence(N5, 1, 3)
    assert c.blocks == ((0,), (1, 3), (2,), (4,))
    assert is_congruence(N5, c.blocks)


def test_congruence_join_identity_and_idempotence():
    ident = principal_congruence(N5, 0, 0)
    c = principal_congruence(N5, 0, 2)
    assert congruence_join(ident, c, N5).blocks == c.blocks
    assert congruence_join(c, c, N5).blocks == c.blocks


def test_congruence_join_n5_generates():
    c1 = principal_congruence(N5, 1, 3)
    c2 = principal_congruence(N5, 0, 2)
    j = congruence_join(c1, c2, N5)
    assert is_congruence(N5, j.blocks)
    assert refines(c1, j) and refines(c2, j)
    # oracle: the closure of both generating pairs at once
    from latcon.congruence import _close

    assert j.blocks == _close(N5, [(1, 3), (0, 2)]).blocks


def test_jir_quasiorder_chain():
    q = jir_quasiorder(make_chain(4))
    assert q.qu_poset.n == 3
    assert q.qu_poset.covers == ()


def test_jir_quasiorder_n5():
    q = jir_quasiorder(N5)
    assert q.qu_poset.n == 3
    v = poset_from_covers(3, [(0, 1), (0, 2)])
    assert canonical_form(q.qu_poset) == canonical_form(v)
    # c = 3 sits below both a = 1 and b = 2
    assert q.block_of[3] != q.block_of[1] != q.block_of[2]


def _rel_by_refinement(l):
    """Row a has bit b iff con(p_a*, p_a) refines con(p_b*, p_b), jir in index order."""
    irr = irreducibles(l)
    cons = [principal_congruence(l, irr.lower_cover[p], p) for p in sorted(irr.jir)]
    return tuple(sum(1 << b for b, cb in enumerate(cons) if refines(ca, cb)) for ca in cons)


def test_jir_quasiorder_matches_refinement():
    """The dependency-relation route gives the refinement quasiorder, row for row."""
    lattices = [l for n in range(1, 8) for l in enumerate_lattices(n)]
    for n in (8, 9, 10):
        lattices += sample_lattices(n, 60, seed=2024, max_n=10)
    lattices += [N5, make_l_family(11), dual_lattice(make_l_family(11))]
    for l in lattices:
        assert jir_quasiorder(l).rel == _rel_by_refinement(l)


def test_meet_irreducible_witnesses_match_all_x():
    """Trying only meet-irreducible witnesses above q_* gives the same
    quasiorder as trying every element: on every class with n <= 9, their
    duals and the constructed families."""
    lattices = [l for n in range(1, 10) for l in enumerate_lattices(n)]
    lattices += [make_l_family(11), make_boolean(4), make_mk(10)]
    lattices += [dual_lattice(l) for l in lattices] + _oracle_families()
    for l in lattices:
        assert jir_quasiorder(l).rel == dependency_rel_all_x(l)


def test_jir_quasiorder_m3():
    q = jir_quasiorder(make_mk(3))
    assert q.qu_poset.n == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_con_count_chain(n):
    assert con_count(make_chain(n)) == 2 ** (n - 1)


def test_con_count_known_values():
    assert con_count(make_mk(3)) == 2
    assert con_count(N5) == 5
    assert con_count(make_boolean(3)) == 8


def test_con_enumerate_singleton():
    l = make_chain(1)
    assert [c.blocks for c in con_enumerate(l)] == [((0,),)]


def test_con_enumerate_n5():
    cons = con_enumerate(N5)
    assert len(cons) == 5
    blocks = {c.blocks for c in cons}
    assert ((0,), (1,), (2,), (3,), (4,)) in blocks
    assert ((0, 1, 2, 3, 4),) in blocks
    for c in cons:
        assert is_congruence(N5, c.blocks)


def test_con_enumerate_chain3():
    assert len(con_enumerate(make_chain(3))) == 4


def test_con_enumerate_closed_under_join():
    for l in (N5, make_mk(3), make_chain(4)):
        cons = con_enumerate(l)
        blocks = {c.blocks for c in cons}
        for c1 in cons:
            for c2 in cons:
                assert congruence_join(c1, c2, l).blocks in blocks


def test_con_enumerate_cap():
    with pytest.raises(CapExceededError):
        con_enumerate(make_chain(8), cap=100)


def test_con_enumerate_checks_cap_before_closing(monkeypatch):
    import latcon.congruence as congruence

    def no_close(l, pairs):
        raise AssertionError("_close called before the cap check")

    monkeypatch.setattr(congruence, "_close", no_close)
    with pytest.raises(CapExceededError):
        con_enumerate(make_chain(8), cap=100)


def test_con_enumerate_builds_quasiorder_once(monkeypatch):
    import latcon.congruence as congruence

    calls = []
    real = congruence.jir_quasiorder

    def counted(l):
        calls.append(l.n)
        return real(l)

    monkeypatch.setattr(congruence, "jir_quasiorder", counted)
    assert len(con_enumerate(N5)) == 5
    assert calls == [5]


def test_con_enumerate_rejects_inconsistent_result(monkeypatch):
    import latcon.congruence as congruence

    identity = Congruence(tuple((x,) for x in range(N5.n)))
    monkeypatch.setattr(congruence, "_close", lambda l, pairs: identity)
    with pytest.raises(RuntimeError, match="expected 5"):
        con_enumerate(N5)


def test_oracle_known_values():
    assert con_count_oracle(make_chain(4)) == 8
    assert con_count_oracle(N5) == 5
    assert con_count_oracle(make_mk(3)) == 2


def test_oracle_guard():
    with pytest.raises(SizeError):
        con_count_oracle(make_chain(11))


def _oracle_families():
    """Constructed lattices of at most 10 elements and their duals."""
    fams = [make_chain(n) for n in range(1, 11)]
    fams += [make_mk(k) for k in range(3, 9)]
    fams += [make_boolean(3)]
    fams += [make_product(make_chain(a), make_chain(b)) for a, b in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3))]
    return fams + [dual_lattice(l) for l in fams]


def test_oracle_matches_bruteforce():
    """The pruned search counts exactly the partitions the unpruned check accepts."""
    for n in range(1, 9):
        for l in enumerate_lattices(n):
            assert con_count_oracle(l) == con_count_bruteforce(l)
    for l in _oracle_families():
        assert con_count_oracle(l) == con_count_bruteforce(l)


def test_oracle_reads_only_the_tables(monkeypatch):
    """The partition oracle stays independent of the quasiorder route."""
    import latcon.congruence as congruence

    def forbidden(*args):
        raise AssertionError("the partition oracle used the quasiorder route")

    for name in ("jir_quasiorder", "_close", "count_downsets"):
        monkeypatch.setattr(congruence, name, forbidden)
    assert con_count_oracle(N5) == 5
    assert con_count_oracle(make_boolean(3)) == 8


def test_oracle_equivalence_small():
    for n in range(1, 7):
        for l in enumerate_lattices(n):
            assert con_count(l) == con_count_oracle(l)


def test_is_congruence_accepts_exactly_the_congruences():
    """Among all partitions, is_congruence accepts con_count of them."""
    for n in range(1, 6):
        for l in enumerate_lattices(n):
            accepted = 0
            for code in _iter_partitions(n):
                blocks = [[x for x in range(n) if code[x] == b] for b in range(max(code) + 1)]
                accepted += is_congruence(l, blocks)
            assert accepted == con_count(l)


def test_has_many_congruences():
    assert has_many_congruences(make_chain(5))  # 16 > 1
    assert not has_many_congruences(make_l_family(8))  # 8 = threshold exactly
    assert has_many_congruences(make_mk(3))  # 2 > 1
    for n in (1, 2, 3, 4):
        assert has_many_congruences(make_chain(n))


def test_few_criteria_boolean4():
    crit = few_criteria(make_boolean(4))
    assert crit.jred_ge4 and crit.mred_ge4


def test_few_criteria_chain():
    crit = few_criteria(make_chain(6))
    assert not crit.jred_ge4 and not crit.mred_ge4
    assert crit.jir_collision is None


def test_few_criteria_m3_collision():
    crit = few_criteria(make_mk(3))
    assert crit.jir_collision == (1, 2)
    assert not crit.jred_ge4


def _jir_collision_by_principal_congruences(l):
    """The least pair p < q of join-irreducibles with equal con(p_*, p)
    and con(q_*, q), one principal congruence per join-irreducible."""
    irr = irreducibles(l)
    jir = sorted(irr.jir)
    cons = {p: principal_congruence(l, irr.lower_cover[p], p).blocks for p in jir}
    for i, p in enumerate(jir):
        for q in jir[i + 1 :]:
            if cons[p] == cons[q]:
                return (p, q)
    return None


def test_few_criteria_collision_matches_principal_congruences():
    """The collision read off the quasiorder's blocks is the one found by
    comparing principal congruences, on every class with n <= 8, and on a
    9-element lattice whose blocks {1, 5} and {2, 3} make the least pair
    differ from the first repeated block."""
    lattices = [l for n in range(1, 9) for l in enumerate_lattices(n)]
    assert len(lattices) == 300
    found = [few_criteria(l).jir_collision for l in lattices]
    assert found == [_jir_collision_by_principal_congruences(l) for l in lattices]
    assert sum(c is not None for c in found) == 194
    l9 = lattice_from_covers(
        9,
        [(0, 1), (0, 2), (0, 3), (1, 7), (2, 4), (3, 4), (4, 5), (4, 6), (4, 7), (5, 8), (6, 8), (7, 8)],
    )
    assert few_criteria(l9).jir_collision == _jir_collision_by_principal_congruences(l9) == (1, 5)


def test_refines_direction():
    small = principal_congruence(N5, 1, 3)
    big = principal_congruence(N5, 0, 2)
    assert refines(small, big)
    assert not refines(big, small)


def test_duality_preserves_count():
    for l in (N5, make_mk(4), make_boolean(3), make_l_family(9), make_chain(6)):
        assert con_count(l) == con_count(dual_lattice(l))


def test_transposed_intervals_same_congruence():
    """Transposed intervals generate equal principal congruences."""
    for n in range(2, 7):
        for l in enumerate_lattices(n):
            for a in range(n):
                for b in range(n):
                    if not l.leq(a, b):
                        continue
                    for c in range(n):
                        for d in range(n):
                            if not l.leq(c, d):
                                continue
                            if transposes_up(l, a, b, c, d):
                                assert (
                                    principal_congruence(l, a, b).blocks
                                    == principal_congruence(l, c, d).blocks
                                )


def test_fjn_bound_chain():
    """|Con| <= 2^|Qu| <= 2^|Jir| over the small enumerated universe."""
    from latcon.lattice import irreducibles

    for n in range(2, 7):
        for l in enumerate_lattices(n):
            q = jir_quasiorder(l)
            assert con_count(l) <= 2 ** q.qu_poset.n <= 2 ** len(irreducibles(l).jir)


def test_distributive_equality():
    from latcon.lattice import irreducibles, is_distributive

    for n in range(1, 7):
        for l in enumerate_lattices(n):
            if is_distributive(l):
                assert con_count(l) == 2 ** len(irreducibles(l).jir)


def test_congruence_same_helper():
    c = Congruence(((0, 2), (1, 3, 4)))
    assert c.same(1, 4) and not c.same(0, 1)
    assert c.n == 5


def test_jir_quasiorder_is_reflexive_transitive():
    for n in range(2, 7):
        for l in enumerate_lattices(n):
            q = jir_quasiorder(l)
            m = len(q.jir_list)
            for a in range(m):
                assert q.rel[a] >> a & 1
                rest = q.rel[a]
                while rest:
                    b = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    assert q.rel[b] & ~q.rel[a] == 0


def test_con_count_matches_quotient_route_and_oracle():
    """con_count counts the hereditary sets straight from the closed
    dependency rows and their transpose; counting the downsets of the
    quotient poset jir_quasiorder builds, and the partition oracle, give
    the same number on every class with n <= 9 and its dual."""
    from latcon.congruence import _dependency_rows
    from latcon.poset import count_downsets

    checked = 0
    for n in range(2, 10):
        for rep in enumerate_lattices(n):
            for l in (rep, dual_lattice(rep)):
                jmask, above, below = _dependency_rows(l)
                assert jmask == sum(1 << p for p in irreducibles(l).jir)
                for x in range(l.n):
                    assert above[x] | below[x] == 0 or jmask >> x & 1
                    assert below[x] == sum(1 << p for p in range(l.n) if above[p] >> x & 1)
                con = con_count(l)
                assert con == count_downsets(jir_quasiorder(l).qu_poset) == con_count_oracle(l)
                checked += 1
    assert checked == 2 * (1 + 1 + 2 + 5 + 15 + 53 + 222 + 1078)
