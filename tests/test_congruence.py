import pytest

from latcon.congruence import _dependency_rows, con_count, con_count_oracle, exceeds_threshold, jir_quasiorder
from latcon.enumeration import enumerate_lattices, sample_lattices
from latcon.lattice import (
    SizeError,
    _reducible_counts,
    dual_lattice,
    lattice_from_covers,
    make_boolean,
    make_chain,
    make_l_family,
    make_mk,
    make_product,
)
from latcon.poset import _bits, canonical_form, poset_from_covers
from oracles import (
    N5,
    _iter_partitions,
    con_count_bruteforce,
    dependency_rel_all_x,
    is_congruence,
    principal_congruence,
    refines,
)


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


def test_jir_quasiorder_chain():
    q = jir_quasiorder(make_chain(4))
    assert q.n == 3
    assert q.covers == ()


def test_jir_quasiorder_n5():
    q = jir_quasiorder(N5)
    assert q.n == 3
    v = poset_from_covers(3, [(0, 1), (0, 2)])
    assert canonical_form(q) == canonical_form(v)
    # c = 3 sits below both a = 1 and b = 2, and no two of them are equivalent
    assert _dependency_rows(N5)[1] == [0, 0b10, 0b100, 0b1110, 0]


def _jir_rows(l):
    """The rows of _dependency_rows on the join-irreducibles, the i-th as element i."""
    _, above, _ = _dependency_rows(l)
    index = {p: i for i, p in enumerate(l.lower_covers)}
    return tuple(sum(1 << index[q] for q in _bits(above[p])) for p in l.lower_covers)


def _rel_by_refinement(l):
    """Row a has bit b iff con(p_a*, p_a) refines con(p_b*, p_b), jir in index order."""
    cons = [principal_congruence(l, c, p) for p, c in l.lower_covers.items()]
    return tuple(sum(1 << b for b, cb in enumerate(cons) if refines(ca, cb)) for ca in cons)


def test_jir_quasiorder_matches_refinement():
    """The dependency-relation route gives the refinement quasiorder, row for row."""
    lattices = [l for n in range(1, 8) for l in enumerate_lattices(n)]
    for n in (8, 9, 10):
        lattices += sample_lattices(n, 60, seed=2024)
    lattices += [N5, make_l_family(11), dual_lattice(make_l_family(11))]
    for l in lattices:
        assert _jir_rows(l) == _rel_by_refinement(l)


def test_meet_irreducible_witnesses_match_all_x():
    """Reading p D q off the arrow relations (p up-arrow m and q down-arrow
    m for a meet-irreducible m) gives the same quasiorder as trying every
    element as a witness: on every class with n <= 9, their duals and the
    constructed families."""
    lattices = [l for n in range(1, 10) for l in enumerate_lattices(n)]
    lattices += [make_l_family(11), make_boolean(4), make_mk(10)]
    lattices += [dual_lattice(l) for l in lattices] + _oracle_families()
    for l in lattices:
        assert _jir_rows(l) == dependency_rel_all_x(l)


def test_jir_quasiorder_m3():
    assert jir_quasiorder(make_mk(3)).n == 1


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

    for name in ("jir_quasiorder", "_dependency_rows", "_count_hereditary"):
        monkeypatch.setattr(congruence, name, forbidden)
    assert con_count_oracle(N5) == 5
    assert con_count_oracle(make_boolean(3)) == 8


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
    def many(l):
        return exceeds_threshold(l.n, con_count(l))

    assert many(make_chain(5))  # 16 > 1
    assert not many(make_l_family(8))  # 8 = threshold exactly
    assert many(make_mk(3))  # 2 > 1
    for n in (1, 2, 3, 4):
        assert many(make_chain(n))


def _collisions(l):
    """The pairs p < q of join-irreducibles in one block of the quasiorder."""
    _, above, _ = _dependency_rows(l)
    return {(p, q) for p in l.lower_covers for q in _bits(above[p]) if p < q and above[q] >> p & 1}


def _collisions_by_principal_congruences(l):
    """The pairs p < q of join-irreducibles with equal con(p_*, p) and
    con(q_*, q), one principal congruence per join-irreducible."""
    cons = {p: principal_congruence(l, c, p).blocks for p, c in l.lower_covers.items()}
    return {(p, q) for p in cons for q in cons if p < q and cons[p] == cons[q]}


def test_few_criteria_boolean4():
    """B_4 has four or more join- and meet-reducible elements."""
    assert _reducible_counts(make_boolean(4)) == (11, 11)


def test_few_criteria_chain():
    l = make_chain(6)
    assert _reducible_counts(l) == (0, 0)
    assert _collisions(l) == set()
    assert jir_quasiorder(l).n == len(l.lower_covers) == 5


def test_few_criteria_m3_collision():
    l = make_mk(3)
    assert _collisions(l) == {(1, 2), (1, 3), (2, 3)}
    assert _reducible_counts(l) == (1, 1)


def test_few_criteria_collision_matches_principal_congruences():
    """The join-irreducibles the quasiorder puts in one block are those
    with equal principal congruences, and the quotient has one element
    per distinct one, on every class with n <= 8, and on a 9-element
    lattice with the two blocks {1, 5, 6} and {2, 3}."""
    lattices = [l for n in range(1, 9) for l in enumerate_lattices(n)]
    assert len(lattices) == 300
    found = [_collisions(l) for l in lattices]
    assert found == [_collisions_by_principal_congruences(l) for l in lattices]
    assert sum(bool(c) for c in found) == 194
    for l in lattices[1:]:
        cons = {principal_congruence(l, c, p).blocks for p, c in l.lower_covers.items()}
        assert jir_quasiorder(l).n == len(cons)
    l9 = lattice_from_covers(
        9,
        [(0, 1), (0, 2), (0, 3), (1, 7), (2, 4), (3, 4), (4, 5), (4, 6), (4, 7), (5, 8), (6, 8), (7, 8)],
    )
    assert _collisions(l9) == _collisions_by_principal_congruences(l9) == {(1, 5), (1, 6), (5, 6), (2, 3)}


def test_refines_direction():
    small = principal_congruence(N5, 1, 3)
    big = principal_congruence(N5, 0, 2)
    assert refines(small, big)
    assert not refines(big, small)


def test_jir_quasiorder_is_reflexive_transitive():
    for n in range(2, 7):
        for l in enumerate_lattices(n):
            rel = _jir_rows(l)
            for a in range(len(rel)):
                assert rel[a] >> a & 1
                rest = rel[a]
                while rest:
                    b = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    assert rel[b] & ~rel[a] == 0
