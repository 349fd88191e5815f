"""The value records: equality, hashing and immutability.

Poset and Lattice compare and hash on their fields only, whatever their
cached properties hold.  The other records are named tuples.
"""

import pytest

from latcon.enumeration import verify_theorem
from latcon.lattice import Lattice, make_boolean, validate_lattice
from latcon.planarity import kr_catalog
from latcon.poset import Embedding, Poset, _poset_from_up, poset_from_covers

N5_COVERS = [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]


def test_poset_compares_and_hashes_on_its_fields():
    p = poset_from_covers(5, N5_COVERS)
    assert p.covers and p.heights and p.down  # fill the caches
    fresh = Poset(p.n, p.up)
    assert "down" not in vars(fresh)
    assert p == fresh and hash(p) == hash(fresh)
    assert p != Poset(p.n, p.down)
    assert p != (p.n, p.up)
    assert len({p, fresh}) == 1


def test_lattice_with_built_tables_equals_a_fresh_one():
    l = validate_lattice(poset_from_covers(5, N5_COVERS))
    assert "up_index" in vars(l)
    assert l.join and l.meet and l.lower_covers is not None
    fresh = Lattice(Poset(l.n, l.poset.up), l.bottom, l.top)
    assert not {"join", "up_index"} & vars(fresh).keys()
    assert l == fresh and hash(l) == hash(fresh)
    assert l != Lattice(l.poset, l.top, l.bottom)
    assert l != l.poset


@pytest.mark.parametrize("field", ["n", "up", "down", "covers"])
def test_poset_fields_cannot_be_assigned(field):
    p = poset_from_covers(5, N5_COVERS)
    with pytest.raises(AttributeError):
        setattr(p, field, ())
    with pytest.raises(AttributeError):
        delattr(p, field)


@pytest.mark.parametrize("field", ["poset", "bottom", "top", "join"])
def test_lattice_fields_cannot_be_assigned(field):
    l = make_boolean(2)
    with pytest.raises(AttributeError):
        setattr(l, field, 0)
    with pytest.raises(AttributeError):
        delattr(l, field)


def test_poset_from_up_returns_the_stored_down_rows():
    p = poset_from_covers(5, N5_COVERS)
    down = tuple(p.down)
    q = _poset_from_up(p.up, down)
    assert q.down is down
    assert q == p


def test_named_tuple_records_keep_their_fields():
    assert Embedding((2, 0, 1)).mapping == (2, 0, 1)
    rep = verify_theorem(5)
    assert (rep.n, rep.classes_checked, rep.violations) == (5, 5, ())
    with pytest.raises(AttributeError):
        rep.n = 6
    record = next(iter(rep.records))
    assert record.n == 5 and record.con >= 1


def test_catalog_index_and_size_read_as_before():
    assert [(e.name, e.family, e.index, e.size) for e in kr_catalog(13)] == [
        ("A_0", "A", 0, 8),
        ("B", "B", 0, 9),
        ("C", "C", 0, 9),
        ("D", "D", 0, 9),
        ("E_0", "E", 0, 9),
        ("F_0", "F", 0, 9),
        ("A_1", "A", 1, 10),
        ("G_0", "G", 0, 10),
        ("E_1", "E", 1, 11),
        ("F_1", "F", 1, 11),
        ("H_0", "H", 0, 11),
        ("A_2", "A", 2, 12),
        ("E_2", "E", 2, 13),
        ("F_2", "F", 2, 13),
    ]
