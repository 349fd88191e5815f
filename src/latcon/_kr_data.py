"""Cover lists for the forbidden-lattice catalog.

Eight families. A_i is generated for every i (bottom, top and a cyclic
crown of i+3 atoms and i+3 coatoms, each atom under two cyclically
adjacent coatoms); the other families are the transcribed members with
at most 13 elements, in one table. They are the minimal non-planar
lattices under induced-subposet containment modulo duality through 13
elements: the oracle ``minimal_nonplanar`` in ``tests/oracles.py``
reproduces exactly these from the enumerator's sweep (2,018,305 classes
at 13 elements), through 10 elements in the tests, 11 in CI and 13 by a
manual run. ``test_catalog_entries_validate`` checks every entry of
``kr_catalog(13)`` against the 2-realizer route and the networkx oracle.
Entries are one orientation per dual pair; planarity checks always
probe the dual side too, so dual orientations are redundant.
"""

from __future__ import annotations

# Families whose members with |Jred| = |Mred| = 3 are expected: E_0 and
# F_0 per the structural characterization, plus the documented G_0
# exception (see the catalog validation notes).
REDUCIBLE_33_ENTRIES = ("E_0", "F_0", "G_0")


def _a_family(i: int):
    """Self-dual crown completions, 2i+8 elements."""
    k = i + 3
    covers = []
    top = 2 * k + 1
    for a in range(1, k + 1):
        covers.append((0, a))
        covers.append((k + a, top))
        covers.append((a, k + a))
        covers.append((a, k + 1 + a % k))
    return 2 * k + 2, covers


# The transcribed members, name -> (n, covers): the family tag, then the
# index within the family after an underscore, except for the sporadic
# B, C and D.
MEMBERS = {
    "B": (9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 7), (2, 6), (3, 5), (4, 5),
              (4, 6), (4, 7), (5, 8), (6, 8), (7, 8)]),
    "C": (9, [(0, 1), (0, 2), (0, 3), (1, 6), (2, 5), (3, 4), (3, 5), (3, 6),
              (4, 8), (5, 7), (6, 7), (7, 8)]),
    "D": (9, [(0, 1), (0, 2), (1, 5), (2, 3), (2, 4), (2, 5), (3, 7), (4, 6),
              (5, 6), (5, 7), (6, 8), (7, 8)]),
    "E_0": (9, [(0, 1), (0, 2), (0, 3), (1, 7), (2, 5), (2, 6), (3, 4), (3, 6),
                (4, 8), (5, 8), (6, 7), (7, 8)]),
    "E_1": (11, [(0, 1), (0, 2), (0, 3), (1, 8), (2, 7), (3, 4), (3, 5),
                 (3, 6), (4, 10), (5, 8), (5, 9), (6, 7), (6, 9), (7, 10),
                 (8, 10), (9, 10)]),
    "E_2": (13, [(0, 1), (0, 2), (0, 3), (1, 9), (2, 8), (3, 4), (3, 5),
                 (3, 6), (3, 7), (4, 12), (5, 9), (5, 11), (6, 8), (6, 10),
                 (7, 10), (7, 11), (8, 12), (9, 12), (10, 12), (11, 12)]),
    "F_0": (9, [(0, 1), (0, 2), (1, 6), (2, 3), (2, 4), (3, 7), (4, 5), (4, 6),
                (5, 8), (6, 7), (7, 8)]),
    "F_1": (11, [(0, 1), (0, 2), (1, 7), (2, 3), (2, 4), (2, 5), (3, 9),
                 (4, 6), (4, 8), (5, 7), (5, 8), (6, 10), (7, 9), (8, 9),
                 (9, 10)]),
    "F_2": (13, [(0, 1), (0, 2), (1, 8), (2, 3), (2, 4), (2, 5), (2, 6),
                 (3, 11), (4, 7), (4, 9), (5, 8), (5, 10), (6, 9), (6, 10),
                 (7, 12), (8, 11), (9, 11), (10, 11), (11, 12)]),
    "G_0": (10, [(0, 1), (0, 2), (0, 3), (1, 8), (2, 6), (3, 4), (3, 5),
                 (3, 6), (4, 9), (5, 8), (6, 7), (6, 8), (7, 9), (8, 9)]),
    "H_0": (11, [(0, 1), (0, 2), (1, 5), (2, 3), (2, 4), (2, 5), (3, 9),
                 (4, 7), (5, 6), (5, 7), (6, 9), (7, 8), (7, 9), (8, 10),
                 (9, 10)]),
}
