"""Isomorph-free exhaustive generation of finite lattices.

The generator grows join-semilattices one new minimal element at a time
and appends a fresh bottom at the end.  Removing the bottom of a lattice
leaves a join-semilattice, and removing a minimal element of a
join-semilattice leaves a join-semilattice, so every class is reached
from the class of one of its one-smaller semilattices.

Growth is depth-first canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).  Each child C = P + x is
accepted only when x lies in the orbit of C's canonical deletion under
the automorphisms of C.  The canonical deletion, star, is the minimal
element of C with the largest value of a cheap invariant and, where
several tie, the least canonical position.  Acceptance then depends
only on the class of C, and the parent of an accepted C is isomorphic
to C minus star, so each class is accepted under one parent only.

Within one parent, up-sets that an automorphism of the parent maps
onto each other give isomorphic children, so one per orbit is enough.
The parent's canonical labelling returns its twin groups (incomparable
elements related alike to every other element: any permutation inside
a group is an automorphism) and the other automorphisms its search
met; together they give all of them.  The up-set walk builds only the
up-sets that meet every twin group in the group's lowest elements, and
one is tried only where x's invariant is largest and no automorphism
followed by twin swaps maps it onto a smaller mask: one up-set per
orbit (at n = 10, 7,509 of the 25,794 built).

So no two accepted siblings C = p + x and C' = p + x' (each with its
bottom, which an isomorphism fixes) are isomorphic.  An isomorphism
keeps the invariant, so the one that keeps the canonical positions maps
star to star', the canonical deletion of C', and every other differs
from it by an automorphism of C'.  So it maps star's orbit in C, which
holds x, onto the orbit of star' in C', which holds x'.  Followed by an
automorphism of C' it sends x to x', so it restricts to an automorphism
of p that maps U onto U'; but one up-set per orbit was tried, so
U = U'.  The orbits of C are read off its own canonical order, which
returns its twin groups and automorphisms in C's own labels.  No set of
children or of canonical forms is kept; the independent labeled-poset
oracle in tests/oracles.py anchors correctness.

Each node of the growth tree is labelled at most once.  A lattice, or a
semilattice that roots a subtree, is labelled only where acceptance
needs it: where x ties on the invariant with a minimal element that is
not its twin.  Otherwise every element of C with the largest value is x
or a twin of x, all in one orbit, so C passes the acceptance test as
built.  An accepted child grown further gets its representative from
the same canonical order, and a root comes with the labelling made for it.

The growth yields its leaves one at a time, and a sweep validates each
once and hands its per-class function two things: the lattice as grown
and its canonical order or None.  The spectrum needs only a congruence
count and labels none of the rest (5,710 of the 5,994 classes at
n = 10).  Every other sweep keeps one class record per class, sorted
by canonical form: it moves the lattice's up-rows through its order,
found where the growth found none, and reads the covers off the moved
rows, already sorted, so no leaf is relabelled.  verify_theorem
computes every verdict on the lattice as grown: none depends on the
labels.  A leaf keeps its parent's labels, with x and then the bottom
last, so its planarity verdict reads the parent off the leaf and places
the leaf into the parent's 2-realizer where it fits, running TRO on the
leaf only where it does not and the parent has a 2-realizer (see
planarity._placed_realizer): at n = 10, 2,379 TROs.  The leaves of
one parent come one after another, so the parent's realizer is found
once, when its first leaf asks for it, and the spectrum and enumerate
run no TRO.

Because acceptance needs nothing outside a parent's own subtree, the
sweeps split the growth tree at the canonical semilattices with
max(1, n - 4) elements and run each subtree end to end: growth,
validation and the per-class function.  Only the per-class results
leave a subtree, so no sweep holds a list of lattices, and the
subtrees can run in worker processes.  A class record is one bytes
object: the canonical form, then the representative's covers; a
theorem record adds the congruence count and a flag byte for the three
verdicts at its end.  Forms of one size have one length and differ
between classes, so sorting the records sorts them by form and gives
the same output for any number of workers; a record is decoded only
when it is read.  enumerate_lattices builds its lattices from the
forms of the sorted records, and the enumerate command prints their
covers without building any.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Optional, TypeVar

from .congruence import con_count, exceeds_threshold
from .lattice import Lattice, SizeError, validate_lattice
from .planarity import planar_and_dismantlable
from .poset import (
    Poset,
    _bits,
    _canonical_order,
    _cover_pairs,
    _decode_rows,
    _encode_rows,
    _encoded_length,
    _permuted_rows,
    _poset_from_up,
    _relabel_with_twins,
)

HARD_MAX_N = 12

_lattice_cache: dict[int, list[Lattice]] = {}

T = TypeVar("T")


def _extend_semilattice(
    p: Poset, twins: tuple[int, ...], autos: tuple[tuple[int, ...], ...]
) -> list[tuple[int, list[int]]]:
    """The up-sets U worth building a child C = p + x on, x a new minimal
    element below U, each with the rivals of x, in increasing mask order.

    p is a canonical semilattice with twin groups twins (masks) and
    automorphisms autos, as _relabel_with_twins gives them.  U is kept
    only if it meets every twin group in the group's lowest elements, no
    minimal element of p has a larger invariant than x (the rivals are
    those with an equal one), U is the least such up-set of its orbit
    under p's automorphisms, and joins in C stay total.

    Being canonical, p lists every element after everything below it:
    colours start as the ranks of (|down|, |up|), i < j in p gives
    |down(i)| < |down(j)|, refinement ranks by the old colour first, and
    the canonical order sorts by colour.  So the walk decides elements
    from n - 1 down, each after its strict up-set, which it may join
    once that set has; out before in gives increasing masks.  An element
    decided after a twin of larger index has joined U joins too, which
    is the twin rule.  The other tests run on the finished up-sets.
    """
    n, up = p.n, p.up
    size = [row.bit_count() for row in up]
    # The twins of larger index of each element in a twin group.
    later = {j: g >> j + 1 << j + 1 for g in twins for j in _bits(g)}
    # Each up-set U is one int: its mask, with the sum of |up(j)| over j
    # in U above bit n.  Where a later twin of x is in U, x is not left
    # out, and it can join: the twin's strict up-set is x's.
    walk = [0]
    for x in range(n - 1, -1, -1):
        bit = 1 << x
        rest = up[x] ^ bit
        take = size[x] << n | bit
        forced = later.get(x, 0)
        nxt = []
        for cur in walk:
            if not cur & forced:
                nxt.append(cur)
            if not rest & ~cur:
                nxt.append(cur + take)
        walk = nxt
    # The invariant of a minimal element y, (|up(y)|, sum of |up(j)| over
    # up(y)), packed as |up(y)| << shift | sum, as every sum is below
    # 2^shift; x does not change it.  Largest first, ties in index order:
    # only the first one outside U can beat x, the rivals follow it, and
    # a sentinel outside every U ends the list.
    shift = 2 * n.bit_length()
    minimal = [i for i in range(n) if p.down[i] == 1 << i]
    invariant = {i: size[i] << shift | sum(size[j] for j in _bits(up[i])) for i in minimal}
    ranked = sorted(invariant.items(), key=lambda pair: (-pair[1], pair[0])) + [(n, -1)]
    full = (1 << n) - 1
    if autos:
        lowest = [(g, list(accumulate((1 << b for b in _bits(g)), initial=0))) for g in twins]
    out = []
    for cur in walk[1:]:  # walk[0] is the empty set
        upset = cur & full
        c = upset.bit_count() + 1
        fx = c << shift | c + (cur >> n)
        rivals = []
        for i, inv in ranked:
            if not upset >> i & 1:
                if inv != fx:
                    break
                rivals.append(i)
        if inv > fx:
            continue
        # An automorphism and then twin swaps map U onto a smaller mask
        # of the same orbit, which is tried instead.
        if autos and any(_image(_bits(upset), sigma, lowest) < upset for sigma in autos):
            continue
        if _joins_total(up, upset):
            out.append((upset, rivals))
    return out


def _image(
    members: tuple[int, ...], sigma: tuple[int, ...], lowest: list[tuple[int, list[int]]]
) -> int:
    """The image of a set under sigma, with its part in each twin group g
    moved to g's lowest elements; lowest pairs each g with the masks of
    its lowest c members, c = 0, 1, ..."""
    image = 0
    for j in members:
        image |= 1 << sigma[j]
    for g, low in lowest:
        image = image & ~g | low[(image & g).bit_count()]
    return image


def _same_orbit(u: int, v: int, group: list[int], autos: list[list[int]]) -> bool:
    """Whether an automorphism of a poset with these twin group ids and
    listed automorphisms, as _canonical_order returns them, maps u to v:
    whether v is in the twin group of u or of an image of u under a
    listed one."""
    return group[v] in {group[u], *(group[sigma[u]] for sigma in autos)}


def _joins_total(up: tuple[int, ...], upset: int) -> bool:
    """Whether joins stay total when a new minimal element x goes below
    the up-set U of the semilattice with these up-rows.

    The join of x with any y outside U must be the least element of U
    intersected with up(y), so that set needs a minimum.
    """
    for y, row in enumerate(up):
        if upset >> y & 1:
            continue
        meetables = upset & row
        for w in _bits(meetables):
            if meetables & ~up[w] == 0:
                break
        else:
            return False
    return True


def _grow(
    p: Poset,
    twins: tuple[int, ...],
    autos: tuple[tuple[int, ...], ...],
    m: int,
    bottom: bool = True,
) -> Iterator[tuple[Poset, Optional[tuple]]]:
    """Yield (child, order) once per class grown from p.

    p is a canonical semilattice representative with fewer than m
    elements; twins and autos are its twin groups of two or more
    elements, as masks, and the automorphisms its labelling met.  One
    up-set is tried per orbit of p's automorphisms (see
    _extend_semilattice), and a child C = p + x is kept only if x lies in
    the orbit of C's canonical deletion under C's automorphisms, which
    C's canonical order returns; no two kept children are isomorphic (see
    the module docstring).  Smaller children are grown further from
    their representatives.  Children with m elements are yielded as
    built, with their down-sets: with a bottom added as (m+1)-element
    lattices, or as they are when bottom is False.  They keep p's labels:
    x is element p.n, and a bottom p.n + 1.  The children of one p come
    one after another.

    Each child is labelled at most once.  order is the child's
    _canonical_order, or None where x ties with nothing but its own
    twins, so acceptance needed no labelling.
    """
    k = p.n
    last = k + 1 == m
    for upset, rivals in _extend_semilattice(p, twins, autos):
        rows = list(p.up) + [upset | 1 << k]
        # C's down-sets are p's, with x added below U, plus x's own.
        downs = [row | 1 << k if upset >> j & 1 else row for j, row in enumerate(p.down)]
        downs.append(1 << k)
        if last and bottom:
            # C + bottom: the bottom is element k + 1, so C keeps its labels.
            rows.append((1 << k + 2) - 1)
            downs = [row | 1 << k + 1 for row in downs] + [1 << k + 1]
        child = _poset_from_up(rows, downs)
        # A rival is minimal, so it is a twin of x when its strict up-set is U.
        if last and all(p.up[i] & ~(1 << i) == upset for i in rivals):
            # Every tied element is x or a twin of x, so x lies in the
            # canonical deletion's orbit and C needs no labelling here.
            yield child, None
            continue
        order = _canonical_order(child)
        if rivals:
            position, group, child_autos = order
            star = min(rivals + [k], key=position.__getitem__)
            # x must lie in the orbit of the canonical deletion, the tied
            # element of least position.
            if not _same_orbit(k, star, group, child_autos):
                continue
        if last:
            yield child, order
        else:
            yield from _grow(*_relabel_with_twins(child, order), m, bottom)


def _check_size(n: int) -> None:
    if n < 1:
        raise SizeError("lattices need n >= 1")
    if n > HARD_MAX_N:
        raise SizeError(f"n={n} beyond configured maximum {HARD_MAX_N}")


def _parents(n: int) -> list[tuple[Poset, tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The roots of the sweep's subtrees: canonical max(1, n-4)-element
    semilattices, each with its twin groups and automorphisms.

    Every class of n-element lattices (n >= 3) is grown from exactly one
    of them, so their subtrees can run independently.  Each is labelled
    once, from the canonical order its acceptance found where it needed
    one.
    """
    root = _poset_from_up([1])
    k = max(1, n - 4)
    if k == 1:
        return [(root, (), ())]
    return [_relabel_with_twins(child, order) for child, order in _grow(root, (), (), k, bottom=False)]


def _subtree(task: tuple) -> list[T]:
    """per_class(validate_lattice(leaf), order) for every n-element leaf
    grown from one root of _parents, each as _grow yields it, so the
    leaves of one parent reach per_class one after another; task is
    (root, twins, autos, n, per_class), the root labelled as _parents
    left it."""
    root, twins, autos, n, per_class = task
    return [per_class(validate_lattice(leaf), order) for leaf, order in _grow(root, twins, autos, n - 1)]


def _sweep(n: int, per_class: Callable[[Lattice, Optional[tuple]], T], jobs: int = 1) -> list[T]:
    """per_class(l, order) for every class of n-element lattices, in growth order.

    l is a lattice of the class as the growth built it, validated once,
    here or in _subtree, and order is its _canonical_order, or None where
    the growth accepted it without labelling it (see _grow);
    _form_and_covers builds the class record from either.  For n >= 3, l
    is the semilattice it was grown from, as elements 0..n-3 with their
    labels, then x, an atom, and the bottom.  The growth tree is split at the
    roots of _parents(n); each subtree runs end to end, in this process
    or, with jobs > 1, in a pool of worker processes (per_class must then
    be a module-level function).  Only the results are kept, in the order
    of the roots, so the merged list does not depend on jobs.
    """
    _check_size(n)
    if n <= 2:
        # The one- and two-element chains; growth starts from the
        # one-element semilattice and needs n >= 3.
        return [per_class(validate_lattice(_poset_from_up([1] if n == 1 else [3, 2])), None)]
    tasks = [(root, twins, autos, n, per_class) for root, twins, autos in _parents(n)]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: multiprocessing adds to every command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return [out for part in pool.map(_subtree, tasks, chunksize=1) for out in part]
    return [out for part in map(_subtree, tasks) for out in part]


def enumerate_lattices(n: int, max_n: int = HARD_MAX_N) -> list[Lattice]:
    """All n-element lattices, one canonical representative per class.

    Deterministic order (sorted by canonical form).  Raises SizeError
    when n is outside 1..min(max_n, HARD_MAX_N).  The max_n keyword is
    kept only for perfbench/make_pool.py, which passes max_n=10; it goes
    with _lattice_cache when the perfbench-only helpers move there.
    The result is cached per n; the sweeps below do not use it.
    """
    if n > max_n:
        raise SizeError(f"n={n} beyond configured maximum {max_n}")
    if n not in _lattice_cache:
        _lattice_cache[n] = [validate_lattice(_poset_from_up(_decode_rows(r))) for r in _sorted_records(n)]
    return _lattice_cache[n]


def sample_lattices(n: int, count: int, seed: int) -> list[Lattice]:
    """Deterministic uniform sample of the classes enumerate_lattices(n) lists."""
    reps = enumerate_lattices(n)
    if count >= len(reps):
        return list(reps)
    rng = random.Random(seed)
    return [reps[i] for i in sorted(rng.sample(range(len(reps)), count))]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class ClassRecord(NamedTuple):
    """Per-isomorphism-class certificate used in reports."""

    covers: tuple[tuple[int, int], ...]
    n: int
    con: int
    planar: bool
    dismantlable: bool
    many: bool


class SpectrumReport(NamedTuple):
    n: int
    values: tuple[int, ...]
    counts: dict[int, int]
    total_classes: int


class TheoremReport(NamedTuple):
    """The sweep's counts, its violations, and one packed record per class.

    ``packed`` holds the theorem records as bytes (see _class_record):
    the canonical form, the representative's covers as byte pairs, the
    congruence count in 4 bytes and a flag byte.  They are sorted, which
    is the order of the canonical forms; ``records`` decodes them one at
    a time.
    """

    n: int
    classes_checked: int
    many_congruence_classes: int
    violations: tuple[ClassRecord, ...]
    packed: tuple[bytes, ...]

    @property
    def records(self) -> Iterator[ClassRecord]:
        return map(_unpack, self.packed)


# Flag bits of a theorem record.
_PLANAR, _DISMANTLABLE, _MANY = 1, 2, 4


def _record_covers(record: bytes) -> tuple[tuple[int, int], ...]:
    """The covers a class record holds; a theorem record less its last
    five bytes is one."""
    covers = record[_encoded_length(record[0]) :]
    return tuple(zip(covers[::2], covers[1::2]))


def _unpack(record: bytes) -> ClassRecord:
    """The ClassRecord a theorem record holds."""
    flags = record[-1]
    return ClassRecord(
        covers=_record_covers(record[:-5]),
        n=record[0],
        con=int.from_bytes(record[-5:-1], "big"),
        planar=bool(flags & _PLANAR),
        dismantlable=bool(flags & _DISMANTLABLE),
        many=bool(flags & _MANY),
    )


# The per-class functions of the sweeps, given validated lattices as
# grown and their canonical orders or None.  A congruence count does not
# depend on the labels, so the spectrum labels no leaf; a record needs
# only the form and covers of the representative.

def _form_and_covers(l: Lattice, order: Optional[tuple]) -> bytes:
    """The class record of a leaf's class: its canonical form, then the
    representative's covers as byte pairs.  Forms of one size have one
    length and differ between classes, so the records sort as their
    forms do.

    No leaf is relabelled: its up-rows are moved through its canonical
    order, found here where the growth found none, as relabel would move
    them, and the covers are read off those rows, already sorted.
    """
    rows = _permuted_rows(l.poset.up, (order or _canonical_order(l.poset))[0])
    return _encode_rows(rows) + bytes([x for pair in _cover_pairs(rows) for x in pair])


def _class_record(l: Lattice, order: Optional[tuple]) -> bytes:
    """The theorem record of a leaf's class: its class record, then the
    congruence count in 4 bytes and one flag byte.  The planar flag says
    that the leaf has a checked 2-realizer, placed into its parent's
    where it fits; the sweep builds no catalog and makes no embedding
    search.  The verdicts do not depend on the labels, so they are
    computed on the leaf as grown."""
    con = con_count(l)
    planar, dismantlable = planar_and_dismantlable(l)
    flags = (
        (_PLANAR if planar else 0)
        | (_DISMANTLABLE if dismantlable else 0)
        | (_MANY if exceeds_threshold(l.n, con) else 0)
    )
    return b"".join((_form_and_covers(l, order), con.to_bytes(4, "big"), bytes((flags,))))


def _class_con(l: Lattice, order: Optional[tuple]) -> int:
    return con_count(l)


def _sorted_records(n: int) -> list[bytes]:
    """The class record of every class of n-element lattices, sorted by form."""
    records = _sweep(n, _form_and_covers)
    records.sort()
    return records


def spectrum(n: int) -> SpectrumReport:
    counts: dict[int, int] = {}
    total = 0
    for c in _sweep(n, _class_con):
        counts[c] = counts.get(c, 0) + 1
        total += 1
    values = tuple(sorted(counts, reverse=True))
    return SpectrumReport(n=n, values=values, counts=counts, total_classes=total)


def verify_theorem(n: int, jobs: int = 1) -> TheoremReport:
    """Sweep all classes; violations are many-congruence non-planar classes.

    With jobs > 1 the enumeration subtrees run in that many worker
    processes; the report is the same.
    """
    packed = _sweep(n, _class_record, jobs)
    packed.sort()
    many = [r for r in packed if r[-1] & _MANY]
    return TheoremReport(
        n=n,
        classes_checked=len(packed),
        many_congruence_classes=len(many),
        violations=tuple(_unpack(r) for r in many if not r[-1] & _PLANAR),
        packed=tuple(packed),
    )
