"""Finite partial orders on {0..n-1}.

Relation rows are Python ints used as bitsets: bit j of ``up[i]`` says
i <= j.  At the intended scale (n up to roughly 32) this makes closure,
duality, ideal counting and embedding search cheap word operations, and
it keeps every Poset hashable and immutable.  The set bits of a mask,
which colour refinement, the enumeration's growth and the congruence
count all walk, are read by ``_bits`` from a table of tuples for every
mask below 2^12, which covers each sweep up to twelve elements.

Canonical labelling finds the twin groups, refines a vertex colouring
by the colours above and below each vertex, then searches over the
orders that sort the colour classes, cutting every branch whose
relation matrix already exceeds the best leaf found so far (as in
nauty: McKay and Piperno, "Practical graph isomorphism, II", 2014).
Refinement skips a class that is a single twin group, and the search
never branches within a twin group.  When every class is one, every
such order gives the same relation matrix, so the search is skipped
and the vertices are ordered by colour, then by index.  In the
enumeration's lattices this is the common case.

The labelling also returns the automorphisms its search meets, which
tell the enumeration which of a parent's extensions give isomorphic
children: with the permutations inside the twin groups they are all of
them (see _canonical_order).
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import NamedTuple, Optional, Sequence


class CycleError(ValueError):
    """The generating relation admits a directed cycle."""


class _Immutable:
    """Assigning or deleting an attribute raises.  Constructors and
    cached_property write the instance dict directly.

    A constructor fills its fields with one ``self.__dict__.update``: on
    CPython 3.11, item assignment into the fresh instance dict left
    later attribute reads about three times slower.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class Poset(_Immutable):
    """Immutable finite poset.

    ``up[i]`` has bit j set iff i <= j (reflexive, so bit i is always set).
    Element labels are the indices 0..n-1 and carry no meaning beyond
    identity; use :func:`canonical_form` for label-free comparison.
    Equality and the hash read ``n`` and ``up`` only, not the cached
    properties.
    """

    n: int
    up: tuple[int, ...]

    def __init__(self, n: int, up: tuple[int, ...]):
        self.__dict__.update(n=n, up=up)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.up) == (other.n, other.up)

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[j] has bit i set iff i <= j."""
        down = [1 << j for j in range(self.n)]
        for i, row in enumerate(self.up):
            bit = 1 << i
            while row:
                low = row & -row
                down[low.bit_length() - 1] |= bit
                row ^= low
        return tuple(down)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as sorted (lower, upper) pairs."""
        down = self.down
        out = []
        for i, row in enumerate(self.up):
            strict = row & ~(1 << i)
            # j covers i when nothing of i's strict up-set lies below j but j;
            # i and then j ascend, so the pairs come sorted.
            for j in _bits(strict):
                if strict & down[j] == 1 << j:
                    out.append((i, j))
        return tuple(out)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of a longest chain below each element."""
        h = [0] * self.n
        for i in self._linear_extension:
            below = self.down[i] & ~(1 << i)
            while below:
                j = (below & -below).bit_length() - 1
                below &= below - 1
                if h[j] + 1 > h[i]:
                    h[i] = h[j] + 1
        return tuple(h)

    @cached_property
    def _linear_extension(self) -> tuple[int, ...]:
        """Lowest-index-first linear extension."""
        placed = 0
        order = []
        for _ in range(self.n):
            for i in range(self.n):
                if placed >> i & 1:
                    continue
                if self.down[i] & ~placed == 1 << i:
                    order.append(i)
                    placed |= 1 << i
                    break
        return tuple(order)

    @cached_property
    def sizes(self) -> array:
        """Down-set size of element i at position 2i, up-set size at 2i + 1."""
        return array("H", [row.bit_count() for pair in zip(self.down, self.up) for row in pair])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poset(n={self.n}, covers={list(self.covers)})"


class Embedding(NamedTuple):
    """Injective order-preserving and order-reflecting map K -> L."""

    mapping: tuple[int, ...]


def _poset_from_up(up: Sequence[int], down: Optional[Sequence[int]] = None) -> Poset:
    """The poset with these up-rows; down-rows already known are stored in its cache."""
    p = Poset(len(up), tuple(up))
    if down is not None:
        vars(p)["down"] = tuple(down)
    return p


def poset_from_covers(n: int, pairs: Sequence[tuple[int, int]]) -> Poset:
    """Reflexive-transitive closure of the given strict pairs.

    The pairs need not be covers; the stored cover relation is recomputed
    as the transitive reduction.  Raises CycleError if the closure is not
    antisymmetric and IndexError on out-of-range indices.
    """
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair ({i}, {j}) out of range for n={n}")
        up[i] |= 1 << j
    _close_rows(up, range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise CycleError(f"elements {i} and {j} are mutually related")
    return _poset_from_up(up)


def _close_rows(rows: list[int], members: Sequence[int]) -> None:
    """Transitively close the bit rows of members in place (Warshall):
    row i gains row k wherever it has bit k, for i and k in members."""
    for k in members:
        row_k, bit_k = rows[k], 1 << k
        for i in members:
            if rows[i] & bit_k:
                rows[i] |= row_k


def dual(p: Poset) -> Poset:
    """Transpose the order; an involution.

    The dual's down-sets are p's up-sets, so they are stored in its
    ``down`` cache rather than recomputed.
    """
    return _poset_from_up(p.down, p.up)


def _permuted_rows(rows: Sequence[int], perm: Sequence[int]) -> list[int]:
    """Row i, with every bit j moved to perm[j], becomes row perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        moved = 0
        for j in _bits(row):
            moved |= 1 << perm[j]
        out[perm[i]] = moved
    return out


def relabel(p: Poset, perm: Sequence[int]) -> Poset:
    """Relabelled copy: old element i becomes perm[i].

    Down-sets p already holds are permuted alike, not recomputed.
    """
    down = vars(p).get("down")
    return _poset_from_up(
        _permuted_rows(p.up, perm), None if down is None else _permuted_rows(down, perm)
    )


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _refined_colors(p: Poset, group: list[int]) -> list[int]:
    """Iterated iso-invariant vertex colouring (up/down multiset refinement).

    Colours start as the dense ranks of (|down|, |up|).  Each round gives
    every vertex the signature (colour, sorted colours strictly above,
    sorted colours strictly below) and recolours by the dense rank of the
    signature, until no colour class splits.  Every signature begins with
    the old colour, so that rank is the number of distinct signatures in
    the classes of smaller colour plus the rank within the vertex's own
    class.  Twins (group holds their ids) have equal signatures in every
    round, so signatures are built only for the classes that are not a
    single twin group, and no round runs where there are none.
    """
    n = p.n
    up, down = p.up, p.down
    col = [(down[i].bit_count(), up[i].bit_count()) for i in range(n)]
    ranks = {c: r for r, c in enumerate(sorted(set(col)))}
    cur = [ranks[c] for c in col]
    cells: list[list[int]] = [[] for _ in ranks]
    for i in range(n):
        cells[cur[i]].append(i)
    # A class holds whole twin groups, in index order: it is a single one
    # when its first vertex leads a group as large as the class.
    size = [0] * n
    for g in group:
        size[g] += 1
    # Strict neighbours as index tuples, read once: the rows never change.
    above = {}
    below = {}
    for cell in cells:
        if size[cell[0]] < len(cell):
            for i in cell:
                above[i] = _bits(up[i] & ~(1 << i))
                below[i] = _bits(down[i] & ~(1 << i))
    split = bool(above)
    while split:
        split = False
        color = cur.__getitem__
        nxt = [0] * n
        new_cells: list[list[int]] = []
        for cell in cells:
            offset = len(new_cells)
            if size[cell[0]] < len(cell):
                sig = [
                    (tuple(sorted(map(color, above[i]))), tuple(sorted(map(color, below[i]))))
                    for i in cell
                ]
                distinct = sorted(set(sig))
                if len(distinct) > 1:
                    split = True
                    rank = {s: r for r, s in enumerate(distinct)}
                    parts: list[list[int]] = [[] for _ in distinct]
                    for i, s in zip(cell, sig):
                        r = rank[s]
                        parts[r].append(i)
                        nxt[i] = offset + r
                    new_cells += parts
                    continue
            for i in cell:
                nxt[i] = offset
            new_cells.append(cell)
        cur, cells = nxt, new_cells
    return cur


def _bits_table(width: int) -> tuple[tuple[int, ...], ...]:
    """Entry m < 2^width holds the set bits of m, lowest first.

    The masks whose highest bit is b are those below 2^b with b added, so
    each bit doubles the table.
    """
    table: list[tuple[int, ...]] = [()]
    for b in range(width):
        table += [low + (b,) for low in table]
    return tuple(table)


# Every mask of a sweep up to enumeration.HARD_MAX_N = 12 elements is below
# 2^12, so refinement, growth and the congruence loop read their bits here.
_BITS_TABLE = _bits_table(12)
_BITS_LIMIT = len(_BITS_TABLE)


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a non-negative mask, lowest first.

    Masks below 2^12 are looked up in a table of 4,096 tuples; tuples,
    so that no caller can change what the next one reads.  Larger masks,
    from inputs of more than 12 elements, are walked bit by bit.
    """
    if mask < _BITS_LIMIT:
        return _BITS_TABLE[mask]
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _twin_groups(p: Poset) -> list[int]:
    """Group id per vertex, the least vertex of its group; twins share one.

    u and v are twins when they are incomparable and relate identically to
    every other element.  Any ordering inside a twin group yields the same
    relation matrix, so canonical search never branches within a group.
    Twins are exactly the vertices with equal strict up rows and equal
    strict down rows (u < v would put v in u's strict up row but not in
    its own): one dict lookup per vertex.
    """
    up, down = p.up, p.down
    first: dict[tuple[int, int], int] = {}
    return [first.setdefault((up[v] & ~(1 << v), down[v] & ~(1 << v)), v) for v in range(p.n)]


def _search(p: Poset, colors: list[int], group: list[int]) -> tuple[list[int], list[list[int]]]:
    """The vertices in canonical order, by search over the colour classes,
    and every later leaf whose relation matrix equals the canonical one.

    Among the orders that sort the vertices by colour, finds the first
    whose relation matrix is least, never branching within a twin group.
    A branch is cut as soon as its matrix prefix exceeds the best leaf
    found so far; a prefix equal to the best's is never cut, so every
    leaf with the least matrix is reached.
    """
    n = p.n
    class_of_pos = sorted(colors)
    up = p.up

    best_flat: list[int] = []
    best_perm: list[int] = []
    placed: list[int] = []
    in_place = [False] * n
    flat: list[int] = []
    ties: list[list[int]] = []

    def search(pos: int, equal: bool) -> bool:
        """Whether a new best leaf lies below; equal says flat is the best's prefix.

        Otherwise there is no best yet, or flat is below the best's prefix,
        so the first leaf reached is a new best.  A leaf equal to the best
        is kept in ties, which a new best empties.
        """
        if pos == n:
            if equal:
                ties.append(placed[:])
            else:
                best_flat[:] = flat
                best_perm[:] = placed
                ties.clear()
            return not equal
        want = class_of_pos[pos]
        seen_groups = set()
        base = len(flat)
        found = False
        for v in range(n):
            if in_place[v] or colors[v] != want or group[v] in seen_groups:
                continue
            seen_groups.add(group[v])
            chunk = [(up[u] >> v & 1) << 1 | (up[v] >> u & 1) for u in placed]
            now_equal = False
            if equal:
                ref = best_flat[base : base + pos]
                if chunk > ref:
                    continue
                now_equal = chunk == ref
            flat.extend(chunk)
            placed.append(v)
            in_place[v] = True
            if search(pos + 1, now_equal):
                # The new best leaf starts with flat, so the branches
                # after this one are compared against it.
                found = equal = True
            in_place[v] = False
            placed.pop()
            del flat[base:]
        return found

    search(0, False)
    return best_perm, ties


def canonical_relabel(p: Poset) -> tuple[Poset, tuple[int, ...]]:
    """Canonical representative and the permutation sending p onto it.

    The representative minimizes the relation matrix over all labelings
    that sort the refined colour classes, so two posets get the same
    representative iff they are order-isomorphic.  Twin groups are never
    branched over, which keeps highly symmetric posets cheap.

    When every colour class is a single twin group (a single vertex
    included), all those labelings give the same matrix and the search
    would follow one path, so no search runs: the vertices are ordered by
    colour, then by index, exactly as the search would place them.
    """
    if p.n == 0:
        return p, ()
    inverse = _canonical_order(p)[0]
    return relabel(p, inverse), tuple(inverse)


def _relabel_with_twins(
    p: Poset, order: Optional[tuple[list[int], list[int], list[list[int]]]] = None
) -> tuple[Poset, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The representative of canonical_relabel(p), the twin groups of two
    or more vertices, and the automorphisms the search met, all in the
    representative's labels; order is _canonical_order(p), found here
    when not given.

    Each group is a mask.  Swapping two twins is an automorphism, and
    every automorphism of the representative is a permutation inside the
    twin groups composed with exactly one of the listed automorphisms or
    with the identity (see _canonical_order).  The representative carries
    p's down-sets, permuted, where p holds them.
    """
    n = p.n
    inverse, group, autos = order or _canonical_order(p)
    twins: tuple[int, ...] = ()
    if len(set(group)) < n:
        masks: dict[int, int] = {}
        for v, g in enumerate(group):
            masks[g] = masks.get(g, 0) | 1 << inverse[v]
        twins = tuple(m for m in masks.values() if m & (m - 1))
    moved = []
    for sigma in autos:
        # Vertex v of p is inverse[v] in the representative.
        image = [0] * n
        for v, w in enumerate(sigma):
            image[inverse[v]] = inverse[w]
        moved.append(tuple(image))
    return relabel(p, inverse), twins, tuple(moved)


def _canonical_order(p: Poset) -> tuple[list[int], list[int], list[list[int]]]:
    """The canonical position of each vertex of a nonempty poset, its twin
    group ids (see _twin_groups), and automorphisms of p, none where no
    search ran.

    relabel(p, positions) is canonical_relabel's representative; a caller
    that needs only the representative's rows or covers can move p's own
    through the positions instead.

    Each leaf of the search with the canonical matrix gives the
    automorphism sigma with sigma[order[i]] = leaf[i].  These are all of
    them up to twin permutations: an automorphism keeps the colours, so
    it maps the canonical order onto an order with the same matrix, and
    a permutation inside the twin groups, itself an automorphism, puts
    each group's members in index order there, as the search places
    them.  That order is the canonical one or a listed leaf, and only
    one.  Where no search ran, every colour class is one twin group, so
    the twin permutations are all of the automorphisms.
    """
    group = _twin_groups(p)
    colors = _refined_colors(p, group)
    autos: list[list[int]] = []
    if len(set(group)) != max(colors) + 1:
        order, leaves = _search(p, colors, group)
        for leaf in leaves:
            sigma = [0] * p.n
            for v, w in zip(order, leaf):
                sigma[v] = w
            autos.append(sigma)
    else:
        order = sorted(range(p.n), key=colors.__getitem__)
    inverse = [0] * p.n
    for pos, v in enumerate(order):
        inverse[v] = pos
    return inverse, group, autos


def _encode_rows(up: Sequence[int]) -> bytes:
    """Byte string of the relation rows up, as labelled: the element
    count, then each row in (n + 7) // 8 bytes, so all encodings of one
    size have one length, _encoded_length(n).  canonical_form encodes the
    representative's rows."""
    n = len(up)
    width = (n + 7) // 8 or 1
    body = bytearray([min(n, 255)])
    for row in up:
        body += row.to_bytes(width, "little")
    return bytes(body)


def _encoded_length(n: int) -> int:
    return 1 + n * ((n + 7) // 8 or 1)


def _decode_rows(encoded: bytes) -> list[int]:
    """The up-rows that _encode_rows wrote at the start of encoded."""
    n = encoded[0]
    width = (n + 7) // 8 or 1
    return [int.from_bytes(encoded[at : at + width], "little") for at in range(1, 1 + n * width, width)]


def canonical_form(p: Poset) -> bytes:
    """Canonical byte string: equal iff order-isomorphic."""
    return _encode_rows(canonical_relabel(p)[0].up)


# ---------------------------------------------------------------------------
# Embedding search
# ---------------------------------------------------------------------------

def find_embedding(k: Poset, l: Poset) -> Optional[Embedding]:
    """Some induced-subposet embedding of k into l, or None.

    Backtracking over k-elements in a fixed linear extension, pruned by
    down-set / up-set / incomparability size signatures.  Exhaustive, so a
    None answer certifies non-containment.
    """
    if k.n == 0:
        return Embedding(())
    if k.n > l.n:
        return None

    # l-element v can take k-element x only if its down-set, up-set and
    # incomparable set are at least as large as x's.
    ls, ks = l.sizes, k.sizes
    lsig = list(enumerate(zip(ls[::2], ls[1::2])))
    slack = l.n - k.n
    cand = []
    for x in range(k.n):
        dk, uk = ks[2 * x], ks[2 * x + 1]
        hi = dk + uk + slack
        c = [v for v, (d, u) in lsig if d >= dk and u >= uk and d + u <= hi]
        if not c:
            return None
        cand.append(c)

    order = k._linear_extension
    assigned = [-1] * k.n
    used = 0

    def place(idx: int) -> bool:
        nonlocal used
        if idx == k.n:
            return True
        x = order[idx]
        for v in cand[x]:
            if used >> v & 1:
                continue
            ok = True
            for y in order[:idx]:
                w = assigned[y]
                if (k.up[x] >> y & 1) != (l.up[v] >> w & 1) or (k.up[y] >> x & 1) != (l.up[w] >> v & 1):
                    ok = False
                    break
            if ok:
                assigned[x] = v
                used |= 1 << v
                if place(idx + 1):
                    return True
                used &= ~(1 << v)
                assigned[x] = -1
        return False

    if place(0):
        return Embedding(tuple(assigned))
    return None


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """Isomorphism test; cheaper than canonical forms on symmetric posets."""
    if p.n != q.n:
        return False
    return find_embedding(p, q) is not None


def embedding_is_valid(k: Poset, l: Poset, emb: Embedding) -> bool:
    m = emb.mapping
    if len(m) != k.n or len(set(m)) != k.n:
        return False
    return all(
        (k.up[x] >> y & 1) == (l.up[m[x]] >> m[y] & 1)
        for x in range(k.n)
        for y in range(k.n)
    )


# ---------------------------------------------------------------------------
# Order ideals
# ---------------------------------------------------------------------------

def count_downsets(p: Poset) -> int:
    """Number of hereditary subsets, the empty set and full set included."""
    return _count_hereditary(p.up, p.down, p.full_mask)


def _count_hereditary(up: Sequence[int], down: Sequence[int], elements: int) -> int:
    """Number of hereditary subsets of a quasiorder on the elements of a
    mask, given its up-rows and their transpose, the down-rows: bit j of
    up[i] says i <= j.  Rows of elements outside the mask are not read.

    Recursion on an element x that is minimal among the remaining ones,
    the lowest-index element with nothing there below it but elements
    equivalent to it: the hereditary sets containing x contain its
    remaining down-set and match those of the rest; the ones avoiding x
    avoid its up-set and match those of the rest.  Memoized on the
    remaining-element bitmask.  On a poset, x is the lowest-index
    minimal element and its remaining down-set is x alone.
    """
    strict = [d & ~u for u, d in zip(up, down)]
    memo = {0: 1}

    def rec(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        for x in _bits(mask):
            if not strict[x] & mask:
                break
        res = rec(mask & ~down[x]) + rec(mask & ~up[x])
        memo[mask] = res
        return res

    return rec(elements)


def quotient_of_quasiorder(n: int, rel_rows: Sequence[int]) -> Poset:
    """Collapse mutual pairs of a quasiorder; class k is the k-th class by least member."""
    reps: list[int] = []
    collapsed = 0
    for i in range(n):
        if collapsed >> i & 1:
            continue
        reps.append(i)
        for j in range(i + 1, n):
            if rel_rows[i] >> j & 1 and rel_rows[j] >> i & 1:
                collapsed |= 1 << j
    m = len(reps)
    up = [0] * m
    for a, i in enumerate(reps):
        for b, j in enumerate(reps):
            if rel_rows[i] >> j & 1:
                up[a] |= 1 << b
    return _poset_from_up(up)
