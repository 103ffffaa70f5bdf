"""Finite simplicial complexes on at most 64 vertices.

A complex is stored as the antichain of its facets; every face query is
answered against the downward closure of that antichain.  Faces are small
integer sets held as single-word bit masks, so subset tests, links and
induced subcomplexes are a handful of machine operations.

One routine, ``_rank_faces``, numbers faces best-first: dimension
descending, then lexicographic vertex tuple.  Collapse searches run on that
numbering and boundary matrices print in it.  A complex on vertex ids below
``TABLE_VERTICES`` = 7 lists no faces of its own: the 127 non-empty subsets
of 0..6 are ranked once, in fixed tables built on first use, and the
complex's closure is one bitset over those ranks, the OR of its facets'
down-sets.  Its f-vector, Euler characteristic and GF(2) boundary columns
are read off that bitset, and its collapse search runs on it, shifted onto
the tables' slice for its dimension, with its free faces read off its
facets; the slice keeps the pair neighbourhoods that searches in that
dimension fill.  Every other complex, even one on few vertices with a
higher id, groups its closure by dimension, unsorted for counts and
boundary columns, and ranks those groups for its searches, each starting
with no pair neighbourhoods.
This module alone makes that choice: ``homology`` reads
``_boundary_columns`` and ``collapse`` reads ``_search_faces``, free
faces included.  Boundary matrices rank every complex's own faces through
``_ranked_faces``.  A complex caches one face index, its star table
``_star``: face -> OR of the facets on it.  Its keys are the closure that
every other face query reads; ``induced`` reads its values, keeping a
facet's trace g on U when ``_star[g]`` holds no more of U.  All values are
immutable; every operation returns a fresh complex.  Isomorphism search
counts each vertex's link f-vector off the star table's keys.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

VERTEX_LIMIT = 64

ISO_SEARCH_CAP = 12

# entries of the _lex_key memo; full of 64-bit masks it holds about 3.5 MB,
# under 5 MB while its table resizes
LEX_KEY_CACHE = 1 << 14


def _is_int(value) -> bool:
    # bool is an int subclass; True would pass as 1
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(caller: str, seed) -> None:
    if not _is_int(seed):
        raise ValueError(f"{caller} needs an explicit seed: an int, not {seed!r}")


def _mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not _is_int(v):
            raise ValueError(f"vertex id must be an integer, got {v!r}")
        if v < 0 or v >= VERTEX_LIMIT:
            raise ValueError(f"vertex cap: id {v} outside 0..{VERTEX_LIMIT - 1}")
        mask |= 1 << v
    return mask


def _bits(mask: int) -> Tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# REV8[b] is the byte b with its eight bits in reverse order
REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@lru_cache(maxsize=LEX_KEY_CACHE)
def _lex_key(mask: int) -> int:
    """The 64-bit bit reversal of ``mask``: vertex v becomes bit 63 - v.

    Sorting by it with ``reverse=True`` puts masks in lexicographic vertex
    order, the order of ``key=_bits``, provided no mask's vertex tuple is a
    proper prefix of another's.  That holds for any antichain and for any
    list of masks of one size; otherwise the longer tuple comes first.

    Memoized: the sorts see the same few face masks over and over.  The
    memo is bounded; it keeps the ``LEX_KEY_CACHE`` most recently used
    masks, about 210 bytes each when mask and key are 64-bit ints.
    """
    return int.from_bytes(mask.to_bytes(8, "little").translate(REV8), "big")


# complexes whose vertex ids all lie below this read the fixed face tables
# below instead of building their own.  It is the lemma's bound, exported as
# collapse.ACYCLIC_VERTEX_BOUND; the sampler draws on ids 0..6, while the
# sphere pipeline's complements keep the sphere's labels
TABLE_VERTICES = 7


def _rank_faces(
    groups: Dict[int, List[int]]
) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """Number a downward-closed set of faces best-first: dimension
    descending, then lexicographic vertex tuple.  ``groups`` maps each
    dimension to its face masks, in any order.

    Returns ``masks``, the faces in rank order, and ``down``: ``down[r]``
    lists the ranks of the codimension-one faces of face r by the vertex
    they omit, ascending, and is empty for a vertex.
    """
    masks: List[int] = []
    for q in sorted(groups, reverse=True):
        # one size per group, so _lex_key sorts it lexicographically
        masks += sorted(groups[q], key=_lex_key, reverse=True)
    rank = {m: r for r, m in enumerate(masks)}
    down = [
        tuple(rank[m ^ 1 << v] for v in _bits(m)) if m & (m - 1) else ()
        for m in masks
    ]
    return masks, down


def _covers(down: Sequence[Tuple[int, ...]]) -> List[int]:
    """Invert ``down`` (the ranks one dimension below each face): entry i
    is the bitset of the ranks of the faces covering face i."""
    up = [0] * len(down)
    for i, below in enumerate(down):
        for j in below:
            up[j] |= 1 << i
    return up


@cache
def _face_tables() -> SimpleNamespace:
    """The non-empty subsets of 0..TABLE_VERTICES-1 ranked by
    ``_rank_faces``.  Built on first use (about 1 ms), never at import.

    ``masks[r]`` is the face of rank r, ``down[r]`` the ranks of its
    codimension-one faces and ``up[r]`` the bitset of the ranks of the
    faces covering it; ``downset[m]`` is the bitset of the ranks of the
    non-empty subsets of mask m.  ``boundary[r]`` is ``down[r]`` as a
    bitset: the GF(2) boundary column of face r, 0 for a vertex.
    ``level[q]`` is the bitset of the ranks of the q-faces; ``even`` and
    ``odd`` are the ORs of ``level[q]`` over even and over odd q, so a
    closure's Euler characteristic is two popcounts.

    ``rank[m]`` is the rank of the face with mask m.

    ``slices[q]`` is ``(masks, up, down, pairs)`` from the first q-face
    on, every rank shifted down by that face's rank: the faces a q-complex
    can hold.  A q-complex's table closure shifted the same way is its
    closure over the slice, which a collapse search runs on directly.
    ``pairs`` starts empty; the searches in dimension q fill it with pair
    neighbourhoods, which depend on the slice alone, and keep them.
    """
    n = TABLE_VERTICES
    subsets = range(1, 1 << n)
    groups = {q: [m for m in subsets if m.bit_count() == q + 1] for q in range(n)}
    masks, down = _rank_faces(groups)
    up = _covers(down)
    rank = [0] * (1 << n)
    for r, m in enumerate(masks):
        rank[m] = r
    # a mask's proper subsets are smaller ints, so they are filled in first
    downset = [0] * (1 << n)
    for m in range(1, 1 << n):
        downset[m] = 1 << rank[m]
        for v in _bits(m):
            downset[m] |= downset[m ^ 1 << v]
    level = [0] * n
    for r, m in enumerate(masks):
        level[m.bit_count() - 1] |= 1 << r
    boundary = tuple(sum(1 << j for j in below) for below in down)
    slices = []
    for q in range(n):
        # faces are ranked dimension descending: what follows the first
        # q-face lies below it, and covers above it are shifted out
        first = (level[q] & -level[q]).bit_length() - 1
        slices.append(
            (
                tuple(masks[first:]),
                tuple(covers >> first for covers in up[first:]),
                tuple(tuple(j - first for j in below) for below in down[first:]),
                {},
            )
        )
    return SimpleNamespace(
        masks=tuple(masks),
        rank=tuple(rank),
        downset=tuple(downset),
        down=tuple(down),
        up=tuple(up),
        boundary=boundary,
        level=tuple(level),
        # the levels are disjoint, so their sum is their OR
        even=sum(level[0::2]),
        odd=sum(level[1::2]),
        slices=tuple(slices),
    )


class Face:
    """An abstract simplex: a strictly increasing set of vertex ids < 64."""

    __slots__ = ("_mask",)

    def __init__(self, vertices: Iterable[int]):
        object.__setattr__(self, "_mask", _mask_of(vertices))

    @classmethod
    def from_mask(cls, mask: int) -> "Face":
        f = object.__new__(cls)
        object.__setattr__(f, "_mask", mask)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("Face is immutable")

    def __reduce__(self):
        # the default slot-state restore would go through __setattr__
        return (Face, (self.vertices,))

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def vertices(self) -> Tuple[int, ...]:
        return _bits(self._mask)

    @property
    def dim(self) -> int:
        return self._mask.bit_count() - 1

    def is_empty(self) -> bool:
        return self._mask == 0

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < VERTEX_LIMIT and bool(self._mask >> v & 1)

    def issubset(self, other: "Face") -> bool:
        return self._mask & ~other._mask == 0

    def __le__(self, other: "Face") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Face") -> bool:
        return self.vertices < other.vertices

    def __or__(self, other: "Face") -> "Face":
        return Face.from_mask(self._mask | other._mask)

    def __and__(self, other: "Face") -> "Face":
        return Face.from_mask(self._mask & other._mask)

    def __sub__(self, other: "Face") -> "Face":
        return Face.from_mask(self._mask & ~other._mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, Face) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return "Face(%s)" % ", ".join(map(str, self.vertices))


def _as_mask(face) -> int:
    if isinstance(face, Face):
        return face.mask
    if isinstance(face, bool):
        raise ValueError(f"a face is a mask, a Face or vertex ids, not {face!r}")
    if isinstance(face, int):
        if not 0 <= face < 1 << VERTEX_LIMIT:
            raise ValueError(
                f"vertex cap: face mask {face} outside 0 <= m < 2**{VERTEX_LIMIT}"
            )
        return face
    return _mask_of(face)


def _star_table(facets: Iterable[int]) -> Dict[int, int]:
    """Each non-empty face mask -> the OR of the facets that contain it."""
    star: Dict[int, int] = {}
    get = star.get
    for f in facets:
        sub = f
        while sub:
            star[sub] = get(sub, 0) | f
            sub = (sub - 1) & f
    return star


def _antichain(masks: Iterable[int]) -> List[int]:
    """Drop every mask contained in another; the antichain left is sorted by
    vertex tuple (its ``_lex_key`` order), so callers need not sort again."""
    uniq = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: List[int] = []
    for m in uniq:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    kept.sort(key=_lex_key, reverse=True)
    return kept


def _component_count(masks: Iterable[int]) -> int:
    """Classes of the face masks under "shares a vertex", chained."""
    remaining = list(masks)
    count = 0
    while remaining:
        count += 1
        reach = remaining.pop()
        changed = True
        while changed:
            changed = False
            rest = []
            for f in remaining:
                if f & reach:
                    reach |= f
                    changed = True
                else:
                    rest.append(f)
            remaining = rest
    return count


class SimplicialComplex:
    """A simplicial complex given by its facet antichain.

    The facet list sorted by vertex tuples is the canonical encoding; two
    complexes are equal exactly when those lists coincide.  The empty
    complex exists only as the value of link/complement operations and is
    never produced by :func:`from_facets`.
    """

    def __init__(self, facets: Iterable) -> None:
        masks = [_as_mask(f) for f in facets]
        if any(m == 0 for m in masks):
            raise ValueError("faces of a complex must be non-empty")
        self._facets: Tuple[int, ...] = tuple(_antichain(masks))

    @classmethod
    def _from_facet_masks(cls, masks: Iterable[int]) -> "SimplicialComplex":
        """Trusted constructor: ``masks`` must already form an antichain,
        which is also what makes the ``_lex_key`` sort lexicographic."""
        k = object.__new__(cls)
        k._facets = tuple(sorted(masks, key=_lex_key, reverse=True))
        return k

    @classmethod
    def _from_faces(cls, masks: Iterable[int]) -> "SimplicialComplex":
        """Trusted constructor from non-empty face masks, such as a closure:
        keeps the maximal ones, which ``_antichain`` already sorts."""
        k = object.__new__(cls)
        k._facets = tuple(_antichain(masks))
        return k

    # -- basic queries ------------------------------------------------

    @property
    def facet_masks(self) -> Tuple[int, ...]:
        return self._facets

    @property
    def facets(self) -> Tuple[Face, ...]:
        return tuple(Face.from_mask(m) for m in self._facets)

    def is_empty(self) -> bool:
        return not self._facets

    @cached_property
    def vertex_mask(self) -> int:
        mask = 0
        for f in self._facets:
            mask |= f
        return mask

    @property
    def vertices(self) -> Tuple[int, ...]:
        return _bits(self.vertex_mask)

    @cached_property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        if not self._facets:
            return -1
        return max(m.bit_count() for m in self._facets) - 1

    @cached_property
    def _star(self) -> Dict[int, int]:
        """Face mask -> OR of the facets containing it (``_star_table``);
        the keys are the closure, the complex's one face index."""
        return _star_table(self._facets)

    @cached_property
    def _face_groups(self) -> Dict[int, List[int]]:
        """Face masks by dimension, in no particular order: enough for
        counts and ranks."""
        grouped: Dict[int, List[int]] = {}
        for m in self._star:
            grouped.setdefault(m.bit_count() - 1, []).append(m)
        return grouped

    @cached_property
    def _table_closure(self) -> Optional[int]:
        """The closure as a bitset over the ranks of ``_face_tables``, or
        None when some vertex id is ``TABLE_VERTICES`` or more."""
        downset = _face_tables().downset
        closure = 0
        for f in self._facets:
            if f >> TABLE_VERTICES:
                return None
            closure |= downset[f]
        return closure

    def _ranked_faces(self) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """The faces numbered best-first, as ``_rank_faces`` returns them;
        the q-faces are contiguous and in lexicographic order.  Every
        complex ranks its own faces here; only ``_search_faces`` reads a
        slice of the tables instead."""
        return _rank_faces(self._face_groups)

    def _search_faces(
        self,
    ) -> Tuple[Sequence[int], Sequence[int], Sequence[Tuple[int, ...]], Dict, int, int]:
        """What a collapse search runs on: ``masks``, faces in the order of
        ``_rank_faces``, with ``up[r]`` the bitset of the ranks covering
        face r and ``down[r]`` the ranks right below it; ``pairs``, a dict
        of pair neighbourhoods that the search fills; the closure as a
        bitset over those ranks; and its free faces, those with exactly one
        cover in it.

        On the tables these are the slice for ``dim``, with the slice's own
        ``pairs``, and the table closure and free set shifted onto it; the
        slice also holds faces outside the complex, and only the closure
        tells them apart.  A face is free exactly when one facet holds it
        and covers it, so the free set is read off the facets' down-sets
        and boundary columns.  Otherwise every rank is a face, the free
        faces are the ranks with one cover, and ``pairs`` starts empty.
        """
        closure = self._table_closure
        if closure is None:
            masks, down = self._ranked_faces()
            up = _covers(down)
            free = sum(1 << r for r, c in enumerate(up) if c.bit_count() == 1)
            return masks, up, down, {}, (1 << len(masks)) - 1, free
        t = _face_tables()
        once = twice = covered = 0
        for f in self._facets:
            r = t.rank[f]
            below = t.downset[f] ^ 1 << r
            twice |= once & below
            once |= below
            covered |= t.boundary[r]
        masks, up, down, pairs = t.slices[self.dim]
        # no face of the complex ranks before its first dim-face, where the
        # slice starts
        first = len(t.masks) - len(masks)
        free = once & ~twice & covered
        return masks, up, down, pairs, closure >> first, free >> first

    def _boundary_columns(self) -> List[Iterable[int]]:
        """The GF(2) boundary maps for q = 2..dim: entry q-2 yields one
        column per q-face, a bitset of its (q-1)-faces under some fixed
        numbering.  Faces come in no particular order: enough for ranks."""
        dims = range(2, self.dim + 1)
        closure = self._table_closure
        if closure is not None:
            t = _face_tables()
            column = t.boundary.__getitem__
            return [map(column, _bits(closure & t.level[q])) for q in dims]
        groups = self._face_groups
        maps = []
        for q in dims:
            index = {m: i for i, m in enumerate(groups[q - 1])}
            cols = []
            for face in groups[q]:
                col = 0
                rest = face
                while rest:
                    bit = rest & -rest
                    col |= 1 << index[face ^ bit]
                    rest ^= bit
                cols.append(col)
            maps.append(cols)
        return maps

    def has_face(self, face) -> bool:
        m = _as_mask(face)
        # the empty face lies in every non-empty complex
        return m in self._star or (m == 0 and bool(self._facets))

    def __contains__(self, face) -> bool:
        return self.has_face(face)

    def faces(self, q: int) -> Set[Face]:
        """All q-dimensional faces; empty set when q is out of range."""
        return {Face.from_mask(m) for m in self._face_groups.get(q, ())}

    def face_count(self) -> int:
        return len(self._star)

    def f_vector(self) -> Tuple[int, ...]:
        closure = self._table_closure
        if closure is None:
            groups = self._face_groups
            return tuple(len(groups.get(q, ())) for q in range(self.dim + 1))
        level = _face_tables().level
        return tuple((closure & level[q]).bit_count() for q in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        closure = self._table_closure
        if closure is None:
            return sum((-1) ** q * n for q, n in enumerate(self.f_vector()))
        t = _face_tables()
        return (closure & t.even).bit_count() - (closure & t.odd).bit_count()

    # -- derived complexes --------------------------------------------

    def link(self, face) -> "SimplicialComplex":
        m = _as_mask(face)
        if not self.has_face(m):
            raise ValueError("not a face: %r" % (_bits(m),))
        return SimplicialComplex._from_facet_masks(
            f & ~m for f in self._facets if m & ~f == 0 and f != m
        )

    def degree(self, face) -> int:
        return self.link(face).vertex_mask.bit_count()

    def induced(self, vertices) -> "SimplicialComplex":
        u = _as_mask(vertices)
        if u & ~self.vertex_mask:
            raise ValueError(
                "induced subcomplex needs U within the vertex set, extra: %s"
                % (_bits(u & ~self.vertex_mask),)
            )
        star = self._star
        return SimplicialComplex._from_facet_masks(
            {g for f in self._facets if (g := f & u) and star[g] & u == g}
        )

    def is_pure(self) -> bool:
        d = self.dim
        return all(f.bit_count() - 1 == d for f in self._facets)

    def cone(self, apex: int) -> "SimplicialComplex":
        a = _mask_of([apex])
        if a & self.vertex_mask:
            raise ValueError(f"cone apex {apex} already a vertex")
        return SimplicialComplex._from_facet_masks(f | a for f in self._facets)

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def component_count(self) -> int:
        return _component_count(self._facets)

    # -- identity ------------------------------------------------------

    def facet_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(_bits(f) for f in self._facets)

    def canonical_encoding(self) -> str:
        """Facet list, lex-sorted under the identity labeling."""
        return ", ".join(" ".join(map(str, t)) for t in self.facet_tuples())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex) and self._facets == other._facets
        )

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        if not self._facets:
            return "SimplicialComplex(<empty>)"
        return "SimplicialComplex(%s)" % self.canonical_encoding()


EMPTY_COMPLEX = SimplicialComplex._from_facet_masks(())


def from_facets(faces: Iterable) -> SimplicialComplex:
    """Build a complex from faces; dominated faces are absorbed."""
    faces = list(faces)
    if not faces:
        raise ValueError("empty complex")
    return SimplicialComplex(faces)


def join(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    if k.vertex_mask & l.vertex_mask:
        raise ValueError(
            "join requires disjoint vertex sets, shared: %s"
            % (_bits(k.vertex_mask & l.vertex_mask),)
        )
    return SimplicialComplex._from_facet_masks(
        a | b for a in k.facet_masks for b in l.facet_masks
    )


def standard_sphere(d: int, labels: Optional[Sequence[int]] = None) -> SimplicialComplex:
    """S^d on d+2 vertices: every proper non-empty subset is a face."""
    if not _is_int(d) or d < 0:
        raise ValueError(f"sphere dimension must be an int >= 0, not {d!r}")
    labels = tuple(range(d + 2)) if labels is None else tuple(labels)
    if len(labels) != d + 2:
        raise ValueError(f"standard {d}-sphere needs {d + 2} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated labels: {labels}")
    return SimplicialComplex(itertools.combinations(labels, d + 1))


def standard_ball(d: int, labels: Optional[Sequence[int]] = None) -> SimplicialComplex:
    """The solid d-simplex on d+1 vertices."""
    if not _is_int(d) or d < 0:
        raise ValueError(f"ball dimension must be an int >= 0, not {d!r}")
    labels = tuple(range(d + 1)) if labels is None else tuple(labels)
    if len(labels) != d + 1:
        raise ValueError(f"standard {d}-ball needs {d + 1} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated labels: {labels}")
    return SimplicialComplex([labels])


def cycle(n: int, labels: Optional[Sequence[int]] = None) -> SimplicialComplex:
    """The n-gon S^1_n."""
    if not _is_int(n) or n < 3:
        raise ValueError(f"cycle length must be an int >= 3, not {n!r}")
    labels = tuple(range(n)) if labels is None else tuple(labels)
    if len(labels) != n:
        raise ValueError(f"cycle({n}) needs {n} labels")
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated labels: {labels}")
    return SimplicialComplex(
        [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    )


def relabel(k: SimplicialComplex, mapping: Dict[int, int]) -> SimplicialComplex:
    """Apply a vertex bijection; mapping must cover V(k) injectively."""
    missing = [v for v in k.vertices if v not in mapping]
    if missing:
        raise ValueError(f"relabeling does not cover vertices {missing}")
    images = [mapping[v] for v in k.vertices]
    if len(set(images)) != len(images):
        raise ValueError("relabeling is not injective")
    # an injective image of an antichain is an antichain
    return SimplicialComplex._from_facet_masks(
        _mask_of(mapping[v] for v in _bits(f)) for f in k.facet_masks
    )


def _vertex_invariants(k: SimplicialComplex) -> Dict[int, Tuple]:
    """Each vertex's link f-vector, counted off the star table's keys: a
    face of size q + 2 that holds v is a q-face of v's link.  A vertex that
    is a facet has the empty link, whose f-vector is ()."""
    counts = {1 << v: [0] * k.dim for v in k.vertices}
    for face in k._star:
        q = face.bit_count() - 2
        rest = face if q >= 0 else 0
        while rest:
            low = rest & -rest
            counts[low][q] += 1
            rest ^= low
    # a link has faces in every dimension up to its own, none above
    return {
        bit.bit_length() - 1: tuple(c[: len(c) - c.count(0)])
        for bit, c in counts.items()
    }


def are_isomorphic(
    k: SimplicialComplex, l: SimplicialComplex
) -> Optional[Dict[int, int]]:
    """A vertex bijection carrying k onto l, or None.

    Exhaustive backtracking pruned by link f-vectors; capped at 12
    vertices, which covers everything the census and catalog need.  Each
    face of k is checked once, when the last of its vertices in the search
    order is placed, by one lookup of its image in l's star table.  The
    f-vectors are equal, so a vertex injection sending every face of k to
    a face of l is onto in each dimension: an isomorphism.
    """
    nk, nl = len(k.vertices), len(l.vertices)
    if max(nk, nl) > ISO_SEARCH_CAP:
        raise ValueError(f"isomorphism search cap: more than {ISO_SEARCH_CAP} vertices")
    if nk != nl or k.f_vector() != l.f_vector():
        return None
    inv_k, inv_l = _vertex_invariants(k), _vertex_invariants(l)
    if sorted(inv_k.values()) != sorted(inv_l.values()):
        return None

    # rarest invariant first keeps the branching factor low
    freq: Dict[Tuple, int] = {}
    for t in inv_k.values():
        freq[t] = freq.get(t, 0) + 1
    order = sorted(k.vertices, key=lambda v: (freq[inv_k[v]], v))
    candidates = [[w for w in l.vertices if inv_l[w] == inv_k[v]] for v in order]
    # completes[i]: the faces of k whose last vertex in the order is order[i]
    position = {v: i for i, v in enumerate(order)}
    completes: List[List[Tuple[int, ...]]] = [[] for _ in order]
    for face in k._star:
        vertices = _bits(face)
        completes[max(position[u] for u in vertices)].append(vertices)

    faces_l = l._star
    image: Dict[int, int] = {}  # a placed vertex of k -> the bit of its image

    def backtrack(i: int, used: int) -> bool:
        if i == len(order):
            return True
        for w in candidates[i]:
            if used >> w & 1:
                continue
            image[order[i]] = 1 << w
            if all(
                sum(image[u] for u in face) in faces_l for face in completes[i]
            ) and backtrack(i + 1, used | 1 << w):
                return True
        return False

    if backtrack(0, 0):
        return {v: image[v].bit_length() - 1 for v in order}
    return None
