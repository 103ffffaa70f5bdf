"""Pseudomanifold predicates, boundaries, neighbourhoods and complements.

Every predicate reads the star table ``SimplicialComplex._star``.  In a
pure d-complex a ridge r lies in ``star[r].bit_count() - d`` facets; when
in two, the facet across r from f = r + x is ``star[r] ^ x``.

``decompose`` re-derives its conclusions on every call, so a violation is
an implementation bug, not a property of the input: from y's table and the
split of y's facets into those inside V(y1) and those meeting V(l), with no
complex built but those it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .complexes import SimplicialComplex, _star_table


def _ridges(k: SimplicialComplex) -> List[Tuple[int, int]]:
    """(r, facets properly containing r) for each face r of dim k >= 1 vertices."""
    d = k.dim
    return [(r, s.bit_count() - d) for r, s in k._star.items() if r.bit_count() == d]


def _has_boundary(degrees: Iterable[int]) -> bool:
    """Ridge degrees of a weak pseudomanifold with boundary: 1 or 2, some 1."""
    found = set(degrees)
    return 1 in found and found <= {1, 2}


def is_weak_pseudomanifold(k: SimplicialComplex) -> bool:
    """Pure, with every ridge in exactly two facets."""
    if k.is_empty() or not k.is_pure():
        return False
    if k.dim == 0:
        return len(k.vertices) == 2
    return all(degree == 2 for _, degree in _ridges(k))


def is_pseudomanifold(k: SimplicialComplex) -> bool:
    """Weak pseudomanifold whose facets are chained through shared ridges:
    a walk across ridges, each in two facets, reaches every facet."""
    if k.dim < 1 or not k.is_pure():
        return is_weak_pseudomanifold(k)
    star = k._star
    degree_two = k.dim + 2
    seen = {k.facet_masks[0]}
    stack = list(seen)
    while stack:
        f = stack.pop()
        rest = f
        while rest:
            x = rest & -rest
            rest ^= x
            s = star[f ^ x]
            if s.bit_count() != degree_two:
                return False
            if s ^ x not in seen:
                seen.add(s ^ x)
                stack.append(s ^ x)
    return len(seen) == len(k.facet_masks)


def is_weak_pm_with_boundary(k: SimplicialComplex) -> bool:
    """Pure, ridge degrees in {1, 2}, at least one ridge of degree 1."""
    if k.is_empty() or not k.is_pure() or k.dim < 1:
        return False
    return _has_boundary(degree for _, degree in _ridges(k))


def boundary_complex(k: SimplicialComplex) -> SimplicialComplex:
    """The pure complex of degree-1 ridges of a weak pm with boundary."""
    if k.is_empty() or not k.is_pure() or k.dim < 1:
        raise ValueError("boundary complex needs a pure complex of dimension >= 1")
    ridges = _ridges(k)
    if any(degree > 2 for _, degree in ridges):
        raise ValueError("not a weak pseudomanifold with boundary: ridge degree > 2")
    boundary = [r for r, degree in ridges if degree == 1]
    if not boundary:
        raise ValueError("no boundary: every ridge has degree 2")
    return SimplicialComplex._from_facet_masks(boundary)


def is_subcomplex(l: SimplicialComplex, k: SimplicialComplex) -> bool:
    return all(k.has_face(f) for f in l.facet_masks)


def simplicial_neighbourhood(
    l: SimplicialComplex, k: SimplicialComplex
) -> SimplicialComplex:
    """N(l, k): generated by the facets of k that meet V(l)."""
    if not is_subcomplex(l, k):
        raise ValueError("simplicial neighbourhood needs a subcomplex")
    return SimplicialComplex._from_facet_masks(
        f for f in k.facet_masks if f & l.vertex_mask
    )


def simplicial_complement(
    l: SimplicialComplex, k: SimplicialComplex
) -> SimplicialComplex:
    """C(l, k): induced subcomplex on the vertices outside V(l)."""
    if not is_subcomplex(l, k):
        raise ValueError("simplicial complement needs a subcomplex")
    return k.induced(k.vertex_mask & ~l.vertex_mask)


@dataclass(frozen=True)
class Decomposition:
    """Two-sided split of a pseudomanifold y along a pure induced y1."""

    y1: SimplicialComplex
    l: SimplicialComplex
    y2: SimplicialComplex
    shared_boundary: SimplicialComplex


def decompose(y: SimplicialComplex, y1: SimplicialComplex) -> Decomposition:
    """Split y as y1 plus the neighbourhood of the complement of y1.

    Preconditions (each failure is reported by name): y a pseudomanifold,
    y1 a proper induced subcomplex of y, pure, of the same dimension.  The
    decomposition's structural conclusions are re-derived from y's star
    table on every call (see the module notes).
    """
    if not is_pseudomanifold(y):
        raise ValueError("decompose: y is not a pseudomanifold")
    star = y._star
    u = y1.vertex_mask
    # y1 is induced when its facets are the faces g of y maximal inside
    # V(y1), those with star[g] & V(y1) == g; each is f & V(y1), f a facet
    facets1 = set(y1.facet_masks)
    if any(star.get(g, 0) & u != g for g in facets1) or any(
        (m := f & u) and star[m] & u == m and m not in facets1 for f in y.facet_masks
    ):
        raise ValueError("decompose: y1 is not an induced subcomplex of y")
    if not y1.is_pure():
        raise ValueError("decompose: y1 is not pure")
    if y1.dim != y.dim:
        raise ValueError("decompose: y1 must have the dimension of y")
    if y1 == y:
        raise ValueError("decompose: y1 must be a proper subcomplex")

    out = y.vertex_mask & ~u  # V(l)
    side1 = [f for f in y.facet_masks if not f & out]
    # a ridge r of y lies in the facets r + x, x in star[r] - r, and such a
    # facet is on side 2 when r or x meets V(l); a point set has no ridges
    inner = {}  # ridge of side 1 -> its facets on side 1
    outer = {}  # ridge of side 2 -> its facets on side 2
    for f in y.facet_masks if y.dim else ():
        rest = f
        while rest:
            x = rest & -rest
            rest ^= x
            r = f ^ x
            away = star[r] ^ r
            if f & out:
                outer[r] = (away if r & out else away & out).bit_count()
            else:
                inner[r] = (away & u).bit_count()
    if not _has_boundary(inner.values()):
        raise RuntimeError("decompose self-check failed: y1 not a weak pm with boundary")
    if not _has_boundary(outer.values()):
        raise RuntimeError("decompose self-check failed: y2 not a weak pm with boundary")
    boundary = [r for r, degree in inner.items() if degree == 1]
    if set(boundary) != {r for r, degree in outer.items() if degree == 1}:
        raise RuntimeError("decompose self-check failed: boundaries differ")
    # the faces of y1 in a facet of side 2, which as y1 is induced are also
    # the faces of y2 inside V(y1), must be the faces of the boundary ridges
    shared = {g for g in _star_table(side1) if star[g] & out}
    if shared != _star_table(boundary).keys():
        raise RuntimeError("decompose self-check failed: y1 n y2 != shared boundary")
    if tuple(side1) != y1.facet_masks:
        raise RuntimeError("decompose self-check failed: facets not partitioned")
    y2 = (f for f in y.facet_masks if f & out)
    trusted = SimplicialComplex._from_facet_masks
    return Decomposition(y1, y.induced(out), trusted(y2), trusted(boundary))
