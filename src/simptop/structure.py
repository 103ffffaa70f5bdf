"""Pseudomanifold predicates, boundaries, neighbourhoods and complements.

``decompose`` turns the two-sided decomposition of a pseudomanifold along a
pure induced subcomplex into a runtime self-check: its conclusions are
asserted on every call, so any violation is an implementation bug rather
than a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .complexes import SimplicialComplex


def _ridge_degrees(k: SimplicialComplex) -> Dict[int, int]:
    """Ridge mask -> number of facets containing it (k pure, dim >= 1)."""
    degrees: Dict[int, int] = {}
    for f in k.facet_masks:
        rest = f
        while rest:
            bit = rest & -rest
            ridge = f ^ bit
            degrees[ridge] = degrees.get(ridge, 0) + 1
            rest ^= bit
    return degrees


def is_weak_pseudomanifold(k: SimplicialComplex) -> bool:
    """Pure, with every ridge in exactly two facets."""
    if k.is_empty() or not k.is_pure():
        return False
    if k.dim == 0:
        return len(k.vertices) == 2
    return all(d == 2 for d in _ridge_degrees(k).values())


def _facet_graph_connected(k: SimplicialComplex) -> bool:
    facets = k.facet_masks
    if len(facets) <= 1:
        return True
    d = k.dim
    adj = [
        [
            j
            for j in range(len(facets))
            if j != i and (facets[i] & facets[j]).bit_count() == d
        ]
        for i in range(len(facets))
    ]
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(facets)


def is_pseudomanifold(k: SimplicialComplex) -> bool:
    """Weak pseudomanifold whose facets are chained through shared ridges."""
    if not is_weak_pseudomanifold(k):
        return False
    if k.dim == 0:
        return True
    return _facet_graph_connected(k)


def is_weak_pm_with_boundary(k: SimplicialComplex) -> bool:
    """Pure, ridge degrees in {1, 2}, at least one ridge of degree 1."""
    if k.is_empty() or not k.is_pure() or k.dim < 1:
        return False
    degrees = _ridge_degrees(k).values()
    return all(d in (1, 2) for d in degrees) and any(d == 1 for d in degrees)


def boundary_complex(k: SimplicialComplex) -> SimplicialComplex:
    """The pure complex of degree-1 ridges of a weak pm with boundary."""
    if k.is_empty() or not k.is_pure() or k.dim < 1:
        raise ValueError("boundary complex needs a pure complex of dimension >= 1")
    degrees = _ridge_degrees(k)
    if any(d > 2 for d in degrees.values()):
        raise ValueError("not a weak pseudomanifold with boundary: ridge degree > 2")
    boundary = [m for m, d in degrees.items() if d == 1]
    if not boundary:
        raise ValueError("no boundary: every ridge has degree 2")
    return SimplicialComplex(boundary)


def is_subcomplex(l: SimplicialComplex, k: SimplicialComplex) -> bool:
    return all(k.has_face(f) for f in l.facet_masks)


def is_induced(l: SimplicialComplex, k: SimplicialComplex) -> bool:
    """Does l contain every face of k spanned by V(l)?"""
    if not is_subcomplex(l, k):
        return False
    return k.induced(l.vertex_mask) == l


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
    decomposition's structural conclusions are re-verified on every call.
    """
    if not is_pseudomanifold(y):
        raise ValueError("decompose: y is not a pseudomanifold")
    if not is_induced(y1, y):
        raise ValueError("decompose: y1 is not an induced subcomplex of y")
    if not y1.is_pure():
        raise ValueError("decompose: y1 is not pure")
    if y1.dim != y.dim:
        raise ValueError("decompose: y1 must have the dimension of y")
    if y1 == y:
        raise ValueError("decompose: y1 must be a proper subcomplex")

    l = simplicial_complement(y1, y)
    y2 = simplicial_neighbourhood(l, y)

    if not is_weak_pm_with_boundary(y1):
        raise RuntimeError("decompose self-check failed: y1 not a weak pm with boundary")
    if not is_weak_pm_with_boundary(y2):
        raise RuntimeError("decompose self-check failed: y2 not a weak pm with boundary")
    b1 = boundary_complex(y1)
    b2 = boundary_complex(y2)
    if b1 != b2:
        raise RuntimeError("decompose self-check failed: boundaries differ")
    if SimplicialComplex._from_faces(y1._face_set & y2._face_set) != b1:
        raise RuntimeError("decompose self-check failed: y1 n y2 != shared boundary")
    if y2.induced(y2.vertex_mask & y1.vertex_mask) != b2:
        raise RuntimeError("decompose self-check failed: boundary not induced in y2")
    if sorted(y.facet_masks) != sorted(y1.facet_masks + y2.facet_masks):
        raise RuntimeError("decompose self-check failed: facets not partitioned")
    return Decomposition(y1=y1, l=l, y2=y2, shared_boundary=b1)
