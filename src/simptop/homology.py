"""Simplicial homology with GF(2) coefficients.

Boundary matrices are dense bit rows (Python ints); ranks come from plain
Gaussian elimination.  Everything at catalog scale is at most tens of rows,
so no sparse machinery is warranted.  The zeroth reduced Betti number is
taken from the component count, which sidesteps the empty-face convention;
the same count gives rank d1 = f0 - components, so elimination starts at
q = 2.  The complex supplies the other boundary columns and, for printed
matrices, its faces ranked in lexicographic order within each dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from .complexes import SimplicialComplex


@dataclass(frozen=True)
class Gf2Matrix:
    """Row-major bit matrix: bit j of row_bits[i] is the (i, j) entry."""

    rows: int
    cols: int
    row_bits: Tuple[int, ...]

    def entry(self, i: int, j: int) -> int:
        return self.row_bits[i] >> j & 1

    def rank(self) -> int:
        return gf2_rank(self.row_bits)


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of a list of GF(2) vectors packed as ints."""
    pivots: Dict[int, int] = {}
    rank = 0
    for vec in vectors:
        while vec:
            top = vec.bit_length() - 1
            if top in pivots:
                vec ^= pivots[top]
            else:
                pivots[top] = vec
                rank += 1
                break
    return rank


def boundary_matrix(k: SimplicialComplex, q: int) -> Gf2Matrix:
    """The GF(2) boundary map from q-faces to (q-1)-faces.

    Faces are indexed in lexicographic vertex order in both dimensions.
    """
    if q < 1 or q > k.dim:
        raise ValueError(f"boundary matrix needs 1 <= q <= dim, got q={q}")
    fvec = k.f_vector()
    _, down = k._ranked_faces()
    # best-first ranks: the q-faces form one run, the (q-1)-faces the next
    first = sum(fvec[q + 1 :])
    below = first + fvec[q]
    rows = [0] * fvec[q - 1]
    for j in range(fvec[q]):
        for i in down[first + j]:
            rows[i - below] |= 1 << j
    return Gf2Matrix(len(rows), fvec[q], tuple(rows))


def reduced_betti(k: SimplicialComplex) -> Tuple[int, ...]:
    """Reduced GF(2) Betti numbers (b0~, ..., bdim~), exact integers."""
    if k.is_empty():
        raise ValueError("reduced_betti needs a non-empty complex")
    dim = k.dim
    fvec = k.f_vector()
    components = k.component_count()
    # a spanning forest has f0 - components edges: rank d1 needs no elimination
    ranks = [fvec[0] - components] + [gf2_rank(c) for c in k._boundary_columns()]
    betti = [components - 1]
    for q in range(1, dim + 1):
        kernel = fvec[q] - ranks[q - 1]
        image_above = ranks[q] if q < dim else 0
        betti.append(kernel - image_above)
    return tuple(betti)


def is_z2_acyclic(k: SimplicialComplex) -> bool:
    return all(b == 0 for b in reduced_betti(k))


def is_z2_homology_sphere(k: SimplicialComplex, d: int) -> bool:
    """Reduced GF(2) homology equal to that of the d-sphere."""
    if k.is_empty() or d < 0:
        return False
    betti = reduced_betti(k)
    if d >= len(betti):
        return False
    return all(b == (1 if q == d else 0) for q, b in enumerate(betti))
