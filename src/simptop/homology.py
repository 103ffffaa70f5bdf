"""Simplicial homology with GF(2) coefficients.

Boundary matrices are dense bit rows (Python ints); ranks come from plain
Gaussian elimination.  Everything at catalog scale is at most tens of rows,
so no sparse machinery is warranted.  The zeroth reduced Betti number is
taken from the component count, which sidesteps the empty-face convention;
the same count gives rank d1 = f0 - components, so elimination starts at
q = 2.

A complex on vertex ids below ``complexes.TABLE_VERTICES`` = 7 takes its
boundary columns from the fixed face tables: the columns of its q-faces
are the tables' columns at the set bits of its closure in level q, so no
face is listed, sorted or indexed.  Every other complex groups its face
set by dimension, unsorted: ranks need no order.  Only ``boundary_matrix``,
whose rows and columns are printed, reads the sorted face table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .complexes import SimplicialComplex, _bits, _face_tables


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

    def mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in GF(2) product")
        out = []
        for row in self.row_bits:
            acc = 0
            r = row
            while r:
                low = r & -r
                acc ^= other.row_bits[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return Gf2Matrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)


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


def _boundary_columns(faces_by_dim: Dict[int, List[int]], q: int) -> List[int]:
    """The q-th boundary map column-wise: bit i of column j marks face i of
    dimension q-1 inside face j of dimension q, both in the order of the
    lists in ``faces_by_dim``."""
    index = {m: i for i, m in enumerate(faces_by_dim.get(q - 1, []))}
    cols = []
    for face in faces_by_dim.get(q, []):
        col = 0
        rest = face
        while rest:
            bit = rest & -rest
            col |= 1 << index[face ^ bit]
            rest ^= bit
        cols.append(col)
    return cols


def boundary_matrix(k: SimplicialComplex, q: int) -> Gf2Matrix:
    """The GF(2) boundary map from q-faces to (q-1)-faces.

    Faces are indexed in lexicographic vertex order in both dimensions.
    """
    if q < 1 or q > k.dim:
        raise ValueError(f"boundary matrix needs 1 <= q <= dim, got q={q}")
    by_dim = k._faces_by_dim
    cols = _boundary_columns(by_dim, q)
    rows = [0] * len(by_dim.get(q - 1, []))
    for j, col in enumerate(cols):
        while col:
            bit = col & -col
            rows[bit.bit_length() - 1] |= 1 << j
            col ^= bit
    return Gf2Matrix(len(rows), len(cols), tuple(rows))


def reduced_betti(k: SimplicialComplex) -> Tuple[int, ...]:
    """Reduced GF(2) Betti numbers (b0~, ..., bdim~), exact integers."""
    if k.is_empty():
        raise ValueError("reduced_betti needs a non-empty complex")
    dim = k.dim
    fvec = k.f_vector()
    components = k.component_count()
    # a spanning forest has f0 - components edges: rank d1 needs no elimination
    closure = k._table_closure
    if closure is None:
        groups = k._face_groups
        cols = [_boundary_columns(groups, q) for q in range(2, dim + 1)]
    else:
        t = _face_tables()
        cols = [
            map(t.boundary.__getitem__, _bits(closure & t.level[q]))
            for q in range(2, dim + 1)
        ]
    ranks = [fvec[0] - components] + [gf2_rank(c) for c in cols]
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
