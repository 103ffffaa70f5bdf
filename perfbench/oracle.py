"""Reduced GF(2) Betti numbers computed with numpy, independently of simptop.

The collapse_neg workload uses this to prove that each of its inputs is
not collapsible (a collapsible complex is contractible, so every reduced
Betti number vanishes).  Faces are plain vertex tuples here and ranks come
from dense row reduction over GF(2); nothing from the library under test is
called.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence, Tuple

import numpy as np


def _faces(facets: Iterable[Sequence[int]]) -> List[List[Tuple[int, ...]]]:
    """Faces of the downward closure, grouped by dimension, each list sorted."""
    closure = set()
    for facet in facets:
        facet = tuple(sorted(facet))
        for size in range(1, len(facet) + 1):
            closure.update(itertools.combinations(facet, size))
    top = max(len(f) for f in closure)
    return [sorted(f for f in closure if len(f) == q + 1) for q in range(top)]


def _rank_gf2(matrix: np.ndarray) -> int:
    m = matrix.copy()
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + pivots[0]
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        below = np.nonzero(m[:, col])[0]
        below = below[below != rank]
        m[below] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def reduced_betti(facets: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Reduced GF(2) Betti numbers (b0~, ..., bdim~) of a non-empty complex."""
    faces = _faces(facets)
    ranks = [1]  # the augmentation map onto the empty face has rank 1
    for q in range(1, len(faces)):
        index = {f: i for i, f in enumerate(faces[q - 1])}
        boundary = np.zeros((len(faces[q - 1]), len(faces[q])), dtype=np.uint8)
        for j, face in enumerate(faces[q]):
            for drop in range(len(face)):
                boundary[index[face[:drop] + face[drop + 1:]], j] = 1
        ranks.append(_rank_gf2(boundary))
    ranks.append(0)
    return tuple(
        len(faces[q]) - ranks[q] - ranks[q + 1] for q in range(len(faces))
    )
