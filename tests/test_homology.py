import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_h

from simptop import (
    CensusSpec,
    boundary_matrix,
    catalog,
    enumerate_census,
    from_facets,
    is_z2_acyclic,
    is_z2_homology_sphere,
    reduced_betti,
    relabel,
    standard_ball,
    standard_sphere,
)
from simptop.census import CONSTRAINT_EVEN
from simptop.homology import Gf2Matrix, gf2_rank

from conftest import boundary_squared_is_zero, random_pure_complex, sc


def numpy_rank_mod2(matrix: Gf2Matrix) -> int:
    """Independent oracle: dense elimination over the integers mod 2."""
    m = np.zeros((matrix.rows, matrix.cols), dtype=np.int64)
    for i in range(matrix.rows):
        for j in range(matrix.cols):
            m[i, j] = matrix.entry(i, j)
    rank = 0
    for col in range(matrix.cols):
        pivot = next((i for i in range(rank, matrix.rows) if m[i, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for i in range(matrix.rows):
            if i != rank and m[i, col]:
                m[i] = (m[i] + m[rank]) % 2
        rank += 1
    return rank


class TestBoundaryMatrix:
    def test_single_edge(self):
        k = sc((1, 2))
        b1 = boundary_matrix(k, 1)
        assert (b1.rows, b1.cols) == (2, 1)
        assert b1.entry(0, 0) == 1 and b1.entry(1, 0) == 1

    def test_boundary_squared_zero_s3(self):
        s = standard_sphere(3, (1, 2, 3, 4, 5))
        for q in range(2, s.dim + 1):
            assert boundary_squared_is_zero(s, q)

    def test_boundary_squared_zero_random(self, rng):
        for _ in range(15):
            k = random_pure_complex(rng, dim=rng.choice((2, 3)))
            for q in range(2, k.dim + 1):
                assert boundary_squared_is_zero(k, q)

    def test_rank_rp2_boundary_two(self, rp2):
        b2 = boundary_matrix(rp2, 2)
        assert numpy_rank_mod2(b2) == 9
        assert b2.rank() == 9

    def test_rank_matches_numpy_oracle(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, dim=rng.choice((2, 3)))
            for q in range(1, k.dim + 1):
                b = boundary_matrix(k, q)
                assert b.rank() == numpy_rank_mod2(b)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_matrix(sc((1, 2, 3)), 3)
        with pytest.raises(ValueError):
            boundary_matrix(sc((1, 2, 3)), 0)

    def test_q_must_be_an_int(self):
        # bool is an int subclass, and a float would reach a slice index
        k = sc((1, 2, 3))
        for q in (True, False, 1.0, 1.5, "1", None):
            with pytest.raises(ValueError, match="an int"):
                boundary_matrix(k, q)

    def test_gf2_rank_small(self):
        assert gf2_rank([0b11, 0b10, 0b01]) == 2
        assert gf2_rank([0, 0]) == 0


class TestReducedBetti:
    def test_spheres(self):
        assert reduced_betti(standard_sphere(2, (1, 2, 3, 4))) == (0, 0, 1)
        assert reduced_betti(standard_sphere(3, (1, 2, 3, 4, 5))) == (0, 0, 0, 1)
        assert reduced_betti(standard_sphere(0, (1, 2))) == (1,)

    def test_rp2(self, rp2):
        assert reduced_betti(rp2) == (0, 1, 1)

    def test_upsilon1_two_spheres_pinched(self):
        assert reduced_betti(catalog.get("Upsilon1").complex) == (0, 0, 2)

    def test_balls_acyclic(self):
        for d in range(0, 5):
            assert is_z2_acyclic(standard_ball(d, tuple(range(d + 1))))

    def test_dunce_hat_acyclic(self, dunce_hat):
        assert is_z2_acyclic(dunce_hat)
        assert reduced_betti(dunce_hat) == (0, 0, 0)

    def test_rp2_not_homology_sphere(self, rp2):
        assert not is_z2_homology_sphere(rp2, 2)

    def test_homology_sphere_detection(self):
        assert is_z2_homology_sphere(standard_sphere(2, (1, 2, 3, 4)), 2)
        assert not is_z2_homology_sphere(standard_sphere(2, (1, 2, 3, 4)), 1)
        assert is_z2_homology_sphere(standard_sphere(0, (3, 4)), 0)

    def test_negative_sphere_dimension_is_false(self):
        for k in (standard_ball(0, (3,)), standard_ball(2), sc((1,), (2,))):
            assert not is_z2_homology_sphere(k, -1)
            assert not is_z2_homology_sphere(k, -2)

    def test_sphere_dimension_must_be_an_int(self):
        # 2.0 and True compare equal to the ints 2 and 1
        for k in (standard_sphere(2), standard_sphere(1)):
            for d in (2.0, 1.0, True, False, -1.0, "2", None):
                with pytest.raises(ValueError, match="must be an int"):
                    is_z2_homology_sphere(k, d)

    def test_disconnected(self):
        two_points = sc((1,), (2,))
        assert reduced_betti(two_points) == (1,)


class TestHomologyProperties:
    def test_euler_betti_identity(self, rng):
        for _ in range(25):
            k = random_pure_complex(rng, dim=rng.choice((1, 2, 3)), p=0.4)
            betti = reduced_betti(k)
            alternating = sum((-1) ** q * b for q, b in enumerate(betti))
            assert alternating == k.euler_characteristic() - 1

    def test_rank_nullity(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, dim=2)
            fvec = k.f_vector()
            for q in range(1, k.dim + 1):
                b = boundary_matrix(k, q)
                kernel = b.cols - b.rank()
                assert b.rank() + kernel == fvec[q]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        data=st_h.lists(
            st_h.frozensets(st_h.integers(0, 6), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        ),
        shift=st_h.integers(0, 5),
    )
    def test_betti_relabel_invariant(self, data, shift):
        k = from_facets([tuple(f) for f in data])
        image = relabel(k, {v: v + shift + 7 for v in k.vertices})
        assert reduced_betti(k) == reduced_betti(image)

    def test_betti_vector_length(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, dim=rng.choice((1, 2, 3)))
            assert len(reduced_betti(k)) == k.dim + 1


def _betti_by_elimination(k):
    """Oracle: every boundary rank by elimination, rank d1 included."""
    fvec = k.f_vector()
    ranks = [boundary_matrix(k, q).rank() for q in range(1, k.dim + 1)] + [0]
    betti = [k.component_count() - 1]
    for q in range(1, k.dim + 1):
        betti.append(fvec[q] - ranks[q - 1] - ranks[q])
    return tuple(betti)


def _random_components(rng):
    """A complex of dimension 0-3 made of up to three blocks on disjoint
    vertex ranges plus up to two isolated vertices; blocks may split."""
    facets = []
    base = 0
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 5)
        top = rng.randint(0, 3)
        for _ in range(rng.randint(1, 6)):
            size = min(n, rng.randint(1, top + 1))
            facets.append(tuple(rng.sample(range(base, base + n), size)))
        base += n
    facets += [(v,) for v in range(base, base + rng.randint(0, 2))]
    return from_facets(facets)


class TestRankOneFromComponents:
    """reduced_betti takes rank d1 as f0 - components; check it against
    elimination on ``boundary_matrix(k, 1)`` and the whole Betti vector."""

    @staticmethod
    def _check(k):
        if k.dim >= 1:
            assert boundary_matrix(k, 1).rank() == len(k.vertices) - k.component_count()
        assert reduced_betti(k) == _betti_by_elimination(k)

    def test_catalog(self):
        for name in catalog.names():
            self._check(catalog.get(name).complex)

    @pytest.mark.parametrize(
        "spec",
        (
            CensusSpec(n_vertices=6),
            CensusSpec(n_vertices=7, max_facets=10, constraint=CONSTRAINT_EVEN),
        ),
        ids=("closed6", "even7"),
    )
    def test_census_classes(self, spec):
        result = enumerate_census(spec)
        assert result.class_count > 0
        for k in result.representatives:
            self._check(k)

    def test_random_complexes(self):
        rng = random.Random(20261018)
        dims = set()
        several = isolated = 0
        for _ in range(500):
            k = _random_components(rng)
            self._check(k)
            dims.add(k.dim)
            several += k.component_count() > 1
            isolated += any(f.bit_count() == 1 for f in k.facet_masks) and k.dim > 0
        assert dims == {0, 1, 2, 3}
        assert several > 100 and isolated > 100
