import itertools
import random

import pytest

from simptop import (
    boundary_complex,
    catalog,
    cycle,
    decompose,
    from_facets,
    is_pseudomanifold,
    is_weak_pm_with_boundary,
    is_weak_pseudomanifold,
    simplicial_complement,
    simplicial_neighbourhood,
    standard_ball,
    standard_sphere,
)
from simptop import structure
from simptop.bistellar import apply_generalized_move
from simptop.complexes import SimplicialComplex
from simptop.recognition import find_induced_ball
from simptop.structure import is_subcomplex
from simptop.verification import decomposition_suite, random_decomposition_pairs

from conftest import (
    oracle_boundary_complex,
    oracle_induced,
    oracle_is_pseudomanifold,
    oracle_is_weak_pm_with_boundary,
    sc,
    walked_spheres,
)


class TestPredicates:
    def test_upsilon1_weak_but_not_pm(self):
        u1 = catalog.get("Upsilon1").complex
        assert is_weak_pseudomanifold(u1)
        assert not is_pseudomanifold(u1)

    def test_kappa_e_sigma4_is_pm_with_12_facets(self):
        image = apply_generalized_move(catalog.get("Sigma4").complex, (2, 3, 4, 6))
        assert len(image.facets) == 12
        assert is_pseudomanifold(image)

    def test_r_not_weak_pm(self):
        assert not is_weak_pseudomanifold(catalog.get("R").complex)

    def test_spheres_are_pms(self):
        for name in ("S2_4", "S3_5", "octahedron", "Sigma1", "RP2_6"):
            k = catalog.get(name).complex
            assert is_pseudomanifold(k)

    def test_pm_implies_weak_pm(self):
        for name in catalog.names():
            k = catalog.get(name).complex
            if is_pseudomanifold(k):
                assert is_weak_pseudomanifold(k)

    def test_with_boundary(self):
        ball = standard_ball(2, (1, 2, 3))
        assert is_weak_pm_with_boundary(ball)
        assert not is_weak_pm_with_boundary(standard_sphere(2, (1, 2, 3, 4)))

    def test_zero_dimensional_convention(self):
        assert is_weak_pseudomanifold(standard_sphere(0, (1, 2)))
        assert not is_weak_pseudomanifold(sc((1,)))
        assert not is_weak_pseudomanifold(sc((1,), (2,), (3,)))


class TestBoundaryComplex:
    def test_ball_boundary_is_sphere(self):
        for d in (1, 2, 3, 4):
            labels = tuple(range(1, d + 2))
            assert boundary_complex(standard_ball(d, labels)) == standard_sphere(
                d - 1, labels
            )

    def test_cone_boundary(self):
        ring = cycle(5, (1, 2, 3, 4, 5))
        assert boundary_complex(ring.cone(9)) == ring

    def test_closed_complex_has_no_boundary(self, rp2):
        with pytest.raises(ValueError, match="no boundary"):
            boundary_complex(rp2)

    def test_split_sphere_shared_boundary(self):
        y = standard_sphere(3, (1, 2, 3, 4, 5))
        y1 = y.induced((1, 2, 3, 4))
        result = decompose(y, y1)
        assert result.shared_boundary == standard_sphere(2, (1, 2, 3, 4))
        assert boundary_complex(result.y2) == result.shared_boundary


class TestNeighbourhoodComplement:
    def test_complement_of_facet_in_standard_sphere(self):
        for d in (1, 2, 3):
            s = standard_sphere(d, tuple(range(d + 2)))
            facet = s.induced(s.facet_masks[0])
            comp = simplicial_complement(facet, s)
            assert comp.f_vector() == (1,)

    def test_neighbourhood_of_vertex_is_closed_star(self):
        octa = catalog.get("octahedron").complex
        star = simplicial_neighbourhood(sc((1,)), octa)
        expected = from_facets(
            [f.vertices for f in octa.facets if 1 in f]
        )
        assert star == expected

    def test_neighbourhood_of_complement_boundary(self):
        m = standard_sphere(3, (1, 2, 3, 4, 5))
        x1 = m.induced((1, 2, 3, 4))
        l = simplicial_complement(x1, m)
        x2 = simplicial_neighbourhood(l, m)
        assert boundary_complex(x2) == standard_sphere(2, (1, 2, 3, 4))

    def test_subcomplex_guard(self, rp2):
        with pytest.raises(ValueError):
            simplicial_neighbourhood(sc((1, 2, 9)), rp2)

    def test_is_induced(self, rp2):
        assert is_induced(rp2.induced((1, 2, 3)), rp2)
        # the 1-skeleton on a facet is a subcomplex but not induced
        skel = sc((1, 2), (1, 3), (2, 3))
        assert is_subcomplex(skel, rp2)
        assert not is_induced(skel, rp2)


class TestDecompose:
    def test_octahedron_star_equator(self):
        octa = catalog.get("octahedron").complex
        star_vertices = octa.vertex_mask & ~(1 << 2)
        y1 = octa.induced(star_vertices)
        result = decompose(octa, y1)
        assert result.shared_boundary.f_vector() == (4, 4)
        assert result.l.f_vector() == (1,)

    def test_sigma2_facet_split(self):
        s2 = catalog.get("Sigma2").complex
        y1 = s2.induced((4, 5, 6))
        result = decompose(s2, y1)
        assert len(result.y1.facets) == 1
        assert len(result.y2.facets) == 9
        assert sorted(result.y1.facet_masks + result.y2.facet_masks) == sorted(
            s2.facet_masks
        )

    def test_preconditions_named(self):
        u1 = catalog.get("Upsilon1").complex
        with pytest.raises(ValueError, match="pseudomanifold"):
            decompose(u1, u1.induced((1, 2, 3)))
        s = standard_sphere(2, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="induced"):
            decompose(s, sc((1, 2), (1, 3), (2, 3)))
        with pytest.raises(ValueError, match="dimension"):
            decompose(s, s.induced((1, 2)))
        with pytest.raises(ValueError, match="proper"):
            decompose(s, s.induced((1, 2, 3, 4)))

    def test_randomized_pairs_suite(self):
        result = decomposition_suite(seed=99, pairs=25)
        assert result.passed, result.failures


def is_induced(l, k):
    """Does l contain every face of k spanned by V(l)?  The oracle of the
    inducedness precondition that decompose reads off the star table; it
    does not call ``induced``, which reads that table too."""
    if not is_subcomplex(l, k):
        return False
    return oracle_induced(k, l.vertex_mask) == l


# --- decompose as it was before it read the star table: it builds the
# complement, the neighbourhood and both boundaries as complexes and
# compares them, with the per-call ridge counts and the induced subcomplexes
# of conftest


def oracle_decompose(y, y1, is_pm=oracle_is_pseudomanifold):
    if not is_pm(y):
        raise ValueError("decompose: y is not a pseudomanifold")
    if not is_induced(y1, y):
        raise ValueError("decompose: y1 is not an induced subcomplex of y")
    if not y1.is_pure():
        raise ValueError("decompose: y1 is not pure")
    if y1.dim != y.dim:
        raise ValueError("decompose: y1 must have the dimension of y")
    if y1 == y:
        raise ValueError("decompose: y1 must be a proper subcomplex")

    l = oracle_induced(y, y.vertex_mask & ~y1.vertex_mask)
    y2 = simplicial_neighbourhood(l, y)

    if not oracle_is_weak_pm_with_boundary(y1):
        raise RuntimeError("decompose self-check failed: y1 not a weak pm with boundary")
    if not oracle_is_weak_pm_with_boundary(y2):
        raise RuntimeError("decompose self-check failed: y2 not a weak pm with boundary")
    b1 = oracle_boundary_complex(y1)
    b2 = oracle_boundary_complex(y2)
    if b1 != b2:
        raise RuntimeError("decompose self-check failed: boundaries differ")
    if SimplicialComplex._from_faces(y1._star.keys() & y2._star.keys()) != b1:
        raise RuntimeError("decompose self-check failed: y1 n y2 != shared boundary")
    if oracle_induced(y2, y2.vertex_mask & y1.vertex_mask) != b2:
        raise RuntimeError("decompose self-check failed: boundary not induced in y2")
    if sorted(y.facet_masks) != sorted(y1.facet_masks + y2.facet_masks):
        raise RuntimeError("decompose self-check failed: facets not partitioned")
    return structure.Decomposition(y1=y1, l=l, y2=y2, shared_boundary=b1)


def _outcome(fn, *args):
    """Every field of the decomposition fn returns, or the type and text
    of the exception it raises."""
    try:
        r = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return tuple(k.facet_masks for k in (r.y1, r.l, r.y2, r.shared_boundary))


def pinched_torus():
    """A cylinder between the 3-cycles 0 1 2 and 3 4 5, both ends coned to
    vertex 6: a strongly connected pseudomanifold whose vertex 6 has two
    cycles as link."""
    top, bottom = (0, 1, 2), (3, 4, 5)
    facets = []
    for i in range(3):
        j = (i + 1) % 3
        facets += [
            (top[i], top[j], bottom[i]),
            (top[j], bottom[i], bottom[j]),
            (6, top[i], top[j]),
            (6, bottom[i], bottom[j]),
        ]
    return from_facets(facets)


def _induced_splits(y):
    """Every proper, pure, top-dimensional induced subcomplex of y."""
    for size in range(1, len(y.vertices)):
        for u in itertools.combinations(y.vertices, size):
            y1 = y.induced(u)
            if y1.dim == y.dim and y1.is_pure() and y1 != y:
                yield y1


def _catalog_splits():
    for name in catalog.names():
        y = catalog.get(name).complex
        if len(y.vertices) <= 8 and oracle_is_pseudomanifold(y):
            for y1 in _induced_splits(y):
                yield y, y1


def _invalid_pairs():
    """Pairs that fail a precondition: not a pseudomanifold, not induced
    (a skeleton, part of a span, a span with a triangle y lacks, a face on a
    vertex y lacks), the wrong dimension, not pure, not proper, empty."""
    u1 = catalog.get("Upsilon1").complex
    s = standard_sphere(2, (1, 2, 3, 4))
    octa = catalog.get("octahedron").complex
    span = octa.induced(octa.vertex_mask & ~(1 << 2))
    rp2 = catalog.get("RP2_6").complex
    return [
        (u1, u1.induced((1, 2, 3))),
        (catalog.get("R").complex, sc((1, 2, 3))),
        (s, sc((1, 2), (1, 3), (2, 3))),
        (s, sc((1, 2, 9))),
        (octa, SimplicialComplex._from_facet_masks(span.facet_masks[1:])),
        (octa, SimplicialComplex._from_facet_masks(span.facet_masks + (0b111000,))),
        (s, s.induced((1, 2))),
        (octa, octa.induced(octa.vertex_mask & ~(1 << 1) & ~(1 << 2))),
        (rp2, rp2.induced((1, 2, 3, 4))),
        (s, s.induced((1, 2, 3, 4))),
        (s, SimplicialComplex._from_facet_masks(())),
        (standard_sphere(0, (1, 2)), sc((1,))),
    ]


def _random_pure_splits(seed, count):
    """Random pure complexes y, most of them no pseudomanifold, each with a
    random proper, pure, top-dimensional induced y1."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        n = rng.randint(3, 8)
        dim = rng.randint(0, min(3, n - 2))
        p = rng.choice((0.3, 0.5, 0.8))
        facets = [
            c for c in itertools.combinations(range(n), dim + 1) if rng.random() < p
        ]
        if not facets:
            continue
        y = from_facets(facets)
        u = [v for v in y.vertices if rng.random() < 0.6]
        if not u:
            continue
        y1 = y.induced(u)
        if y1.dim == y.dim and y1.is_pure() and y1 != y:
            found += 1
            yield y, y1


class TestDecomposeMatchesOracle:
    """decompose from the star table against the complex-building oracle:
    every field of the result, or the exception type and text."""

    def _mismatches(self, pairs):
        return [
            (y1.canonical_encoding(), y.canonical_encoding())
            for y, y1 in pairs
            if _outcome(decompose, y, y1) != _outcome(oracle_decompose, y, y1)
        ]

    def test_random_decomposition_pairs(self):
        pairs = random_decomposition_pairs(seed=2026, pairs=300)
        assert self._mismatches(pairs) == []

    def test_every_induced_split_of_the_catalog(self):
        pairs = list(_catalog_splits())
        assert len(pairs) > 400
        assert self._mismatches(pairs) == []
        outcomes = [_outcome(decompose, y, y1) for y, y1 in pairs]
        # S0_2 split into its two points: a point set has no boundary
        assert outcomes.count(
            (RuntimeError, "decompose self-check failed: y1 not a weak pm with boundary")
        ) == 2
        assert sum(isinstance(o[0], tuple) for o in outcomes) == len(pairs) - 2

    def test_walked_spheres_and_their_balls(self):
        pairs = []
        for m in walked_spheres()[::3]:
            for policy in ("facet", "greedy"):
                pairs.append((m, find_induced_ball(m, policy)[0]))
        assert self._mismatches(pairs) == []

    def test_invalid_inputs(self):
        pairs = _invalid_pairs()
        assert self._mismatches(pairs) == []
        messages = {_outcome(decompose, y, y1)[1] for y, y1 in pairs}
        assert len(messages) == 6

    def test_pinched_pseudomanifold(self):
        y = pinched_torus()
        assert is_pseudomanifold(y)
        y1 = y.induced((0, 1, 2, 6))
        assert _outcome(decompose, y, y1) == (
            RuntimeError,
            "decompose self-check failed: y1 n y2 != shared boundary",
        )
        pairs = [(y, y1) for y1 in _induced_splits(y)]
        assert self._mismatches(pairs) == []

    def test_conclusions_without_the_pseudomanifold_check(self, monkeypatch):
        # with y any pure complex every conclusion can fail; each must fail
        # where the oracle's does, with its text
        monkeypatch.setattr(structure, "is_pseudomanifold", lambda k: True)
        pairs = list(_random_pure_splits(7, 600)) + [
            (pinched_torus(), pinched_torus().induced((0, 1, 2, 6)))
        ]
        mismatches = [
            (y1.canonical_encoding(), y.canonical_encoding())
            for y, y1 in pairs
            if _outcome(decompose, y, y1)
            != _outcome(oracle_decompose, y, y1, lambda k: True)
        ]
        assert mismatches == []
        failures = {_outcome(decompose, y, y1)[1] for y, y1 in pairs}
        assert {
            "decompose self-check failed: y1 not a weak pm with boundary",
            "decompose self-check failed: y2 not a weak pm with boundary",
            "decompose self-check failed: boundaries differ",
            "decompose self-check failed: y1 n y2 != shared boundary",
        } < failures

    def test_partition_check_catches_a_false_star_table(self):
        # a table that lists the triangle 3 4 5 of the octahedron, which is no
        # face of it, passes y1 = the span of 1 3 4 5 6 plus that triangle as
        # induced; only the partition check is left to fail
        octa = SimplicialComplex._from_facet_masks(
            catalog.get("octahedron").complex.facet_masks
        )
        ghost = 0b111000
        assert not octa.has_face(ghost)
        span = octa.induced(octa.vertex_mask & ~(1 << 2))
        y1 = SimplicialComplex._from_facet_masks(span.facet_masks + (ghost,))
        assert y1.vertex_mask == span.vertex_mask
        octa._star[ghost] = ghost
        with pytest.raises(RuntimeError, match="facets not partitioned"):
            decompose(octa, y1)
