import itertools

import pytest

from simptop import (
    CensusSpec,
    are_isomorphic,
    catalog,
    enumerate_census,
    from_facets,
    is_collapsible,
    match_catalog,
    sample_acyclic_collapsibility,
)
from simptop.census import (
    CONSTRAINT_BOUNDARY,
    CONSTRAINT_CLOSED,
    CONSTRAINT_EVEN,
)
from simptop.complexes import SimplicialComplex


def naive_closed_sweep(n_vertices):
    """Unpruned 2^C(n,3) sweep for the every-edge-degree-exactly-2 censuses.

    Independent of the backtracking engine: it visits every triangle
    subset and filters.  Returns labeled facet tuples.
    """
    triangles = [
        sum(1 << v for v in combo)
        for combo in itertools.combinations(range(n_vertices), 3)
    ]
    tri_edges = []
    for combo in itertools.combinations(range(n_vertices), 3):
        a, b, c = combo
        tri_edges.append(
            (
                (1 << a) | (1 << b),
                (1 << a) | (1 << c),
                (1 << b) | (1 << c),
            )
        )
    found = []
    for subset in range(1, 1 << len(triangles)):
        degrees = {}
        ok = True
        rest = subset
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            rest ^= low
            for e in tri_edges[t]:
                d = degrees.get(e, 0) + 1
                if d > 2:
                    ok = False
                    break
                degrees[e] = d
            if not ok:
                break
        if ok and degrees and all(d == 2 for d in degrees.values()):
            members = tuple(
                triangles[i]
                for i in range(len(triangles))
                if subset >> i & 1
            )
            found.append(members)
    return found


class TestEnumerationSmall:
    def test_five_vertex_closed(self):
        result = enumerate_census(CensusSpec(n_vertices=5))
        assert result.class_count == 2
        names = ("S2_4", "S1_3*S0_2")
        assert match_catalog(result, names).perfect

    def test_six_vertex_closed_classes(self):
        result = enumerate_census(CensusSpec(n_vertices=6))
        assert result.class_count == 5
        match = match_catalog(
            result, ("S2_4", "S1_3*S0_2", "octahedron", "RP2_6", "Sigma1")
        )
        assert match.perfect

    def test_naive_sweep_agrees_at_five_vertices(self):
        labeled = naive_closed_sweep(5)
        engine = enumerate_census(
            CensusSpec(n_vertices=5, symmetry_breaking=False, reduce_iso=False)
        )
        assert sorted(map(tuple, map(sorted, labeled))) == sorted(
            tuple(sorted(rep.facet_masks)) for rep in engine.representatives
        )

    def test_naive_sweep_agrees_at_six_vertices(self):
        # the full 2^20 sweep; the census engine must match it exactly
        labeled = naive_closed_sweep(6)
        engine = enumerate_census(
            CensusSpec(n_vertices=6, symmetry_breaking=False, reduce_iso=False)
        )
        assert sorted(map(tuple, map(sorted, labeled))) == sorted(
            tuple(sorted(rep.facet_masks)) for rep in engine.representatives
        )

    def test_symmetry_breaking_preserves_classes(self):
        with_sb = enumerate_census(CensusSpec(n_vertices=6))
        without = enumerate_census(CensusSpec(n_vertices=6, symmetry_breaking=False))
        assert with_sb.class_count == without.class_count
        assert with_sb.labeled_count < without.labeled_count
        for a, b in zip(with_sb.representatives, without.representatives):
            assert are_isomorphic(a, b) is not None

    def test_determinism_and_workers(self):
        spec = CensusSpec(n_vertices=6)
        first = enumerate_census(spec)
        second = enumerate_census(spec)
        assert first.representatives == second.representatives
        assert first.labeled_count == second.labeled_count
        assert first.nodes == second.nodes
        with pytest.raises(ValueError, match="one process"):
            enumerate_census(spec, workers=2)

    def test_even_constraint_small(self):
        result = enumerate_census(
            CensusSpec(n_vertices=5, constraint=CONSTRAINT_EVEN, max_facets=10)
        )
        # only S2_4 and the bipyramid: the smallest two-sphere union that
        # avoids a common triangle already needs six vertices
        assert result.class_count == 2
        assert match_catalog(result, ("S2_4", "S1_3*S0_2")).perfect

    def test_even_constraint_naive_sweep_five_vertices(self):
        triangles = list(itertools.combinations(range(5), 3))
        found = []
        for subset in range(1, 1 << len(triangles)):
            degrees = {}
            for i, tri in enumerate(triangles):
                if subset >> i & 1:
                    for e in itertools.combinations(tri, 2):
                        degrees[e] = degrees.get(e, 0) + 1
            if degrees and all(d % 2 == 0 for d in degrees.values()):
                if bin(subset).count("1") <= 10:
                    found.append(
                        tuple(
                            sorted(
                                sum(1 << v for v in triangles[i])
                                for i in range(len(triangles))
                                if subset >> i & 1
                            )
                        )
                    )
        engine = enumerate_census(
            CensusSpec(
                n_vertices=5,
                constraint=CONSTRAINT_EVEN,
                max_facets=10,
                symmetry_breaking=False,
                reduce_iso=False,
            )
        )
        assert sorted(map(tuple, map(sorted, found))) == sorted(
            tuple(sorted(rep.facet_masks)) for rep in engine.representatives
        )

    def test_boundary_constraint(self):
        result = enumerate_census(
            CensusSpec(n_vertices=4, constraint=CONSTRAINT_BOUNDARY)
        )
        for rep in result.representatives:
            degrees = {}
            for f in rep.facet_tuples():
                for e in itertools.combinations(f, 2):
                    degrees[e] = degrees.get(e, 0) + 1
            assert all(d in (1, 2) for d in degrees.values())
            assert any(d == 1 for d in degrees.values())

    def test_constraint_revalidated_post_hoc(self):
        result = enumerate_census(CensusSpec(n_vertices=6))
        for rep in result.representatives:
            degrees = {}
            for f in rep.facet_tuples():
                for e in itertools.combinations(f, 2):
                    degrees[e] = degrees.get(e, 0) + 1
            assert all(d == 2 for d in degrees.values())
        even = enumerate_census(
            CensusSpec(n_vertices=6, constraint=CONSTRAINT_EVEN, max_facets=10)
        )
        for rep in even.representatives:
            degrees = {}
            for f in rep.facet_tuples():
                for e in itertools.combinations(f, 2):
                    degrees[e] = degrees.get(e, 0) + 1
            assert all(d % 2 == 0 for d in degrees.values())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            enumerate_census(CensusSpec(n_vertices=9))
        with pytest.raises(TypeError):
            CensusSpec(n_vertices=6, dimension=3)
        with pytest.raises(ValueError):
            enumerate_census(CensusSpec(n_vertices=6, constraint="nope"))


class TestMatchCatalog:
    def test_max_facets_8_matches_upsilon1_only(self):
        result = enumerate_census(
            CensusSpec(n_vertices=7, max_facets=8, exact_vertices=True)
        )
        names = (
            "S1_5*S0_2",
            "Sigma2",
            "Sigma3",
            "Sigma4",
            "Sigma5",
            "Upsilon1",
            "Upsilon2",
        )
        match = match_catalog(result, names)
        assert "Upsilon1" in match.mapping
        assert set(match.missing) == set(names) - {"Upsilon1"}
        assert not match.unexpected


class TestCollapsibilitySampling:
    def test_small_run_no_counterexamples(self):
        report = sample_acyclic_collapsibility(2000, seed=11)
        assert report.consistent
        assert report.acyclic_found > 100
        assert report.collapsible_count == report.acyclic_found
        assert report.counterexamples == ()
        assert report.inconclusive == ()
        assert report.acyclic_without_free_faces == ()

    def test_budget_give_ups_are_not_counterexamples(self):
        # under a 3-node budget the search gives up on many acyclic samples;
        # each of them collapses without a budget, so none is a counterexample
        report = sample_acyclic_collapsibility(300, seed=1, budget=3)
        assert report.counterexamples == ()
        assert len(report.inconclusive) == 104
        assert report.consistent
        assert report.collapsible_count + len(report.inconclusive) == (
            report.acyclic_found
        )
        for encoding in report.inconclusive:
            k = from_facets(
                tuple(map(int, f.split())) for f in encoding.split(", ")
            )
            assert is_collapsible(k, None).collapsible

    def test_deterministic_given_seed(self):
        a = sample_acyclic_collapsibility(500, seed=3)
        b = sample_acyclic_collapsibility(500, seed=3)
        assert (a.acyclic_found, a.collapsible_count) == (
            b.acyclic_found,
            b.collapsible_count,
        )

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            sample_acyclic_collapsibility(0, seed=1)
