import dataclasses
import functools
import hashlib
import itertools
import math
import operator
import random

import numpy as np
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
from simptop import census, collapse, homology
from simptop.census import (
    CONSTRAINT_BOUNDARY,
    CONSTRAINT_CLOSED,
    CONSTRAINT_EVEN,
    CONSTRAINTS,
)
from simptop.complexes import SimplicialComplex
from simptop.homology import is_z2_acyclic
from simptop.reports import census_report, strip_timestamp

CLOSED7 = CensusSpec(n_vertices=7, max_facets=10, exact_vertices=True)
EVEN7 = CensusSpec(n_vertices=7, max_facets=10, constraint=CONSTRAINT_EVEN)


# census_report bytes (timestamp line stripped) of the three presets, as the
# pairwise isomorphism reduction produced them before the orbit walk
PINNED_CLOSED6_REPORT = """\
report: census
tool-version: 0.1.0
input: -
seed: -
constraint: ridge-degree-exactly-2
vertices: 6
exact-vertices: false
max-facets: 20
classes: 5
labeled-complexes: 105
search-nodes: 371
classes-by-f-vector:
  - 4 6 4 | 1
  - 5 9 6 | 1
  - 6 12 8 | 2
  - 6 15 10 | 1
representatives:
  - 0 1 2, 0 1 3, 0 2 3, 1 2 3
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 4
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 5, 2 4 5, 3 4 5
  - 0 1 2, 0 1 3, 0 2 4, 0 3 4, 1 2 5, 1 3 5, 2 4 5, 3 4 5
  - 0 1 2, 0 1 3, 0 2 4, 0 3 5, 0 4 5, 1 2 5, 1 3 4, 1 4 5, 2 3 4, 2 3 5"""
PINNED_CLOSED7_REPORT = """\
report: census
tool-version: 0.1.0
input: -
seed: -
constraint: ridge-degree-exactly-2
vertices: 7
exact-vertices: true
max-facets: 10
classes: 7
labeled-complexes: 1708
search-nodes: 9930
classes-by-f-vector:
  - 7 12 8 | 1
  - 7 15 10 | 6
representatives:
  - 0 1 2, 0 1 3, 0 2 3, 0 4 5, 0 4 6, 0 5 6, 1 2 3, 4 5 6
  - 0 1 2, 0 1 3, 0 2 3, 0 4 5, 0 4 6, 0 5 6, 1 2 3, 1 4 5, 1 4 6, 1 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 5, 2 4 5, 3 4 6, 3 5 6, 4 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 5, 2 4 6, 2 5 6, 3 4 6, 3 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 5, 1 4 5, 2 3 6, 2 4 5, 2 5 6, 3 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 5, 1 4 5, 2 3 6, 2 4 6, 3 5 6, 4 5 6
  - 0 1 2, 0 1 3, 0 2 4, 0 3 4, 1 2 5, 1 3 5, 2 4 6, 2 5 6, 3 4 6, 3 5 6"""
PINNED_EVEN7_REPORT = """\
report: census
tool-version: 0.1.0
input: -
seed: -
constraint: ridge-degree-even
vertices: 7
exact-vertices: false
max-facets: 10
classes: 18
labeled-complexes: 3456
search-nodes: 29207
classes-by-f-vector:
  - 4 6 4 | 1
  - 5 9 6 | 1
  - 6 11 8 | 1
  - 6 12 8 | 2
  - 6 12 10 | 1
  - 6 13 10 | 1
  - 6 14 10 | 1
  - 6 15 10 | 1
  - 7 12 8 | 1
  - 7 14 10 | 2
  - 7 15 10 | 6
representatives:
  - 0 1 2, 0 1 3, 0 2 3, 1 2 3
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 4
  - 0 1 2, 0 1 3, 0 1 4, 0 1 5, 0 2 3, 0 4 5, 1 2 3, 1 4 5
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 5, 2 4 5, 3 4 5
  - 0 1 2, 0 1 3, 0 2 4, 0 3 4, 1 2 5, 1 3 5, 2 4 5, 3 4 5
  - 0 1 2, 0 1 3, 0 1 4, 0 1 5, 0 2 3, 0 2 4, 0 2 5, 1 2 3, 1 2 4, 1 2 5
  - 0 1 2, 0 1 3, 0 1 4, 0 1 5, 0 2 3, 0 2 4, 0 2 5, 1 2 3, 1 4 5, 2 4 5
  - 0 1 2, 0 1 3, 0 1 4, 0 1 5, 0 2 3, 0 4 5, 1 2 4, 1 3 5, 2 3 4, 3 4 5
  - 0 1 2, 0 1 3, 0 2 4, 0 3 5, 0 4 5, 1 2 5, 1 3 4, 1 4 5, 2 3 4, 2 3 5
  - 0 1 2, 0 1 3, 0 2 3, 0 4 5, 0 4 6, 0 5 6, 1 2 3, 4 5 6
  - 0 1 2, 0 1 3, 0 1 4, 0 1 5, 0 2 3, 0 4 5, 1 2 3, 1 4 6, 1 5 6, 4 5 6
  - 0 1 2, 0 1 3, 0 1 4, 0 1 5, 0 2 3, 0 4 6, 0 5 6, 1 2 3, 1 4 6, 1 5 6
  - 0 1 2, 0 1 3, 0 2 3, 0 4 5, 0 4 6, 0 5 6, 1 2 3, 1 4 5, 1 4 6, 1 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 5, 2 4 5, 3 4 6, 3 5 6, 4 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 4, 2 3 5, 2 4 6, 2 5 6, 3 4 6, 3 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 5, 1 4 5, 2 3 6, 2 4 5, 2 5 6, 3 5 6
  - 0 1 2, 0 1 3, 0 2 3, 1 2 4, 1 3 5, 1 4 5, 2 3 6, 2 4 6, 3 5 6, 4 5 6
  - 0 1 2, 0 1 3, 0 2 4, 0 3 4, 1 2 5, 1 3 5, 2 4 6, 2 5 6, 3 4 6, 3 5 6"""


def _link_invariant(k):
    return (k.f_vector(), tuple(sorted(k.link([v]).f_vector() for v in k.vertices)))


def pairwise_reduce_classes(labeled):
    """The census reduction before the orbit walk, kept as the oracle.

    Buckets the labeled complexes by link f-vectors and runs a backtracking
    isomorphism test against every representative in the bucket.
    """
    buckets = {}
    for masks in labeled:
        k = SimplicialComplex._from_facet_masks(masks)
        key = _link_invariant(k)
        bucket = buckets.setdefault(key, [])
        for i, (rep, _) in enumerate(bucket):
            if are_isomorphic(rep, k) is not None:
                bucket[i] = (rep, bucket[i][1] + 1)
                break
        else:
            bucket.append((k, 1))
    reps = []
    for bucket in buckets.values():
        reps.extend(bucket)
    reps.sort(key=lambda pair: (pair[0].f_vector(), pair[0].facet_tuples()))
    return [r for r, _ in reps], [c for _, c in reps]


@functools.lru_cache(maxsize=None)
def naive_sweep(n_vertices):
    """Unpruned 2^C(n,3) sweep over every triangle subset on n vertices.

    Independent of the backtracking engine: it visits every triangle
    subset and filters.  Returns two tuples of labeled facet tuples: the
    closed sets (every edge degree exactly 2) and the boundary sets (every
    edge degree at most 2, some edge degree 1).  Cached, since the 2^20
    pass at six vertices takes seconds.
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
    closed, boundary = [], []
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
        if ok:
            members = tuple(
                sorted(
                    triangles[i]
                    for i in range(len(triangles))
                    if subset >> i & 1
                )
            )
            (boundary if 1 in degrees.values() else closed).append(members)
    return tuple(closed), tuple(boundary)


def _labeled(spec):
    """The labeled complexes of a census before reduction, sorted as the
    reduction reads them."""
    return sorted(census._enumerate(spec)[0])


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
        closed, _ = naive_sweep(5)
        engine = _labeled(CensusSpec(n_vertices=5, symmetry_breaking=False))
        assert sorted(closed) == engine

    def test_naive_sweep_agrees_at_six_vertices(self):
        # the full 2^20 sweep; the census engine must match it exactly
        closed, _ = naive_sweep(6)
        engine = _labeled(CensusSpec(n_vertices=6, symmetry_breaking=False))
        assert sorted(closed) == engine

    @pytest.mark.parametrize("exact", [False, True], ids=["any", "exact"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_boundary_naive_sweep_agrees(self, n, exact):
        _, boundary = naive_sweep(n)
        full = (1 << n) - 1
        expected = sorted(
            s
            for s in boundary
            if not exact or functools.reduce(operator.or_, s) == full
        )
        engine = _labeled(
            CensusSpec(
                n_vertices=n,
                constraint=CONSTRAINT_BOUNDARY,
                symmetry_breaking=False,
                exact_vertices=exact,
            )
        )
        assert expected == engine

    @pytest.mark.parametrize(
        "constraint",
        [CONSTRAINT_CLOSED, CONSTRAINT_BOUNDARY],
        ids=["closed", "boundary"],
    )
    def test_symmetry_breaking_preserves_classes(self, constraint):
        spec = CensusSpec(n_vertices=6, constraint=constraint)
        with_sb = enumerate_census(spec)
        without = enumerate_census(dataclasses.replace(spec, symmetry_breaking=False))
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
        engine = _labeled(
            CensusSpec(
                n_vertices=5,
                constraint=CONSTRAINT_EVEN,
                max_facets=10,
                symmetry_breaking=False,
            )
        )
        assert sorted(map(tuple, map(sorted, found))) == engine

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

    @pytest.mark.parametrize(
        "n, exact, classes, labeled_sb, labeled_all",
        [
            (4, False, 3, 7, 14),
            (4, True, 2, 6, 10),
            (5, False, 11, 133, 372),
            (5, True, 8, 120, 312),
            (6, False, 100, 9506, 33369),
            (6, True, 89, 9127, 31327),
        ],
    )
    def test_boundary_counts(self, n, exact, classes, labeled_sb, labeled_all):
        spec = CensusSpec(
            n_vertices=n, constraint=CONSTRAINT_BOUNDARY, exact_vertices=exact
        )
        with_sb = enumerate_census(spec)
        without = enumerate_census(dataclasses.replace(spec, symmetry_breaking=False))
        assert with_sb.class_count == without.class_count == classes
        assert (with_sb.labeled_count, without.labeled_count) == (
            labeled_sb,
            labeled_all,
        )
        assert with_sb.representatives == without.representatives

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

    def test_float_vertex_count_is_a_value_error(self):
        with pytest.raises(ValueError, match="n_vertices must be an int"):
            enumerate_census(CensusSpec(n_vertices=6.0))

    def test_bool_max_facets_is_a_value_error(self):
        with pytest.raises(ValueError, match="max_facets must be an int"):
            enumerate_census(CensusSpec(n_vertices=6, max_facets=True))

    # a string such as "no" is truthy: it ran the census with the flag on
    @pytest.mark.parametrize("flag", ["exact_vertices", "symmetry_breaking"])
    def test_non_bool_flag_is_a_value_error(self, flag):
        spec = CensusSpec(n_vertices=5, **{flag: "no"})
        with pytest.raises(ValueError, match=f"^{flag} must be a bool, not 'no'$"):
            enumerate_census(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            enumerate_census(CensusSpec(n_vertices=9))
        with pytest.raises(TypeError):
            CensusSpec(n_vertices=6, dimension=3)
        with pytest.raises(ValueError):
            enumerate_census(CensusSpec(n_vertices=6, constraint="nope"))
        spec = CensusSpec(n_vertices=7, constraint=CONSTRAINT_BOUNDARY)
        with pytest.raises(ValueError, match="capped at 6 vertices"):
            enumerate_census(spec)
        for n in (4, 7):
            cap = math.comb(n, 3)
            for max_facets in (0, cap + 1):
                with pytest.raises(ValueError, match="max_facets outside the feasible"):
                    enumerate_census(CensusSpec(n_vertices=n, max_facets=max_facets))
            assert CensusSpec(n_vertices=n, max_facets=cap).validated()


def _images_tried(labeled, reps, n):
    """Rows the orbit walk tries: the row groups of each representative's
    triangles when every labeled complex holds triangle {0, 1, 2}, else
    all n! rows per class."""
    if all(0b111 in masks for masks in labeled):
        per_group = math.factorial(3) * math.factorial(n - 3)
        return sum(len(rep.facet_masks) * per_group for rep in reps)
    return len(reps) * math.factorial(n)


def _spec_id(spec):
    return "%s-n%d-max%s-sb%d-exact%d" % (
        spec.constraint,
        spec.n_vertices,
        spec.max_facets,
        spec.symmetry_breaking,
        spec.exact_vertices,
    )


def _differential_specs():
    for n in (4, 5, 6):
        for constraint in (CONSTRAINT_CLOSED, CONSTRAINT_EVEN):
            for sb in (True, False):
                for exact in (True, False):
                    yield CensusSpec(
                        n_vertices=n,
                        constraint=constraint,
                        symmetry_breaking=sb,
                        exact_vertices=exact,
                    )
    for n in (4, 5):
        for sb in (True, False):
            for exact in (True, False):
                yield CensusSpec(
                    n_vertices=n,
                    constraint=CONSTRAINT_BOUNDARY,
                    symmetry_breaking=sb,
                    exact_vertices=exact,
                )
    yield CLOSED7
    yield EVEN7


# sha256 over the labeled census of every spec in _walk_grid(), taken
# before the walk became one function: per spec, each labeled complex's
# sorted facet masks in sorted order, then the labeled and node counts
PINNED_WALK_DIGEST = "98c400b7222579710960b787bb36fab27451bd18737be13bae8083eaa563d781"


def _walk_grid():
    for n, constraint, sb, exact, max_facets in itertools.product(
        (4, 5, 6), CONSTRAINTS, (True, False), (True, False), (None, 4)
    ):
        yield CensusSpec(
            n_vertices=n,
            constraint=constraint,
            symmetry_breaking=sb,
            exact_vertices=exact,
            max_facets=max_facets,
        )


def tetrahedron_cycle_span(n_vertices):
    """Every nonzero GF(2) 2-cycle of the full 2-skeleton on n vertices,
    as sorted facet-mask tuples: the XOR span of the tetrahedron
    boundaries, built without the census engine."""
    span = {0}
    for quad in itertools.combinations(range(n_vertices), 4):
        boundary = 0
        for tri in itertools.combinations(quad, 3):
            boundary |= 1 << sum(1 << v for v in tri)
        span |= {cycle ^ boundary for cycle in span}
    return sorted(
        tuple(m for m in range(1 << n_vertices) if cycle >> m & 1)
        for cycle in span
        if cycle
    )


class TestWalkGates:
    def test_grid_digest_unchanged(self):
        digest = hashlib.sha256()
        specs = list(_walk_grid())
        assert len(specs) == 72
        for spec in specs:
            labeled, nodes = census._enumerate(spec)
            for masks in sorted(labeled):
                digest.update(repr(masks).encode())
            digest.update(b"|%d|%d\n" % (len(labeled), nodes))
        assert digest.hexdigest() == PINNED_WALK_DIGEST

    @pytest.mark.parametrize("n, cycles, pinned", [(5, 15, 8), (6, 1023, 512)])
    def test_even_census_is_the_cycle_space(self, n, cycles, pinned):
        # deficient degree 3 occurs at 6 vertices (cap 4); no edge of the
        # full 2-skeleton has degree above n - 2, so the unbounded even
        # census is exactly the nonzero 2-cycles
        span = tetrahedron_cycle_span(n)
        assert len(span) == cycles
        spec = CensusSpec(
            n_vertices=n,
            constraint=CONSTRAINT_EVEN,
            symmetry_breaking=False,
        )
        assert _labeled(spec) == span
        holding0 = [c for c in span if 0b111 in c]
        assert len(holding0) == pinned
        pinned_run = _labeled(dataclasses.replace(spec, symmetry_breaking=True))
        assert pinned_run == holding0


class TestOrbitReduction:
    @pytest.mark.parametrize("spec", list(_differential_specs()), ids=_spec_id)
    def test_matches_pairwise_oracle(self, spec):
        fast = enumerate_census(spec)
        labeled = _labeled(spec)
        reps, per_class = pairwise_reduce_classes(labeled)
        assert fast.representatives == tuple(reps)
        assert fast.labeled_per_class == tuple(per_class)
        assert fast.labeled_count == len(labeled)
        assert sum(per_class) == len(labeled)
        assert fast.images_checked == _images_tried(labeled, reps, spec.n_vertices)
        if spec.symmetry_breaking:
            assert all(0b111 in masks for masks in labeled)

    def test_unpinned_list_walks_every_group(self):
        # closed complexes on 6 vertices that miss triangle {0, 1, 2}: an
        # orbit may leave a representative's row groups, so the reduction
        # must try all n! rows per class
        spec = CensusSpec(n_vertices=6, symmetry_breaking=False)
        labeled = [m for m in _labeled(spec) if 0b111 not in m]
        assert labeled
        reps, per_class, images = census._reduce_classes(labeled, census._tables(6))
        oracle_reps, oracle_per_class = pairwise_reduce_classes(labeled)
        assert reps == oracle_reps
        assert per_class == oracle_per_class
        assert images == len(reps) * math.factorial(6)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_permutation_table(self, n):
        tables = census._Tables(n)
        rows = tables.perm_rows
        size = math.comb(n, 3)
        assert len(rows) == math.factorial(n)
        assert rows[0] == bytes(range(size))
        for p, row in zip(itertools.permutations(range(n)), rows):
            assert sorted(row) == list(range(size))
            for t, mask in enumerate(tables.triangles):
                image = sum(1 << p[v] for v in range(n) if mask >> v & 1)
                assert tables.triangles[row[t]] == image

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_row_groups_partition_the_table(self, n):
        tables = census._Tables(n)
        groups = tables.perm_groups
        per_group = math.factorial(3) * math.factorial(n - 3)
        assert len(groups) == math.comb(n, 3)
        for t, group in enumerate(groups):
            assert len(group) == per_group
            assert all(row[t] == 0 for row in group)
        grouped = sorted(row for group in groups for row in group)
        assert grouped == sorted(tables.perm_rows)

    def test_table_is_built_on_first_use(self):
        tables = census._Tables(5)
        assert "perm_rows" not in vars(tables)
        assert "perm_groups" not in vars(tables)
        rows = tables.perm_rows
        assert tables.perm_rows is rows
        groups = tables.perm_groups
        assert tables.perm_groups is groups
        ids = set(map(id, rows))
        assert all(id(row) in ids for group in groups for row in group)

    def test_counters(self):
        result = enumerate_census(CLOSED7)
        # facets x 3!4! over the 7 representatives (8 + 6 x 10 facets)
        assert result.images_checked == 68 * math.factorial(3) * math.factorial(4)
        assert result.images_checked == 9792
        assert result.enumeration_seconds > 0
        assert result.reduction_seconds > 0
        assert result.seconds == pytest.approx(
            result.enumeration_seconds + result.reduction_seconds
        )


class TestPinnedReports:
    @pytest.mark.parametrize(
        "spec, pinned",
        [
            (CensusSpec(n_vertices=6), PINNED_CLOSED6_REPORT),
            (CLOSED7, PINNED_CLOSED7_REPORT),
            (EVEN7, PINNED_EVEN7_REPORT),
        ],
        ids=["closed6", "closed7", "even7"],
    )
    def test_report_bytes_unchanged(self, spec, pinned):
        assert strip_timestamp(census_report(enumerate_census(spec))) == pinned


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


def _sampler_digest(report):
    digest = hashlib.sha256()
    for f in dataclasses.fields(report):
        digest.update(f"{f.name}: {getattr(report, f.name)!r}\n".encode())
    return digest.hexdigest()


# sha256 over every field of the sampler's reports, recorded before complexes
# on at most 7 vertices read fixed face tables
SAMPLER_DIGESTS = {
    (20_000, 1, None): "4b354be9ac1ecb332694bbb2cbc0babb24cce33d3ba03dff3c99ecef00184381",
    (2000, 11, None): "6b254c36d824fe3ab1b2469c1d6382e78d63e7f7ccfbe53783a6845ac11ec549",
    (300, 1, 3): "128bb429bcb929b954b53cd2cff1d6572df64dfae58a57258a055aa12df5186e",
}


def _sampler_draws(n_samples, seed):
    """The facet masks of every non-empty draw the sampler makes, rebuilt
    from its seeded random stream."""
    rng = random.Random(seed)
    n = collapse.ACYCLIC_VERTEX_BOUND
    candidates = {
        d: [sum(1 << v for v in c) for c in itertools.combinations(range(n), d + 1)]
        for d in (2, 3)
    }
    for _ in range(n_samples):
        d = rng.choice((2, 3))
        p = census.SAMPLER_P[d]
        facets = [m for m in candidates[d] if rng.random() < p]
        if facets:
            yield facets


def _unfiltered_sample(n_samples, seed, budget=2_000_000):
    """The sampler as it ran before its Euler characteristic filter: every
    non-empty draw takes the GF(2) rank test, and ``chi_failures`` counts
    the acyclic draws with chi != 1.  The oracle of the filtered loop."""
    nonempty = acyclic = collapsible = chi_failures = 0
    counterexamples, inconclusive, no_free_faces = [], [], []
    for facets in _sampler_draws(n_samples, seed):
        nonempty += 1
        k = SimplicialComplex._from_facet_masks(facets)
        if not is_z2_acyclic(k):
            continue
        acyclic += 1
        if k.euler_characteristic() != 1:
            chi_failures += 1
        verdict = is_collapsible(k, budget)
        if verdict.collapsible:
            collapsible += 1
            continue
        if verdict.status == collapse.NOT_COLLAPSIBLE:
            counterexamples.append(k.canonical_encoding())
        else:
            inconclusive.append(k.canonical_encoding())
        if not collapse.free_faces(k) and k.face_count() > 1:
            no_free_faces.append(k.canonical_encoding())
    return census.CollapsibilitySampleReport(
        samples=n_samples,
        seed=seed,
        nonempty=nonempty,
        acyclic_found=acyclic,
        collapsible_count=collapsible,
        counterexamples=tuple(counterexamples),
        inconclusive=tuple(inconclusive),
        acyclic_without_free_faces=tuple(no_free_faces),
        chi_failures=chi_failures,
    )


def _numpy_rank_mod2(m):
    """Rank over GF(2) of a 0/1 numpy matrix by dense elimination."""
    m = m.copy()
    rank = 0
    for col in range(m.shape[1]):
        below = np.flatnonzero(m[rank:, col])
        if below.size == 0:
            continue
        pivot = rank + below[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.flatnonzero(m[:, col])
        m[hits[hits != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _numpy_acyclic(facets):
    """Whether the complex on these facet masks has every mod-2 reduced
    Betti number 0, from its faces listed here and numpy elimination."""
    faces = set()
    for f in facets:
        vertices = [v for v in range(f.bit_length()) if f >> v & 1]
        for size in range(1, len(vertices) + 1):
            faces.update(itertools.combinations(vertices, size))
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(len(face) - 1, []).append(face)
    top = max(by_dim)
    # ranks[q] is the rank of the boundary map on q-faces; the augmentation
    # of a non-empty complex has rank 1
    ranks = [1] + [0] * (top + 1)
    for q in range(1, top + 1):
        row = {face: i for i, face in enumerate(by_dim[q - 1])}
        m = np.zeros((len(by_dim[q - 1]), len(by_dim[q])), dtype=np.uint8)
        for j, face in enumerate(by_dim[q]):
            for v in face:
                m[row[tuple(u for u in face if u != v)], j] = 1
        ranks[q] = _numpy_rank_mod2(m)
    return all(
        len(by_dim[q]) == ranks[q] + ranks[q + 1] for q in range(top + 1)
    )


class TestCollapsibilitySampling:
    @pytest.mark.parametrize("seed", [1, 8191])
    def test_acyclic_count_matches_numpy(self, seed):
        """The draws rebuilt here, tested for acyclicity by numpy
        elimination on their own face lists, give the report's acyclic
        count, and every one of them collapses."""
        report = sample_acyclic_collapsibility(2000, seed=seed)
        draws = list(_sampler_draws(2000, seed))
        assert len(draws) == report.nonempty
        acyclic = sum(map(_numpy_acyclic, draws))
        assert acyclic > 100
        assert acyclic == report.acyclic_found == report.collapsible_count

    @pytest.mark.parametrize(
        "n_samples, seed, budget",
        [(2000, 1, None), (2000, 5, None), (2000, 11, None), (2000, 8191, None),
         (300, 1, 3)],
    )
    def test_chi_filter_keeps_the_unfiltered_report(self, n_samples, seed, budget):
        """Skipping the draws with chi != 1 before the rank test changes no
        field of the report, ``chi_failures`` included; under a 3-node
        budget neither do the searches it gives up on."""
        kwargs = {} if budget is None else {"budget": budget}
        report = sample_acyclic_collapsibility(n_samples, seed=seed, **kwargs)
        assert report.acyclic_found > 100
        assert report == _unfiltered_sample(n_samples, seed, **kwargs)

    def test_rank_only_where_the_descent_stops(self, monkeypatch):
        """A draw the greedy descent collapses is contractible, so acyclic,
        and takes no rank test: 40 of the 713 draws with chi = 1 that the
        rank once tested.  The report is still the unfiltered one."""
        ranked = []

        def counting(k):
            ranked.append(k)
            return is_z2_acyclic(k)

        monkeypatch.setattr(homology, "is_z2_acyclic", counting)
        report = sample_acyclic_collapsibility(2000, seed=1)
        assert len(ranked) == 40
        assert report == _unfiltered_sample(2000, 1)

    @pytest.mark.parametrize("n_samples, seed, budget", list(SAMPLER_DIGESTS))
    def test_reports_pinned(self, n_samples, seed, budget):
        kwargs = {} if budget is None else {"budget": budget}
        report = sample_acyclic_collapsibility(n_samples, seed=seed, **kwargs)
        assert _sampler_digest(report) == SAMPLER_DIGESTS[n_samples, seed, budget]

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

    @pytest.fixture
    def no_draws(self, monkeypatch):
        class NoDraws:
            def __init__(self, seed):
                pass

            def __getattr__(self, name):
                raise AssertionError("the sampler drew before checking its input")

        monkeypatch.setattr(census.random, "Random", NoDraws)

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_sample_count_checked_before_drawing(self, no_draws, n_samples):
        with pytest.raises(ValueError, match="sample count"):
            sample_acyclic_collapsibility(n_samples, seed=1)

    def test_negative_budget_checked_before_drawing(self, no_draws):
        with pytest.raises(ValueError, match="budget"):
            sample_acyclic_collapsibility(50, seed=1, budget=-1)

    @pytest.mark.parametrize("budget", [True, 1.5])
    def test_budget_type_checked_before_drawing(self, no_draws, budget):
        with pytest.raises(ValueError, match="budget"):
            sample_acyclic_collapsibility(50, seed=1, budget=budget)

    @pytest.mark.parametrize("seed", [None, True, "abc", [1], 2.5])
    def test_seed_must_be_an_int(self, no_draws, seed):
        # a None seed drew from OS entropy while the report said "seed: None"
        with pytest.raises(ValueError, match="needs an explicit seed: an int"):
            sample_acyclic_collapsibility(300, seed)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            sample_acyclic_collapsibility(0, seed=1)
