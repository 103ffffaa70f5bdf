import hashlib
import itertools
import math
import pickle
import random
import subprocess
import sys

import pytest

from simptop import (
    CensusSpec,
    Face,
    are_isomorphic,
    catalog,
    cycle,
    enumerate_census,
    from_facets,
    is_collapsible,
    join,
    random_bistellar_walk,
    relabel,
    standard_ball,
    standard_sphere,
)
from simptop import complexes, reports
from simptop.complexes import (
    EMPTY_COMPLEX,
    TABLE_VERTICES,
    SimplicialComplex,
    _antichain,
    _bits,
    _face_tables,
    _lex_key,
    _mask_of,
    _rank_faces,
    _star_table,
    _vertex_invariants,
)
from simptop.census import CONSTRAINT_BOUNDARY, CONSTRAINT_EVEN
from simptop.collapse import _search
from simptop.homology import boundary_matrix, reduced_betti
from simptop.structure import _ridges

from conftest import (
    image_mask,
    low_labels,
    neg_complexes,
    oracle_are_isomorphic,
    oracle_induced,
    oracle_ridge_degrees,
    oracle_vertex_invariants,
    per_complex_faces,
    random_pure_complex,
    sampler_draws,
    sc,
    spread_labels,
    spread_mapping,
    stacked_sphere,
    walked_spheres,
)


class TestFace:
    def test_vertices_sorted_and_deduped(self):
        assert Face([3, 1, 2]).vertices == (1, 2, 3)
        assert Face([5]).dim == 0
        assert Face([1, 2, 3]).dim == 2

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="vertex cap"):
            Face([64])
        with pytest.raises(ValueError):
            Face([-1])

    def test_subset_and_ops(self):
        assert Face([1, 2]) <= Face([1, 2, 3])
        assert not Face([1, 4]) <= Face([1, 2, 3])
        assert (Face([1, 2]) | Face([3])) == Face([1, 2, 3])
        assert (Face([1, 2, 3]) - Face([2])) == Face([1, 3])

    def test_pickle_round_trip(self):
        for face in (Face([]), Face([3]), Face([0, 5, 63])):
            restored = pickle.loads(pickle.dumps(face))
            assert restored == face and restored.vertices == face.vertices


def _lex_sorted(masks):
    return sorted(masks, key=_lex_key, reverse=True)


class TestLexKey:
    """Sorting by ``_lex_key`` in reverse is the ``key=_bits`` order on
    antichains and on masks of one size."""

    def test_bit_reversal(self):
        assert _lex_key(1) == 1 << 63
        assert _lex_key(1 << 63) == 1
        assert _lex_key(0b1011) == 0b1101 << 60

    def test_same_size_lists(self):
        rng = random.Random(11)
        for _ in range(300):
            size = rng.randint(1, 8)
            masks = {
                _mask_of(rng.sample(range(64), size)) for _ in range(rng.randint(1, 40))
            }
            masks.add(_mask_of(rng.sample(range(63), size - 1)) | 1 << 63)
            assert _lex_sorted(masks) == sorted(masks, key=_bits)

    def test_mixed_size_antichains(self):
        rng = random.Random(12)
        sizes = set()
        for _ in range(300):
            top = rng.choice((8, 16, 64))
            masks = [
                _mask_of(rng.sample(range(top), rng.randint(1, min(top, 6))))
                for _ in range(rng.randint(1, 30))
            ]
            kept = _antichain(masks + [1 << 63])
            sizes.add(len({m.bit_count() for m in kept}) > 1)
            assert _lex_sorted(kept) == sorted(kept, key=_bits)
            assert kept == sorted(kept, key=_bits)
            facets = SimplicialComplex._from_facet_masks(reversed(kept)).facet_masks
            assert list(facets) == kept
        assert sizes == {False, True}

    def test_prefix_comes_out_of_order(self):
        # {0, 1} is a proper prefix of {0, 1, 2}: the documented limit
        short, long = _mask_of((0, 1)), _mask_of((0, 1, 2))
        assert sorted([short, long], key=_bits) == [short, long]
        assert _lex_sorted([short, long]) == [long, short]

    def test_memo_matches_the_plain_key(self):
        rng = random.Random(13)
        masks = [0, 1 << 63, 2**64 - 1] + [
            rng.getrandbits(rng.randint(1, 64)) for _ in range(9_997)
        ]
        hits = _lex_key.cache_info().hits
        # the second pass reads every mask back from the memo
        for m in masks + masks:
            assert _lex_key(m) == _lex_key.__wrapped__(m), m
        assert _lex_key.cache_info().hits >= hits + len(masks)

    def test_memo_is_bounded(self):
        assert complexes.LEX_KEY_CACHE == 1 << 14
        assert _lex_key.cache_info().maxsize == complexes.LEX_KEY_CACHE


class TestConstruction:
    def test_subset_absorption(self):
        assert sc((1, 2, 3), (1, 2)).facet_tuples() == ((1, 2, 3),)

    def test_standard_sphere_four_facets(self):
        s = standard_sphere(2, (1, 2, 3, 4))
        assert len(s.facets) == 4
        assert s.dim == 2

    def test_rp2_f_vector(self, rp2):
        assert rp2.f_vector() == (6, 15, 10)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty complex"):
            from_facets([])

    def test_raw_mask_out_of_range(self):
        # a negative mask used to loop forever in _bits, a wide one to add
        # vertices past the cap
        with pytest.raises(ValueError, match="vertex cap"):
            SimplicialComplex([-1])
        with pytest.raises(ValueError, match="vertex cap"):
            SimplicialComplex([1 << 70, 3])
        assert SimplicialComplex([1 << 63, 3]).vertices == (0, 1, 63)

    def test_bool_face_rejected(self):
        # bool is an int subclass: True read as the mask 1 built "0, 1 2"
        with pytest.raises(ValueError, match="not True"):
            SimplicialComplex([True, 6])
        with pytest.raises(ValueError, match="not False"):
            SimplicialComplex([False, 6])
        s = standard_sphere(2)
        with pytest.raises(ValueError, match="not True"):
            s.link(True)
        with pytest.raises(ValueError, match="not False"):
            s.has_face(False)

    def test_empty_face_rejected(self):
        with pytest.raises(ValueError):
            from_facets([()])

    def test_input_order_irrelevant(self):
        a = sc((1, 2, 3), (2, 3, 4), (1, 4))
        b = sc((1, 4), (2, 3, 4), (1, 2, 3))
        assert a == b
        assert hash(a) == hash(b)

    def test_vertex_set_derived(self):
        assert set(sc((1, 5), (2, 5)).vertices) == {1, 2, 5}


class TestFaceQueries:
    def test_f_vector_and_chi(self, rp2, dunce_hat):
        s = standard_sphere(2, (1, 2, 3, 4))
        assert s.f_vector() == (4, 6, 4)
        assert s.euler_characteristic() == 2
        assert rp2.euler_characteristic() == 1
        assert dunce_hat.euler_characteristic() == 1

    def test_faces_out_of_range_empty(self):
        s = standard_sphere(2, (1, 2, 3, 4))
        assert s.faces(5) == set()
        assert s.faces(-1) == set()

    def test_downward_closure_membership(self, rng):
        k = random_pure_complex(rng)
        for facet in k.facets:
            for r in range(1, len(facet) + 1):
                for sub in itertools.combinations(facet.vertices, r):
                    assert k.has_face(sub)

    def test_has_face_matches_facet_scan(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, dim=rng.choice((1, 2, 3)))
            for r in range(1, 5):
                for sub in itertools.combinations(range(7), r):
                    m = sum(1 << v for v in sub)
                    expected = any(m & ~f == 0 for f in k.facet_masks)
                    assert k.has_face(sub) == expected
            assert k.has_face(())

    def test_antichain_after_every_construction(self, rng):
        for _ in range(20):
            k = random_pure_complex(rng, dim=rng.choice((1, 2, 3)))
            masks = k.facet_masks
            for a in masks:
                for b in masks:
                    assert a == b or a & ~b != 0


class TestLinkDegree:
    def test_link_of_vertex_in_sphere(self):
        s = standard_sphere(2, (1, 2, 3, 4))
        assert s.link([1]) == cycle(3, (2, 3, 4))

    def test_link_of_missing_face(self):
        s = standard_sphere(2, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="not a face"):
            s.link([1, 5])

    def test_wpm_edge_links_two_vertices(self, rp2):
        for edge in rp2.faces(1):
            link = rp2.link(edge)
            assert link.f_vector() == (2,)

    def test_link_in_upsilon1_two_triangles(self):
        u1 = catalog.get("Upsilon1").complex
        link = u1.link([7])
        assert link.f_vector() == (6, 6)
        assert link.component_count() == 2
        target = from_facets(
            list(cycle(3, (1, 2, 3)).facet_tuples())
            + list(cycle(3, (4, 5, 6)).facet_tuples())
        )
        assert link == target

    def test_degrees(self, rp2, dunce_hat):
        for edge in rp2.faces(1):
            assert rp2.degree(edge) == 2
        sigma1 = catalog.get("Sigma1").complex
        assert sigma1.degree([1, 2]) == 2
        # the three identified edges of the dunce hat are the odd ones
        for edge, expected in (((1, 2), 3), ((1, 3), 3), ((2, 3), 3), ((1, 4), 2)):
            assert dunce_hat.degree(edge) == expected

    def test_degree_equals_link_f0(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, dim=2)
            for q in range(k.dim + 1):
                for face in k.faces(q):
                    link = k.link(face)
                    expected = 0 if link.is_empty() else link.f_vector()[0]
                    assert k.degree(face) == expected


class TestInduced:
    def test_induced_of_sphere_four_set(self):
        s = standard_sphere(3, (1, 2, 3, 4, 5))
        for u in itertools.combinations((1, 2, 3, 4, 5), 4):
            assert s.induced(u) == standard_ball(3, u)

    def test_induced_rp2_every_four_set_two_triangles(self, rp2):
        # brute force over all 15 four-sets
        counts = set()
        for u in itertools.combinations(range(1, 7), 4):
            induced = rp2.induced(u)
            counts.add(len([f for f in induced.facets if f.dim == 2]))
        assert counts == {2}

    def test_induced_upsilon1(self):
        u1 = catalog.get("Upsilon1").complex
        assert u1.induced((1, 2, 3, 7)) == standard_sphere(2, (1, 2, 3, 7))

    def test_induced_outside_vertex_set(self, rp2):
        with pytest.raises(ValueError):
            rp2.induced((1, 2, 9))


def _random_low_complexes(seed, count):
    """Random complexes of dimension 0..3 on at most 9 vertices, with facets
    of mixed sizes."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        dim = rng.randint(0, min(3, n - 1))
        yield from_facets(
            rng.sample(range(n), rng.randint(1, dim + 1))
            for _ in range(rng.randint(1, 12))
        )


class TestInducedMatchesOracle:
    """induced reads the star table; the oracle keeps every facet's trace
    on U and drops the dominated ones."""

    def test_every_vertex_subset_of_the_catalog(self):
        checked = 0
        for k in _catalog_complexes():
            if len(k.vertices) > 8:
                continue
            for size in range(len(k.vertices) + 1):
                for u in itertools.combinations(k.vertices, size):
                    mask = _mask_of(u)
                    assert k.induced(mask) == oracle_induced(k, mask), (k, u)
                    checked += 1
        assert checked > 2000

    def test_random_complexes(self):
        rng = random.Random(27)
        ks = list(_random_low_complexes(28, 1500))
        assert {k.dim for k in ks} == {0, 1, 2, 3}
        for i, k in enumerate(ks):
            # every other complex has its star table built before the call
            if i % 2:
                k._star
            else:
                assert "_star" not in k.__dict__
            for _ in range(3):
                u = _mask_of(v for v in k.vertices if rng.random() < 0.6)
                assert k.induced(u) == oracle_induced(k, u), (k, _bits(u))
            assert k.induced(k.vertex_mask) == k


class TestJoinConePure:
    def test_octahedron_join(self):
        octa = join(
            join(standard_sphere(0, (1, 2)), standard_sphere(0, (3, 4))),
            standard_sphere(0, (5, 6)),
        )
        assert octa.f_vector() == (6, 12, 8)

    def test_bipyramid_is_five_vertex_sphere(self):
        bp = join(cycle(3, (1, 2, 3)), standard_sphere(0, (4, 5)))
        assert bp.f_vector() == (5, 9, 6)
        assert are_isomorphic(bp, catalog.get("S1_3*S0_2").complex) is not None

    def test_join_requires_disjoint(self):
        with pytest.raises(ValueError):
            join(cycle(3, (1, 2, 3)), standard_sphere(0, (3, 4)))

    def test_cone_chi_one(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, n_vertices=6, dim=rng.choice((1, 2)))
            assert k.cone(9).euler_characteristic() == 1

    def test_cone_apex_collision(self):
        with pytest.raises(ValueError):
            cycle(3, (1, 2, 3)).cone(2)

    def test_join_f_vector_convolution(self, rng):
        for _ in range(10):
            a = random_pure_complex(rng, n_vertices=4, dim=1, p=0.5)
            b = random_pure_complex(rng, n_vertices=3, dim=1, p=0.5)
            b = relabel(b, {v: v + 10 for v in b.vertices})
            joined = join(a, b)
            fa = (1,) + a.f_vector()
            fb = (1,) + b.f_vector()
            fj = (1,) + joined.f_vector()
            for q in range(len(fj)):
                conv = sum(
                    fa[i] * fb[q - i]
                    for i in range(q + 1)
                    if i < len(fa) and q - i < len(fb)
                )
                assert fj[q] == conv

    def test_sphere_join_sphere(self):
        # the join is a combinatorial (a+b+1)-sphere; it has a+b+4 vertices,
        # so it is equivalent to, not isomorphic to, the standard one
        from simptop import certify_sphere

        for a, b in ((0, 0), (0, 1), (1, 1)):
            left = standard_sphere(a, tuple(range(a + 2)))
            right = standard_sphere(b, tuple(range(10, b + 12)))
            joined = join(left, right)
            assert joined.dim == a + b + 1
            assert certify_sphere(joined).is_sphere()

    def test_pure_part(self):
        k = sc((1, 2, 3), (4, 5))
        assert not k.is_pure()
        # the top-dimensional facets, a complex the library no longer builds
        pure_part = from_facets([f for f in k.facet_tuples() if len(f) == k.dim + 1])
        assert pure_part == sc((1, 2, 3))
        assert standard_sphere(2, (1, 2, 3, 4)).is_pure()

    def test_connectivity(self):
        assert cycle(4, (1, 2, 3, 4)).is_connected()
        assert not sc((1, 2), (3, 4)).is_connected()
        assert sc((1,)).is_connected()


class TestIsomorphism:
    def test_random_relabel_found(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, n_vertices=6, dim=2)
            perm = list(range(10))
            rng.shuffle(perm)
            mapping = {v: perm[v] for v in k.vertices}
            image = relabel(k, mapping)
            found = are_isomorphic(k, image)
            assert found is not None
            assert relabel(k, found) == image

    def test_octahedron_vs_sigma1(self):
        octa = catalog.get("octahedron").complex
        sigma1 = catalog.get("Sigma1").complex
        octa_degrees = sorted(octa.degree([v]) for v in octa.vertices)
        sigma_degrees = sorted(sigma1.degree([v]) for v in sigma1.vertices)
        assert octa_degrees == [4] * 6
        assert sigma_degrees != octa_degrees
        assert are_isomorphic(octa, sigma1) is None

    def test_witness_is_invertible(self, rng):
        k = random_pure_complex(rng, n_vertices=5, dim=2, p=0.5)
        perm = {v: v + 3 for v in k.vertices}
        image = relabel(k, perm)
        fwd = are_isomorphic(k, image)
        back = are_isomorphic(image, k)
        assert fwd is not None and back is not None
        assert relabel(image, back) == k

    def test_reflexive(self, rng):
        k = random_pure_complex(rng, n_vertices=6, dim=2)
        assert are_isomorphic(k, k) is not None

    def test_search_cap(self):
        big = from_facets([(i, i + 1) for i in range(13)])
        with pytest.raises(ValueError, match="isomorphism search cap"):
            are_isomorphic(big, big)


def _random_small_complex(rng):
    """A random 1-, 2- or 3-complex on at most 9 vertices."""
    n = rng.randint(2, 9)
    d = min(rng.randint(1, 3), n - 1)
    return random_pure_complex(rng, n, d, rng.choice((0.2, 0.35, 0.5)))


def _same_f_vector_pairs(ks):
    return [
        (a, b) for a in ks for b in ks if a is not b and a.f_vector() == b.f_vector()
    ]


def _iso_pairs_catalog(rng):
    ks = [catalog.get(name).complex for name in catalog.names()]
    return [(a, b) for a in ks for b in ks]


def _iso_pairs_census(rng):
    specs = (
        CensusSpec(n_vertices=6),
        CensusSpec(n_vertices=7, max_facets=10, exact_vertices=True),
        CensusSpec(n_vertices=7, max_facets=10, constraint=CONSTRAINT_EVEN),
        CensusSpec(n_vertices=6, constraint=CONSTRAINT_BOUNDARY),
    )
    pairs = []
    for spec in specs:
        reps = enumerate_census(spec).representatives
        pairs += _same_f_vector_pairs(reps) + [(k, spread_labels(k, rng)) for k in reps]
    return pairs


def _iso_pairs_random(rng):
    pairs = []
    for _ in range(1000):
        k = _random_small_complex(rng)
        pairs += [(k, spread_labels(k, rng)), (k, _random_small_complex(rng))]
    return pairs


def _iso_pairs_walked(rng):
    spheres = [
        random_bistellar_walk(
            stacked_sphere(d, n), 15, rng.getrandbits(31), max_vertices=n
        )
        for d in (2, 3, 4)
        for n in (10, 11, 12)
        for _ in range(6)
    ]
    return _same_f_vector_pairs(spheres) + [(k, spread_labels(k, rng)) for k in spheres]


class TestIsomorphismMatchesOracle:
    """The search that checks each face once, at the level that completes
    it, returns what the search that rescanned both complexes per candidate
    returned: None, or the same bijection with its keys in the same order."""

    @pytest.mark.parametrize(
        "family",
        [_iso_pairs_catalog, _iso_pairs_census, _iso_pairs_random, _iso_pairs_walked],
        ids=["catalog", "census", "random", "walked"],
    )
    def test_same_return_value(self, family):
        pairs = family(random.Random(20261020))
        found = 0
        for k, l in pairs:
            got, want = are_isomorphic(k, l), oracle_are_isomorphic(k, l)
            assert got == want, (k.facet_tuples(), l.facet_tuples())
            if want is not None:
                assert list(got) == list(want)
                assert relabel(k, got) == l
                found += 1
        # each family holds both answers
        assert 0 < found < len(pairs)


class TestVertexInvariants:
    """The link f-vectors counted off the star table equal those of the
    link complexes, keys in the same order."""

    def test_catalog_and_random_complexes(self):
        ks = _catalog_complexes() + list(_random_mixed_complexes(21, 300))
        ks += [spread_labels(k, random.Random(22)) for k in ks[:40]]
        for k in ks:
            got = _vertex_invariants(k)
            want = oracle_vertex_invariants(k)
            assert list(got.items()) == list(want.items()), k
        # isolated vertices and a single vertex keep the empty f-vector
        assert _vertex_invariants(sc((0, 1, 2), (3,))) == {
            0: (2, 1), 1: (2, 1), 2: (2, 1), 3: ()
        }
        assert _vertex_invariants(sc((5,))) == {5: ()}


class TestStandardComplexes:
    def test_sphere_equals_cycle(self):
        assert standard_sphere(1, (7, 8, 9)) == cycle(3, (7, 8, 9))

    def test_s3_f_vector(self):
        assert standard_sphere(3, (1, 2, 3, 4, 5)).f_vector() == (5, 10, 10, 5)

    def test_ball_chi(self):
        assert standard_ball(2, (1, 2, 3)).euler_characteristic() == 1

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle(2)

    @pytest.mark.parametrize("d", [True, 2.0, "2"])
    def test_sphere_dimension_is_an_int(self, d):
        with pytest.raises(ValueError, match=f"not {d!r}"):
            standard_sphere(d)

    @pytest.mark.parametrize("d", [True, 2.0, "2"])
    def test_ball_dimension_is_an_int(self, d):
        with pytest.raises(ValueError, match=f"not {d!r}"):
            standard_ball(d)

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_cycle_length_is_an_int(self, n):
        with pytest.raises(ValueError, match=f"not {n!r}"):
            cycle(n)

    def test_label_cardinality_checked(self):
        with pytest.raises(ValueError):
            standard_sphere(2, (1, 2, 3))
        with pytest.raises(ValueError):
            standard_ball(2, (1, 2))

    def test_repeated_sphere_labels(self):
        with pytest.raises(ValueError, match="repeated labels"):
            standard_sphere(1, (0, 0, 1))
        with pytest.raises(ValueError, match="repeated labels"):
            standard_sphere(0, (1, 1))

    def test_repeated_ball_labels(self):
        with pytest.raises(ValueError, match="repeated labels"):
            standard_ball(2, (0, 1, 1))

    def test_repeated_cycle_labels(self):
        with pytest.raises(ValueError, match="repeated labels"):
            cycle(3, (0, 1, 1))


class TestRelabel:
    def test_matches_the_antichain_route(self, rng):
        # relabel trusts the image of an antichain to be one; the old route
        # dropped dominated faces from it
        for k in _catalog_complexes():
            for mapping in (
                spread_mapping(k, rng),
                dict(zip(k.vertices, rng.sample(k.vertices, len(k.vertices)))),
            ):
                image = relabel(k, mapping)
                assert image == SimplicialComplex._from_faces(
                    image_mask(f, mapping) for f in k.facet_masks
                )
                assert relabel(image, {w: v for v, w in mapping.items()}) == k

    def test_uncovered_vertices_named(self):
        with pytest.raises(ValueError, match=r"does not cover vertices \[2\]"):
            relabel(standard_sphere(1), {0: 5, 1: 6})
        with pytest.raises(ValueError, match=r"does not cover vertices \[0, 2\]"):
            relabel(standard_sphere(1), {1: 6})


def _catalog_complexes():
    return [catalog.get(name).complex for name in catalog.names()]


def _random_mixed_complexes(seed, count):
    """Random complexes whose facets have one to five vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        yield from_facets(
            rng.sample(range(n), rng.randint(1, min(n, 5)))
            for _ in range(rng.randint(1, 12))
        )


# sha256 digests recorded before the face table was merged: the boundary
# matrices of every catalog entry, and the collapse reports (timestamp
# stripped) of every catalog entry and its cone; face order reaches both
BOUNDARY_DIGEST = "e420e340f6baf1d5d07a1a64e81b64e613ce994bb8ee67d798be610bde1082ad"
COLLAPSE_REPORT_DIGEST = "3761bd39d392887221a0c63a1dbc8862879994a39c261fb41c9a5d75f59555cf"


class TestFaceTable:
    def test_lists_in_lex_order(self):
        ks = _catalog_complexes() + list(_random_mixed_complexes(14, 300))
        assert len({k.dim for k in ks}) >= 4
        for k in ks:
            masks, _ = k._ranked_faces()
            dims = [m.bit_count() - 1 for m in masks]
            assert dims == sorted(dims, reverse=True), k
            assert sorted(set(dims)) == list(range(k.dim + 1)), k
            for q in range(k.dim + 1):
                run = [m for m in masks if m.bit_count() == q + 1]
                assert run == sorted(run, key=_bits), (k, q)
            assert sorted(masks) == sorted(k._star)

    def test_from_faces_matches_constructor(self):
        rng = random.Random(15)
        for _ in range(300):
            n = rng.randint(1, 12)
            masks = [
                _mask_of(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 20))
            ]
            assert SimplicialComplex._from_faces(masks) == SimplicialComplex(masks)
        for k in _catalog_complexes() + list(_random_mixed_complexes(16, 100)):
            closure = k._star.keys()
            assert SimplicialComplex._from_faces(closure) == SimplicialComplex(closure) == k

    def test_from_no_faces_is_empty(self):
        k = SimplicialComplex._from_faces(())
        assert k == EMPTY_COMPLEX and k.is_empty() and k.dim == -1

    def test_boundary_matrix_digest(self):
        digest = hashlib.sha256()
        for name in catalog.names():
            k = catalog.get(name).complex
            for q in range(1, k.dim + 1):
                digest.update(f"{name} {q}: {boundary_matrix(k, q).row_bits}\n".encode())
        assert digest.hexdigest() == BOUNDARY_DIGEST

    def test_collapse_report_digest(self):
        digest = hashlib.sha256()
        for k in _catalog_complexes():
            for x in (k, k.cone(max(k.vertices) + 1)):
                report = reports.collapse_report(x, is_collapsible(x))
                digest.update(reports.strip_timestamp(report).encode() + b"\n")
        assert digest.hexdigest() == COLLAPSE_REPORT_DIGEST


def _random_star_inputs(seed, count):
    """Seeded random complexes on up to 10 vertex ids, 63 always among the
    ids drawn: pure ones of dimension 0..4 and ones with facets of mixed
    sizes."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 10)
        labels = rng.sample(range(63), n - 1) + [63]
        if i % 2:
            dim = rng.randint(0, min(4, n - 1))
            facets = [
                c for c in itertools.combinations(labels, dim + 1) if rng.random() < 0.4
            ]
            yield from_facets(facets or [labels[: dim + 1]])
        else:
            yield from_facets(
                rng.sample(labels, rng.randint(1, min(n, 5)))
                for _ in range(rng.randint(1, 12))
            )


def _star_inputs():
    return (
        _catalog_complexes()
        + list(walked_spheres())
        + list(_random_star_inputs(21, 400))
        + [EMPTY_COMPLEX]
    )


class TestStarTable:
    """The star table against the OR of the facets that contain each face."""

    def test_matches_brute_force(self):
        ks = _star_inputs()
        assert any(63 in k.vertices and not k.is_pure() for k in ks)
        for k in ks:
            star = k._star
            closure = {
                sum(1 << v for v in face)
                for f in k.facet_tuples()
                for size in range(1, len(f) + 1)
                for face in itertools.combinations(f, size)
            }
            assert set(star) == closure, k
            for face, union in star.items():
                brute = 0
                for f in k.facet_masks:
                    if face & ~f == 0:
                        brute |= f
                assert union == brute, (k, face)
            assert _star_table(k.facet_masks) == star

    def test_empty_complex_has_an_empty_table(self):
        assert EMPTY_COMPLEX._star == {}

    def test_ridge_degrees(self):
        pure = [k for k in _star_inputs() if k.dim >= 1 and k.is_pure()]
        assert {k.dim for k in pure} == {1, 2, 3, 4}
        for k in pure:
            assert dict(_ridges(k)) == oracle_ridge_degrees(k), k


class TestFixedFaceTables:
    """The tables' own invariants, independent of any complex."""

    def test_ranks_in_dimension_then_lex_order(self):
        masks = _face_tables().masks
        assert len(masks) == 127 == 2**TABLE_VERTICES - 1
        assert set(masks) == set(range(1, 128))
        keys = [(-m.bit_count(), _bits(m)) for m in masks]
        assert keys == sorted(keys)

    def test_downsets(self):
        t = _face_tables()
        assert t.downset[0] == 0
        for m in range(1, 128):
            closure = {t.masks[r] for r in _bits(t.downset[m])}
            assert len(closure) == 2 ** m.bit_count() - 1
            assert closure == {f for f in range(1, 128) if f & ~m == 0}

    def test_covers_and_boundaries(self):
        t = _face_tables()
        for r, m in enumerate(t.masks):
            below = {m ^ 1 << v for v in _bits(m)} - {0}
            assert {t.masks[j] for j in t.down[r]} == below
            assert t.boundary[r] == sum(1 << j for j in t.down[r])
            # |m| bits, one per codimension-one face; none for a vertex
            size = m.bit_count()
            assert t.boundary[r].bit_count() == (size if size > 1 else 0)
            covers = [j for j, below in enumerate(t.down) if r in below]
            assert t.up[r] == sum(1 << j for j in covers)
            covered = {t.masks[j] for j in covers}
            assert covered == {m | 1 << v for v in range(TABLE_VERTICES)} - {m}
        # slice q is the table from its first q-face on, ranks shifted to 0
        for q, (masks, up, down, _) in enumerate(t.slices):
            first = len(t.masks) - len(masks)
            assert t.masks[first].bit_count() == q + 1
            assert first == 0 or t.masks[first - 1].bit_count() == q + 2
            assert masks == t.masks[first:]
            assert up == tuple(covers >> first for covers in t.up[first:])
            assert down == tuple(
                tuple(j - first for j in below) for below in t.down[first:]
            )
        for m in range(1, 128):
            assert t.masks[t.rank[m]] == m

    def test_slice_pairs(self):
        """After a sampler batch and a backtracking batch, on the tables and
        on the per-complex build, every pair neighbourhood a search stored
        lists the faces right below tau or sigma other than tau, in the
        order of ``down[t] + down[s]``, each with its covers and its bit."""
        stored = []
        search_faces = SimplicialComplex._search_faces

        def recording(k):
            faces = search_faces(k)
            stored.append(faces[:4])
            return faces

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SimplicialComplex, "_search_faces", recording)
            sampler_draws(seeds=(1,))
            backtracking = neg_complexes(5, 10)
            for k in backtracking:
                is_collapsible(k, 3000)
            with per_complex_faces():
                for k in backtracking:
                    is_collapsible(k, 3000)
        slices = _face_tables().slices
        assert all(slices[q][3] for q in (2, 3))
        # the per-complex searches each filled a dict of their own
        own = stored[-len(backtracking) :]
        assert all(faces[3] for faces in own)
        assert len({id(faces[3]) for faces in own + list(slices)}) == len(own) + 7

        def below(m):
            return [m ^ 1 << v for v in _bits(m)] if m & (m - 1) else []

        for masks, _, _, pairs in own + list(slices):
            for key, cells in pairs.items():
                s, r = _bits(key)
                tau, sigma = masks[r], masks[s]
                assert tau in below(sigma)
                listed = [f for f in below(tau) + below(sigma) if f != tau]
                assert [masks[bit.bit_length() - 1] for _, bit in cells] == listed
                for covers, bit in cells:
                    m = masks[bit.bit_length() - 1]
                    assert bit.bit_count() == 1
                    assert {masks[i] for i in _bits(covers)} == {
                        f for f in masks if m in below(f)
                    }

    def test_levels(self):
        t = _face_tables()
        for q, level in enumerate(t.level):
            assert level.bit_count() == math.comb(TABLE_VERTICES, q + 1)
            assert all(t.masks[r].bit_count() == q + 1 for r in _bits(level))
        assert sum(t.level) == 2**127 - 1

    def test_ranked_by_the_one_face_ranking(self):
        rng = random.Random(127)
        groups = {}
        for m in rng.sample(range(1, 128), 127):
            groups.setdefault(m.bit_count() - 1, []).append(m)
        masks, down = _rank_faces(groups)
        t = _face_tables()
        assert tuple(masks) == t.masks
        assert tuple(down) == t.down

    def test_built_on_first_use(self):
        code = (
            "import simptop\n"
            "from simptop import complexes\n"
            "assert complexes._face_tables.cache_info().currsize == 0\n"
            "simptop.standard_ball(2).f_vector()\n"
            "assert complexes._face_tables.cache_info().currsize == 1\n"
            "slices = complexes._face_tables().slices\n"
            "ball = simptop.standard_ball(2)\n"
            "assert simptop.collapses_to(ball, ball).nodes_explored == 0\n"
            "assert not any(pairs for *_, pairs in slices)\n"
            "simptop.is_collapsible(ball)\n"
            "filled = [q for q, (*_, pairs) in enumerate(slices) if pairs]\n"
            "assert filled == [2]\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


def _small_complexes():
    """Catalog entries and mixed-dimension random complexes on at most 7
    vertices, relabeled monotonically onto vertex ids 0..n-1, each with a
    relabeling onto random vertex ids up to 63."""
    rng = random.Random(16)
    ks = [k for k in _catalog_complexes() if len(k.vertices) <= 7]
    ks += [k for k in _random_mixed_complexes(17, 300) if len(k.vertices) <= 7]
    ks = [low_labels(k) for k in ks]
    return [(k, spread_mapping(k, rng)) for k in ks]


class TestTablesMatchPerComplexBuild:
    """f-vectors, Euler characteristics and reduced Betti numbers read off
    the fixed tables equal the per-complex build's."""

    @staticmethod
    def _counts(k):
        return k.f_vector(), k.euler_characteristic(), reduced_betti(k)

    def _assert_match(self, ks):
        assert all(k._table_closure is not None for k in ks)
        table = [self._counts(k) for k in ks]
        with per_complex_faces():
            oracle = [self._counts(k) for k in ks]
        for k, got, expected in zip(ks, table, oracle):
            assert got == expected, k

    def test_oracle_reads_no_table(self):
        """Under ``per_complex_faces`` every face query ranks or groups the
        complex's own faces, even right after the table path ran on the
        same object: otherwise the differential tests would compare the
        tables with themselves."""

        def no_tables():
            raise AssertionError("the per-complex oracle read the fixed tables")

        def results(k):
            matrices = [boundary_matrix(k, q) for q in range(1, k.dim + 1)]
            searches = [_search(k, None, 3000), _search(k, sc((6,)), 3000)]
            return k.f_vector(), reduced_betti(k), matrices, searches

        k = sc((0, 1, 2, 3), (2, 3, 4), (4, 5), (5, 6, 0))
        assert k._table_closure is not None
        table = results(k)
        rankings = []

        def recording(groups):
            rankings.append(groups)
            return _rank_faces(groups)

        with per_complex_faces(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes, "_face_tables", no_tables)
            mp.setattr(complexes, "_rank_faces", recording)
            assert results(k) == table
        # one ranking per boundary matrix and one per search
        assert len(rankings) == k.dim + 2

    def test_small_and_relabeled_complexes(self):
        pairs = _small_complexes()
        ks = [k for k, _ in pairs]
        assert len({k.dim for k in ks}) >= 4
        self._assert_match(ks)
        # their images on ids up to 63 take the per-complex build
        for k, mapping in pairs:
            image = relabel(k, mapping)
            assert max(image.vertices) == 63 and image._table_closure is None
            assert self._counts(image) == self._counts(k), image

    def test_sampler_draws(self):
        self._assert_match(sampler_draws())

    def test_closure_is_the_star_table_keys(self):
        t = _face_tables()
        for k, mapping in _small_complexes():
            faces = {t.masks[r] for r in _bits(k._table_closure)}
            assert faces == k._star.keys(), k
            # relabeled, the table closure is the image's own face set
            image = relabel(k, mapping)
            assert image._table_closure is None
            assert {image_mask(m, mapping) for m in faces} == image._star.keys(), image

    def test_euler_characteristic_is_the_alternating_f_vector_sum(self):
        """The tables' two popcounts (even minus odd dimensions) equal the
        alternating f-vector sum, on ids 0..6 and on the images above 6,
        which count their own faces."""
        chis = []
        for k, mapping in _small_complexes():
            chi = sum((-1) ** q * n for q, n in enumerate(k.f_vector()))
            image = relabel(k, mapping)
            assert k._table_closure is not None and image._table_closure is None
            assert image.f_vector() == k.f_vector(), image
            assert k.euler_characteristic() == chi, k
            assert image.euler_characteristic() == chi, image
            chis.append(chi)
        # with even and odd swapped every chi would change sign
        assert {0, 1, 2} <= set(chis)

    def test_larger_complexes_count_without_the_tables(self):
        ks = [k for k in _catalog_complexes() if len(k.vertices) > 7]
        ks += [k for k in _random_mixed_complexes(18, 100) if len(k.vertices) > 7]
        assert ks
        for k in ks:
            assert k._table_closure is None
            masks, _ = k._ranked_faces()
            dims = [m.bit_count() - 1 for m in masks]
            assert k.f_vector() == tuple(dims.count(q) for q in range(k.dim + 1))
