import hashlib
import itertools
import random
from collections import Counter

import pytest

from simptop import (
    FlipSchedule,
    FlipTrace,
    apply_generalized_move,
    are_isomorphic,
    catalog,
    classify_move,
    core,
    cycle,
    enumerate_moves,
    flip_search,
    from_facets,
    random_bistellar_walk,
    relabel,
    standard_sphere,
)
from simptop.bistellar import (
    _BISTELLAR_KINDS,
    BISTELLAR,
    CLASSIFICATIONS,
    PROPER_BISTELLAR,
    SINGULAR_BS1,
    SINGULAR_BS2,
    _classify,
    _moves,
    _WalkState,
    replay_trace,
)
from simptop.complexes import SimplicialComplex, _star_table
from simptop.structure import is_weak_pseudomanifold
from simptop.verification import replay_move_identities

from conftest import random_pure_complex, sc, walked_spheres

OCTAHEDRON = catalog.get("octahedron").complex
OCTAHEDRON_FLIPPED = {v: 11 - v for v in OCTAHEDRON.vertices}


class TestCore:
    def test_fresh_vertex_core_is_the_fresh_vertex(self):
        # A = facet + new vertex: only A minus the new vertex is a facet
        s2 = catalog.get("Sigma2").complex
        a_set = s2.facet_masks[0] | (1 << 8)
        beta = core(s2, a_set)
        assert beta.vertices == (8,)
        move = classify_move(s2, a_set)
        assert move.classification == BISTELLAR
        assert move.i == 2

    def test_sigma2_proper_move_core(self):
        move = classify_move(catalog.get("Sigma2").complex, (2, 3, 4, 6))
        assert move.alpha.vertices == (3, 6)
        assert move.beta.vertices == (2, 4)
        assert move.i == 1

    def test_upsilon2_bs2_failure(self):
        move = classify_move(catalog.get("Upsilon2").complex, (1, 2, 3, 6))
        assert move.classification == SINGULAR_BS2

    def test_raw_mask_out_of_range(self):
        s2 = catalog.get("Sigma2").complex
        with pytest.raises(ValueError, match="vertex cap"):
            classify_move(s2, -1)
        with pytest.raises(ValueError, match="vertex cap"):
            core(s2, 1 << 64)

    def test_inadmissible_a(self):
        s = standard_sphere(2, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="inadmissible A"):
            core(s, (1, 2, 3, 4))  # contains all four facets
        with pytest.raises(ValueError, match="inadmissible A"):
            core(catalog.get("Sigma2").complex, (1, 2, 3))


class TestApply:
    def test_involution_on_catalog(self):
        for name in ("RP2_6", "Sigma2", "Sigma4", "Upsilon1", "octahedron"):
            k = catalog.get(name).complex
            d = k.dim
            for combo in itertools.combinations(k.vertices, d + 2):
                a_mask = sum(1 << v for v in combo)
                inside = sum(1 for f in k.facet_masks if f & ~a_mask == 0)
                if not 1 <= inside <= d + 1:
                    continue
                assert apply_generalized_move(apply_generalized_move(k, a_mask), a_mask) == k

    def test_rp2_singular_image(self, rp2):
        image = apply_generalized_move(rp2, (1, 2, 5, 6))
        assert image == catalog.get("R").complex
        assert not is_weak_pseudomanifold(image)

    def test_upsilon_moves(self):
        u1 = catalog.get("Upsilon1").complex
        u2 = catalog.get("Upsilon2").complex
        image = apply_generalized_move(u1, (1, 2, 3, 6))
        assert are_isomorphic(image, u2) is not None
        assert apply_generalized_move(u2, (1, 2, 3, 6)) == u1

    def test_purity_preserved(self, rp2):
        image = apply_generalized_move(rp2, (1, 2, 5, 6))
        assert image.is_pure()
        assert image.dim == 2


class TestClassify:
    def test_example_identities_all_pass(self):
        result = replay_move_identities()
        assert result.passed, result.failures

    def test_facet_count_invariant_for_middle_moves(self):
        # d even, i = d/2: facet count is preserved (1-moves on surfaces)
        for name in ("Sigma2", "Sigma3", "octahedron"):
            k = catalog.get(name).complex
            for move in enumerate_moves(k, (PROPER_BISTELLAR,)):
                if move.i == 1:
                    image = apply_generalized_move(k, move.a_set)
                    assert len(image.facets) == len(k.facets)

    def test_proper_moves_preserve_weak_pm(self):
        for name in ("Sigma2", "Sigma5", "octahedron", "S3_5"):
            k = catalog.get(name).complex
            for move in enumerate_moves(k, (PROPER_BISTELLAR,))[:6]:
                assert is_weak_pseudomanifold(apply_generalized_move(k, move.a_set))


class TestEnumerate:
    def test_standard_spheres_admit_no_moves(self):
        for d in (2, 3):
            s = standard_sphere(d, tuple(range(d + 2)))
            assert enumerate_moves(s) == []

    def test_sigma2_has_the_recorded_proper_move(self):
        moves = enumerate_moves(catalog.get("Sigma2").complex, (PROPER_BISTELLAR,))
        assert any(m.a_set.vertices == (2, 3, 4, 6) for m in moves)

    def test_octahedron_proper_moves_are_the_twelve_edge_flips(self):
        octa = catalog.get("octahedron").complex
        moves = enumerate_moves(octa, (PROPER_BISTELLAR,))
        assert len(moves) == 12
        assert all(m.i == 1 for m in moves)
        flipped = {m.alpha.vertices for m in moves}
        assert flipped == {e.vertices for e in octa.faces(1)}

    def test_filters(self):
        s2 = catalog.get("Sigma2").complex
        all_moves = enumerate_moves(s2)
        singular = enumerate_moves(s2, (SINGULAR_BS1, SINGULAR_BS2))
        proper = enumerate_moves(s2, (PROPER_BISTELLAR,))
        bist = enumerate_moves(s2, (BISTELLAR,))
        assert len(all_moves) == len(singular) + len(proper) + len(bist)

    def test_expanding_excluded_by_default(self):
        s2 = catalog.get("Sigma2").complex
        default = enumerate_moves(s2)
        with_exp = enumerate_moves(s2, include_expanding=True)
        assert len(with_exp) == len(default) + len(s2.facets)


def _sweep(k, include_expanding):
    """Oracle: classify every admissible (d+2)-subset of V(k) in lex order,
    then every facet plus the smallest vertex outside V(k)."""
    d = k.dim
    out = []
    for combo in itertools.combinations(k.vertices, d + 2):
        a_mask = sum(1 << v for v in combo)
        inside = sum(1 for f in k.facet_masks if f & ~a_mask == 0)
        if 1 <= inside <= d + 1:
            out.append(classify_move(k, a_mask))
    if include_expanding:
        fresh = min(set(range(64)) - set(k.vertices))
        out.extend(classify_move(k, f | 1 << fresh) for f in k.facet_masks)
    return out


FILTERS = (
    (BISTELLAR, PROPER_BISTELLAR),
    (PROPER_BISTELLAR,),
    (BISTELLAR,),
    None,
    (SINGULAR_BS1,),
    (SINGULAR_BS2,),
    (SINGULAR_BS1, SINGULAR_BS2),
    (BISTELLAR, SINGULAR_BS2),
)


def _assert_same_as_sweep(k):
    for expanding in (False, True):
        every = _sweep(k, expanding)
        for wanted in FILTERS:
            expected = [
                m for m in every if wanted is None or m.classification in wanted
            ]
            fast = enumerate_moves(k, wanted, include_expanding=expanding)
            assert fast == expected, (k, wanted, expanding)


class TestFaceDrivenEnumeration:
    def test_catalog_matches_sweep(self):
        checked = 0
        for name in catalog.names():
            k = catalog.get(name).complex
            if k.is_pure() and k.dim >= 1:
                _assert_same_as_sweep(k)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("d", (2, 3))
    def test_walked_spheres_match_sweep(self, d):
        # 100 walks per dimension, steps 5..24, all within d + 8 vertices
        for seed in range(100):
            walked = random_bistellar_walk(
                standard_sphere(d), 5 + seed % 20, seed=seed, max_vertices=d + 8
            )
            _assert_same_as_sweep(walked)

    def test_random_pure_complexes_match_sweep(self, rng):
        # links that are not spheres: the facet test on A minus x matters
        for _ in range(150):
            k = random_pure_complex(rng, dim=rng.choice((1, 2, 3)), p=rng.random())
            _assert_same_as_sweep(k)

    def test_upsilon2_move_counts(self):
        # test_catalog_matches_sweep compares Upsilon2 with the sweep
        u2 = catalog.get("Upsilon2").complex
        assert len(enumerate_moves(u2)) == 29
        assert len(enumerate_moves(u2, (SINGULAR_BS2,))) == 2

    def test_unknown_classification_rejected(self):
        s2 = catalog.get("Sigma2").complex
        with pytest.raises(ValueError, match="'proper'") as excinfo:
            enumerate_moves(s2, ("proper",))
        assert all(name in str(excinfo.value) for name in CLASSIFICATIONS)
        with pytest.raises(ValueError, match="unknown move classification"):
            enumerate_moves(s2, (BISTELLAR, "bs2"), include_expanding=True)

    def test_invalid_is_not_a_classification(self):
        # no move is ever classified invalid, so the name is unknown rather
        # than a filter that always returns []
        s2 = catalog.get("Sigma2").complex
        assert "invalid" not in CLASSIFICATIONS
        with pytest.raises(ValueError, match="unknown move classification 'invalid'"):
            enumerate_moves(s2, ("invalid",))

    def test_bare_string_is_not_a_classification_list(self):
        # iterated, "bistellar" named its letters as unknown classes
        s2 = catalog.get("Sigma2").complex
        with pytest.raises(ValueError, match="not 'bistellar'"):
            enumerate_moves(s2, BISTELLAR)

    def test_non_bool_include_expanding_rejected(self):
        # "no" is truthy: it returned the 10 expanding moves as well
        s2 = catalog.get("Sigma2").complex
        with pytest.raises(
            ValueError, match="^include_expanding must be a bool, not 'no'$"
        ):
            enumerate_moves(s2, None, "no")
        assert len(enumerate_moves(s2, None, False)) == 27

    def test_full_vertex_pool_hits_vertex_cap(self):
        full = cycle(64)
        with pytest.raises(ValueError, match="vertex cap"):
            enumerate_moves(full, include_expanding=True)
        # without expanding moves the full pool is no obstacle
        assert len(enumerate_moves(full, (BISTELLAR,))) == 64

    def test_energy_from_link_degrees(self):
        names = ("RP2_6", "Sigma4", "octahedron", "S3_5", "Upsilon1")
        for k in [catalog.get(name).complex for name in names] + list(walked_spheres()):
            degrees = [k.degree([v]) for v in k.vertices]
            energy = _WalkState(k, "flip_search").energy()
            assert energy == len(k.facets) + sum(x * x for x in degrees) / 10_000.0


class TestFlipSearch:
    def test_sigma3_reduces_to_standard(self):
        trace = flip_search(catalog.get("Sigma3").complex, "standard-sphere", seed=5)
        assert trace is not None
        end = replay_trace(catalog.get("Sigma3").complex, trace)
        assert are_isomorphic(end, standard_sphere(2, (1, 2, 3, 4))) is not None

    def test_round_trip_from_s3(self):
        s35 = standard_sphere(3, (1, 2, 3, 4, 5))
        walked = random_bistellar_walk(s35, 5, seed=3, max_vertices=11)
        trace = flip_search(walked, "standard-sphere", seed=9)
        assert trace is not None
        assert replay_trace(walked, trace).f_vector() == (5, 10, 10, 5)

    def test_dunce_hat_rejected(self, dunce_hat):
        with pytest.raises(ValueError, match="weak pseudomanifold"):
            flip_search(dunce_hat, "standard-sphere", seed=1)

    def test_seed_mandatory(self):
        with pytest.raises(ValueError, match="seed"):
            flip_search(catalog.get("Sigma3").complex, "standard-sphere")

    def test_goal_facet_count(self):
        sigma5 = catalog.get("Sigma5").complex
        trace = flip_search(sigma5, ("facet-count", 6), seed=8)
        assert trace is not None
        end = replay_trace(sigma5, trace)
        assert len(end.facets) <= 6

    def test_goal_reach_complex(self):
        sigma2 = catalog.get("Sigma2").complex
        sigma3 = catalog.get("Sigma3").complex
        trace = flip_search(sigma2, ("reach", sigma3), seed=4)
        assert trace is not None
        assert are_isomorphic(replay_trace(sigma2, trace), sigma3) is not None

    @pytest.mark.parametrize(
        "k, goal",
        [
            (standard_sphere(2), "standard-sphere"),
            (OCTAHEDRON, ("facet-count", 8)),
            # the goal test runs the isomorphism search on the start itself
            (OCTAHEDRON, ("reach", relabel(OCTAHEDRON, OCTAHEDRON_FLIPPED))),
        ],
        ids=["standard-sphere", "facet-count", "reach"],
    )
    def test_start_meeting_goal_is_the_empty_trace(self, k, goal):
        trace = flip_search(k, goal, seed=0)
        enc = k.canonical_encoding()
        assert trace == FlipTrace((), enc, enc)
        assert replay_trace(k, trace) == k

    def test_trace_only_bistellar_moves(self):
        trace = flip_search(catalog.get("Sigma4").complex, "standard-sphere", seed=11)
        assert trace is not None
        assert all(
            m.classification in (BISTELLAR, PROPER_BISTELLAR) for m in trace.moves
        )

    def test_cycle_reduces_by_vertex_removals(self):
        trace = flip_search(cycle(7, tuple(range(7))), "standard-sphere", seed=6)
        assert trace is not None
        assert all(m.i == 0 for m in trace.moves)
        assert len(trace.moves) == 4

    def test_walk_respects_vertex_cap(self):
        s = standard_sphere(2, (1, 2, 3, 4))
        walked = random_bistellar_walk(s, 30, seed=2, max_vertices=8)
        assert len(walked.vertices) <= 8
        assert is_weak_pseudomanifold(walked)


class TestBadWalkAndScheduleInput:
    def test_walk_needs_a_seed(self):
        with pytest.raises(ValueError, match="needs an explicit seed"):
            random_bistellar_walk(standard_sphere(2), 5, None)

    @pytest.mark.parametrize("seed", ["x", 2.5, True, False])
    def test_seed_must_be_an_int(self, seed):
        message = "needs an explicit seed: an int"
        with pytest.raises(ValueError, match=message):
            random_bistellar_walk(standard_sphere(2), 3, seed)
        with pytest.raises(ValueError, match=message):
            flip_search(catalog.get("Sigma3").complex, "standard-sphere", seed=seed)

    @pytest.mark.parametrize("steps", [-1, 2.0, True, "3", None])
    def test_walk_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be an int >= 0"):
            random_bistellar_walk(standard_sphere(2), steps, seed=1)

    @pytest.mark.parametrize("cap", [-3, 8.0, True])
    def test_walk_vertex_cap(self, cap):
        with pytest.raises(ValueError, match="max_vertices must be an int >= 0"):
            random_bistellar_walk(standard_sphere(2), 5, seed=1, max_vertices=cap)

    def test_zero_steps_and_zero_cap_are_valid(self):
        # the standard sphere admits only moves that star in a fresh vertex
        s = standard_sphere(2)
        assert random_bistellar_walk(s, 0, seed=1) == s
        assert random_bistellar_walk(s, 5, seed=1, max_vertices=0) == s
        assert random_bistellar_walk(s, 1, seed=1) != s

    @pytest.mark.parametrize("field", ["restarts", "steps"])
    @pytest.mark.parametrize("value", [-1, 1.5, True, None])
    def test_schedule_lengths(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int >= 0"):
            FlipSchedule(**{field: value})

    @pytest.mark.parametrize("goal", [("facet-count", 3), ("facet-count", 10)])
    def test_schedule_must_be_a_flip_schedule(self, goal):
        # with the goal unmet a tuple died on .restarts; met, it passed
        sigma2 = catalog.get("Sigma2").complex
        with pytest.raises(ValueError, match=r"not \(1, 2\)"):
            flip_search(sigma2, goal, schedule=(1, 2), seed=1)

    @pytest.mark.parametrize(
        "goal",
        [
            5,
            ("facet-count",),
            ("reach",),
            ("facet-count", "x"),
            ("reach", "notacomplex"),
            ("facet-count", True),
            ("facet-count", -1),
        ],
        ids=["int", "no-count", "no-target", "str-count", "str-target", "bool", "-1"],
    )
    def test_goal_checked_on_entry(self, goal):
        # these died on an index, a comparison or an attribute lookup, or,
        # with True as the count, ran as the count 1
        sigma3 = catalog.get("Sigma3").complex
        with pytest.raises(ValueError, match="flip goal"):
            flip_search(sigma3, goal, FlipSchedule(1, 10), seed=5)

    def test_walk_names_itself_on_a_non_pure_complex(self):
        mixed = from_facets([(0, 1, 2), (2, 3)])
        for steps in (0, 3):
            with pytest.raises(
                ValueError, match="random_bistellar_walk needs a pure non-empty"
            ):
                random_bistellar_walk(mixed, steps, seed=1)

    def test_empty_schedule_is_valid(self):
        sigma3 = catalog.get("Sigma3").complex
        assert flip_search(sigma3, "standard-sphere", FlipSchedule(0, 0), seed=5) is None


def _assert_matches_fresh(state):
    """The walk state against a complex built from its facets: the same
    star table, vertex set, energy, candidates and move lists."""
    k = SimplicialComplex._from_facet_masks(state.facets)
    star = _star_table(k.facet_masks)
    assert state.star == star
    assert state.vertex_mask == k.vertex_mask
    degrees = [k.degree([v]) for v in k.vertices]
    assert state.energy() == len(k.facets) + sum(x * x for x in degrees) / 10_000.0
    d = k.dim
    values = Counter(a for a in star.values() if a.bit_count() == d + 2)
    assert state.counts == values
    assert state.classified == {a: _classify(star, a, d) for a in values}
    for expanding in (False, True):
        count = state.move_count(expanding)
        listed = [state.move_at(j, expanding) for j in range(count)]
        assert listed == _moves(k, _BISTELLAR_KINDS, expanding)


@pytest.fixture
def checked_moves(monkeypatch):
    """Check the state after every move the walk and the flip search make;
    yields the A-sets applied, in order."""
    applied = []
    apply = _WalkState.apply

    def checked(state, a):
        apply(state, a)
        applied.append(a)
        _assert_matches_fresh(state)

    monkeypatch.setattr(_WalkState, "apply", checked)
    return applied


def _assert_own_table(k, table, facets):
    # the start keeps its facets and its own table, never written to
    assert k.facet_masks == facets
    assert k._star is table
    assert table == _star_table(facets)


class TestWalkState:
    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_walks_match_a_fresh_enumeration(self, d, checked_moves):
        # growth from the standard sphere, and at the cap from a stacked one
        for start in (standard_sphere(d), _stacked_sphere(d, d + 8)):
            table, facets = start._star, start.facet_masks
            for seed in range(12):
                before = len(checked_moves)
                walked = random_bistellar_walk(start, 15, seed, max_vertices=d + 8)
                _assert_own_table(start, table, facets)
                assert walked._star == _star_table(walked.facet_masks)
                assert len(checked_moves) - before == 15

    def test_walks_on_other_pure_complexes_match(self, rng, checked_moves):
        # singular candidates, links that are not spheres, several components
        starts = [catalog.get(name).complex for name in ("Upsilon1", "R", "RP2_6")]
        starts += [
            random_pure_complex(rng, dim=rng.choice((1, 2, 3)), p=rng.random())
            for _ in range(60)
        ]
        for seed, start in enumerate(starts):
            walked = random_bistellar_walk(start, 12, seed=seed, max_vertices=9)
            assert walked._star == _star_table(walked.facet_masks)
        assert len(checked_moves) > 300

    def test_unbounded_walk_matches(self, checked_moves):
        walked = random_bistellar_walk(standard_sphere(2), 40, seed=3)
        assert walked._star == _star_table(walked.facet_masks)
        assert len(checked_moves) == 40

    @pytest.mark.parametrize("d", (2, 3))
    def test_flip_searches_match_a_fresh_enumeration(self, d, checked_moves):
        starts = [
            random_bistellar_walk(_stacked_sphere(d, d + 8), 8, seed, max_vertices=d + 8)
            for seed in range(4)
        ]
        checked_moves.clear()
        schedule = FlipSchedule(restarts=2, steps=60)
        for seed, start in enumerate(starts):
            table, facets = start._star, start.facet_masks
            trace = flip_search(start, "standard-sphere", schedule, seed=seed)
            _assert_own_table(start, table, facets)
            if trace is not None:
                replay_trace(start, trace)
        # a rejected move is undone by the move at the same A
        undone = sum(a == b for a, b in zip(checked_moves, checked_moves[1:]))
        assert 0 < undone < len(checked_moves) // 2

    def test_a_table_built_on_entry_stays_the_starts(self):
        # a start whose table is built on entry still owns it afterwards
        start = _stacked_sphere(3, 11)
        assert "_star" not in start.__dict__
        walked = random_bistellar_walk(start, 6, seed=2, max_vertices=11)
        assert walked._star is not start._star
        assert start._star == _star_table(start.facet_masks)


# Walk and flip results recorded before move enumeration became face-driven.
# ``rng.choice`` reads the move list by position, so any change in the order
# or content of ``enumerate_moves`` output changes these values.
PINNED_WALKS = {
    (2, 25, 1): "0 1 2, 0 1 8, 0 2 3, 0 3 8, 1 2 3, 1 3 6, 1 4 8, 1 4 9, 1 6 9, "
    "3 5 7, 3 5 8, 3 6 9, 3 7 9, 4 5 7, 4 5 8, 4 7 9",
    (2, 25, 2): "0 2 7, 0 2 9, 0 6 7, 0 6 9, 1 5 6, 1 5 7, 1 6 7, 2 3 6, 2 3 7, "
    "2 6 9, 3 6 8, 3 7 8, 5 6 8, 5 7 8",
    (3, 12, 3): "0 1 2 3, 0 1 2 5, 0 1 3 7, 0 1 4 6, 0 1 4 7, 0 1 5 6, 0 2 3 8, "
    "0 2 4 5, 0 2 4 8, 0 3 4 7, 0 3 4 8, 0 4 5 6, 1 2 3 7, 1 2 5 7, 1 4 5 7, "
    "1 4 5 9, 1 4 6 9, 1 5 6 9, 2 3 4 7, 2 3 4 8, 2 4 5 7, 4 5 6 10, 4 5 9 10, "
    "4 6 9 10, 5 6 9 10",
    (3, 12, 4): "0 1 3 5, 0 1 3 6, 0 1 4 5, 0 1 4 6, 0 3 4 6, 0 3 4 8, 0 3 5 7, "
    "0 3 7 8, 0 4 5 7, 0 4 7 9, 0 4 8 9, 0 7 8 9, 1 2 4 5, 1 2 4 6, 1 2 5 6, "
    "1 3 5 6, 2 3 4 6, 2 3 4 10, 2 3 5 6, 2 3 5 10, 2 4 5 10, 3 4 5 7, "
    "3 4 5 10, 3 4 7 8, 4 7 8 9",
}

# (d, walk steps, walk seed, flip seed) -> (trace length, end encoding,
# sha256 of the trace's A-sets written "v v v | v v v | ...")
PINNED_FLIPS = {
    (2, 25, 1, 7): (
        22,
        "1 7 8, 1 7 9, 1 8 9, 7 8 9",
        "75bbab2f91ac21de65851c1552f7f60676bd31ef9eab3a8a2284dc38cce30ecd",
    ),
    (3, 8, 3, 9): (
        94,
        "2 4 6 7, 2 4 6 8, 2 4 7 8, 2 6 7 8, 4 6 7 8",
        "d49484b11cc24d9912d00e0c44a5015a99cbbe41bd01dc69496129dee5be93cc",
    ),
    (2, 12, 5, 3): (
        23,
        "2 3 5, 2 3 6, 2 5 6, 3 5 6",
        "98c9d90eff8a8bcd7ca108ba47c00cc8bffe5b9c8d382d5fa8bf0be8d1f7592c",
    ),
}


class TestPinnedWalks:
    @pytest.mark.parametrize("d, steps, seed", sorted(PINNED_WALKS))
    def test_walk_encoding(self, d, steps, seed):
        walked = random_bistellar_walk(
            standard_sphere(d), steps, seed=seed, max_vertices=d + 8
        )
        assert walked.canonical_encoding() == PINNED_WALKS[d, steps, seed]

    @pytest.mark.parametrize("d, steps, seed, flip_seed", sorted(PINNED_FLIPS))
    def test_flip_trace(self, d, steps, seed, flip_seed):
        walked = random_bistellar_walk(
            standard_sphere(d), steps, seed=seed, max_vertices=d + 8
        )
        trace = flip_search(
            walked,
            "standard-sphere",
            FlipSchedule(restarts=2, steps=300),
            seed=flip_seed,
        )
        assert trace is not None
        assert trace.start == walked.canonical_encoding()
        a_sets = " | ".join(" ".join(map(str, m.a_set.vertices)) for m in trace.moves)
        digest = hashlib.sha256(a_sets.encode()).hexdigest()
        assert (len(trace.moves), trace.end, digest) == PINNED_FLIPS[
            d, steps, seed, flip_seed
        ]


# sha256 digests recorded before the walk and the flip search drew from
# mask tuples instead of described moves; they pin every draw of many walks.
GROWTH_WALKS_DIGEST = "269598b52306e284c5973bda394c491f26c2ae5c33aa78ab5d418221fc070d76"
AT_CAP_DIGEST = "f153544011e98220c5315792a0cb1f05b8b7cecfae52e89659959bc4b7d6b5d1"


def _stacked_sphere(d, n):
    """The boundary of a (d+1)-simplex with its middle facet stellarly
    subdivided n - d - 2 times, the start of the benchmark's walks."""
    facets = [tuple(f) for f in itertools.combinations(range(d + 2), d + 1)]
    for v in range(d + 2, n):
        facet = facets.pop(len(facets) // 2)
        facets += [tuple(sorted(set(facet) - {u} | {v})) for u in facet]
    return from_facets(facets)


def _move_text(m):
    faces = (m.a_set, m.alpha, m.beta)
    return "/".join(" ".join(map(str, f.vertices)) for f in faces) + "/%d/%s" % (
        m.i,
        m.classification,
    )


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestWalkDigests:
    def test_growth_walks(self):
        # 60 walks that grow from the standard sphere up to d + 8 vertices
        encodings = [
            random_bistellar_walk(
                standard_sphere(d), 30, seed=seed, max_vertices=d + 8
            ).canonical_encoding()
            for d in (2, 3, 4)
            for seed in range(20)
        ]
        assert _digest(encodings) == GROWTH_WALKS_DIGEST

    def test_at_cap_walks_and_flip_traces(self):
        # the benchmark's sphere cases at seed 5: 150 walks that start at the
        # vertex cap and a flip search after every 15th, every move described
        plan = ((2, 10), (2, 10), (3, 6))
        starts = {d: _stacked_sphere(d, d + 8) for d, _ in plan}
        schedule = FlipSchedule(restarts=2, steps=200)
        rng = random.Random(5)
        lines = []
        for i in range(150):
            d, steps = plan[i % 3]
            seed = rng.getrandbits(31)
            walked = random_bistellar_walk(starts[d], steps, seed, max_vertices=d + 8)
            lines.append(walked.canonical_encoding())
            if i % 15 == 0:
                trace = flip_search(walked, "standard-sphere", schedule, seed=seed)
                if trace is None:
                    lines.append("no trace")
                else:
                    moves = " | ".join(_move_text(m) for m in trace.moves)
                    lines.append(moves + " -> " + trace.end)
        assert _digest(lines) == AT_CAP_DIGEST
