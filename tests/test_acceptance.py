"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact
(zero tolerance); the sampled collapsibility criterion is seeded and
deterministic.
"""

import itertools
import time

import pytest

from simptop import (
    CensusSpec,
    are_isomorphic,
    catalog,
    certify_sphere,
    cycle,
    elementary_collapse,
    enumerate_census,
    enumerate_moves,
    from_facets,
    is_collapsible,
    join,
    match_catalog,
    random_bistellar_walk,
    reduced_betti,
    standard_ball,
    standard_sphere,
    sample_acyclic_collapsibility,
    verify_certificate,
)
from simptop.census import CONSTRAINT_EVEN
from simptop.collapse import NOT_COLLAPSIBLE, free_faces
from simptop.homology import is_z2_acyclic
from simptop.recognition import PRECONDITION_FAILED, SPHERE
from simptop.verification import decomposition_suite, replay_move_identities

from conftest import boundary_squared_is_zero

CLOSED_6 = ("S2_4", "S1_3*S0_2", "octahedron", "RP2_6", "Sigma1")
CLOSED_7 = ("S1_5*S0_2", "Sigma2", "Sigma3", "Sigma4", "Sigma5", "Upsilon1", "Upsilon2")
EVEN_CENSUS_NAMED = (
    "S2_4",
    "S1_3*S0_2",
    "octahedron",
    "S1_5*S0_2",
    "RP2_6",
    "Sigma1",
    "Sigma2",
    "Sigma3",
    "Sigma4",
    "Sigma5",
    "R",
)


def _report(number, title, detail, seconds):
    print(f"ACCEPTANCE {number} {title}: PASS ({detail}, {seconds:.1f}s)")


def two_sphere_union_classes():
    """Every union of two spheres on 4 or 5 vertices, no shared triangle,
    at most 7 vertices and 10 triangles; one representative per class.

    Built by brute-force gluing, independently of the census engine.
    """
    tetra = standard_sphere(2, (0, 1, 2, 3))
    bipyr = join(cycle(3, (0, 1, 2)), standard_sphere(0, (3, 4)))
    shapes = [tetra, bipyr]
    found = []
    for a, b in itertools.combinations_with_replacement(shapes, 2):
        if len(a.vertices) + len(b.vertices) > 12:
            pass
        a_facets = set(a.facet_tuples())
        for image in itertools.permutations(range(7), len(b.vertices)):
            mapping = dict(zip(b.vertices, image))
            b_facets = {
                tuple(sorted(mapping[v] for v in f)) for f in b.facet_tuples()
            }
            union = a_facets | b_facets
            if a_facets & b_facets:
                continue
            if len(union) > 10:
                continue
            vertices = set(v for f in union for v in f)
            if len(vertices) > 7:
                continue
            k = from_facets(sorted(union))
            if not any(are_isomorphic(k, rep) for rep in found if rep.f_vector() == k.f_vector()):
                found.append(k)
    return found


def test_criterion_1_closed_census_up_to_six_vertices():
    t0 = time.perf_counter()
    result = enumerate_census(CensusSpec(n_vertices=6))
    assert result.class_count == 5
    match = match_catalog(result, CLOSED_6)
    assert match.perfect, (match.missing, match.unexpected)
    seconds = time.perf_counter() - t0
    assert seconds < 60
    _report(1, "closed census <= 6 vertices", "exactly 5 classes, all matched", seconds)


def test_criterion_2_closed_census_at_seven_vertices():
    t0 = time.perf_counter()
    result = enumerate_census(
        CensusSpec(n_vertices=7, max_facets=10, exact_vertices=True)
    )
    assert result.class_count == 7
    match = match_catalog(result, CLOSED_7)
    assert match.perfect, (match.missing, match.unexpected)
    seconds = time.perf_counter() - t0
    assert seconds < 1800
    _report(2, "closed census at 7 vertices", "exactly 7 classes, all matched", seconds)


def test_criterion_3_even_degree_census():
    t0 = time.perf_counter()
    result = enumerate_census(
        CensusSpec(n_vertices=7, max_facets=10, constraint=CONSTRAINT_EVEN)
    )
    unions = two_sphere_union_classes()

    named = [catalog.get(name).complex for name in EVEN_CENSUS_NAMED]
    expected = list(named)
    for u in unions:
        if not any(
            u.f_vector() == e.f_vector() and are_isomorphic(u, e) for e in expected
        ):
            expected.append(u)

    assert result.class_count == len(expected)
    used = set()
    for rep in result.representatives:
        hit = None
        for i, e in enumerate(expected):
            if i in used or e.f_vector() != rep.f_vector():
                continue
            if are_isomorphic(rep, e):
                hit = i
                break
        assert hit is not None, f"unexpected census class {rep.canonical_encoding()}"
        used.add(hit)
    assert len(used) == len(expected)
    seconds = time.perf_counter() - t0
    _report(
        3,
        "even-degree census",
        f"{result.class_count} classes = {len(EVEN_CENSUS_NAMED)} named + "
        f"{result.class_count - len(EVEN_CENSUS_NAMED)} sphere unions",
        seconds,
    )


def test_criterion_4_example_move_replay():
    t0 = time.perf_counter()
    result = replay_move_identities()
    assert result.passed, result.failures
    seconds = time.perf_counter() - t0
    assert seconds < 1
    _report(4, "move identities (a)-(f)", f"{result.checks} checks", seconds)


def test_criterion_5_sampled_collapsibility():
    t0 = time.perf_counter()
    report = sample_acyclic_collapsibility(100_000, seed=1)
    assert report.counterexamples == ()
    assert report.collapsible_count == report.acyclic_found
    # holds by construction: the sampler rank-tests only chi = 1 draws
    assert report.chi_failures == 0
    assert report.acyclic_without_free_faces == ()
    # this seeded run's counts: a change that loses or adds an acyclic draw
    # fails here even when the two counts above still agree
    assert report.nonempty == 99_946
    assert report.acyclic_found == 33_000
    assert report.collapsible_count == 33_000
    seconds = time.perf_counter() - t0
    assert seconds < 600
    _report(
        5,
        "sampled collapsibility",
        f"{report.acyclic_found} acyclic of {report.samples} samples, 0 counterexamples",
        seconds,
    )


def test_criterion_6_dunce_hat_witness():
    t0 = time.perf_counter()
    dh = catalog.get("DunceHat8").complex
    assert reduced_betti(dh) == (0, 0, 0)
    assert free_faces(dh) == []
    assert is_collapsible(dh).status == NOT_COLLAPSIBLE
    seconds = time.perf_counter() - t0
    assert seconds < 1
    _report(6, "dunce hat witness", "acyclic, no free face, not collapsible", seconds)


def test_criterion_7_walked_spheres_certify():
    t0 = time.perf_counter()
    certified = 0
    for d in (2, 3):
        base = standard_sphere(d, tuple(range(1, d + 3)))
        for i in range(100):
            m = random_bistellar_walk(base, 12, seed=1000 * d + i, max_vertices=d + 8)
            assert len(m.vertices) <= d + 8
            cert = certify_sphere(m)
            assert cert.verdict == SPHERE, (d, i, cert.reason)
            assert verify_certificate(cert.complement, cert.collapse_certificate)
            assert not any(cert.betti_of_complement)
            certified += 1
    seconds = time.perf_counter() - t0
    assert seconds < 300
    _report(7, "walked spheres certify", f"{certified}/200 certified", seconds)


def test_criterion_8_negative_controls():
    t0 = time.perf_counter()
    rp2 = certify_sphere(catalog.get("RP2_6").complex)
    assert rp2.verdict == PRECONDITION_FAILED
    assert rp2.reason == "not a Z2-homology sphere"
    u1 = certify_sphere(catalog.get("Upsilon1").complex)
    assert u1.verdict == PRECONDITION_FAILED
    assert u1.reason == "not a combinatorial manifold"
    seconds = time.perf_counter() - t0
    assert seconds < 1
    _report(8, "negative controls", "RP2_6 and Upsilon1 rejected at their gates", seconds)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()

    # boundary-squared and Euler-Betti across the catalog
    for name in catalog.names():
        k = catalog.get(name).complex
        for q in range(2, k.dim + 1):
            assert boundary_squared_is_zero(k, q)
        betti = reduced_betti(k)
        assert sum((-1) ** q * b for q, b in enumerate(betti)) == (
            k.euler_characteristic() - 1
        )

    # involution of the facet exchange over every admissible A
    from simptop.bistellar import apply_generalized_move

    involution_checks = 0
    for name in catalog.names():
        k = catalog.get(name).complex
        d = k.dim
        if d < 1:
            continue
        for combo in itertools.combinations(k.vertices, d + 2):
            a_mask = sum(1 << v for v in combo)
            inside = sum(1 for f in k.facet_masks if f & ~a_mask == 0)
            if not 1 <= inside <= d + 1:
                continue
            assert apply_generalized_move(apply_generalized_move(k, a_mask), a_mask) == k
            involution_checks += 1
    assert involution_checks > 100

    # the two-sided decomposition on 50 randomized admissible pairs
    suite = decomposition_suite(seed=20260808, pairs=50)
    assert suite.passed, suite.failures

    # homology is preserved along every step of every certificate emitted here
    certificates = []
    for d in range(1, 5):
        k = standard_ball(d, tuple(range(d + 1)))
        certificates.append((k, is_collapsible(k).certificate))
    for n in (4, 5, 6):
        k = cycle(n, tuple(range(n))).cone(9)
        certificates.append((k, is_collapsible(k).certificate))
    import random

    rng = random.Random(99)
    sampled = 0
    while sampled < 40:
        facets = [
            c for c in itertools.combinations(range(7), 3) if rng.random() < 0.22
        ]
        if not facets:
            continue
        k = from_facets(facets)
        if not is_z2_acyclic(k):
            continue
        verdict = is_collapsible(k)
        assert verdict.collapsible
        certificates.append((k, verdict.certificate))
        sampled += 1

    steps_checked = 0
    for k, cert in certificates:
        assert verify_certificate(k, cert)
        betti = reduced_betti(k)
        current = k
        for step in cert.steps:
            current = elementary_collapse(current, step)
            if current.is_empty():
                break
            now = reduced_betti(current)
            width = max(len(now), len(betti))
            assert now + (0,) * (width - len(now)) == betti + (0,) * (
                width - len(betti)
            )
            steps_checked += 1

    seconds = time.perf_counter() - t0
    assert seconds < 300
    _report(
        9,
        "property suites",
        f"involution x{involution_checks}, 50 decompositions, "
        f"{steps_checked} collapse steps homology-checked",
        seconds,
    )
