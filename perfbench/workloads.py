"""The four seeded workloads: inputs, one timed case, and the answer checks.

Each workload builds its cases from the seed in ``setup`` (part of the
measured set-up time), runs one case through simptop's public entry points
in ``run``, and checks the outputs of a pass in ``check`` against answers
the engine under test does not produce.

Every lookup goes through the module object (``st.collapse.is_collapsible``)
so the tracer's wrappers, installed on those modules, see the calls.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import oracle


@dataclass
class Item:
    """Timestamps and output of one case in one pass.

    ``item_at`` is the (start, end) ``perf_counter`` interval of the
    workload's primary entry-point call and ``verdict_at`` that of the call
    whose verdict is checked; on every workload but ``spheres`` they are the
    same call.  The harness times the whole case around ``run`` and turns
    intervals into seconds.  ``output`` must be identical in every pass.
    """

    item_at: Tuple[float, float]
    verdict_at: Tuple[float, float]
    output: object
    decisions: int = 1
    decided: int = 1


@dataclass
class Check:
    attempted: int
    failed: int
    notes: List[str]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (start, time.perf_counter())


# -- sampler ------------------------------------------------------------

SAMPLER_CALLS = 100
SAMPLER_CHUNK = 200  # samples per sample_acyclic_collapsibility call


def sampler_setup(st, seed: int):
    rng = random.Random(seed)
    return None, [rng.getrandbits(31) for _ in range(SAMPLER_CALLS)]


def sampler_run(st, _, chunk_seed) -> Item:
    report, at = _timed(
        st.census.sample_acyclic_collapsibility, SAMPLER_CHUNK, chunk_seed
    )
    return Item(
        at,
        at,
        (
            report.nonempty,
            report.acyclic_found,
            report.collapsible_count,
            report.counterexamples,
            report.chi_failures,
        ),
        decisions=report.acyclic_found,
        decided=report.collapsible_count,
    )


def sampler_check(st, _, seeds, items: List[Item]) -> Check:
    # The paper's theorem is the known answer: every GF(2)-acyclic complex
    # on at most 7 vertices collapses, so no sample may be a counterexample,
    # and an acyclic complex has Euler characteristic 1.
    failed = 0
    for item in items:
        _, _, _, counterexamples, chi_failures = item.output
        failed += len(counterexamples) + chi_failures
    return Check(len(seeds) * SAMPLER_CHUNK, failed, [])


# -- collapse_neg -------------------------------------------------------

NEG_COMPLEXES = 240
NEG_BUDGET = 3000
NEG_VERTICES = 7
# facet counts, cycled: three 2-complexes for every 3-complex
NEG_TRIANGLES = (3, 4, 5, 6)
NEG_TETRAHEDRA = (3, 4)


def collapse_neg_setup(st, seed: int):
    rng = random.Random(seed)
    pools = {
        d: list(itertools.combinations(range(NEG_VERTICES), d + 1)) for d in (2, 3)
    }
    inputs = []
    for i in range(NEG_COMPLEXES):
        if i % 4 == 3:
            d, m = 3, NEG_TETRAHEDRA[(i // 4) % len(NEG_TETRAHEDRA)]
        else:
            d, m = 2, NEG_TRIANGLES[i % len(NEG_TRIANGLES)]
        while True:
            facets = rng.sample(pools[d], m)
            betti = oracle.reduced_betti(facets)
            if any(betti):
                break
        inputs.append((st.complexes.SimplicialComplex(facets), betti))
    return None, inputs


def collapse_neg_run(st, _, case) -> Item:
    verdict, at = _timed(st.collapse.is_collapsible, case[0], budget=NEG_BUDGET)
    decided = verdict.status != st.collapse.INCONCLUSIVE
    return Item(at, at, (verdict.status, verdict.nodes_explored), decided=decided)


def collapse_neg_check(st, _, cases, items: List[Item]) -> Check:
    # A collapsible complex is contractible, so a nonzero reduced Betti
    # number (numpy oracle) proves "not collapsible": the engine may answer
    # not-collapsible or inconclusive, never collapsible.
    allowed = (st.collapse.NOT_COLLAPSIBLE, st.collapse.INCONCLUSIVE)
    failed = sum(
        1
        for (_, betti), item in zip(cases, items)
        if not any(betti) or item.output[0] not in allowed
    )
    return Check(len(cases), failed, [])


# -- spheres ------------------------------------------------------------

SPHERE_ITEMS = 150
# (dimension, walk steps); cases cycle S^2, S^2, S^3
SPHERE_PLAN = ((2, 10), (2, 10), (3, 6))
SPHERE_EXTRA_VERTICES = 8  # walks stay within d + 8 vertices
FLIP_EVERY = 15  # cases 0, 15, 30, ... (all S^2) also run a flip search
FLIP_RESTARTS = 2
FLIP_STEPS = 200


def stacked_sphere(st, d: int, n: int):
    """A stacked d-sphere on n vertices: the boundary of a (d+1)-simplex with
    n - d - 2 facets stellarly subdivided, always the middle facet."""
    facets = [tuple(f) for f in itertools.combinations(range(d + 2), d + 1)]
    for v in range(d + 2, n):
        facet = facets.pop(len(facets) // 2)
        facets += [tuple(sorted(set(facet) - {u} | {v})) for u in facet]
    return st.complexes.SimplicialComplex(facets)


def spheres_setup(st, seed: int):
    # Walks start at the vertex cap, so every walk spends its steps at
    # about the same size; from the standard sphere the seed-dependent
    # growth phase made the per-walk times of two seeds differ by 10%.
    rng = random.Random(seed)
    starts = {
        d: stacked_sphere(st, d, d + SPHERE_EXTRA_VERTICES)
        for d, _ in SPHERE_PLAN
    }
    schedule = st.bistellar.FlipSchedule(restarts=FLIP_RESTARTS, steps=FLIP_STEPS)
    plan = []
    for i in range(SPHERE_ITEMS):
        d, steps = SPHERE_PLAN[i % len(SPHERE_PLAN)]
        plan.append((starts[d], d, steps, rng.getrandbits(31), i % FLIP_EVERY == 0))
    return schedule, plan


def spheres_run(st, schedule, case) -> Item:
    start, d, steps, seed, flip = case
    sphere, walk_at = _timed(
        st.bistellar.random_bistellar_walk,
        start,
        steps,
        seed,
        max_vertices=d + SPHERE_EXTRA_VERTICES,
    )
    cert, verdict_at = _timed(st.recognition.certify_sphere, sphere)
    trace = None
    if flip:
        trace = st.bistellar.flip_search(sphere, "standard-sphere", schedule, seed=seed)
    return Item(
        walk_at,
        verdict_at,
        (sphere, cert, trace),
        decisions=1 + flip,
        decided=cert.is_sphere() + (trace is not None),
    )


def _same_sphere(a: Item, b: Item) -> bool:
    sphere_a, cert_a, trace_a = a.output
    sphere_b, cert_b, trace_b = b.output
    return (sphere_a, cert_a.verdict, trace_a) == (sphere_b, cert_b.verdict, trace_b)


def spheres_check(st, _, plan, items: List[Item]) -> Check:
    # Bistellar moves preserve the PL type, so every walk from a stacked
    # sphere ends at a combinatorial sphere: certify_sphere must say so with
    # a collapse certificate that replays, and every flip trace must replay
    # move by move to the boundary of a simplex.  A flip search that gives
    # up proves nothing and is counted in decided_ratio, not as a failure.
    failed = 0
    notes = []
    for (_, d, _, _, _), item in zip(plan, items):
        sphere, cert, trace = item.output
        ok = (
            cert.is_sphere()
            and sphere.dim == d
            and st.collapse.verify_certificate(
                cert.complement, cert.collapse_certificate
            )
        )
        if ok and trace is not None:
            try:
                end = st.bistellar.replay_trace(sphere, trace)
            except ValueError as exc:
                notes.append("flip trace does not replay: %s" % exc)
                ok = False
            else:
                ok = end.f_vector() == st.complexes.standard_sphere(d).f_vector()
        failed += not ok
    return Check(len(items), failed, notes)


# -- census -------------------------------------------------------------

# The paper's census classes, by catalog name (fixtures independent of the
# enumerator), and the even-degree class count.
CLOSED6_NAMES = ("S2_4", "S1_3*S0_2", "octahedron", "RP2_6", "Sigma1")
CLOSED7_NAMES = (
    "S1_5*S0_2",
    "Sigma2",
    "Sigma3",
    "Sigma4",
    "Sigma5",
    "Upsilon1",
    "Upsilon2",
)
EVEN7_CLASSES = 18


def census_setup(st, seed: int):
    # The census has no random input: the three specs are fixed and the
    # seed selects nothing.
    c = st.census
    for name in CLOSED6_NAMES + CLOSED7_NAMES:
        st.catalog.get(name)
    return None, [
        ("closed6", c.CensusSpec(n_vertices=6), CLOSED6_NAMES, len(CLOSED6_NAMES)),
        (
            "closed7",
            c.CensusSpec(n_vertices=7, max_facets=10, exact_vertices=True),
            CLOSED7_NAMES,
            len(CLOSED7_NAMES),
        ),
        (
            "even7",
            c.CensusSpec(n_vertices=7, max_facets=10, constraint=c.CONSTRAINT_EVEN),
            None,
            EVEN7_CLASSES,
        ),
    ]


def census_run(st, _, case) -> Item:
    result, at = _timed(st.census.enumerate_census, case[1], workers=1)
    return Item(at, at, result)


def _same_census(a: Item, b: Item) -> bool:
    ra, rb = a.output, b.output
    return (ra.representatives, ra.labeled_per_class, ra.nodes) == (
        rb.representatives,
        rb.labeled_per_class,
        rb.nodes,
    )


def census_check(st, _, specs, items: List[Item]) -> Check:
    failed = 0
    notes = []
    for (label, _, names, classes), item in zip(specs, items):
        result = item.output
        ok = result.class_count == classes
        if ok and names is not None:
            ok = st.census.match_catalog(result, names).perfect
        if not ok:
            notes.append("%s: %d classes" % (label, result.class_count))
        failed += not ok
    return Check(len(specs), failed, notes)


@dataclass(frozen=True)
class Workload:
    """setup(st, seed) -> (context, cases); run(st, context, case) -> Item;
    check(st, context, cases, items) -> Check; same(a, b) compares the
    outputs of one case in two passes."""

    setup: Callable
    run: Callable
    check: Callable
    same: Callable[[Item, Item], bool]


def _same_output(a: Item, b: Item) -> bool:
    return a.output == b.output


WORKLOADS: Dict[str, Workload] = {
    "sampler": Workload(sampler_setup, sampler_run, sampler_check, _same_output),
    "collapse_neg": Workload(
        collapse_neg_setup, collapse_neg_run, collapse_neg_check, _same_output
    ),
    "spheres": Workload(spheres_setup, spheres_run, spheres_check, _same_sphere),
    "census": Workload(census_setup, census_run, census_check, _same_census),
}
