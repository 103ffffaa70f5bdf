"""Executable invariant suites: the two-sided decomposition self-checks
and the six recorded singular/proper move identities.

These back the ``verify`` CLI subcommand and the acceptance tests.  Every
suite returns a structured result; nothing here prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from . import catalog, homology, structure
from .bistellar import (
    PROPER_BISTELLAR,
    SINGULAR_BS1,
    SINGULAR_BS2,
    apply_generalized_move,
    classify_move,
)
from .complexes import SimplicialComplex, _is_int, are_isomorphic, from_facets
from .recognition import _is_sphere, find_induced_ball
from .structure import decompose, simplicial_complement, simplicial_neighbourhood


@dataclass
class SuiteResult:
    name: str
    checks: int
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.checks > 0 and not self.failures


MOVE_IDENTITIES = (
    # (name, complex, A, expected classification, expected i)
    ("a", "RP2_6", (1, 2, 5, 6), SINGULAR_BS1, 1),
    ("b", "Sigma2", (2, 3, 6, 7), SINGULAR_BS1, 1),
    ("c", "Upsilon1", (1, 2, 3, 6), SINGULAR_BS1, 2),
    ("d", "Upsilon2", (1, 2, 3, 6), SINGULAR_BS2, 0),
    ("e", "Sigma4", (2, 3, 4, 6), SINGULAR_BS1, 2),
    ("f", "Sigma2", (2, 3, 4, 6), PROPER_BISTELLAR, 1),
)


def _two_sphere_on(k: SimplicialComplex, vertices) -> bool:
    sub = from_facets(
        [f for f in k.facet_tuples() if set(f) <= set(vertices)]
    )
    return set(sub.vertices) == set(vertices) and _is_sphere(sub, 2)


def replay_move_identities() -> SuiteResult:
    """Re-run the six recorded generalized moves on the catalog labelings."""
    result = SuiteResult("example-moves", 0)

    def check(tag: str, ok: bool) -> None:
        result.checks += 1
        if not ok:
            result.failures.append(tag)

    for name, source, a_set, expected_class, expected_i in MOVE_IDENTITIES:
        k = catalog.get(source).complex
        move = classify_move(k, a_set)
        check(f"{name}: classification {move.classification}", move.classification == expected_class)
        check(f"{name}: i = {move.i}", move.i == expected_i)
        image = apply_generalized_move(k, a_set)
        check(f"{name}: involution", apply_generalized_move(image, a_set) == k)
        if name == "a":
            check("a: image is R", image == catalog.get("R").complex)
            check("a: R not a weak pm", not structure.is_weak_pseudomanifold(image))
        elif name == "b":
            check("b: sphere on 1 2 6 7", _two_sphere_on(image, (1, 2, 6, 7)))
            check("b: sphere on 3 4 5 6 7", _two_sphere_on(image, (3, 4, 5, 6, 7)))
            left = {f for f in image.facet_tuples() if set(f) <= {1, 2, 6, 7}}
            right = {f for f in image.facet_tuples() if set(f) <= {3, 4, 5, 6, 7}}
            check("b: facets split between the spheres", left | right == set(image.facet_tuples()))
            shared = from_facets(sorted(left))._star.keys() & from_facets(sorted(right))._star.keys()
            check("b: shared part is the edge 6 7", shared == {1 << 6, 1 << 7, (1 << 6) | (1 << 7)})
        elif name == "c":
            check("c: image equals Upsilon2", image == catalog.get("Upsilon2").complex)
            check(
                "c: image isomorphic to Upsilon2",
                are_isomorphic(image, catalog.get("Upsilon2").complex) is not None,
            )
        elif name == "d":
            check("d: image equals Upsilon1", image == catalog.get("Upsilon1").complex)
        elif name == "e":
            check("e: 12 facets", len(image.facet_masks) == 12)
            check("e: 7 vertices", len(image.vertices) == 7)
            check("e: pseudomanifold", structure.is_pseudomanifold(image))
        elif name == "f":
            check("f: image equals Sigma3", image == catalog.get("Sigma3").complex)
            check(
                "f: image isomorphic to Sigma3",
                are_isomorphic(image, catalog.get("Sigma3").complex) is not None,
            )
    return result


_PSEUDOMANIFOLD_POOL = (
    "S2_4",
    "S3_5",
    "S4_6",
    "octahedron",
    "RP2_6",
    "Sigma1",
    "Sigma2",
    "Sigma3",
    "Sigma4",
    "Sigma5",
    "S1_5",
    "S1_7",
)


def random_decomposition_pairs(
    seed: int, pairs: int
) -> List[Tuple[SimplicialComplex, SimplicialComplex]]:
    """Admissible (Y, Y1) pairs: Y1 induced, pure, top-dimensional, proper."""
    if not _is_int(pairs) or pairs < 1:
        raise ValueError(f"pair count must be an int >= 1, not {pairs!r}")
    rng = random.Random(seed)
    out = []
    names = list(_PSEUDOMANIFOLD_POOL)
    attempts = 0
    while len(out) < pairs and attempts < pairs * 200:
        attempts += 1
        y = catalog.get(rng.choice(names)).complex
        verts = list(y.vertices)
        size = rng.randint(y.dim + 1, len(verts) - 1)
        u = rng.sample(verts, size)
        y1 = y.induced(sum(1 << v for v in u))
        if y1.dim != y.dim or not y1.is_pure() or y1 == y:
            continue
        out.append((y, y1))
    if len(out) < pairs:
        raise RuntimeError("could not sample enough admissible decomposition pairs")
    return out


def decomposition_suite(seed: int = 20260808, pairs: int = 50) -> SuiteResult:
    """decompose() re-asserts its conclusions; this drives it broadly."""
    result = SuiteResult("decomposition", 0)
    for y, y1 in random_decomposition_pairs(seed, pairs):
        result.checks += 1
        try:
            decompose(y, y1)
        except (ValueError, RuntimeError) as exc:
            result.failures.append(f"{y1.canonical_encoding()} in {y.canonical_encoding()}: {exc}")
    return result


_HOMOLOGY_SPHERE_POOL = (
    "S2_4",
    "S3_5",
    "S4_6",
    "octahedron",
    "Sigma1",
    "Sigma2",
    "Sigma3",
    "Sigma4",
    "Sigma5",
)


def acyclic_complement_suite() -> SuiteResult:
    """For sphere fixtures: both sides of the induced-ball split are acyclic."""
    result = SuiteResult("acyclic-complement", 0)
    for name in _HOMOLOGY_SPHERE_POOL:
        m = catalog.get(name).complex
        for policy in ("facet", "greedy"):
            found = find_induced_ball(m, policy)
            if found is None:
                continue
            ball, _ = found
            # never empty: no sphere of the pool is a simplex, and a greedy
            # ball stops short of V(m)
            l = simplicial_complement(ball, m)
            x2 = simplicial_neighbourhood(l, m)
            result.checks += 1
            if not homology.is_z2_acyclic(x2):
                result.failures.append(f"{name}/{policy}: neighbourhood not acyclic")
            if not homology.is_z2_acyclic(l):
                result.failures.append(f"{name}/{policy}: complement not acyclic")
    return result


def run_all(seed: int = 20260808, pairs: int = 50) -> List[SuiteResult]:
    return [
        replay_move_identities(),
        decomposition_suite(seed, pairs),
        acyclic_complement_suite(),
    ]
