"""Named fixture complexes, each self-validated at first load.

The six- and seven-vertex fixtures come with fixed vertex labels, because
the move identities replayed in the test suite depend on the exact
labeling.  Every entry records the invariants it must satisfy
(f-vector, reduced GF(2) Betti numbers, structural flags) and is checked
against them before it is handed out; the heavier cross-validation against
the census lives in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from typing import Dict, Tuple

from . import bistellar, collapse, homology, structure
from .complexes import SimplicialComplex, cycle, from_facets, join, standard_ball, standard_sphere

RP2_6_FACETS = (
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
)

SIGMA1_FACETS = (
    (1, 2, 5), (1, 2, 6), (1, 5, 6), (2, 3, 5),
    (2, 3, 6), (3, 4, 5), (3, 4, 6), (4, 5, 6),
)

SIGMA2_FACETS = (
    (1, 2, 6), (1, 2, 7), (1, 6, 7), (2, 3, 6), (2, 3, 7),
    (3, 4, 6), (3, 4, 7), (4, 5, 6), (4, 5, 7), (5, 6, 7),
)

SIGMA3_FACETS = (
    (1, 2, 6), (1, 2, 7), (1, 6, 7), (2, 3, 4), (2, 3, 7),
    (2, 4, 6), (3, 4, 7), (4, 5, 6), (4, 5, 7), (5, 6, 7),
)

SIGMA4_FACETS = (
    (1, 2, 4), (1, 2, 7), (1, 4, 5), (1, 5, 6), (1, 6, 7),
    (2, 3, 4), (2, 3, 7), (3, 4, 7), (4, 5, 7), (5, 6, 7),
)

SIGMA5_FACETS = (
    (1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6), (2, 3, 4),
    (2, 4, 6), (3, 4, 5), (4, 5, 7), (4, 6, 7), (5, 6, 7),
)

UPSILON1_FACETS = (
    (1, 2, 3), (1, 2, 7), (1, 3, 7), (2, 3, 7),
    (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7),
)

UPSILON2_FACETS = (
    (1, 2, 6), (1, 2, 7), (1, 3, 6), (1, 3, 7), (2, 3, 6),
    (2, 3, 7), (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7),
)

DUNCE_HAT_8_FACETS = (
    (1, 2, 4), (1, 2, 5), (1, 2, 8), (1, 3, 6), (1, 3, 7), (1, 3, 8),
    (1, 4, 5), (1, 6, 7), (2, 3, 4), (2, 3, 6), (2, 3, 7), (2, 5, 6),
    (2, 7, 8), (3, 4, 8), (4, 5, 8), (5, 6, 8), (6, 7, 8),
)

# A = {1, 2, 5, 6}: the singular 1-move on the projective plane.
R_MOVE_SET = (1, 2, 5, 6)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    complex: SimplicialComplex
    expected: Dict[str, object]


def _sphere_entry(d: int) -> CatalogEntry:
    k = standard_sphere(d, tuple(range(1, d + 3)))
    betti = tuple(0 for _ in range(d)) + (1,)
    return CatalogEntry(
        f"S{d}_{d + 2}",
        k,
        {
            # every q+1 of the d+2 vertices span a q-face
            "f_vector": tuple(comb(d + 2, q + 1) for q in range(d + 1)),
            "reduced_betti": betti,
            "weak_pseudomanifold": True,
            "pseudomanifold": True,
        },
    )


def _ball_entry(d: int) -> CatalogEntry:
    k = standard_ball(d, tuple(range(1, d + 2)))
    return CatalogEntry(
        f"Delta{d}_{d + 1}",
        k,
        {
            "euler_characteristic": 1,
            "reduced_betti": tuple(0 for _ in range(d + 1)),
            "z2_acyclic": True,
        },
    )


def _cycle_entry(n: int) -> CatalogEntry:
    k = cycle(n, tuple(range(1, n + 1)))
    return CatalogEntry(
        f"S1_{n}",
        k,
        {
            "f_vector": (n, n),
            "reduced_betti": (0, 1),
            "weak_pseudomanifold": True,
            "pseudomanifold": True,
        },
    )


def _build_entries() -> Dict[str, CatalogEntry]:
    entries: Dict[str, CatalogEntry] = {}

    def put(entry: CatalogEntry) -> None:
        entries[entry.name] = entry

    for d in range(0, 5):
        put(_sphere_entry(d))
    for d in range(0, 5):
        put(_ball_entry(d))
    for n in range(3, 10):
        put(_cycle_entry(n))

    for cycle_len in (3, 5):
        equator = cycle(cycle_len, tuple(range(1, cycle_len + 1)))
        poles = standard_sphere(0, (cycle_len + 1, cycle_len + 2))
        bipyramid = join(equator, poles)
        n = cycle_len + 2
        put(
            CatalogEntry(
                f"S1_{cycle_len}*S0_2",
                bipyramid,
                {
                    "f_vector": (n, 3 * cycle_len, 2 * cycle_len),
                    "reduced_betti": (0, 0, 1),
                    "weak_pseudomanifold": True,
                    "pseudomanifold": True,
                },
            )
        )

    octahedron = join(
        join(standard_sphere(0, (1, 2)), standard_sphere(0, (3, 4))),
        standard_sphere(0, (5, 6)),
    )
    put(
        CatalogEntry(
            "octahedron",
            octahedron,
            {
                "f_vector": (6, 12, 8),
                "reduced_betti": (0, 0, 1),
                "weak_pseudomanifold": True,
                "pseudomanifold": True,
            },
        )
    )

    put(
        CatalogEntry(
            "RP2_6",
            from_facets(RP2_6_FACETS),
            {
                "f_vector": (6, 15, 10),
                "euler_characteristic": 1,
                "reduced_betti": (0, 1, 1),
                "weak_pseudomanifold": True,
                "pseudomanifold": True,
            },
        )
    )

    sphere_fixtures = {
        "Sigma1": (SIGMA1_FACETS, (6, 12, 8)),
        "Sigma2": (SIGMA2_FACETS, (7, 15, 10)),
        "Sigma3": (SIGMA3_FACETS, (7, 15, 10)),
        "Sigma4": (SIGMA4_FACETS, (7, 15, 10)),
        "Sigma5": (SIGMA5_FACETS, (7, 15, 10)),
    }
    for name, (facets, fvec) in sphere_fixtures.items():
        put(
            CatalogEntry(
                name,
                from_facets(facets),
                {
                    "f_vector": fvec,
                    "reduced_betti": (0, 0, 1),
                    "weak_pseudomanifold": True,
                    "pseudomanifold": True,
                },
            )
        )

    put(
        CatalogEntry(
            "Upsilon1",
            from_facets(UPSILON1_FACETS),
            {
                "f_vector": (7, 12, 8),
                "reduced_betti": (0, 0, 2),
                "weak_pseudomanifold": True,
                "pseudomanifold": False,
            },
        )
    )
    put(
        CatalogEntry(
            "Upsilon2",
            from_facets(UPSILON2_FACETS),
            {
                "f_vector": (7, 15, 10),
                "reduced_betti": (0, 1, 2),
                "weak_pseudomanifold": True,
                "pseudomanifold": False,
            },
        )
    )

    # The move erases both triangles through edge {5, 6}, so that edge is
    # gone from the closure: f1 drops to 14 and chi rises to 2.
    rp2 = entries["RP2_6"].complex
    r_complex = bistellar.apply_generalized_move(rp2, R_MOVE_SET)
    put(
        CatalogEntry(
            "R",
            r_complex,
            {
                "f_vector": (6, 14, 10),
                "euler_characteristic": 2,
                "reduced_betti": (0, 0, 1),
                "weak_pseudomanifold": False,
            },
        )
    )

    put(
        CatalogEntry(
            "DunceHat8",
            from_facets(DUNCE_HAT_8_FACETS),
            {
                "f_vector": (8, 24, 17),
                "euler_characteristic": 1,
                "reduced_betti": (0, 0, 0),
                "z2_acyclic": True,
                "free_faces": 0,
                "weak_pseudomanifold": False,
            },
        )
    )
    return entries


# built once, on first use
_entries = functools.cache(_build_entries)
_VALIDATED: set = set()


# each invariant an entry may name, measured on the entry's complex
_INVARIANTS = {
    "f_vector": SimplicialComplex.f_vector,
    "euler_characteristic": SimplicialComplex.euler_characteristic,
    "reduced_betti": homology.reduced_betti,
    "z2_acyclic": homology.is_z2_acyclic,
    "weak_pseudomanifold": structure.is_weak_pseudomanifold,
    "pseudomanifold": structure.is_pseudomanifold,
    "free_faces": lambda k: len(collapse.free_faces(k)),
}


def _validate(entry: CatalogEntry) -> None:
    for invariant, expected in entry.expected.items():
        found = _INVARIANTS[invariant](entry.complex)
        if found != expected:
            raise RuntimeError(
                f"catalog {entry.name}: {invariant} {found!r}, expected {expected!r}"
            )


def names() -> Tuple[str, ...]:
    return tuple(sorted(_entries()))


def get(name: str) -> CatalogEntry:
    """Fetch a validated catalog entry by name."""
    entries = _entries()
    if name not in entries:
        raise KeyError(
            f"unknown catalog entry {name!r}; valid names: {', '.join(sorted(entries))}"
        )
    entry = entries[name]
    if name not in _VALIDATED:
        _validate(entry)
        _VALIDATED.add(name)
    return entry
