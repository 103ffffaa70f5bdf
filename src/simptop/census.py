"""Brute-force census of small 2-dimensional complexes, plus sampled
verification that small GF(2)-acyclic complexes collapse.

One deficiency-driven walk function, ``_enumerate``, serves every
ridge-degree constraint.  A partial complex with an edge at a deficient
degree (1 for closed, odd for even) must eventually raise that edge, and
raising the smallest deficient edge first gives every final facet set
exactly one generation path: the next triangle is forced to contain that
edge, and each closer tried is banned from the later branches.  When no
edge is deficient the state is a finished complex; it is emitted and
then extended by seeding a fresh triangle whose index exceeds every
earlier seed.  One bitset of blocked (chosen or banned) triangles covers
both rules.  The boundary constraint has no deficient degree, so every
state is finished and the walk grows each set by seeds only; an emitted
boundary complex must also have an edge of degree 1.  Symmetry breaking,
when enabled, pins the first seed to the lexicographically least
triangle, which every isomorphism class can be relabeled to contain.
The labeled complexes are then split into isomorphism classes by walking
the orbit of each new representative under the permutations of the
vertex pool; with the first seed pinned, only those that send one of its
triangles onto triangle 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import collapse as collapse_mod
from . import homology
from .complexes import SimplicialComplex, _bits, _check_seed, _is_int, are_isomorphic

CONSTRAINT_CLOSED = "ridge-degree-exactly-2"
CONSTRAINT_EVEN = "ridge-degree-even"
CONSTRAINT_BOUNDARY = "ridge-degree-in-{1,2}"

CONSTRAINTS = (CONSTRAINT_CLOSED, CONSTRAINT_EVEN, CONSTRAINT_BOUNDARY)

MAX_CENSUS_VERTICES = 7

# Facet inclusion probabilities for the random-complex sampler, tuned once
# so that GF(2)-acyclic hits stay frequent at 7 vertices (roughly 17% of
# 2-dimensional and 48% of 3-dimensional draws).
SAMPLER_P = {2: 0.22, 3: 0.18}


@dataclass(frozen=True)
class CensusSpec:
    """What a census enumerates: complexes on range(n_vertices) under a
    ridge-degree ``constraint``, with at most ``max_facets`` triangles.

    ``exact_vertices`` keeps only complexes that use every vertex.  The
    walk prunes on it only through the facet budget, so without
    ``max_facets`` it visits the same nodes with the flag on or off and
    the flag just filters the emitted complexes.  The census always
    reduces to isomorphism classes; the labeled list is ``_enumerate``'s.
    """

    n_vertices: int
    constraint: str = CONSTRAINT_CLOSED
    max_facets: Optional[int] = None
    exact_vertices: bool = False
    symmetry_breaking: bool = True

    def validated(self) -> "CensusSpec":
        if not _is_int(self.n_vertices):
            raise ValueError(f"n_vertices must be an int, not {self.n_vertices!r}")
        if self.max_facets is not None and not _is_int(self.max_facets):
            raise ValueError(f"max_facets must be an int, not {self.max_facets!r}")
        # a string such as "no" is truthy and would turn the flag on
        for flag in ("exact_vertices", "symmetry_breaking"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ValueError(f"{flag} must be a bool, not {value!r}")
        if not 4 <= self.n_vertices <= MAX_CENSUS_VERTICES:
            raise ValueError(
                f"census vertex count must be 4..{MAX_CENSUS_VERTICES}"
            )
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.constraint == CONSTRAINT_BOUNDARY and self.n_vertices > 6:
            # no degree is deficient under this constraint, so nothing
            # forces the walk: it visits every labeled complex containing
            # the first seed, about 70 times more from 5 to 6 vertices
            raise ValueError("boundary-constraint census is capped at 6 vertices")
        cap = math.comb(self.n_vertices, 3)
        if self.max_facets is not None and not 1 <= self.max_facets <= cap:
            raise ValueError("max_facets outside the feasible range")
        return self

    @property
    def facet_cap(self) -> int:
        cap = math.comb(self.n_vertices, 3)
        return cap if self.max_facets is None else min(cap, self.max_facets)


@dataclass
class CensusResult:
    spec: CensusSpec
    representatives: Tuple[SimplicialComplex, ...]
    labeled_per_class: Tuple[int, ...]
    labeled_count: int
    nodes: int
    seconds: float
    enumeration_seconds: float = 0.0
    reduction_seconds: float = 0.0
    # permuted images computed by the reduction: classes x n!, or
    # facets x 3!(n-3)! summed over the representatives when every
    # labeled complex holds the pinned triangle 0
    images_checked: int = 0

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def counts_by_f_vector(self) -> Dict[Tuple[int, ...], int]:
        counts: Dict[Tuple[int, ...], int] = {}
        for rep in self.representatives:
            fv = rep.f_vector()
            counts[fv] = counts.get(fv, 0) + 1
        return counts


class _Tables:
    """Triangle/edge index tables for a fixed vertex pool."""

    def __init__(self, n: int):
        self.n = n
        self.triangles = [
            (1 << a) | (1 << b) | (1 << c)
            for a, b, c in itertools.combinations(range(n), 3)
        ]
        self.tri_index = {mask: t for t, mask in enumerate(self.triangles)}
        edges = list(itertools.combinations(range(n), 2))
        self.edge_count = len(edges)
        edge_index = {(1 << a) | (1 << b): i for i, (a, b) in enumerate(edges)}
        self.tri_edges: List[Tuple[int, int, int]] = []
        for mask in self.triangles:
            a, b, c = _bits(mask)
            self.tri_edges.append(
                (
                    edge_index[(1 << a) | (1 << b)],
                    edge_index[(1 << a) | (1 << c)],
                    edge_index[(1 << b) | (1 << c)],
                )
            )
        self.edge_tris: List[List[int]] = [[] for _ in edges]
        for t, trio in enumerate(self.tri_edges):
            for e in trio:
                self.edge_tris[e].append(t)
        self.full_mask = (1 << n) - 1

    @functools.cached_property
    def perm_rows(self) -> List[bytes]:
        """One row per permutation p of range(n), identity first: byte t
        of the row is the index of the image of triangle t under p.

        n! rows of C(n, 3) bytes (about 0.4 MB at n = 7), built on the
        first reduction that needs them.
        """
        trios = list(itertools.combinations(range(self.n), 3))
        rows = []
        for p in itertools.permutations(range(self.n)):
            bit = [1 << v for v in p]
            rows.append(
                bytes(self.tri_index[bit[a] | bit[b] | bit[c]] for a, b, c in trios)
            )
        return rows

    @functools.cached_property
    def perm_groups(self) -> List[List[bytes]]:
        """``perm_rows`` grouped by the triangle each permutation sends
        onto triangle 0: group t holds the 3!(n-3)! rows with row[t] == 0.

        Holds references to the rows of ``perm_rows``, built on first use.
        """
        groups: List[List[bytes]] = [[] for _ in self.triangles]
        for row in self.perm_rows:
            groups[row.index(0)].append(row)
        return groups


_tables = functools.cache(_Tables)


def _enumerate(spec: CensusSpec) -> Tuple[List[Tuple[int, ...]], int]:
    """Deficiency-driven DFS for every ridge-degree constraint.

    Returns the labeled facet-mask tuples in walk order and the node count.
    ``cap`` is the highest edge degree allowed and ``deficient`` marks the
    degrees an edge must still raise: {1} for closed, the odd degrees for
    even, none for boundary.  A boundary state is never deficient, so the
    walk grows it by seeds only, and an emitted boundary complex must also
    have an edge of degree 1.  ``blocked`` is the bitset of triangles
    chosen or banned; ``used`` is the vertex mask of the chosen triangles
    and ``required`` the vertices an emitted complex must use.
    """
    n = spec.n_vertices
    if spec.constraint == CONSTRAINT_EVEN:
        cap = n - 2 - n % 2  # the largest even degree <= n - 2
        deficient = range(1, cap, 2)
    else:
        cap = 2
        deficient = (1,) if spec.constraint == CONSTRAINT_CLOSED else ()
    # a translate() table: byte d is 1 when degree d is deficient
    translate = bytes(d in deficient for d in range(256))
    needs_open_edge = spec.constraint == CONSTRAINT_BOUNDARY
    tables = _tables(n)
    triangles, tri_edges = tables.triangles, tables.tri_edges
    required = tables.full_mask if spec.exact_vertices else 0
    max_facets = spec.facet_cap
    deg = bytearray(tables.edge_count)
    chosen: List[int] = []
    labeled: List[Tuple[int, ...]] = []
    nodes = blocked = 0

    def walk(floor: int, used: int) -> None:
        nonlocal nodes, blocked
        nodes += 1
        flags = deg.translate(translate)
        edge = flags.find(1)
        budget_left = max_facets - len(chosen)
        seeding = edge < 0
        if not seeding:
            if (flags.count(1) + 2) // 3 > budget_left:
                return
            # a closer keeps the floor: it is forced, not a seed
            candidates: Sequence[int] = tables.edge_tris[edge]
        else:
            missing = (required & ~used).bit_count()
            if chosen and not missing and (not needs_open_edge or 1 in deg):
                labeled.append(tuple(sorted(triangles[t] for t in chosen)))
            if budget_left <= 0 or (missing + 2) // 3 > budget_left:
                return
            if floor == -1 and spec.symmetry_breaking:
                candidates = (0,)
            else:
                candidates = range(floor + 1, len(triangles))
        # each tried triangle stays blocked for the rest of the loop: that
        # bans a tried closer from its later siblings, and a later seed's
        # floor already excludes every earlier one
        tried = 0
        for t in candidates:
            bit = 1 << t
            if t <= floor or blocked & bit:
                continue
            a, b, c = tri_edges[t]
            if deg[a] >= cap or deg[b] >= cap or deg[c] >= cap:
                continue
            blocked |= bit
            tried |= bit
            chosen.append(t)
            deg[a] += 1
            deg[b] += 1
            deg[c] += 1
            walk(t if seeding else floor, used | triangles[t])
            deg[a] -= 1
            deg[b] -= 1
            deg[c] -= 1
            chosen.pop()
        blocked ^= tried

    walk(-1, 0)
    return labeled, nodes


def _reduce_classes(
    labeled: List[Tuple[int, ...]], tables: _Tables
) -> Tuple[List[SimplicialComplex], List[int], int]:
    """Split the sorted labeled list into isomorphism classes.

    Two complexes on range(n) are isomorphic exactly when one is the image
    of the other under a permutation of range(n).  The first complex not
    yet in a class represents a new class, and its image under every
    permutation row that lands on an unassigned labeled complex joins the
    class.  When every labeled complex holds triangle 0 (the pinned first
    seed), an image can land only if its permutation sends one of the
    representative's triangles onto triangle 0, so only the row groups of
    those triangles are walked; otherwise every group is.  Returns the
    representatives and class sizes, sorted by (f-vector, facets), and
    the number of images computed.
    """
    tri_index = tables.tri_index
    position = {
        sum(1 << tri_index[m] for m in masks): i for i, masks in enumerate(labeled)
    }
    groups = tables.perm_groups
    every = range(len(groups))
    triangle0 = tables.triangles[0]
    pinned = all(triangle0 in masks for masks in labeled)
    shift = (1).__lshift__
    assigned = bytearray(len(labeled))
    reps: List[Tuple[SimplicialComplex, int]] = []
    images = 0
    for i, masks in enumerate(labeled):
        if assigned[i]:
            continue
        own = [tri_index[m] for m in masks]
        pick = operator.itemgetter(*own)
        if len(masks) == 1:  # one index gives a bare item, not a 1-tuple
            pick = lambda row, one=pick: (one(row),)
        size = 0
        for t in own if pinned else every:
            for row in groups[t]:
                j = position.get(sum(map(shift, pick(row))))
                if j is not None and not assigned[j]:
                    assigned[j] = 1
                    size += 1
            images += len(groups[t])
        reps.append((SimplicialComplex._from_facet_masks(masks), size))
    reps.sort(key=lambda pair: (pair[0].f_vector(), pair[0].facet_tuples()))
    return [r for r, _ in reps], [c for _, c in reps], images


def enumerate_census(spec: CensusSpec, workers: int = 1) -> CensusResult:
    """Run the census described by ``spec``.

    The labeled enumeration is exact and duplicate-free; the result keeps
    one representative per isomorphism class, sorted by (f-vector,
    facets), with the labeled count of each class.  The census runs in
    one process; ``workers`` is accepted only as 1.
    """
    if workers != 1:
        raise ValueError("the census runs in one process: workers must be 1")
    spec = spec.validated()
    t0 = time.perf_counter()

    labeled, nodes = _enumerate(spec)
    labeled.sort()
    t1 = time.perf_counter()
    reps, per_class, images = _reduce_classes(labeled, _tables(spec.n_vertices))
    t2 = time.perf_counter()
    return CensusResult(
        spec=spec,
        representatives=tuple(reps),
        labeled_per_class=tuple(per_class),
        labeled_count=len(labeled),
        nodes=nodes,
        seconds=t2 - t0,
        enumeration_seconds=t1 - t0,
        reduction_seconds=t2 - t1,
        images_checked=images,
    )


@dataclass(frozen=True)
class CatalogMatch:
    mapping: Dict[str, int]
    unexpected: Tuple[int, ...]
    missing: Tuple[str, ...]

    @property
    def perfect(self) -> bool:
        return not self.unexpected and not self.missing


def match_catalog(result: CensusResult, expected_names: Sequence[str]) -> CatalogMatch:
    """Match census classes against named catalog entries by isomorphism."""
    from . import catalog

    mapping: Dict[str, int] = {}
    matched: Set[int] = set()
    missing: List[str] = []
    for name in expected_names:
        target = catalog.get(name).complex
        for i, rep in enumerate(result.representatives):
            if i in matched:
                continue
            if rep.f_vector() == target.f_vector() and are_isomorphic(rep, target):
                mapping[name] = i
                matched.add(i)
                break
        else:
            missing.append(name)
    unexpected = tuple(
        i for i in range(len(result.representatives)) if i not in matched
    )
    return CatalogMatch(mapping, unexpected, tuple(missing))


@dataclass
class CollapsibilitySampleReport:
    """What ``sample_acyclic_collapsibility`` found in its draws.

    ``chi_failures`` counts the acyclic draws whose Euler characteristic is
    not 1.  The sampler skips every draw with chi != 1 before anything
    else, so the count is 0 by construction: by Euler-Poincare, chi - 1 is
    the alternating sum of the reduced Betti numbers, and a skipped draw is
    not acyclic.  The field stays, so a report names the fields it always
    named and its digests hash the same lines.  A draw that the greedy
    mode of the one search loop collapses counts in ``acyclic_found`` and
    ``collapsible_count`` without a rank test, since a collapsible complex
    is contractible; only the other draws with chi = 1 are ranked.
    """

    samples: int
    seed: int
    nonempty: int
    acyclic_found: int
    collapsible_count: int
    counterexamples: Tuple[str, ...]
    inconclusive: Tuple[str, ...]
    acyclic_without_free_faces: Tuple[str, ...]
    chi_failures: int

    @property
    def consistent(self) -> bool:
        return not self.counterexamples and self.chi_failures == 0


def sample_acyclic_collapsibility(
    n_samples: int,
    seed: int,
    budget: int = 2_000_000,
) -> CollapsibilitySampleReport:
    """Sample random pure complexes; every acyclic one must collapse.

    Samples live on the lemma's bound of ``collapse.ACYCLIC_VERTEX_BOUND``
    = 7 vertices, where ``SAMPLER_P`` was calibrated.  Each sample draws a
    dimension in {2, 3} and keeps each candidate facet with the calibrated
    probability for that dimension.  Each non-empty draw then meets up to
    four tests in order:

    1. its Euler characteristic (two popcounts on the fixed face tables).
       A draw with chi != 1 is skipped: chi - 1 is the alternating sum of
       the reduced Betti numbers, so it is not acyclic.  This is why
       ``chi_failures`` is 0 by construction;
    2. the greedy mode of the one search loop within ``budget`` nodes: the
       search's first descent, stopped at its first dead end.  A draw it
       collapses is contractible, so it counts as acyclic and collapsible
       without a rank test;
    3. only a draw that greedy search leaves at a dead end or gives up on
       takes its GF(2) reduced homology;
    4. an acyclic one of those goes through the full collapsibility
       search.

    No lemma is assumed, so a counterexample list that stays empty is the
    verification.  Only samples proved not collapsible are counterexamples;
    those the search gave up on within ``budget`` nodes are listed under
    ``inconclusive``.  ``seed`` must be an int, so that the report names
    the draws it made.
    """
    if not _is_int(n_samples) or n_samples < 1:
        raise ValueError(f"sample count must be an int >= 1, not {n_samples!r}")
    collapse_mod._check_budget(budget)
    _check_seed("sample_acyclic_collapsibility", seed)
    rng = random.Random(seed)
    candidates = {
        d: [
            sum(1 << v for v in combo)
            for combo in itertools.combinations(
                range(collapse_mod.ACYCLIC_VERTEX_BOUND), d + 1
            )
        ]
        for d in (2, 3)
    }
    nonempty = acyclic = collapsible = 0
    counterexamples: List[str] = []
    inconclusive: List[str] = []
    no_free_faces: List[str] = []
    draw = rng.random
    for _ in range(n_samples):
        d = rng.choice((2, 3))
        p = SAMPLER_P[d]
        facets = [m for m in candidates[d] if draw() < p]
        if not facets:
            continue
        nonempty += 1
        k = SimplicialComplex._from_facet_masks(facets)
        # Euler-Poincare: chi - 1 is the alternating sum of the reduced
        # Betti numbers, so chi != 1 rules out acyclicity without a rank
        if k.euler_characteristic() != 1:
            continue
        # a complex that collapses is contractible, so acyclic: only a
        # draw the greedy search leaves uncollapsed takes the rank
        if collapse_mod._greedy_collapses(k, budget):
            acyclic += 1
            collapsible += 1
            continue
        if not homology.is_z2_acyclic(k):
            continue
        acyclic += 1
        verdict = collapse_mod.is_collapsible(k, budget)
        if verdict.collapsible:
            collapsible += 1
            continue
        if verdict.status == collapse_mod.NOT_COLLAPSIBLE:
            counterexamples.append(k.canonical_encoding())
        else:
            inconclusive.append(k.canonical_encoding())
        if not collapse_mod.free_faces(k) and k.face_count() > 1:
            no_free_faces.append(k.canonical_encoding())
    return CollapsibilitySampleReport(
        samples=n_samples,
        seed=seed,
        nonempty=nonempty,
        acyclic_found=acyclic,
        collapsible_count=collapsible,
        counterexamples=tuple(counterexamples),
        inconclusive=tuple(inconclusive),
        acyclic_without_free_faces=tuple(no_free_faces),
        chi_failures=0,
    )
