"""Generalized bistellar moves, their classification, and heuristic flip search.

A move is specified by a (d+2)-set A holding between one and d+1 facets.
Its core is beta = {x in A : A minus x is a facet}; alpha = A \\ beta.  The
move swaps the facets inside A for the (d+1)-subsets of A that were absent.
It is bistellar when beta is not already a face and the link of alpha is
the standard sphere on beta (or alpha is itself a facet); proper when
1 <= dim(alpha) <= d-1.  Singular moves can still be applied; they are
merely flagged, since applying them is exactly how some of the catalog
complexes arise.

One enumerator reads every class off the faces, as BISTELLAR reads the
bistellar moves (Bjorner-Lutz, Exp. Math. 9, 2000): the star table
``k._star`` maps each face to the union of the facets containing it, whose
vertex set is alpha plus V(lk alpha).  Within V(k) a bistellar A is such a
union with d + 2 vertices; any admissible A is a facet plus one vertex.
The flip search's energy reads vertex degrees off the same table.  The
sweep over all (d+2)-subsets of V(k), one ``classify_move`` each, is kept
only as the test oracle.

The enumerator yields each move as a tuple of masks.  ``enumerate_moves``
describes every one as a :class:`MoveDescriptor`; the random walk and the
flip search draw from the tuples and describe only the move they keep, so
their draws, and so their results, are those of the described list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .complexes import (
    ISO_SEARCH_CAP,
    VERTEX_LIMIT,
    Face,
    SimplicialComplex,
    _as_mask,
    _bits,
    _check_seed,
    _is_int,
    _lex_key,
    are_isomorphic,
)
from .structure import is_weak_pseudomanifold

BISTELLAR = "bistellar"
PROPER_BISTELLAR = "proper-bistellar"
SINGULAR_BS1 = "singular-bs1"
SINGULAR_BS2 = "singular-bs2"

CLASSIFICATIONS = (BISTELLAR, PROPER_BISTELLAR, SINGULAR_BS1, SINGULAR_BS2)
_BISTELLAR_KINDS = frozenset((BISTELLAR, PROPER_BISTELLAR))


@dataclass(frozen=True)
class MoveDescriptor:
    a_set: Face
    alpha: Face
    beta: Face
    i: int
    classification: str

    def is_bistellar(self) -> bool:
        return self.classification in _BISTELLAR_KINDS


@dataclass(frozen=True)
class FlipTrace:
    """A replayable sequence of bistellar moves from start to end."""

    moves: Tuple[MoveDescriptor, ...]
    start: str
    end: str


def _check_admissible(k: SimplicialComplex, a_mask: int) -> Tuple[int, List[int]]:
    """Validate A and return (d, facets of k inside A)."""
    if k.is_empty() or not k.is_pure():
        raise ValueError("bistellar moves need a pure non-empty complex")
    d = k.dim
    if d < 1:
        raise ValueError("bistellar moves need dimension >= 1")
    if a_mask.bit_count() != d + 2:
        raise ValueError(
            f"inadmissible A: needs {d + 2} elements, got {a_mask.bit_count()}"
        )
    inside = [f for f in k.facet_masks if f & ~a_mask == 0]
    if not 1 <= len(inside) <= d + 1:
        raise ValueError(
            f"inadmissible A: contains {len(inside)} facets, needs 1..{d + 1}"
        )
    return d, inside


def _core_mask(a_mask: int, inside: List[int]) -> int:
    """Each facet inside A is A minus one core member; collect those members."""
    beta = 0
    for f in inside:
        beta |= a_mask & ~f
    return beta


def core(k: SimplicialComplex, a_set) -> Face:
    """The core of A: members whose removal from A leaves a facet of k."""
    a_mask = _as_mask(a_set)
    _, inside = _check_admissible(k, a_mask)
    return Face.from_mask(_core_mask(a_mask, inside))


def apply_generalized_move(k: SimplicialComplex, a_set) -> SimplicialComplex:
    """Facets of k not inside A, plus the (d+1)-subsets of A that were absent."""
    a_mask = _as_mask(a_set)
    _, inside = _check_admissible(k, a_mask)
    kept = [f for f in k.facet_masks if f & ~a_mask]
    alpha = a_mask & ~_core_mask(a_mask, inside)
    added = [a_mask ^ (1 << v) for v in _bits(alpha)]
    return SimplicialComplex._from_facet_masks(kept + added)


def classify_move(k: SimplicialComplex, a_set) -> MoveDescriptor:
    """Classify the move at A as (proper) bistellar or singular.

    bs1 asks that the core not already be a face; bs2 that alpha be a facet
    or have link exactly the standard sphere on the core (tested by exact
    vertex-set equality of the computed link).
    """
    a_mask = _as_mask(a_set)
    d, inside = _check_admissible(k, a_mask)
    beta_mask = _core_mask(a_mask, inside)
    alpha_mask = a_mask & ~beta_mask
    i = alpha_mask.bit_count() - 1

    bs1 = not k.has_face(beta_mask)
    if alpha_mask.bit_count() == d + 1:
        bs2 = True
    else:
        bs2 = k.link(alpha_mask).vertex_mask == beta_mask

    if not bs1:
        classification = SINGULAR_BS1
    elif not bs2:
        classification = SINGULAR_BS2
    elif 1 <= i <= d - 1:
        classification = PROPER_BISTELLAR
    else:
        classification = BISTELLAR
    return _descriptor((a_mask, alpha_mask, beta_mask, i, classification))


def _fresh_vertex(k: SimplicialComplex) -> int:
    """The smallest vertex id outside V(k)."""
    free = ~k.vertex_mask & ((1 << VERTEX_LIMIT) - 1)
    if not free:
        raise ValueError(
            f"no fresh vertex: V(k) fills the vertex cap of {VERTEX_LIMIT}"
        )
    return (free & -free).bit_length() - 1


# (A, alpha, beta, i, classification), all faces as masks
_Move = Tuple[int, int, int, int, str]


def _descriptor(move: _Move) -> MoveDescriptor:
    a, alpha, beta, i, classification = move
    return MoveDescriptor(
        a_set=Face.from_mask(a),
        alpha=Face.from_mask(alpha),
        beta=Face.from_mask(beta),
        i=i,
        classification=classification,
    )


def _moves(
    k: SimplicialComplex,
    classifications: Optional[Iterable[str]],
    include_expanding: bool,
) -> List[_Move]:
    """The moves of :func:`enumerate_moves`, in its order, as mask tuples."""
    if k.is_empty() or not k.is_pure():
        raise ValueError("enumerate_moves needs a pure non-empty complex")
    if classifications is None:
        wanted = set(CLASSIFICATIONS)
    elif isinstance(classifications, str):
        raise ValueError(f"classifications must be names, not {classifications!r}")
    else:
        wanted = set(classifications)
        unknown = sorted(wanted.difference(CLASSIFICATIONS))
        if unknown:
            raise ValueError(
                f"unknown move classification {', '.join(map(repr, unknown))}; "
                f"valid: {', '.join(CLASSIFICATIONS)}"
            )
    d = k.dim
    facets = k.facet_masks
    star = k._star
    if wanted <= _BISTELLAR_KINDS:
        # inside V(k) a bistellar A is alpha | V(lk alpha) = star[alpha]
        candidates = {a for a in star.values() if a.bit_count() == d + 2}
    else:
        # every admissible A holds a facet
        candidates = {f | 1 << v for f in facets for v in _bits(k.vertex_mask & ~f)}

    out: List[_Move] = []
    # every candidate has d + 2 vertices, so the _lex_key sort is lexicographic
    for a in sorted(candidates, key=_lex_key, reverse=True):
        # A minus x has d + 1 vertices, so it is a face only as a facet
        beta = 0
        rest = a
        while rest:
            x = rest & -rest
            if a ^ x in star:
                beta |= x
            rest ^= x
        if beta == a:
            continue
        alpha = a & ~beta
        i = alpha.bit_count() - 1
        if beta in star:
            classification = SINGULAR_BS1
        elif i < d and star[alpha] != a:
            classification = SINGULAR_BS2
        elif 1 <= i <= d - 1:
            classification = PROPER_BISTELLAR
        else:
            classification = BISTELLAR
        if classification in wanted:
            out.append((a, alpha, beta, i, classification))
    if include_expanding:
        if d < 1:
            raise ValueError("bistellar moves need dimension >= 1")
        fresh = 1 << _fresh_vertex(k)
        # the only facet inside f | fresh is f, so the core is the fresh
        # vertex, a non-face, and alpha = f is a facet: always bistellar
        if BISTELLAR in wanted:
            out.extend((f | fresh, f, fresh, d, BISTELLAR) for f in facets)
    return out


def enumerate_moves(
    k: SimplicialComplex,
    classifications: Optional[Iterable[str]] = None,
    include_expanding: bool = False,
) -> List[MoveDescriptor]:
    """All classified moves at (d+2)-subsets A of V(k), in vertex order.

    Every class is read off ``k._star`` (face -> union of the facets
    containing it), by the rule of :func:`classify_move`: lk(alpha) has
    vertex set star[alpha] minus alpha.  When only bistellar classes are
    wanted the candidates are the star values with d+2 vertices; otherwise
    each facet plus one more vertex of V(k).  Moves that star a fresh vertex
    into a facet enlarge the complex, so they are left out unless
    ``include_expanding`` is set; they follow in facet order, and the fresh
    vertex is the smallest id outside V(k).
    """
    return [_descriptor(m) for m in _moves(k, classifications, include_expanding)]


def _check_count(name: str, value) -> None:
    if not _is_int(value) or value < 0:
        raise ValueError(f"{name} must be an int >= 0, not {value!r}")


@dataclass(frozen=True)
class FlipSchedule:
    """How long :func:`flip_search` anneals: ``restarts`` runs of at most
    ``steps`` moves each.  Every run starts at temperature 2.0 and cools
    by a factor 0.999 per step."""

    restarts: int = 10
    steps: int = 10_000

    def __post_init__(self):
        _check_count("restarts", self.restarts)
        _check_count("steps", self.steps)


def _energy(k: SimplicialComplex) -> float:
    # the degree of v is |star[v]| - 1; an accepted k's table serves _moves
    star = k._star
    degrees = [star[1 << v].bit_count() - 1 for v in k.vertices]
    return len(k.facet_masks) + sum(d * d for d in degrees) / 10_000.0


def _goal_reached(k: SimplicialComplex, goal) -> bool:
    if goal == "standard-sphere":
        d = k.dim
        return len(k.vertices) == d + 2 and len(k.facet_masks) == d + 2
    kind = goal[0]
    if kind == "facet-count":
        return len(k.facet_masks) <= goal[1]
    if kind == "reach":
        target = goal[1]
        if k.f_vector() != target.f_vector() or len(k.vertices) > ISO_SEARCH_CAP:
            return False
        return are_isomorphic(k, target) is not None
    raise ValueError(f"unknown flip goal {goal!r}")


def replay_trace(k: SimplicialComplex, trace: FlipTrace) -> SimplicialComplex:
    """Re-apply a trace move by move, failing on any non-bistellar step."""
    if k.canonical_encoding() != trace.start:
        raise ValueError("trace does not start at this complex")
    current = k
    for move in trace.moves:
        check = classify_move(current, move.a_set)
        if not check.is_bistellar():
            raise ValueError(f"trace step is not bistellar: {move}")
        current = apply_generalized_move(current, move.a_set)
    if current.canonical_encoding() != trace.end:
        raise ValueError("trace does not end at its recorded complex")
    return current


def flip_search(
    k: SimplicialComplex,
    goal,
    schedule: Optional[FlipSchedule] = None,
    seed: Optional[int] = None,
) -> Optional[FlipTrace]:
    """Simulated-annealing search through bistellar moves.

    Only moves classified bistellar are ever applied, so a returned trace
    replays; failure returns None and proves nothing.  The seed is
    mandatory: every run is reproducible.  Moves stay inside V(k): no step
    stars in a fresh vertex.  The schedule is fixed but for its length (see
    :class:`FlipSchedule`).  Each step draws from the moves as mask tuples;
    only an accepted move is described, as the :class:`MoveDescriptor` the
    trace records.
    """
    _check_seed("flip_search", seed)
    if not is_weak_pseudomanifold(k):
        raise ValueError("flip_search needs a weak pseudomanifold")
    if schedule is not None and not isinstance(schedule, FlipSchedule):
        raise ValueError(f"schedule must be a FlipSchedule or None, not {schedule!r}")
    sched = schedule or FlipSchedule()
    start_enc = k.canonical_encoding()
    if _goal_reached(k, goal):
        return FlipTrace((), start_enc, start_enc)

    for restart in range(sched.restarts):
        rng = random.Random(seed * 1_000_003 + restart)
        current = k
        trace: List[MoveDescriptor] = []
        temperature = 2.0
        energy = _energy(current)
        for _ in range(sched.steps):
            moves = _moves(current, _BISTELLAR_KINDS, include_expanding=False)
            if not moves:
                break
            move = rng.choice(moves)
            candidate = apply_generalized_move(current, move[0])
            delta = _energy(candidate) - energy
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
                current = candidate
                energy += delta
                trace.append(_descriptor(move))
                if _goal_reached(current, goal):
                    return FlipTrace(
                        tuple(trace), start_enc, current.canonical_encoding()
                    )
            temperature *= 0.999
    return None


def random_bistellar_walk(
    k: SimplicialComplex,
    steps: int,
    seed: int,
    max_vertices: Optional[int] = None,
) -> SimplicialComplex:
    """Apply ``steps`` random bistellar moves (growing only under the cap).

    Every step is a classified-bistellar move, so the result is bistellar
    equivalent to the start; with a sphere as start it stays one.  A step
    draws its move from the mask tuples and applies it; no move is described.
    The seed is mandatory, so every walk is reproducible.
    """
    _check_seed("random_bistellar_walk", seed)
    _check_count("steps", steps)
    if max_vertices is not None:
        _check_count("max_vertices", max_vertices)
    rng = random.Random(seed)
    current = k
    for _ in range(steps):
        n = current.vertex_mask.bit_count()
        expanding = (max_vertices is None or n < max_vertices) and n < VERTEX_LIMIT - 1
        moves = _moves(current, _BISTELLAR_KINDS, expanding)
        if not moves:
            break
        current = apply_generalized_move(current, rng.choice(moves)[0])
    return current
