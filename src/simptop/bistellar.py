"""Generalized bistellar moves, their classification, and heuristic flip search.

A move is specified by a (d+2)-set A holding between one and d+1 facets.
Its core is beta = {x in A : A minus x is a facet}; alpha = A \\ beta.  The
move swaps the facets inside A for the (d+1)-subsets of A that were absent.
It is bistellar when beta is not already a face and the link of alpha is
the standard sphere on beta (or alpha is itself a facet); proper when
1 <= dim(alpha) <= d-1.  Singular moves can still be applied; they are
merely flagged, since applying them is exactly how some of the catalog
complexes arise.

One classifier, ``_classify``, reads every class off the faces, as
BISTELLAR reads the bistellar moves (Bjorner-Lutz, Exp. Math. 9, 2000): the
star table ``k._star`` maps each face to the union of the facets containing
it, whose vertex set is alpha plus V(lk alpha).  Within V(k) a bistellar A
is such a union with d + 2 vertices; any admissible A is a facet plus one
vertex.  :func:`enumerate_moves` classifies every candidate of a complex;
it is also the oracle of the walk state.  The sweep over all (d+2)-subsets
of V(k), one ``classify_move`` each, is kept only as its test oracle.

The random walk and the flip search each carry one walk state: the facets,
a private copy of the star table and every candidate A with its class.  A
move at A rewrites the star entries of the subsets of A and re-classifies
only the candidates that read them, so the state's move list stays the
bistellar moves of ``enumerate_moves`` on the current complex, in content
and order, and the draws, and so the results, are those of the described
list.  Only the walk stars a fresh vertex, the smallest id outside V(k),
into a facet; those expanding moves follow the list, in facet order.  The
flip search's energy reads vertex degrees off the state's table, and it
undoes a rejected move by the move at the same A.  A complex is built only
when the walk or the search returns (or for the ``reach`` goal's
isomorphism test); the walk's result takes the state's table over.
``enumerate_moves`` describes every move as a :class:`MoveDescriptor`; the
walk and the flip search describe only the moves they record.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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


def _classify(star: Dict[int, int], a: int, d: int) -> Optional[_Move]:
    """The move at a (d+2)-set A that holds a facet of the pure d-complex
    with star table ``star``, by the rule of :func:`classify_move`; None
    when all d + 2 of A's (d+1)-subsets are facets, so A is inadmissible.

    It reads ``star`` at A's (d+1)-subsets, at beta and at alpha, and
    nowhere else.
    """
    # A minus x has d + 1 vertices, so it is a face only as a facet
    beta = 0
    rest = a
    while rest:
        x = rest & -rest
        if a ^ x in star:
            beta |= x
        rest ^= x
    if beta == a:
        return None
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
    return (a, alpha, beta, i, classification)


def enumerate_moves(
    k: SimplicialComplex,
    classifications: Optional[Iterable[str]] = None,
) -> List[MoveDescriptor]:
    """All classified moves at (d+2)-subsets A of V(k), in vertex order.

    Every class is read off ``k._star`` (face -> union of the facets
    containing it), by the rule of :func:`classify_move`: lk(alpha) has
    vertex set star[alpha] minus alpha.  When only bistellar classes are
    wanted the candidates are the star values with d+2 vertices; otherwise
    each facet plus one more vertex of V(k).  Moves that star a fresh vertex
    into a facet enlarge the complex and are not listed; only
    :func:`random_bistellar_walk` makes them.
    """
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
    star = k._star
    if wanted <= _BISTELLAR_KINDS:
        # inside V(k) a bistellar A is alpha | V(lk alpha) = star[alpha]
        candidates = {a for a in star.values() if a.bit_count() == d + 2}
    else:
        # every admissible A holds a facet
        vertices = k.vertex_mask
        candidates = {f | 1 << v for f in k.facet_masks for v in _bits(vertices & ~f)}

    out: List[MoveDescriptor] = []
    # every candidate has d + 2 vertices, so the _lex_key sort is lexicographic
    for a in sorted(candidates, key=_lex_key, reverse=True):
        move = _classify(star, a, d)
        if move is not None and move[4] in wanted:
            out.append(_descriptor(move))
    return out


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


class _WalkState:
    """A pure complex as the walk and the flip search change it, move by move.

    It holds the facets, the vertex set, a private copy of the star table
    and every candidate A: each star value with d + 2 vertices, with the
    number of faces whose star it is and its :func:`_classify` result.  The
    candidates classified bistellar are kept in lexicographic order, so
    :meth:`move_at` j, for j below the count without expanding moves, is
    entry j of ``enumerate_moves(k, _BISTELLAR_KINDS)`` for the complex k
    the facets form.  A move at A changes only the faces inside A, so
    :meth:`apply` rewrites the star entries of the subsets of A and
    re-classifies only the candidates whose classification read one of
    them.
    """

    def __init__(self, k: SimplicialComplex, caller: str) -> None:
        if k.is_empty() or not k.is_pure():
            raise ValueError(f"{caller} needs a pure non-empty complex")
        self.d = d = k.dim
        self.facets = set(k.facet_masks)
        self.vertex_mask = k.vertex_mask
        # copied: the start's table is shared with its other callers
        self.star = dict(k._star)
        self.counts: Dict[int, int] = {}
        for a in self.star.values():
            if a.bit_count() == d + 2:
                self.counts[a] = self.counts.get(a, 0) + 1
        self.classified = {a: _classify(self.star, a, d) for a in self.counts}
        self.order = sorted(
            (a for a, m in self.classified.items() if _is_bistellar(m)),
            key=_lex_key,
            reverse=True,
        )
        # -_lex_key of each entry of order, ascending, for bisect
        self.keys = [-_lex_key(a) for a in self.order]

    def move_count(self, expanding: bool) -> int:
        if not expanding:
            return len(self.order)
        if self.d < 1:
            raise ValueError("bistellar moves need dimension >= 1")
        return len(self.order) + len(self.facets)

    def move_at(self, j: int, expanding: bool) -> _Move:
        """Entry j of the move list; with ``expanding`` the moves that star
        the fresh vertex into a facet follow, in facet order."""
        if j < len(self.order):
            return self.classified[self.order[j]]
        f = sorted(self.facets, key=_lex_key, reverse=True)[j - len(self.order)]
        # the walk expands only below VERTEX_LIMIT - 1 vertices, so the
        # lowest clear bit, the smallest id outside V(k), is at most 62
        fresh = (self.vertex_mask + 1) & ~self.vertex_mask
        return (f | fresh, f, fresh, self.d, BISTELLAR)

    def apply(self, a: int) -> None:
        """The move at A: the facets inside A give way to the (d+1)-subsets
        of A that were absent.  Before it, every facet on alpha lies inside
        A: so it is for a bistellar move (bs2) and for the move at the same
        A that undoes one (bs1), and so the move undoes itself."""
        d, facets, star = self.d, self.facets, self.star
        # alpha collects the x whose facet A - x is new
        alpha = 0
        rest = a
        while rest:
            x = rest & -rest
            if a ^ x in facets:
                facets.remove(a ^ x)
            else:
                facets.add(a ^ x)
                alpha |= x
            rest ^= x
        self.vertex_mask |= a
        if not alpha & (alpha - 1):
            # a 0-move: no facet outside A held alpha's vertex
            self.vertex_mask ^= alpha

        # Only faces inside A change, so the part of a star outside A
        # stays.  A proper subset s of A that holds alpha is no longer a
        # face; any other lies on a new facet A - x, x in alpha minus s, and
        # s + w is a face for each w in A unless s + w holds alpha.  Count
        # the (d+2)-vertex star values the changed entries gain and lose:
        # those are the candidates that appear and disappear.
        gained: Dict[int, int] = {}
        sub = (a - 1) & a
        while sub:
            old = star.get(sub)
            missing = alpha & ~sub
            if missing:
                inside = a if missing & (missing - 1) else a ^ missing
                value = star[sub] = (old or 0) & ~a | inside
            else:
                value = None
                del star[sub]
            if value != old:
                if value is not None and value.bit_count() == d + 2:
                    gained[value] = gained.get(value, 0) + 1
                if old is not None and old.bit_count() == d + 2:
                    gained[old] = gained.get(old, 0) - 1
            sub = (sub - 1) & a

        # A candidate c's class reads star at c's (d+1)-subsets, at beta
        # and at alpha, and only entries inside A changed.  The first
        # changed only if c holds d + 1 vertices of A.  star[alpha] counts
        # only as equal to c or not, and every entry inside A, before the
        # move as after it, holds A less at most one vertex: it equals c
        # only if c holds d + 1 vertices of A too.
        counts, classified = self.counts, self.classified
        stale = [
            c
            for c, m in classified.items()
            if (c & a).bit_count() > d or m is not None and not m[2] & ~a
        ]
        for c, change in gained.items():
            if not change:
                continue
            n = counts.get(c, 0) + change
            if n:
                if c not in counts:
                    stale.append(c)
                counts[c] = n
            else:
                del counts[c]
                self._place(c, classified.pop(c), None)
        for c in stale:
            # a stale candidate may have lost its last face just above
            if c in counts:
                move = _classify(star, c, d)
                self._place(c, classified.get(c), move)
                classified[c] = move

    def _place(self, c: int, was: Optional[_Move], now: Optional[_Move]) -> None:
        """Keep ``order`` the bistellar candidates as c's class changes."""
        if _is_bistellar(was) == _is_bistellar(now):
            return
        key = -_lex_key(c)
        j = bisect_left(self.keys, key)
        if _is_bistellar(now):
            self.keys.insert(j, key)
            self.order.insert(j, c)
        else:
            del self.keys[j]
            del self.order[j]

    def energy(self) -> float:
        """The flip search's energy: the facet count plus a small penalty on
        vertex degrees, the degree of v being |star[v]| - 1."""
        star = self.star
        degrees = [star[1 << v].bit_count() - 1 for v in _bits(self.vertex_mask)]
        return len(self.facets) + sum(x * x for x in degrees) / 10_000.0

    def complex(self) -> SimplicialComplex:
        """The complex the facets form.  It takes the star table over, so
        the state must not move again."""
        k = SimplicialComplex._from_facet_masks(self.facets)
        k.__dict__["_star"] = self.star
        return k


def _is_bistellar(move: Optional[_Move]) -> bool:
    return move is not None and move[4] in _BISTELLAR_KINDS


def _goal_test(goal) -> Callable[[_WalkState], bool]:
    """Check a flip goal and return its test on a walk state."""
    if goal == "standard-sphere":
        return lambda s: len(s.facets) == s.d + 2 == s.vertex_mask.bit_count()
    pair = isinstance(goal, (tuple, list)) and len(goal) == 2
    kind = goal[0] if pair else None
    if kind == "facet-count":
        count = goal[1]
        if not _is_int(count) or count < 0:
            raise ValueError(
                f"flip goal {goal!r}: the facet count must be an int >= 0"
            )
        return lambda s: len(s.facets) <= count
    if kind == "reach":
        target = goal[1]
        if not isinstance(target, SimplicialComplex):
            raise ValueError(
                f"flip goal {goal!r}: the target must be a SimplicialComplex"
            )
        return functools.partial(_reaches, target)
    raise ValueError(
        f"unknown flip goal {goal!r}; valid: 'standard-sphere', "
        "('facet-count', n), ('reach', complex)"
    )


def _reaches(target: SimplicialComplex, s: _WalkState) -> bool:
    # a complex is built only once the facet and vertex counts match
    if len(s.facets) != len(target.facet_masks):
        return False
    if s.vertex_mask.bit_count() != target.vertex_mask.bit_count():
        return False
    k = SimplicialComplex._from_facet_masks(s.facets)
    if k.f_vector() != target.f_vector() or len(k.vertices) > ISO_SEARCH_CAP:
        return False
    return are_isomorphic(k, target) is not None


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
    :class:`FlipSchedule`).  The goal is ``"standard-sphere"``,
    ``("facet-count", n)`` (at most n facets) or ``("reach", target)`` (a
    complex isomorphic to target).

    Each run carries one walk state.  A step draws a move as a mask tuple,
    applies it and reads the energy off the state; a rejected move is
    undone by the move at the same A.  Only an accepted move is described,
    as the :class:`MoveDescriptor` the trace records.
    """
    _check_seed("flip_search", seed)
    if not is_weak_pseudomanifold(k):
        raise ValueError("flip_search needs a weak pseudomanifold")
    if schedule is not None and not isinstance(schedule, FlipSchedule):
        raise ValueError(f"schedule must be a FlipSchedule or None, not {schedule!r}")
    sched = schedule or FlipSchedule()
    reached = _goal_test(goal)
    start_enc = k.canonical_encoding()
    state = _WalkState(k, "flip_search")
    if reached(state):
        return FlipTrace((), start_enc, start_enc)

    for restart in range(sched.restarts):
        rng = random.Random(seed * 1_000_003 + restart)
        if restart:
            # the first run starts from the state the goal test read
            state = _WalkState(k, "flip_search")
        trace: List[MoveDescriptor] = []
        temperature = 2.0
        energy = state.energy()
        for _ in range(sched.steps):
            count = state.move_count(False)
            if not count:
                break
            # the index rng.choice draws from a list of count moves
            move = state.move_at(rng.choice(range(count)), False)
            state.apply(move[0])
            delta = state.energy() - energy
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
                energy += delta
                trace.append(_descriptor(move))
                if reached(state):
                    end = state.complex().canonical_encoding()
                    return FlipTrace(tuple(trace), start_enc, end)
            else:
                state.apply(move[0])
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
    equivalent to the start; with a sphere as start it stays one.  The walk
    carries one walk state: a step draws a move as a mask tuple and applies
    it there, and the complex is built once, at the end, holding the
    state's star table.  The seed is mandatory, so every walk is
    reproducible.
    """
    _check_seed("random_bistellar_walk", seed)
    _check_count("steps", steps)
    if max_vertices is not None:
        _check_count("max_vertices", max_vertices)
    rng = random.Random(seed)
    state = _WalkState(k, "random_bistellar_walk")
    moved = False
    for _ in range(steps):
        n = state.vertex_mask.bit_count()
        expanding = (max_vertices is None or n < max_vertices) and n < VERTEX_LIMIT - 1
        count = state.move_count(expanding)
        if not count:
            break
        # the index rng.choice draws from a list of count moves
        state.apply(state.move_at(rng.choice(range(count)), expanding)[0])
        moved = True
    return state.complex() if moved else k
