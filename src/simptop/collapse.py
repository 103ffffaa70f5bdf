"""Free faces, elementary collapses, and an exhaustive collapsibility decision.

The search is depth-first over collapse sequences, memoized on the exact
face set of each intermediate complex.  "Not collapsible" is only ever
reported after that memo-complete search terminates: collapsibility is
order-sensitive, so a failed greedy run proves nothing.  At each node free
pairs of maximal dimension are tried first (lexicographic within a
dimension), which empirically shortens certificates and raises memo hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .complexes import Face, SimplicialComplex, _antichain, _bits

COLLAPSIBLE = "collapsible-with-certificate"
NOT_COLLAPSIBLE = "not-collapsible-exhausted"
INCONCLUSIVE = "inconclusive-budget"

DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class CollapseStep:
    free_face: Face
    coface: Face

    def __post_init__(self):
        if not self.free_face.issubset(self.coface):
            raise ValueError("free face must lie in its coface")
        if self.coface.dim != self.free_face.dim + 1:
            raise ValueError("coface must cover the free face by one dimension")


@dataclass(frozen=True)
class CollapseCertificate:
    """An ordered list of free pairs whose removal ends at ``terminal``."""

    steps: Tuple[CollapseStep, ...]
    terminal: SimplicialComplex


@dataclass(frozen=True)
class CollapseVerdict:
    status: str
    nodes_explored: int
    certificate: Optional[CollapseCertificate] = None

    @property
    def collapsible(self) -> bool:
        return self.status == COLLAPSIBLE


class _BudgetExceeded(Exception):
    pass


def _free_pairs_masks(
    closure: FrozenSet[int], protected: FrozenSet[int]
) -> List[Tuple[int, int]]:
    """Free pairs (tau, sigma) of ``closure``, best-first.

    tau is free iff exactly one face of the closure covers it; any proper
    superface two or more dimensions up forces at least two covers, so
    counting covers suffices.
    """
    covers: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    for face in closure:
        rest = face
        while rest:
            bit = rest & -rest
            sub = face ^ bit
            if sub:
                covers[sub] = covers.get(sub, 0) + 1
                parent[sub] = face
            rest ^= bit
    pairs = [
        (tau, parent[tau])
        for tau, c in covers.items()
        if c == 1 and tau not in protected
    ]
    pairs.sort(key=lambda p: (-p[0].bit_count(), _bits(p[0]), _bits(p[1])))
    return pairs


def _closure_set(k: SimplicialComplex) -> FrozenSet[int]:
    return frozenset(k._face_set)


def _complex_from_closure(closure: Iterable[int]) -> SimplicialComplex:
    return SimplicialComplex._from_facet_masks(_antichain(closure))


def free_faces(k: SimplicialComplex) -> List[CollapseStep]:
    """All free pairs of k in deterministic best-first order."""
    return [
        CollapseStep(Face.from_mask(t), Face.from_mask(s))
        for t, s in _free_pairs_masks(_closure_set(k), frozenset())
    ]


def elementary_collapse(k: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove the free pair {tau, sigma} from the downward closure."""
    closure = _closure_set(k)
    tau, sigma = step.free_face.mask, step.coface.mask
    if (tau, sigma) not in _free_pairs_masks(closure, frozenset()):
        raise ValueError("not a free pair: %r" % (step,))
    return _complex_from_closure(closure - {tau, sigma})


def _search(
    start: FrozenSet[int],
    protected: FrozenSet[int],
    is_terminal,
    budget: Optional[int],
) -> Tuple[Optional[List[Tuple[int, int]]], int, bool]:
    """DFS over collapse sequences; ``budget`` None means unbounded.

    Returns (steps or None, nodes explored, exhausted); ``exhausted`` is
    False exactly when the node budget was hit first.
    """
    dead = set()
    path: List[Tuple[int, int]] = []
    nodes = 0
    # stack holds (closure, iterator over its remaining free pairs)
    if is_terminal(start):
        return [], 0, True
    stack = [(start, iter(_free_pairs_masks(start, protected)))]
    nodes = 1
    while stack:
        closure, pairs = stack[-1]
        advanced = False
        for tau, sigma in pairs:
            child = closure - {tau, sigma}
            if child in dead:
                continue
            path.append((tau, sigma))
            if is_terminal(child):
                return path, nodes, True
            nodes += 1
            if budget is not None and nodes > budget:
                return None, nodes, False
            stack.append((child, iter(_free_pairs_masks(child, protected))))
            advanced = True
            break
        if not advanced:
            dead.add(closure)
            stack.pop()
            if path:
                path.pop()
    return None, nodes, True


def _verdict_from_search(
    steps, nodes: int, exhausted: bool, terminal_of
) -> CollapseVerdict:
    if steps is not None:
        cert_steps = tuple(
            CollapseStep(Face.from_mask(t), Face.from_mask(s)) for t, s in steps
        )
        return CollapseVerdict(
            COLLAPSIBLE, nodes, CollapseCertificate(cert_steps, terminal_of(steps))
        )
    if exhausted:
        return CollapseVerdict(NOT_COLLAPSIBLE, nodes)
    return CollapseVerdict(INCONCLUSIVE, nodes)


def is_collapsible(
    k: SimplicialComplex, budget: Optional[int] = DEFAULT_BUDGET
) -> CollapseVerdict:
    """Decide whether k collapses to a single vertex.

    Exhaustive (memo-complete) for verdict not-collapsible-exhausted;
    budget exhaustion yields the inconclusive status instead.
    """
    if k.is_empty():
        raise ValueError("empty complex is not collapsible")
    start = _closure_set(k)

    def terminal(closure: FrozenSet[int]) -> bool:
        return len(closure) == 1 and next(iter(closure)).bit_count() == 1

    steps, nodes, exhausted = _search(start, frozenset(), terminal, budget)

    def terminal_of(found_steps) -> SimplicialComplex:
        closure = set(start)
        for t, s in found_steps:
            closure -= {t, s}
        return _complex_from_closure(closure)

    return _verdict_from_search(steps, nodes, exhausted, terminal_of)


def collapses_to(
    k: SimplicialComplex,
    l: SimplicialComplex,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> CollapseVerdict:
    """Decide whether k collapses to the subcomplex l (faces of l kept)."""
    target = _closure_set(l)
    start = _closure_set(k)
    if not target <= start:
        raise ValueError("collapses_to needs L to be a subcomplex of K")

    def terminal(closure: FrozenSet[int]) -> bool:
        return closure == target

    steps, nodes, exhausted = _search(start, target, terminal, budget)
    return _verdict_from_search(steps, nodes, exhausted, lambda _: l)


def verify_certificate(k: SimplicialComplex, cert: CollapseCertificate) -> bool:
    """Replay a certificate, re-checking freeness at every stage.

    Deliberately independent of the search: freeness is established by a
    direct scan for proper superfaces.
    """
    closure = set(k._face_set)
    for step in cert.steps:
        tau, sigma = step.free_face.mask, step.coface.mask
        if tau not in closure or sigma not in closure:
            return False
        supers = [f for f in closure if f != tau and tau & ~f == 0]
        if len(supers) != 1 or supers[0] != sigma:
            return False
        closure -= {tau, sigma}
    return _complex_from_closure(closure) == cert.terminal
