"""Free faces, elementary collapses, and a collapsibility decision.

The search is depth-first over collapse sequences, memoized on the exact
face set of each intermediate complex.  At each node free pairs of maximal
dimension are tried first (lexicographic within a dimension), which
empirically shortens certificates and raises memo hits.

From dimension 3 on, collapsibility is order-sensitive, so a failed greedy
run proves nothing and "not collapsible" is only reported after the
memo-complete search terminates.  In dimension <= 2 one greedy path decides
it: removing a free pair (tau, sigma) leaves every other free pair free
unless that pair uses sigma too, so triangle removal is confluent and every
maximal sequence of collapses removes the same triangles; what is left
collapses exactly when it is a tree (Joswig and Pfetsch 2006).  There the
search never backtracks, and the first node without a free face proves
"not collapsible".  A search towards a protected target stays exhaustive.

Each search takes the faces of its input from the complex, ranked in that
best-first order (dimension descending, then lexicographic vertex tuple)
with the codimension-one faces of every face, and inverts those into the
bitset of faces covering it.  A node is then its closure as a bitset over
ranks and its free faces (exactly one cover in the closure) as a bitset
too, plus the free faces it has yet to try.  A free face has one coface,
so the lowest untried bit names the next pair.  Removing a pair (tau,
sigma) can only change the cover counts of faces directly below tau or
sigma, so a child re-tests just those.  The memo stores the closure ints
themselves, never hashes of them: a collision would mark a live node dead
and fake "not collapsible".

A positive verdict's certificate holds the search's (tau, sigma) masks and
terminal face masks; its ``CollapseStep`` list and terminal complex are
built the first time either is read.  Callers that only read the status,
such as the sampler, never pay for them.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import List, NamedTuple, Optional, Tuple

from .complexes import TABLE_VERTICES, Face, SimplicialComplex, _bits, _is_int

COLLAPSIBLE = "collapsible-with-certificate"
NOT_COLLAPSIBLE = "not-collapsible-exhausted"
INCONCLUSIVE = "inconclusive-budget"

DEFAULT_BUDGET = 50_000_000
# the lemma's bound: a GF(2)-acyclic complex on at most this many vertices
# collapses, so an induced ball whose complement is that small certifies
ACYCLIC_VERTEX_BOUND = TABLE_VERTICES
# dead complexes the exhaustive search may hold before it gives up
MEMO_CAP = 1_000_000


@dataclass(frozen=True)
class CollapseStep:
    free_face: Face
    coface: Face

    def __post_init__(self):
        if not self.free_face.issubset(self.coface):
            raise ValueError("free face must lie in its coface")
        if self.coface.dim != self.free_face.dim + 1:
            raise ValueError("coface must cover the free face by one dimension")


class CollapseCertificate:
    """An ordered list of free pairs whose removal ends at ``terminal``.

    ``CollapseCertificate(steps, terminal)`` holds the given values.  A
    certificate from the search holds masks instead and builds ``steps``
    and ``terminal`` the first time either is read; equality, hashing,
    repr and pickling read them, so both kinds behave alike.
    """

    __slots__ = ("_steps", "_terminal", "_pairs", "_closure")

    def __init__(
        self, steps: Tuple[CollapseStep, ...], terminal: SimplicialComplex
    ) -> None:
        self._fill(steps, terminal, None, None)

    @classmethod
    def _from_masks(
        cls, pairs: List[Tuple[int, int]], closure: List[int]
    ) -> "CollapseCertificate":
        """Trusted constructor: ``pairs`` are the (tau, sigma) masks of a
        valid collapse sequence and ``closure`` the face masks it leaves."""
        cert = object.__new__(cls)
        cert._fill(None, None, pairs, closure)
        return cert

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def steps(self) -> Tuple[CollapseStep, ...]:
        if self._steps is None:
            steps = tuple(
                CollapseStep(Face.from_mask(t), Face.from_mask(s))
                for t, s in self._pairs
            )
            object.__setattr__(self, "_steps", steps)
        return self._steps

    @property
    def terminal(self) -> SimplicialComplex:
        if self._terminal is None:
            terminal = SimplicialComplex._from_faces(self._closure)
            object.__setattr__(self, "_terminal", terminal)
        return self._terminal

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.steps, self.terminal) == (other.steps, other.terminal)

    def __hash__(self) -> int:
        return hash((self.steps, self.terminal))

    def __repr__(self) -> str:
        return "CollapseCertificate(steps=%r, terminal=%r)" % (
            self.steps,
            self.terminal,
        )

    def __reduce__(self):
        return (CollapseCertificate, (self.steps, self.terminal))


@dataclass(frozen=True)
class CollapseVerdict:
    """Outcome of a search, with its work counters.

    ``memo_hits`` counts children skipped because the memo had them as
    dead, ``memo_size`` is the number of dead complexes at the end, and
    ``max_depth`` is the longest collapse sequence the search held.
    """

    status: str
    nodes_explored: int
    certificate: Optional[CollapseCertificate] = None
    memo_hits: int = 0
    memo_size: int = 0
    max_depth: int = 0

    @property
    def collapsible(self) -> bool:
        return self.status == COLLAPSIBLE


class _RankedFaces:
    """The faces of a complex numbered best-first, with their cover tables.

    ``masks[i]`` is face i; ``down[i]`` lists the ranks of its faces one
    dimension lower and ``up[i]`` is the bitset of the ranks covering it.
    """

    __slots__ = ("masks", "down", "up")

    def __init__(self, k: SimplicialComplex) -> None:
        self.masks, self.down = k._ranked_faces()
        self.up = up = [0] * len(self.masks)
        for i, below in enumerate(self.down):
            for j in below:
                up[j] |= 1 << i

    def free(self) -> int:
        """Bitset of the faces with exactly one cover in the whole complex."""
        out = 0
        for i, covers in enumerate(self.up):
            if covers.bit_count() == 1:
                out |= 1 << i
        return out

    def bits_of(self, sub: SimplicialComplex) -> int:
        """The bitset of the ranks of the faces of ``sub``, a subcomplex of
        the complex these faces were ranked from."""
        rank = {m: i for i, m in enumerate(self.masks)}
        return sum(1 << rank[m] for m in sub._face_set)


def free_faces(k: SimplicialComplex) -> List[CollapseStep]:
    """All free pairs of k in deterministic best-first order."""
    ranked = _RankedFaces(k)
    masks, up = ranked.masks, ranked.up
    return [
        CollapseStep(
            Face.from_mask(masks[t]), Face.from_mask(masks[up[t].bit_length() - 1])
        )
        for t in _bits(ranked.free())
    ]


def _superfaces(closure, tau: int) -> List[int]:
    """The faces of ``closure`` that properly contain ``tau``, by a scan."""
    return [f for f in closure if f != tau and tau & ~f == 0]


def elementary_collapse(k: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove the free pair {tau, sigma} from the downward closure."""
    closure = k._face_set
    tau, sigma = step.free_face.mask, step.coface.mask
    if not tau or _superfaces(closure, tau) != [sigma]:
        raise ValueError("not a free pair: %r" % (step,))
    return SimplicialComplex._from_faces(closure - {tau, sigma})


class _SearchResult(NamedTuple):
    steps: Optional[List[Tuple[int, int]]]
    nodes: int
    exhausted: bool
    # the face masks ``steps`` leave; None when ``steps`` is None
    terminal: Optional[List[int]] = None
    memo_hits: int = 0
    memo_size: int = 0
    max_depth: int = 0


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and (not _is_int(budget) or budget < 0):
        raise ValueError(f"node budget must be an int >= 0 or None, not {budget!r}")


def _search(
    k: SimplicialComplex,
    target: Optional[SimplicialComplex],
    budget: Optional[int],
) -> _SearchResult:
    """DFS over collapse sequences; ``budget`` None means unbounded.

    The search ends at a single vertex when ``target`` is None, and
    otherwise at exactly the faces of ``target``, which it never removes.
    ``steps`` lists the (tau, sigma) masks of the pairs removed, or is None,
    and ``terminal`` the faces they leave; ``exhausted`` is False exactly
    when the node budget or ``MEMO_CAP`` was hit first.  Towards a single
    vertex in dimension <= 2 the search follows one greedy path (see the
    module docstring).  A negative or non-int ``budget`` is a ValueError.
    """
    _check_budget(budget)
    ranked = _RankedFaces(k)
    masks, down, up = ranked.masks, ranked.down, ranked.up
    start = (1 << len(masks)) - 1
    goal = None if target is None else ranked.bits_of(target)
    unprotected = ~(goal or 0)
    greedy = goal is None and k.dim <= 2

    # terminal: a single vertex, the only downward-closed set of one face,
    # or exactly the target's faces; the loop below repeats this test inline
    if start & (start - 1) == 0 if goal is None else start == goal:
        return _SearchResult([], 0, True, [masks[i] for i in _bits(start)])
    dead = set()
    path: List[Tuple[int, int]] = []
    free = ranked.free() & unprotected
    # each node is [closure, free faces, free faces not tried yet]
    stack = [[start, free, free]]
    nodes = 1
    memo_hits = max_depth = 0
    while stack:
        node = stack[-1]
        closure, free, untried = node
        while untried:
            low = untried & -untried
            untried ^= low
            t = low.bit_length() - 1
            high = up[t] & closure
            child = closure ^ low ^ high
            if child in dead:
                memo_hits += 1
                continue
            node[2] = untried
            s = high.bit_length() - 1
            path.append((masks[t], masks[s]))
            if len(path) > max_depth:
                max_depth = len(path)
            if child & (child - 1) == 0 if goal is None else child == goal:
                terminal = [masks[i] for i in _bits(child)]
                return _SearchResult(
                    path, nodes, True, terminal, memo_hits, len(dead), max_depth
                )
            nodes += 1
            if budget is not None and nodes > budget:
                return _SearchResult(
                    None, nodes, False, None, memo_hits, len(dead), max_depth
                )
            # only faces right below tau or sigma lost a cover
            child_free = free & ~(low | high)
            for j in down[t] + down[s]:
                if (up[j] & child).bit_count() == 1:
                    child_free |= 1 << j
                else:
                    child_free &= ~(1 << j)
            child_free &= unprotected
            stack.append([child, child_free, child_free])
            break
        else:
            if len(dead) >= MEMO_CAP:
                return _SearchResult(
                    None, nodes, False, None, memo_hits, len(dead), max_depth
                )
            dead.add(closure)
            if greedy:
                break  # this dead end decides: not collapsible
            stack.pop()
            if path:
                path.pop()
    return _SearchResult(None, nodes, True, None, memo_hits, len(dead), max_depth)


def _verdict_from_search(result: _SearchResult) -> CollapseVerdict:
    counters = (result.memo_hits, result.memo_size, result.max_depth)
    if result.steps is not None:
        cert = CollapseCertificate._from_masks(result.steps, result.terminal)
        return CollapseVerdict(COLLAPSIBLE, result.nodes, cert, *counters)
    status = NOT_COLLAPSIBLE if result.exhausted else INCONCLUSIVE
    return CollapseVerdict(status, result.nodes, None, *counters)


def is_collapsible(
    k: SimplicialComplex, budget: Optional[int] = DEFAULT_BUDGET
) -> CollapseVerdict:
    """Decide whether k collapses to a single vertex.

    Not-collapsible-exhausted is proved by one greedy path in dimension
    <= 2 and by the memo-complete search above; running out of budget or
    memo yields the inconclusive status instead.
    """
    if k.is_empty():
        raise ValueError("empty complex is not collapsible")
    return _verdict_from_search(_search(k, None, budget))


def collapses_to(
    k: SimplicialComplex,
    l: SimplicialComplex,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> CollapseVerdict:
    """Decide whether k collapses to the subcomplex l (faces of l kept)."""
    if not l._face_set <= k._face_set:
        raise ValueError("collapses_to needs L to be a subcomplex of K")
    return _verdict_from_search(_search(k, l, budget))


def verify_certificate(k: SimplicialComplex, cert: CollapseCertificate) -> bool:
    """Replay a certificate, re-checking freeness at every stage.

    Deliberately independent of the search: freeness is established by a
    direct scan for proper superfaces.
    """
    closure = set(k._face_set)
    for step in cert.steps:
        tau, sigma = step.free_face.mask, step.coface.mask
        if tau not in closure or _superfaces(closure, tau) != [sigma]:
            return False
        closure -= {tau, sigma}
    return SimplicialComplex._from_faces(closure) == cert.terminal
