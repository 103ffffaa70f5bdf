"""Free faces, elementary collapses, and a collapsibility decision.

The search is depth-first over collapse sequences, memoized on the exact
face set of each intermediate complex.  At each node free pairs of maximal
dimension are tried first (lexicographic within a dimension), which
empirically shortens certificates and raises memo hits.

Every search runs one loop, ``_collapse``, which keeps the pairs it
removed and the free faces of each node it left, and nothing else per
level.  Its first descent removes the lowest free face at every node until
it reaches the goal, a node with no free face, or the node budget; nothing
is dead before that first dead end, so it makes no memo lookup.  At a dead
end it puts the closure in the memo, pops the last pair off the path, puts
the pair back, and tries the free faces of that node ranked after the
pair's free face.  A greedy search (below) stops at its first dead end.
The acyclicity sampler runs the search greedy ahead of its GF(2) rank: a
draw it collapses is contractible, hence acyclic.

From dimension 3 on, collapsibility is order-sensitive, so a failed greedy
run proves nothing and "not collapsible" is only reported after the
memo-complete search terminates.  In dimension <= 2 one greedy path decides
it: removing a free pair (tau, sigma) leaves every other free pair free
unless that pair uses sigma too, so triangle removal is confluent and every
maximal sequence of collapses removes the same triangles; what is left
collapses exactly when it is a tree (Joswig and Pfetsch 2006).  There the
search never backtracks, and the first node without a free face proves
"not collapsible".  A search towards a protected target stays exhaustive.

Each search reads its faces off ``SimplicialComplex._search_faces``, in
that best-first order (dimension descending, then lexicographic vertex
tuple), with the bitsets of the faces covering every face, the ranks right
below every face, a dict of pair neighbourhoods, the start closure and the
start's free faces.  A complex on vertex ids 0..6 reads them off the fixed
face tables: the slice for its dimension starts at the first face of that
dimension, ranks shifted down to 0, and the start node is the complex's
table closure shifted the same way.  Its free faces are read off its
facets (a face is free exactly when one facet holds it and covers it), and
its pair dict is the slice's, kept from search to search.  Any other
complex ranks its own faces, inverts their codimension-one faces into
covers, starts at every rank with the ranks of one cover free, and starts
with an empty pair dict.  The faces come in the same order on both paths,
so both take the same steps.  A node is then its closure as a bitset over
ranks and its free faces (exactly one cover in the closure) as a bitset
too, plus the free faces it has yet to try.  A free face has one coface,
so the lowest untried bit names the next pair.  Removing a pair (tau,
sigma) can only change the cover counts of the faces directly below tau or
sigma, so a child re-tests just those: the pair's neighbourhood lists each
with its covers and its bit, and a search that removes a pair with no
entry yet fills it from ``down``.  The memo stores the closure ints
themselves, never hashes of them: a collision would mark a live node dead
and fake "not collapsible".

A positive verdict's certificate is two mask fields: ``pairs``, the
(tau, sigma) masks of the pairs the search removed, and ``faces``, the
terminal complex's face masks.  Equality and hashing read those, and
``verify_certificate`` replays them.  The certificate's ``CollapseStep``
list and terminal complex are built the first time either is read, so
callers that only read the status, such as the sampler, never pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, List, Optional, Tuple

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


@dataclass(frozen=True, init=False, repr=False)
class CollapseCertificate:
    """An ordered list of free pairs whose removal ends at ``terminal``.

    It holds masks: ``pairs`` are the (tau, sigma) masks of the steps and
    ``faces`` the terminal complex's face masks; equality and hashing
    compare those.  ``CollapseCertificate(steps, terminal)`` also keeps the
    given values, and a certificate from the search builds ``steps`` and
    ``terminal`` the first time either is read.
    """

    pairs: Tuple[Tuple[int, int], ...]
    faces: FrozenSet[int]

    def __init__(
        self, steps: Tuple[CollapseStep, ...], terminal: SimplicialComplex
    ) -> None:
        steps = tuple(steps)
        pairs = tuple((s.free_face.mask, s.coface.mask) for s in steps)
        faces = frozenset(terminal._star)
        # the given values count as already read
        vars(self).update(pairs=pairs, faces=faces, steps=steps, terminal=terminal)

    @classmethod
    def _from_masks(
        cls, pairs: Tuple[Tuple[int, int], ...], faces: FrozenSet[int]
    ) -> "CollapseCertificate":
        """Trusted constructor: ``pairs`` are the (tau, sigma) masks of a
        valid collapse sequence and ``faces`` the face masks it leaves."""
        cert = object.__new__(cls)
        vars(cert).update(pairs=pairs, faces=faces)
        return cert

    @cached_property
    def steps(self) -> Tuple[CollapseStep, ...]:
        return tuple(
            CollapseStep(Face.from_mask(t), Face.from_mask(s)) for t, s in self.pairs
        )

    @cached_property
    def terminal(self) -> SimplicialComplex:
        return SimplicialComplex._from_faces(self.faces)

    def __repr__(self) -> str:
        return f"CollapseCertificate(steps={self.steps!r}, terminal={self.terminal!r})"


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


def free_faces(k: SimplicialComplex) -> List[CollapseStep]:
    """All free pairs of k in deterministic best-first order: the start
    free faces of a collapse search, each with its one cover."""
    masks, up, _, _, closure, free = k._search_faces()
    return [
        CollapseStep(
            Face.from_mask(masks[t]),
            Face.from_mask(masks[(up[t] & closure).bit_length() - 1]),
        )
        for t in _bits(free)
    ]


def _superfaces(closure, tau: int) -> List[int]:
    """The faces of ``closure`` that properly contain ``tau``, by a scan."""
    return [f for f in closure if f != tau and tau & ~f == 0]


def elementary_collapse(k: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove the free pair {tau, sigma} from the downward closure."""
    closure = k._star.keys()
    tau, sigma = step.free_face.mask, step.coface.mask
    if not tau or _superfaces(closure, tau) != [sigma]:
        raise ValueError("not a free pair: %r" % (step,))
    return SimplicialComplex._from_faces(closure - {tau, sigma})


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and (not _is_int(budget) or budget < 0):
        raise ValueError(f"node budget must be an int >= 0 or None, not {budget!r}")


def _pair_cells(up, down, t: int, high: int) -> Tuple[Tuple[int, int], ...]:
    """The neighbourhood of the pair of tau, rank t, and sigma, the one bit
    of ``high``: each face right below tau or sigma other than tau, with
    its covers and its bit."""
    s = high.bit_length() - 1
    return tuple((up[j], 1 << j) for j in down[t] + down[s] if j != t)


def _certificate(masks, path: List[int], closure: int) -> CollapseCertificate:
    """The certificate of a search that removed the pairs in ``path``, each
    a bitset over ranks, and ended at ``closure``.  A cover ranks before
    the faces it covers, so a pair's top bit is tau and its lowest bit
    sigma."""
    pairs = tuple(
        (masks[p.bit_length() - 1], masks[(p & -p).bit_length() - 1]) for p in path
    )
    faces = frozenset(masks[i] for i in _bits(closure))
    return CollapseCertificate._from_masks(pairs, faces)


def _collapse(up, down, pairs, closure: int, free: int, goal, budget, greedy):
    """The search loop: from ``closure`` with free faces ``free``, remove
    the lowest untried free face and its cover until the goal; at a node
    with no untried free face, mark it dead and backtrack.

    ``goal`` None is a single vertex; otherwise it is the target's closure,
    whose faces are never removed.  The start counts as a node, and so does
    every node past it but the goal; the search is inconclusive at the
    first node past ``budget`` (None is unbounded) or at a dead end with
    ``MEMO_CAP`` dead complexes held.  With ``greedy`` the first dead end
    ends the search.  Returns ``(status, nodes, closure, path, memo_hits,
    memo_size, max_depth)``, ``closure`` the last node and ``path`` the
    pairs removed, as bitsets over ranks.

    A node is its closure, its free faces and those it has yet to try;
    ``frees`` holds the free faces of each node a pair was removed from.
    Faces are tried lowest rank first, and a pair's top bit is tau, since a
    cover ranks before the faces it covers; so a node the search backtracks
    to has tried or skipped every free face up to tau, and dead stays dead.
    Nothing is dead before the first dead end, so until then no memo
    lookup is made.
    """
    path: List[int] = []
    frees: List[int] = []
    # terminal: a single vertex, the only downward-closed set of one face,
    # or exactly the target's faces; the loop repeats this test inline
    if closure & (closure - 1) == 0 if goal is None else closure == goal:
        return COLLAPSIBLE, 0, closure, path, 0, 0, 0
    unprotected = ~(goal or 0)
    untried = free = free & unprotected
    dead = set()
    nodes = 1
    memo_hits = max_depth = 0
    while True:
        while untried:
            low = untried & -untried
            t = low.bit_length() - 1
            high = up[t] & closure
            pair = low | high
            if dead and closure ^ pair in dead:
                memo_hits += 1
                untried ^= low
                continue
            closure ^= pair
            path.append(pair)
            frees.append(free)
            if closure & (closure - 1) == 0 if goal is None else closure == goal:
                depth = max(max_depth, len(path))
                return COLLAPSIBLE, nodes, closure, path, memo_hits, len(dead), depth
            nodes += 1
            if budget is not None and nodes > budget:
                depth = max(max_depth, len(path))
                return INCONCLUSIVE, nodes, closure, path, memo_hits, len(dead), depth
            # only faces right below tau or sigma lost a cover
            free &= ~pair
            try:
                cells = pairs[pair]
            except KeyError:
                cells = pairs[pair] = _pair_cells(up, down, t, high)
            for covers, bit in cells:
                if (covers & closure).bit_count() == 1:
                    free |= bit
                else:
                    free &= ~bit
            untried = free = free & unprotected
        # a dead end, where the path is at its longest
        if len(path) > max_depth:
            max_depth = len(path)
        if len(dead) >= MEMO_CAP:
            return INCONCLUSIVE, nodes, closure, path, memo_hits, len(dead), max_depth
        dead.add(closure)
        if greedy or not path:
            return (
                NOT_COLLAPSIBLE, nodes, closure, path, memo_hits, len(dead), max_depth
            )
        pair = path.pop()
        closure ^= pair
        free = frees.pop()
        untried = free & -(1 << pair.bit_length())


def _greedy_collapses(k: SimplicialComplex, budget: Optional[int]) -> bool:
    """The search loop's greedy mode: whether the first descent of
    ``is_collapsible(k, budget)`` collapses k to a single vertex, so that
    the search would return it as the certificate; False at a dead end or
    past the budget."""
    _, up, down, pairs, start, free = k._search_faces()
    status = _collapse(up, down, pairs, start, free, None, budget, True)[0]
    return status == COLLAPSIBLE


def _search(
    k: SimplicialComplex,
    target: Optional[SimplicialComplex],
    budget: Optional[int],
) -> CollapseVerdict:
    """DFS over collapse sequences; ``budget`` None means unbounded.

    The search ends at a single vertex when ``target`` is None, and
    otherwise at exactly the faces of ``target``, which it never removes.
    The verdict is inconclusive exactly when the node budget or
    ``MEMO_CAP`` was hit first.  Towards a single vertex in dimension <= 2
    the first dead end decides (see the module docstring), so ``_collapse``
    runs greedy there.  A negative or non-int ``budget`` is a ValueError.
    """
    _check_budget(budget)
    masks, up, down, pairs, start, free = k._search_faces()
    goal = None
    if target is not None:
        rank = {m: i for i, m in enumerate(masks)}
        goal = sum(1 << rank[m] for m in target._star)
    greedy = goal is None and k.dim <= 2
    status, nodes, closure, path, memo_hits, memo_size, max_depth = _collapse(
        up, down, pairs, start, free, goal, budget, greedy
    )
    cert = _certificate(masks, path, closure) if status == COLLAPSIBLE else None
    return CollapseVerdict(status, nodes, cert, memo_hits, memo_size, max_depth)


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
    return _search(k, None, budget)


def collapses_to(
    k: SimplicialComplex,
    l: SimplicialComplex,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> CollapseVerdict:
    """Decide whether k collapses to the subcomplex l (faces of l kept).

    No collapse removes the last vertex, so an empty l is a ValueError.
    """
    if l.is_empty():
        raise ValueError("no complex collapses to the empty complex")
    if not l._star.keys() <= k._star.keys():
        raise ValueError("collapses_to needs L to be a subcomplex of K")
    return _search(k, l, budget)


def verify_certificate(k: SimplicialComplex, cert: CollapseCertificate) -> bool:
    """Replay a certificate's masks, re-checking freeness at every stage.

    Deliberately independent of the search: freeness is established by a
    direct scan for proper superfaces.
    """
    closure = set(k._star)
    for tau, sigma in cert.pairs:
        if tau not in closure or _superfaces(closure, tau) != [sigma]:
            return False
        closure -= {tau, sigma}
    return closure == cert.faces
