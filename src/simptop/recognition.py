"""Combinatorial-manifold checks and the sphere certification pipeline.

The pipeline certifies "combinatorial sphere" for a combinatorial manifold
M that is a GF(2)-homology sphere and carries an induced combinatorial ball
whose complement has at most seven vertices: that complement is then
GF(2)-acyclic, an exhaustive search proves it collapsible, and the verdict
follows with the whole witness chain attached.  Failures are structured
verdicts, never false positives.

Dimension policy: below dimension 4 no link complex is built.  One pass,
``_first_bad_link``, decides every vertex link of a complex of dimension
d <= 3, closed or with boundary, from the vertex's star and the complex's
star table: is it a (d-1)-sphere, a (d-1)-ball, or neither.  That is exact
because there the shape is fixed by local data plus connectivity and the
Euler characteristic: a weak 0-pseudomanifold is two points, a connected
graph of degrees 1 and 2 is a cycle or a path, and by the surface
classification a connected closed surface with chi = 2 is S^2 and a
connected surface with boundary and chi = 1 is a disk.  So manifoldness is
decided exactly up to d = 3; ``_is_sphere(k, d)`` and
``is_combinatorial_ball`` recognize spheres and balls of dimension d <= 2
exactly with the same pass, connectivity and chi, and a 3-ball by the pass
and a collapse search.  For d >= 4 the vertex links are certified
recursively or reduced to the standard sphere by flip search; when neither
settles the question the verdict is inconclusive rather than trusted.  The
ball's complement is built once: from dimension 1 up ``decompose`` checks
the split of M around the ball and returns it, and at dimension 0, where
no split is checked, ``simplicial_complement`` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import collapse as collapse_mod
from . import homology
from .bistellar import (
    PROPER_BISTELLAR,
    MoveDescriptor,
    enumerate_moves,
    flip_search,
)
from .complexes import SimplicialComplex, _bits, _component_count
from .structure import (
    _ridges,
    decompose,
    simplicial_complement,
)

MANIFOLD_YES = "yes"
MANIFOLD_NO = "no"
MANIFOLD_INCONCLUSIVE = "inconclusive"

SPHERE = "combinatorial-sphere"
INCONCLUSIVE = "inconclusive"
PRECONDITION_FAILED = "precondition-failed"

SPHERE_BY_CONTRAPOSITIVE = "sphere-by-contrapositive"
NO_PROPER_MOVE = "no-proper-move"


@dataclass(frozen=True)
class ManifoldVerdict:
    status: str
    witness: Tuple[Tuple[int, str], ...]

    def __bool__(self) -> bool:
        return self.status == MANIFOLD_YES


@dataclass(frozen=True)
class SphereCertificate:
    verdict: str
    reason: Optional[str]
    manifold: Optional[ManifoldVerdict]
    ball: Optional[SimplicialComplex] = None
    ball_evidence: Optional[str] = None
    complement: Optional[SimplicialComplex] = None
    betti_of_complement: Optional[Tuple[int, ...]] = None
    collapse_certificate: Optional[collapse_mod.CollapseCertificate] = None

    def is_sphere(self) -> bool:
        return self.verdict == SPHERE


@dataclass(frozen=True)
class ProperMoveClassification:
    status: str
    witness: Optional[MoveDescriptor]


def _is_sphere(k: SimplicialComplex, d: int) -> bool:
    """Exact combinatorial d-sphere test for d <= 2 (see the module notes)."""
    if k.dim != d:
        return False
    if d == 0:
        return len(k.vertices) == 2
    if _first_bad_link(k) != (None, 0) or not k.is_connected():
        return False
    return d == 1 or k.euler_characteristic() == 2


def _first_bad_link(k: SimplicialComplex) -> Tuple[Optional[int], int]:
    """(v, open) for k, 1 <= dim k = d <= 3: v is the first vertex whose link
    is neither a combinatorial (d-1)-sphere nor a (d-1)-ball, or None, and
    open is the mask of the vertices on a ridge in one facet, whose links are
    not spheres.  Exactly the per-link tests, read off the star S of each
    vertex v without building a link.

    The link's facets are f - v for f in S.  It is a (d-1)-sphere or ball
    when (a) every f in S has d+1 vertices and (b) every ridge of k through v
    lies in one or two facets; that is all for d = 1, and for d >= 2 (c) the
    link is connected, so for d = 2 a cycle or a path.  For d = 3 the link,
    with (a) and (b), has |N| vertices, (3T + B)/2 edges and T = |S|
    triangles, N the vertices of the link and B the ridges through v in one
    facet, so (d) reads 2|N| - T - B = 2 chi, with chi = 2 when B = 0 and
    chi = 1 otherwise; and (e) the edges f - v - w of the link of each vertex
    w of N, of degree 1 or 2 by (b), must form one cycle or path.  The link
    is then a connected surface, closed exactly when B = 0: S^2 when chi = 2,
    and a disk when it has boundary and chi = 1.
    """
    d = k.dim
    # the vertices that fail (a) or (b), and those on a ridge in one facet,
    # read off the star table's faces of d vertices; such a face in no
    # larger facet is one that (a) marks
    bad = open_ = 0
    rims = []
    for f in k.facet_masks:
        if f.bit_count() != d + 1:
            bad |= f
    for ridge, degree in _ridges(k):
        if degree == 1:
            rims.append(ridge)
            open_ |= ridge
        elif degree != 2:
            bad |= ridge
    if d == 1:
        return (_bits(bad)[0] if bad else None), open_
    for v in k.vertices:
        bit = 1 << v
        if bad & bit:
            return v, open_
        link = [f ^ bit for f in k.facet_masks if f & bit]
        if _component_count(link) > 1:
            return v, open_
        if d == 3:
            span = k._star[bit] ^ bit
            b = sum(1 for ridge in rims if ridge & bit)
            if 2 * span.bit_count() - len(link) - b != (2 if b else 4):
                return v, open_
            # the link of an edge vw is f - v - w over the facets f on it,
            # for both ends; a lower end w that passed has checked it
            for w in _bits(span & -(bit << 1)):
                wbit = 1 << w
                if _component_count([g ^ wbit for g in link if g & wbit]) > 1:
                    return v, open_
    return None, open_


def is_combinatorial_ball(
    k: SimplicialComplex, budget: int = collapse_mod.DEFAULT_BUDGET
) -> Optional[bool]:
    """Ball test: exact through dimension 2, sufficient criterion beyond.

    Through d = 3 the vertex links are decided by ``_first_bad_link``, the
    pass that decides manifolds, and no link complex is built: a ball has
    no bad vertex and some vertex on a ridge in one facet.  For d >= 3 a
    collapsible combinatorial manifold with boundary is a ball; the converse
    is not claimed, so False here means "no evidence", reported as None when
    the question stays open.  For d >= 4 a first vertex on a d-face leaves
    the question open.
    """
    collapse_mod._check_budget(budget)
    if k.is_empty():
        return False
    d = k.dim
    if d == 0:
        return len(k.vertices) == 1
    if len(k.vertices) == d + 1 and len(k.facet_masks) == 1:
        return True
    if d >= 4:
        first = k.vertex_mask & -k.vertex_mask
        on_top = any(f & first and f.bit_count() == d + 1 for f in k.facet_masks)
        return None if on_top else False
    bad, open_ = _first_bad_link(k)
    if bad is not None or not open_:
        return False
    if d <= 2:
        # k is a path, or a connected surface with boundary, and one with
        # chi = 1 is a disk: its boundary is one cycle without a test
        return k.is_connected() and (d == 1 or k.euler_characteristic() == 1)
    return True if collapse_mod.is_collapsible(k, budget).collapsible else None


def is_combinatorial_manifold(k: SimplicialComplex) -> ManifoldVerdict:
    """Is every vertex link a combinatorial (d-1)-sphere?

    Exact through d = 3; for d >= 4 each link is attempted recursively and
    by flip search, and an unresolved link makes the verdict inconclusive.
    """
    if k.is_empty():
        return ManifoldVerdict(MANIFOLD_NO, ((-1, "empty complex"),))
    d = k.dim
    if d == 0:
        return ManifoldVerdict(MANIFOLD_YES, ((-1, "0-dimensional point set"),))
    if d <= 3:
        v, open_ = _first_bad_link(k)
        # a vertex on a ridge in one facet has no sphere as its link
        bad = open_ | (0 if v is None else 1 << v)
    else:
        # a pure d-complex has pure (d-1)-dimensional links, so purity is
        # the whole dimension check; the first vertex of a smaller facet
        # fails it
        bad = min((f & -f for f in k.facet_masks if f.bit_count() <= d), default=0)
    if bad:
        return ManifoldVerdict(
            MANIFOLD_NO,
            ((_bits(bad)[0], "link is not a combinatorial %d-sphere" % (d - 1)),),
        )
    if d <= 3:
        said = "link is a combinatorial %d-sphere" % (d - 1)
        return ManifoldVerdict(MANIFOLD_YES, tuple((v, said) for v in k.vertices))
    witness: List[Tuple[int, str]] = []
    inconclusive: List[Tuple[int, str]] = []
    for v in k.vertices:
        link = k.link([v])
        cert = certify_sphere(link)
        if cert.is_sphere():
            witness.append((v, "link certified via induced-ball pipeline"))
            continue
        # unassumed, only the manifold and homology gates fail a
        # precondition: a failed self-check raises
        if cert.verdict == PRECONDITION_FAILED:
            return ManifoldVerdict(MANIFOLD_NO, ((v, f"link: {cert.reason}"),))
        trace = flip_search(link, "standard-sphere", seed=0)
        if trace is not None:
            witness.append((v, "link reduced to the standard sphere by flips"))
            continue
        inconclusive.append((v, "link not certified"))
    if inconclusive:
        return ManifoldVerdict(MANIFOLD_INCONCLUSIVE, tuple(inconclusive))
    return ManifoldVerdict(MANIFOLD_YES, tuple(witness))


def _check_ball_policy(policy) -> None:
    if policy not in ("facet", "greedy"):
        raise ValueError(f"unknown ball policy {policy!r}")


def find_induced_ball(
    m: SimplicialComplex,
    policy: str = "facet",
    budget: int = collapse_mod.DEFAULT_BUDGET,
) -> Optional[Tuple[SimplicialComplex, str]]:
    """An induced combinatorial ball whose complement has at most
    ``collapse.ACYCLIC_VERTEX_BOUND`` = 7 vertices.

    The facet policy takes one facet's span, which is always the standard
    ball; it realizes the n <= d+8 bound.  The greedy policy grows the
    vertex set while the induced subcomplex keeps verifiable ball evidence,
    shrinking the complement the collapse stage must handle; each of its
    collapse searches (dimension >= 3) runs within ``budget`` nodes.
    """
    collapse_mod._check_budget(budget)
    _check_ball_policy(policy)
    if m.is_empty() or not m.is_pure():
        raise ValueError("find_induced_ball needs a pure non-empty complex")
    d = m.dim
    n = len(m.vertices)

    # every face of m on the span of a facet lies in that facet; the facet
    # policy is the greedy loop that takes no step, and so is the greedy
    # policy above dimension 3, where no candidate is a simplex and
    # is_combinatorial_ball never answers True
    ball = SimplicialComplex._from_facet_masks(m.facet_masks[:1])
    evidence = "facet span equals the standard ball"
    while policy == "greedy" and d <= 3 and ball.vertex_mask.bit_count() < n - 1:
        for v in _bits(m.vertex_mask & ~ball.vertex_mask):
            candidate = m.induced(ball.vertex_mask | 1 << v)
            if candidate.dim == d and is_combinatorial_ball(candidate, budget):
                ball = candidate
                evidence = "greedily grown; manifold-with-boundary and collapsible"
                break
        else:
            break
    if n <= ball.vertex_mask.bit_count() + collapse_mod.ACYCLIC_VERTEX_BOUND:
        return ball, evidence
    return None


def certify_sphere(
    m: SimplicialComplex,
    assume_manifold: bool = False,
    ball_policy: str = "facet",
    budget: int = collapse_mod.DEFAULT_BUDGET,
) -> SphereCertificate:
    """Run the full certification pipeline and return the witness chain."""
    collapse_mod._check_budget(budget)
    _check_ball_policy(ball_policy)
    # a string such as "no" is truthy and would skip the manifold gate
    if not isinstance(assume_manifold, bool):
        raise ValueError(f"assume_manifold must be a bool, not {assume_manifold!r}")
    if m.is_empty():
        raise ValueError("certify_sphere needs a non-empty complex")
    d = m.dim

    if assume_manifold:
        manifold = ManifoldVerdict(MANIFOLD_YES, ((-1, "assumed by caller"),))
    else:
        manifold = is_combinatorial_manifold(m)
        if manifold.status == MANIFOLD_NO:
            return SphereCertificate(
                PRECONDITION_FAILED, "not a combinatorial manifold", manifold
            )
        if manifold.status == MANIFOLD_INCONCLUSIVE:
            return SphereCertificate(
                INCONCLUSIVE, "manifold status unresolved", manifold
            )

    if not homology.is_z2_homology_sphere(m, d):
        return SphereCertificate(
            PRECONDITION_FAILED, "not a Z2-homology sphere", manifold
        )

    def self_check_failed(
        reason: str, message: str, cause: Optional[Exception] = None
    ) -> SphereCertificate:
        # on a verified manifold a failed self-check is a bug, not a
        # property of the input; an assumed one is refuted by it
        if assume_manifold:
            return SphereCertificate(PRECONDITION_FAILED, reason, manifold)
        raise RuntimeError(f"pipeline self-check failed: {message}") from cause

    if not m.is_pure():
        return self_check_failed(
            "not pure; the assumed manifold hypothesis fails",
            "a verified combinatorial manifold must be pure",
        )
    found = find_induced_ball(m, ball_policy, budget)
    if found is None:
        return SphereCertificate(
            INCONCLUSIVE,
            "no induced ball found with a <= 7 vertex complement",
            manifold,
        )
    ball, evidence = found

    # the two-sided decomposition re-asserts its own conclusions and returns
    # the complement; boundary complexes make no sense at dimension 0, so
    # there the complement is built alone.  It is never empty: a greedy ball
    # stops short of V(m), and a facet spans V(m) only in a simplex, which
    # the homology gate turned away
    if d == 0:
        complement = simplicial_complement(ball, m)
    else:
        try:
            complement = decompose(m, ball).l
        except (ValueError, RuntimeError) as exc:
            return self_check_failed(f"decomposition failed: {exc}", str(exc), exc)

    betti = homology.reduced_betti(complement)
    if any(betti):
        return self_check_failed(
            "complement not Z2-acyclic; the assumed manifold hypothesis fails",
            "complement of an induced ball in a verified homology-sphere "
            "manifold must be Z2-acyclic",
        )

    verdict = collapse_mod.is_collapsible(complement, budget)
    if verdict.status == collapse_mod.INCONCLUSIVE:
        return SphereCertificate(INCONCLUSIVE, "collapse budget exhausted", manifold)
    if verdict.status == collapse_mod.NOT_COLLAPSIBLE:
        return self_check_failed(
            "acyclic complement not collapsible; the assumed manifold "
            "hypothesis fails",
            "a Z2-acyclic complex on <= 7 vertices did not collapse",
        )
    cert = verdict.certificate
    if not collapse_mod.verify_certificate(complement, cert):
        raise RuntimeError("pipeline self-check failed: collapse certificate replay")
    return SphereCertificate(
        SPHERE, None, manifold, ball, evidence, complement, betti, cert
    )


def classify_proper_moves(m: SimplicialComplex) -> ProperMoveClassification:
    """For a (d+9)-vertex homology-sphere manifold: find a proper move.

    At that vertex count a proper bistellar move is a witness that m is a
    combinatorial sphere (the contrapositive classification); absence of
    proper moves is reported as its own definite outcome.
    """
    if m.is_empty():
        raise ValueError("classify_proper_moves needs a non-empty complex")
    d = m.dim
    if len(m.vertices) != d + 9:
        raise ValueError(
            f"bound mismatch: needs d+9 = {d + 9} vertices, got {len(m.vertices)}"
        )
    manifold = is_combinatorial_manifold(m)
    if manifold.status == MANIFOLD_NO:
        raise ValueError("classify_proper_moves needs a combinatorial manifold")
    if manifold.status == MANIFOLD_INCONCLUSIVE:
        return ProperMoveClassification("inconclusive", None)
    if not homology.is_z2_homology_sphere(m, d):
        raise ValueError("classify_proper_moves needs a Z2-homology d-sphere")
    proper = enumerate_moves(m, (PROPER_BISTELLAR,))
    if proper:
        return ProperMoveClassification(SPHERE_BY_CONTRAPOSITIVE, proper[0])
    return ProperMoveClassification(NO_PROPER_MOVE, None)
