import functools
import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest

from simptop import (
    SimplicialComplex,
    are_isomorphic,
    catalog,
    certify_sphere,
    classify_proper_moves,
    find_induced_ball,
    from_facets,
    is_combinatorial_manifold,
    join,
    random_bistellar_walk,
    relabel,
    standard_ball,
    standard_sphere,
    verify_certificate,
)
from simptop import census, homology, recognition, reports
from simptop import collapse as collapse_mod
from simptop.bistellar import apply_generalized_move
from simptop.census import (
    CONSTRAINT_BOUNDARY,
    CONSTRAINT_EVEN,
    CensusSpec,
    enumerate_census,
)
from simptop.homology import reduced_betti
from simptop.recognition import (
    INCONCLUSIVE,
    MANIFOLD_INCONCLUSIVE,
    MANIFOLD_NO,
    MANIFOLD_YES,
    NO_PROPER_MOVE,
    PRECONDITION_FAILED,
    SPHERE,
    SPHERE_BY_CONTRAPOSITIVE,
    ManifoldVerdict,
    _is_sphere,
    is_combinatorial_ball,
)
from simptop.structure import (
    boundary_complex,
    is_pseudomanifold,
    is_weak_pm_with_boundary,
    is_weak_pseudomanifold,
)

from conftest import (
    oracle_boundary_complex,
    oracle_induced,
    oracle_is_pseudomanifold,
    oracle_is_weak_pm_with_boundary,
    oracle_is_weak_pseudomanifold,
    sc,
    stacked_sphere,
)


def moebius_kantor_torus():
    """The 7-vertex 2-neighborly torus: facets {i, i+1, i+3} and {i, i+2, i+3}."""
    return from_facets(
        [tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
        + [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    )


def starred_sphere(d, extra_vertices, seed):
    rng = random.Random(seed)
    s = standard_sphere(d, tuple(range(d + 2)))
    while len(s.vertices) < d + 2 + extra_vertices:
        fresh = max(s.vertices) + 1
        facet = rng.choice(s.facet_masks)
        s = apply_generalized_move(s, facet | (1 << fresh))
    return s


class TestManifoldCheck:
    def test_sigma5_yes(self):
        assert is_combinatorial_manifold(catalog.get("Sigma5").complex).status == MANIFOLD_YES

    def test_rp2_is_a_2_manifold(self, rp2):
        assert is_combinatorial_manifold(rp2).status == MANIFOLD_YES

    def test_upsilon1_no(self):
        verdict = is_combinatorial_manifold(catalog.get("Upsilon1").complex)
        assert verdict.status == MANIFOLD_NO
        assert any(v == 7 for v, _ in verdict.witness)

    def test_cycles_are_1_manifolds(self):
        assert is_combinatorial_manifold(catalog.get("S1_6").complex).status == MANIFOLD_YES
        path = sc((1, 2), (2, 3))
        assert is_combinatorial_manifold(path).status == MANIFOLD_NO

    def test_s4_manifold_via_recursion(self):
        s = standard_sphere(4, tuple(range(6)))
        assert is_combinatorial_manifold(s).status == MANIFOLD_YES

    def test_torus_is_a_manifold(self):
        assert is_combinatorial_manifold(moebius_kantor_torus()).status == MANIFOLD_YES

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_a_lower_dimensional_component_is_no_manifold(self, d):
        """The links of the triangle boundary on 6, 7 and 8 are 0-spheres,
        not (d-1)-spheres: in every dimension the first of its vertices
        fails, the purity check for d >= 4 as the link pass for d = 3."""
        k = from_facets(
            list(itertools.combinations(range(d + 2), d + 1))
            + list(itertools.combinations((6, 7, 8), 2))
        )
        said = "link is not a combinatorial %d-sphere" % (d - 1)
        verdict = is_combinatorial_manifold(k)
        assert verdict == ManifoldVerdict(MANIFOLD_NO, ((6, said),))
        cert = certify_sphere(k)
        assert (cert.verdict, cert.reason) == (
            PRECONDITION_FAILED,
            "not a combinatorial manifold",
        )


class TestFindInducedBall:
    def test_facet_policy_s3(self):
        m = standard_sphere(3, (1, 2, 3, 4, 5))
        ball, evidence = find_induced_ball(m)
        assert ball == standard_ball(3, (1, 2, 3, 4))
        assert "facet" in evidence

    def test_greedy_octahedron_grows_to_closed_star(self):
        octa = catalog.get("octahedron").complex
        ball, evidence = find_induced_ball(octa, "greedy")
        assert len(ball.vertices) == 5
        assert "grown" in evidence

    def test_sigma2_within_bound(self):
        ball, _ = find_induced_ball(catalog.get("Sigma2").complex)
        assert len(ball.vertices) == 3  # 7 <= 3 + 7

    def test_ball_checks(self):
        assert is_combinatorial_ball(standard_ball(2, (1, 2, 3)))
        assert is_combinatorial_ball(sc((1, 2), (2, 3)))
        assert not is_combinatorial_ball(standard_sphere(2, (1, 2, 3, 4)))
        assert not is_combinatorial_ball(catalog.get("S1_5").complex)


class TestCertifySphere:
    def test_standard_spheres(self):
        for d in (2, 3, 4):
            cert = certify_sphere(standard_sphere(d, tuple(range(d + 2))))
            assert cert.verdict == SPHERE
            assert cert.complement.f_vector() == (1,)

    def test_sigma2_certifies(self):
        cert = certify_sphere(catalog.get("Sigma2").complex)
        assert cert.verdict == SPHERE
        assert not any(cert.betti_of_complement)
        assert verify_certificate(cert.complement, cert.collapse_certificate)

    def test_rp2_rejected_at_homology_gate(self, rp2):
        cert = certify_sphere(rp2)
        assert cert.verdict == PRECONDITION_FAILED
        assert cert.reason == "not a Z2-homology sphere"

    def test_upsilon1_rejected_at_manifold_gate(self):
        cert = certify_sphere(catalog.get("Upsilon1").complex)
        assert cert.verdict == PRECONDITION_FAILED
        assert cert.reason == "not a combinatorial manifold"

    def test_torus_rejected_at_homology_gate(self):
        cert = certify_sphere(moebius_kantor_torus())
        assert cert.verdict == PRECONDITION_FAILED
        assert cert.reason == "not a Z2-homology sphere"
        assert reduced_betti(moebius_kantor_torus()) == (0, 2, 1)

    def test_verdict_relabel_invariant(self):
        for name in ("Sigma3", "RP2_6", "Upsilon1"):
            k = catalog.get(name).complex
            image = relabel(k, {v: v + 20 for v in k.vertices})
            assert certify_sphere(k).verdict == certify_sphere(image).verdict

    def test_zero_budget_is_inconclusive(self):
        cert = certify_sphere(catalog.get("Sigma2").complex, budget=0)
        assert cert.verdict == INCONCLUSIVE
        assert cert.reason == "collapse budget exhausted"

    def test_budget_reaches_the_greedy_ball_stage(self, monkeypatch):
        m = random_bistellar_walk(standard_sphere(3), 40, seed=3, max_vertices=11)
        budgets = []
        search = collapse_mod.is_collapsible

        def recording(k, budget=collapse_mod.DEFAULT_BUDGET):
            budgets.append(budget)
            return search(k, budget)

        monkeypatch.setattr(collapse_mod, "is_collapsible", recording)
        cert = certify_sphere(m, ball_policy="greedy", budget=5000)
        assert cert.verdict == SPHERE
        assert len(budgets) > 1
        assert budgets == [5000] * len(budgets)

    def test_assumed_manifold_that_is_no_pseudomanifold(self):
        cert = certify_sphere(catalog.get("R").complex, assume_manifold=True)
        assert cert.verdict == PRECONDITION_FAILED
        assert cert.reason == "decomposition failed: decompose: y is not a pseudomanifold"

    @pytest.mark.parametrize(
        "assume, reason",
        [
            (False, "not a combinatorial manifold"),
            (True, "not pure; the assumed manifold hypothesis fails"),
        ],
    )
    def test_non_pure_homology_sphere(self, assume, reason):
        """The tetrahedron boundary with a pendant edge has the Betti
        numbers of a 2-sphere and no induced ball to find: unassumed the
        manifold gate turns it away, and assumed a manifold it is refuted."""
        m = sc((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (4, 5))
        assert reduced_betti(m) == (0, 0, 1)
        cert = certify_sphere(m, assume_manifold=assume)
        assert (cert.verdict, cert.reason) == (PRECONDITION_FAILED, reason)
        assert cert.ball is None and cert.complement is None

    def test_assume_manifold_mode(self):
        s = catalog.get("Sigma3").complex
        cert = certify_sphere(s, assume_manifold=True)
        assert cert.verdict == SPHERE
        assert cert.manifold.witness[0][1] == "assumed by caller"

    @pytest.mark.parametrize("d", range(5))
    def test_standard_balls_stop_at_a_gate(self, d):
        # a ball's complement is empty only when the ball spans all of m, so
        # m a simplex, and a simplex never passes the homology gate
        for policy in ("facet", "greedy"):
            for assume in (False, True):
                cert = certify_sphere(
                    standard_ball(d), assume_manifold=assume, ball_policy=policy
                )
                if assume or d == 0:
                    reason = "not a Z2-homology sphere"
                else:
                    reason = "not a combinatorial manifold"
                assert (cert.verdict, cert.reason) == (PRECONDITION_FAILED, reason)

    def test_low_dimensional_spheres(self):
        assert certify_sphere(standard_sphere(0, (1, 2))).verdict == SPHERE
        assert certify_sphere(standard_sphere(1, (1, 2, 3))).verdict == SPHERE
        assert certify_sphere(catalog.get("S1_6").complex).verdict == SPHERE

    def test_walked_spheres_certify(self):
        for d in (2, 3):
            for seed in range(5):
                m = random_bistellar_walk(
                    standard_sphere(d, tuple(range(1, d + 3))),
                    10,
                    seed=seed,
                    max_vertices=d + 8,
                )
                cert = certify_sphere(m)
                assert cert.verdict == SPHERE
                assert verify_certificate(cert.complement, cert.collapse_certificate)


@functools.cache
def suspended_walked_s3():
    """A 4-sphere on 14 vertices: a walked 3-sphere on 12 vertices suspended
    on 40 and 41.  Some vertex links, those of 40 and 41 among them, are
    3-spheres above the d + 8 = 11 vertex bound, so no facet ball certifies
    them and the manifold check reduces them by flips; the others certify.
    The whole is above its own bound of 12 vertices."""
    s3 = random_bistellar_walk(stacked_sphere(3, 12), 20, seed=1, max_vertices=12)
    return join(s3, standard_sphere(0, (40, 41)))


class TestFlipFallback:
    def test_links_above_the_bound_reduce_by_flips(self):
        verdict = is_combinatorial_manifold(suspended_walked_s3())
        assert verdict.status == MANIFOLD_YES
        by_flips = {v for v, said in verdict.witness if "flips" in said}
        assert {40, 41} <= by_flips
        assert {said for _, said in verdict.witness} == {
            "link certified via induced-ball pipeline",
            "link reduced to the standard sphere by flips",
        }

    def test_unreduced_links_leave_the_manifold_status_open(self, monkeypatch):
        monkeypatch.setattr(recognition, "flip_search", lambda *args, **kwargs: None)
        m = suspended_walked_s3()
        verdict = is_combinatorial_manifold(m)
        assert verdict.status == MANIFOLD_INCONCLUSIVE
        assert {40, 41} <= {v for v, _ in verdict.witness}
        assert {said for _, said in verdict.witness} == {"link not certified"}
        cert = certify_sphere(m)
        assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "manifold status unresolved")
        assert cert.manifold == verdict

    @pytest.mark.parametrize("policy", ["facet", "greedy"])
    def test_no_ball_within_the_bound(self, policy, monkeypatch):
        # no candidate of dimension 4 passes the ball test, so the greedy
        # policy keeps the facet as well, without inducing a candidate, and
        # 14 > 5 + 7
        m = suspended_walked_s3()
        built = []
        induced = SimplicialComplex.induced

        def recording(k, u):
            built.append(u)
            return induced(k, u)

        monkeypatch.setattr(SimplicialComplex, "induced", recording)
        assert find_induced_ball(m, policy) is None
        assert built == []
        cert = certify_sphere(m, assume_manifold=True, ball_policy=policy)
        assert (cert.verdict, cert.reason) == (
            INCONCLUSIVE,
            "no induced ball found with a <= 7 vertex complement",
        )


def _failing_decomposition(monkeypatch):
    error = RuntimeError("decompose self-check failed: boundaries differ")

    def failing(y, y1):
        raise error

    monkeypatch.setattr(recognition, "decompose", failing)
    return error


def _cyclic_complement(monkeypatch):
    # the homology gate stays real; only the complement's Betti numbers lie
    gates = SimpleNamespace(
        is_z2_homology_sphere=homology.is_z2_homology_sphere,
        reduced_betti=lambda k: (0,) * k.dim + (1,),
    )
    monkeypatch.setattr(recognition, "homology", gates)


def _stuck_complement(monkeypatch):
    stuck = collapse_mod.CollapseVerdict(collapse_mod.NOT_COLLAPSIBLE, 1)
    monkeypatch.setattr(collapse_mod, "is_collapsible", lambda k, budget=None: stuck)


SELF_CHECK_FAILURES = [
    (
        _failing_decomposition,
        "decomposition failed: decompose self-check failed: boundaries differ",
        "pipeline self-check failed: decompose self-check failed: boundaries differ",
    ),
    (
        _cyclic_complement,
        "complement not Z2-acyclic; the assumed manifold hypothesis fails",
        "pipeline self-check failed: complement of an induced ball in a "
        "verified homology-sphere manifold must be Z2-acyclic",
    ),
    (
        _stuck_complement,
        "acyclic complement not collapsible; the assumed manifold hypothesis fails",
        "pipeline self-check failed: a Z2-acyclic complex on <= 7 vertices "
        "did not collapse",
    ),
]


class TestSelfCheckFailures:
    """A failed self-check refutes an assumed manifold hypothesis and is a
    bug on a verified manifold."""

    @pytest.mark.parametrize("fail, reason, message", SELF_CHECK_FAILURES)
    def test_assumed_manifold_is_refuted(self, monkeypatch, fail, reason, message):
        fail(monkeypatch)
        cert = certify_sphere(catalog.get("Sigma2").complex, assume_manifold=True)
        assert (cert.verdict, cert.reason) == (PRECONDITION_FAILED, reason)
        assert cert.manifold.witness == ((-1, "assumed by caller"),)
        assert cert.ball is None and cert.complement is None

    @pytest.mark.parametrize("fail, reason, message", SELF_CHECK_FAILURES)
    def test_verified_manifold_raises(self, monkeypatch, fail, reason, message):
        cause = fail(monkeypatch)
        with pytest.raises(RuntimeError) as info:
            certify_sphere(catalog.get("Sigma2").complex)
        assert str(info.value) == message
        assert info.value.__cause__ is cause


class TestProperMoveClassification:
    def test_bound_mismatch(self):
        with pytest.raises(ValueError, match="bound mismatch"):
            classify_proper_moves(standard_sphere(3, (1, 2, 3, 4, 5)))

    def test_twelve_vertex_3_sphere(self):
        m = starred_sphere(3, 7, seed=42)
        assert len(m.vertices) == 12
        result = classify_proper_moves(m)
        assert result.status == SPHERE_BY_CONTRAPOSITIVE
        assert result.witness is not None
        assert 1 <= result.witness.i <= 2

    def test_eleven_vertex_2_sphere(self):
        m = starred_sphere(2, 7, seed=7)
        assert len(m.vertices) == 11
        result = classify_proper_moves(m)
        assert result.status == SPHERE_BY_CONTRAPOSITIVE

    def test_non_homology_sphere_rejected(self):
        # an 11-vertex torus: subdivide the 7-vertex one
        torus = moebius_kantor_torus()
        rng = random.Random(3)
        while len(torus.vertices) < 11:
            fresh = max(torus.vertices) + 1
            torus = apply_generalized_move(
                torus, rng.choice(torus.facet_masks) | (1 << fresh)
            )
        with pytest.raises(ValueError, match="homology"):
            classify_proper_moves(torus)


def pinched_octahedra():
    """Two octahedra sharing an antipodal pair: connected, chi = 2, every
    edge of degree 2, but pinched at the shared vertices 1 and 2."""
    a = catalog.get("octahedron").complex
    b = relabel(a, {1: 1, 2: 2, 3: 13, 4: 14, 5: 15, 6: 16})
    return from_facets(a.facet_tuples() + b.facet_tuples())


class TestTwoSphereTest:
    def test_pinched_chi_two_complex_is_not_a_sphere(self):
        pinched = pinched_octahedra()
        assert pinched.euler_characteristic() == 2
        assert not _is_sphere(pinched, 2)
        assert _is_sphere(catalog.get("Sigma1").complex, 2)


# --- oracle copies of the shape helpers that _is_sphere and
# is_combinatorial_ball replaced; they build one link complex per vertex


def _oracle_graph_degrees(k):
    degrees = {}
    for e in k.facet_tuples():
        for v in e:
            degrees[v] = degrees.get(v, 0) + 1
    return list(degrees.values())


def _oracle_is_cycle(k):
    if k.is_empty() or k.dim != 1 or not k.is_pure():
        return False
    fvec = k.f_vector()
    if fvec[0] != fvec[1] or fvec[0] < 3:
        return False
    return all(d == 2 for d in _oracle_graph_degrees(k)) and k.is_connected()


def _oracle_is_two_sphere(k):
    if k.is_empty() or k.dim != 2 or not k.is_pure():
        return False
    if not oracle_is_weak_pseudomanifold(k) or not k.is_connected():
        return False
    if k.euler_characteristic() != 2:
        return False
    return all(_oracle_is_cycle(k.link([v])) for v in k.vertices)


def _oracle_is_path(k):
    if k.is_empty() or k.dim != 1 or not k.is_pure():
        return False
    fvec = k.f_vector()
    if fvec[0] != fvec[1] + 1:
        return False
    return max(_oracle_graph_degrees(k)) <= 2 and k.is_connected()


def _oracle_is_disk(k):
    if k.is_empty() or k.dim != 2 or not k.is_pure() or not k.is_connected():
        return False
    if not oracle_is_weak_pm_with_boundary(k):
        return False
    if k.euler_characteristic() != 1:
        return False
    for v in k.vertices:
        link = k.link([v])
        if not (
            _oracle_is_cycle(link) or _oracle_is_path(link) or link.f_vector() == (1,)
        ):
            return False
    try:
        return _oracle_is_cycle(oracle_boundary_complex(k))
    except ValueError:
        return False


def _oracle_link_is_sphere_exact(link, dim):
    if dim == 0:
        return link.f_vector() == (2,)
    if dim == 1:
        return _oracle_is_cycle(link)
    return _oracle_is_two_sphere(link)


def _oracle_is_manifold_with_boundary(k):
    d = k.dim
    saw_ball = False
    for v in k.vertices:
        link = k.link([v])
        if link.dim != d - 1:
            return False
        if d - 1 <= 2:
            if _oracle_link_is_sphere_exact(link, d - 1):
                continue
            if _oracle_is_combinatorial_ball(link):
                saw_ball = True
                continue
            return False
        return None
    return saw_ball


def _oracle_is_combinatorial_ball(k, budget=collapse_mod.DEFAULT_BUDGET):
    if k.is_empty():
        return False
    d = k.dim
    if d == 0:
        return len(k.vertices) == 1
    if d == 1:
        return _oracle_is_path(k)
    if d == 2:
        return _oracle_is_disk(k)
    if len(k.vertices) == d + 1 and len(k.facet_masks) == 1:
        return True
    mwb = _oracle_is_manifold_with_boundary(k)
    if mwb is None:
        return None
    if not mwb:
        return False
    return True if collapse_mod.is_collapsible(k, budget).collapsible else None


def _oracle_manifold_verdict(k):
    """The exact branch of is_combinatorial_manifold, d <= 3, one link
    complex per vertex, with the verdict's witness texts."""
    if k.is_empty():
        return ManifoldVerdict(MANIFOLD_NO, ((-1, "empty complex"),))
    d = k.dim
    if d == 0:
        return ManifoldVerdict(MANIFOLD_YES, ((-1, "0-dimensional point set"),))
    witness = []
    for v in k.vertices:
        if not _oracle_link_is_sphere_exact(k.link([v]), d - 1):
            return ManifoldVerdict(
                MANIFOLD_NO, ((v, "link is not a combinatorial %d-sphere" % (d - 1)),)
            )
        witness.append((v, "link is a combinatorial %d-sphere" % (d - 1)))
    return ManifoldVerdict(MANIFOLD_YES, tuple(witness))


def _with_links(tag, k):
    yield tag, k
    for v in k.vertices:
        yield f"{tag}:lk{v}", k.link([v])


def _family_catalog():
    for name in catalog.names():
        yield from _with_links(name, catalog.get(name).complex)


def _family_census():
    specs = {
        "closed6": CensusSpec(n_vertices=6),
        "even7": CensusSpec(n_vertices=7, max_facets=10, constraint=CONSTRAINT_EVEN),
        "boundary6": CensusSpec(n_vertices=6, constraint=CONSTRAINT_BOUNDARY),
    }
    for label, spec in specs.items():
        for i, k in enumerate(enumerate_census(spec).representatives):
            yield f"{label}:{i}", k
    boundary5 = CensusSpec(n_vertices=5, constraint=CONSTRAINT_BOUNDARY)
    labeled, _ = census._enumerate(boundary5)
    for i, masks in enumerate(sorted(labeled)):
        yield f"boundary5-labeled:{i}", SimplicialComplex._from_facet_masks(masks)


def _family_walked():
    rng = random.Random(20261018)
    for d in (2, 3):
        for seed in range(12):
            m = random_bistellar_walk(
                standard_sphere(d, tuple(range(1, d + 3))),
                5 + seed,
                seed=seed,
                max_vertices=d + 8,
            )
            yield from _with_links(f"walk{d}:{seed}", m)
            for j in range(4):
                vs = [v for v in m.vertices if rng.random() < 0.6]
                if vs:
                    yield f"walk{d}:{seed}:induced{j}", m.induced(vs)


def _family_random():
    rng = random.Random(8191)
    for i in range(1500):
        n = rng.randint(1, 7)
        dim = rng.randint(0, 3)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        faces = []
        for q in range(dim + 1):
            if q == dim or rng.random() < 0.3:
                faces += [
                    c
                    for c in itertools.combinations(range(n), q + 1)
                    if rng.random() < p
                ]
        yield f"random:{i}", from_facets(faces or [tuple(range(min(n, dim + 1)))])


def _family_cones():
    bases = list(_family_catalog()) + list(_family_walked())[::5]
    for tag, k in bases:
        if 0 <= k.dim <= 2 and max(k.vertices) < 63:
            yield f"cone:{tag}", k.cone(max(k.vertices) + 1)


def _family_apexes():
    # 3-complexes whose apexes have a connected weak 2-pseudomanifold as
    # link.  The suspensions on 40 and 41: of RP^2 (chi = 1), of the torus
    # (chi = 0) and of the pinched octahedra, where the links of the edges
    # from an apex to 1 or 2 are two cycles.  The cone from 0 over RP^2 and
    # an octahedron sharing vertex 1: chi = 2, and only the link of the edge
    # 0 1 is two cycles
    poles = SimplicialComplex([(40,), (41,)])
    rp2 = catalog.get("RP2_6").complex
    bases = {
        "RP2_6": rp2,
        "torus": moebius_kantor_torus(),
        "pinched": pinched_octahedra(),
    }
    for tag, k in bases.items():
        yield from _with_links(f"susp:{tag}", join(k, poles))
    octahedron = relabel(
        catalog.get("octahedron").complex, {1: 1, 2: 12, 3: 13, 4: 14, 5: 15, 6: 16}
    )
    wedge = from_facets(rp2.facet_tuples() + octahedron.facet_tuples())
    yield from _with_links("cone:wedge", wedge.cone(0))
    # cones from 0, collapsible, whose apex link has boundary: an annulus
    # and a Moebius band, connected with chi = 0, fail only chi = 1; two
    # triangles sharing vertex 1, connected with chi = 1, fail only because
    # the link of the edge 0 1 is two paths
    surfaces = {
        "annulus": [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)],
        "moebius": [tuple(sorted(1 + (i + j) % 5 for j in range(3))) for i in range(5)],
        "bowtie": [(1, 2, 3), (1, 4, 5)],
    }
    for tag, facets in surfaces.items():
        yield from _with_links(f"cone:{tag}", from_facets(facets).cone(0))


def _family_greedy():
    # every complex the greedy ball policy tests on the walked spheres, its
    # induced span of the grown vertex set plus one vertex
    tested = []
    ball_test = recognition.is_combinatorial_ball

    def recording(k, budget=collapse_mod.DEFAULT_BUDGET):
        tested.append(k)
        return ball_test(k, budget)

    recognition.is_combinatorial_ball = recording
    try:
        for tag, m in _inputs("walked"):
            if tag.count(":") == 1:
                find_induced_ball(m, "greedy")
    finally:
        recognition.is_combinatorial_ball = ball_test
    for i, k in enumerate(tested):
        yield f"greedy:{i}", k


FAMILIES = {
    "catalog": _family_catalog,
    "census": _family_census,
    "walked": _family_walked,
    "random": _family_random,
    "cones": _family_cones,
    "apexes": _family_apexes,
    "greedy": _family_greedy,
}


def _outcome(fn, *args):
    """What fn returns, or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _inputs(family):
    return tuple(FAMILIES[family]())


def test_greedy_candidates_match_the_induced_oracle(monkeypatch):
    # every complex the greedy ball policy induces on the pure members of
    # the walked family: the spheres, their links and some induced spans
    inputs = [k for _, k in _inputs("walked") if k.is_pure()]
    built = []
    induced = SimplicialComplex.induced

    def recording(k, u):
        built.append((k, u))
        return induced(k, u)

    monkeypatch.setattr(SimplicialComplex, "induced", recording)
    for k in inputs:
        find_induced_ball(k, "greedy")
    monkeypatch.undo()
    assert len(built) > 900
    assert [
        (k.canonical_encoding(), u)
        for k, u in built
        if k.induced(u) != oracle_induced(k, u)
    ] == []


class TestRecognizerMatchesOracle:
    """_is_sphere / is_combinatorial_ball give the replaced helpers' verdicts."""

    BUDGET = 20_000

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_ball_verdicts(self, family):
        mismatches = [
            tag
            for tag, k in _inputs(family)
            if is_combinatorial_ball(k, self.BUDGET)
            is not _oracle_is_combinatorial_ball(k, self.BUDGET)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sphere_verdicts(self, family):
        mismatches = [
            (tag, d)
            for tag, k in _inputs(family)
            for d in (0, 1, 2)
            if _is_sphere(k, d) != _oracle_link_is_sphere_exact(k, d)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_manifold_statuses(self, family):
        # the whole verdict: the status and the witness vertices
        mismatches = [
            tag
            for tag, k in _inputs(family)
            if k.dim <= 3
            and is_combinatorial_manifold(k) != _oracle_manifold_verdict(k)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_pseudomanifold_predicates(self, family):
        # the star-table routes of structure against per-call ridge counts
        # and the all-pairs facet graph
        mismatches = []
        for tag, k in _inputs(family):
            if is_pseudomanifold(k) != oracle_is_pseudomanifold(k):
                mismatches.append((tag, "pm"))
            if is_weak_pseudomanifold(k) != oracle_is_weak_pseudomanifold(k):
                mismatches.append((tag, "weak pm"))
            if is_weak_pm_with_boundary(k) != oracle_is_weak_pm_with_boundary(k):
                mismatches.append((tag, "with boundary"))
            if _outcome(boundary_complex, k) != _outcome(oracle_boundary_complex, k):
                mismatches.append((tag, "boundary"))
        assert mismatches == []

    def test_apexes_fail_at_their_links(self):
        verdicts = {
            tag: is_combinatorial_manifold(k)
            for tag, k in _inputs("apexes")
            if k.dim == 3
        }
        first_bad = {
            "susp:RP2_6": 40,
            "susp:torus": 40,
            "susp:pinched": 1,
            "cone:wedge": 0,
            "cone:annulus": 0,
            "cone:moebius": 0,
            "cone:bowtie": 0,
        }
        assert verdicts == {
            tag: ManifoldVerdict(
                MANIFOLD_NO, ((v, "link is not a combinatorial 2-sphere"),)
            )
            for tag, v in first_bad.items()
        }

    def test_apexes_with_boundary_are_no_balls(self):
        # each is a cone, so collapsible: only its apex link says no
        named = ("cone:annulus", "cone:moebius", "cone:bowtie")
        verdicts = {tag: is_combinatorial_ball(k) for tag, k in _inputs("apexes")}
        assert {tag: verdicts[tag] for tag in named} == dict.fromkeys(named, False)

    def test_families_reach_every_verdict(self):
        seen = set()
        for family in FAMILIES:
            for _, k in _inputs(family):
                seen.add((k.dim, _oracle_is_combinatorial_ball(k, self.BUDGET)))
                if 0 <= k.dim <= 2:
                    seen.add(("sphere", k.dim, _oracle_link_is_sphere_exact(k, k.dim)))
        for d in range(4):
            assert (d, True) in seen and (d, False) in seen
        for d in range(3):
            assert ("sphere", d, True) in seen and ("sphere", d, False) in seen


class TestBudgetCheckedUpFront:
    """A bad budget fails even where no collapse search would run."""

    @pytest.mark.parametrize("budget", ["x", -1, 2.5, True])
    def test_ball_test(self, budget):
        with pytest.raises(ValueError, match="node budget"):
            is_combinatorial_ball(standard_ball(3), budget=budget)
        with pytest.raises(ValueError, match="node budget"):
            is_combinatorial_ball(standard_ball(2), budget=budget)

    @pytest.mark.parametrize("policy", ["facet", "greedy"])
    def test_find_induced_ball(self, policy):
        octa = catalog.get("octahedron").complex
        with pytest.raises(ValueError, match="node budget"):
            find_induced_ball(octa, policy, budget="x")

    def test_certify_sphere(self, rp2):
        with pytest.raises(ValueError, match="node budget"):
            certify_sphere(rp2, budget="x")

    def test_none_is_unbounded(self):
        assert is_combinatorial_ball(standard_ball(3), budget=None) is True
        octa = catalog.get("octahedron").complex
        assert find_induced_ball(octa, "greedy", budget=None) is not None


class TestCertifyArgumentsCheckedUpFront:
    """A bad ball policy or manifold flag fails whatever the input."""

    @pytest.mark.parametrize("name", ["RP2_6", "Upsilon1", "Sigma2"])
    def test_ball_policy(self, name):
        with pytest.raises(ValueError, match="unknown ball policy 'bogus'"):
            certify_sphere(catalog.get(name).complex, ball_policy="bogus")

    @pytest.mark.parametrize("flag", ["no", "", 1, None])
    def test_assume_manifold(self, flag):
        with pytest.raises(ValueError, match="assume_manifold must be a bool"):
            certify_sphere(catalog.get("Upsilon1").complex, assume_manifold=flag)


# sha256 over the certify_sphere reports, timestamp stripped, of every catalog
# complex under both ball policies and of the walked spheres, recorded before
# vertex links were decided from the stars; re-recorded once, when a "no"
# manifold verdict began to print as "manifold-status: no" instead of "-"
# (the reports of Delta1_2 to Delta4_5, DunceHat8, R, Upsilon1 and Upsilon2)
PINNED_CERTIFY_DIGEST = "c1478a0cbe9f071983894e72adbee2e7224902134721a38847487951d58e92a5"


def test_certify_reports_pinned():
    walked = [k for tag, k in _inputs("walked") if tag.count(":") == 1]
    digest = hashlib.sha256()
    for k in [catalog.get(name).complex for name in catalog.names()] + walked:
        for policy in ("facet", "greedy"):
            report = reports.sphere_certificate_report(
                k, certify_sphere(k, ball_policy=policy)
            )
            digest.update(reports.strip_timestamp(report).encode())
    assert digest.hexdigest() == PINNED_CERTIFY_DIGEST


class TestBallEdgeCases:
    def test_three_balls(self):
        assert is_combinatorial_ball(standard_ball(3)) is True
        assert is_combinatorial_ball(catalog.get("Sigma1").complex.cone(0)) is True
        assert is_combinatorial_ball(catalog.get("S3_5").complex) is False

    def test_four_dimensional_questions_stay_open(self):
        assert is_combinatorial_ball(catalog.get("S4_6").complex) is None
        assert is_combinatorial_ball(standard_sphere(3).cone(9)) is None

    def test_link_of_wrong_dimension_is_no_ball(self):
        k = SimplicialComplex([(0, 9), (1, 2, 3, 4, 5)])
        assert is_combinatorial_ball(k) is False
