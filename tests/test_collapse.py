import dataclasses
import functools
import itertools
import pickle
import random

import pytest

from simptop import (
    CollapseCertificate,
    CollapseStep,
    Face,
    catalog,
    collapses_to,
    cycle,
    elementary_collapse,
    free_faces,
    from_facets,
    is_collapsible,
    reduced_betti,
    relabel,
    standard_ball,
    standard_sphere,
    verify_certificate,
)
from simptop import census, collapse, reports
from simptop.collapse import COLLAPSIBLE, INCONCLUSIVE, NOT_COLLAPSIBLE, _search
from simptop.complexes import EMPTY_COMPLEX, SimplicialComplex, _antichain, _bits

from conftest import (
    image_mask,
    low_labels,
    neg_complexes,
    per_complex_faces,
    random_pure_complex,
    sampler_draws,
    sc,
    spread_labels,
    spread_mapping,
)


def same_betti(a, b):
    """Collapses can drop the dimension, shortening the tuple by zeros."""
    n = max(len(a), len(b))
    return a + (0,) * (n - len(a)) == b + (0,) * (n - len(b))


def relabel_certificate(cert, mapping, terminal):
    steps = tuple(
        CollapseStep(
            Face(mapping[v] for v in s.free_face.vertices),
            Face(mapping[v] for v in s.coface.vertices),
        )
        for s in cert.steps
    )
    return CollapseCertificate(steps, terminal)


class TestFreeFaces:
    def test_solid_triangle_three_free_edges(self):
        steps = free_faces(standard_ball(2, (1, 2, 3)))
        assert len(steps) == 3
        assert all(s.free_face.dim == 1 and s.coface.dim == 2 for s in steps)

    def test_dunce_hat_none(self, dunce_hat):
        assert free_faces(dunce_hat) == []

    def test_closed_weak_pm_none(self, rp2):
        assert free_faces(rp2) == []
        assert free_faces(catalog.get("octahedron").complex) == []
        assert free_faces(catalog.get("Sigma4").complex) == []

    def test_deterministic_order(self):
        k = standard_ball(2, (1, 2, 3))
        assert free_faces(k) == free_faces(k)


class TestElementaryCollapse:
    def test_edge_to_point(self):
        k = sc((1, 2))
        step = CollapseStep(Face([1]), Face([1, 2]))
        assert elementary_collapse(k, step) == sc((2,))

    def test_not_free_rejected(self, rp2):
        with pytest.raises(ValueError, match="not a free pair"):
            elementary_collapse(rp2, CollapseStep(Face([1, 2]), Face([1, 2, 3])))

    def test_chi_preserved(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, dim=2, p=0.35).cone(9)
            chi = k.euler_characteristic()
            for step in free_faces(k)[:3]:
                assert elementary_collapse(k, step).euler_characteristic() == chi

    def test_betti_preserved_along_random_sequence(self, rng):
        for _ in range(5):
            k = random_pure_complex(rng, n_vertices=6, dim=2, p=0.35).cone(9)
            betti = reduced_betti(k)
            current = k
            while True:
                steps = free_faces(current)
                if not steps:
                    break
                step = rng.choice(steps)
                current = elementary_collapse(current, step)
                if current.is_empty():
                    break
                assert same_betti(reduced_betti(current), betti)


class TestIsCollapsible:
    def test_standard_balls(self):
        for d in range(1, 5):
            verdict = is_collapsible(standard_ball(d, tuple(range(d + 1))))
            assert verdict.status == COLLAPSIBLE
            assert verify_certificate(
                standard_ball(d, tuple(range(d + 1))), verdict.certificate
            )

    def test_single_vertex_trivially_collapsible(self):
        verdict = is_collapsible(sc((5,)))
        assert verdict.collapsible
        assert verdict.certificate.steps == ()

    def test_dunce_hat_exhausted_immediately(self, dunce_hat):
        verdict = is_collapsible(dunce_hat)
        assert verdict.status == NOT_COLLAPSIBLE
        assert verdict.nodes_explored <= 1

    def test_sphere_not_collapsible(self):
        verdict = is_collapsible(standard_sphere(1, (1, 2, 3)))
        assert verdict.status == NOT_COLLAPSIBLE

    def test_budget_inconclusive(self):
        # a collapsible complex large enough that one node is never enough
        k = standard_ball(3, (1, 2, 3, 4))
        verdict = is_collapsible(k, budget=1)
        assert verdict.status == INCONCLUSIVE

    def test_negative_budget_is_a_value_error(self, rp2):
        with pytest.raises(ValueError, match="budget"):
            is_collapsible(standard_ball(2), budget=-5)
        with pytest.raises(ValueError, match="budget"):
            collapses_to(rp2, rp2, budget=-1)

    def test_zero_budget_is_valid(self):
        assert is_collapsible(sc((5,)), budget=0).collapsible
        assert is_collapsible(standard_ball(2), budget=0).status == INCONCLUSIVE

    @pytest.mark.parametrize("budget", [True, False, 1.5, "3"])
    def test_non_int_budget_is_a_value_error(self, budget, rp2):
        # True used to act as a budget of 1, and 1.5 like 1
        with pytest.raises(ValueError, match="budget"):
            is_collapsible(standard_ball(3), budget=budget)
        with pytest.raises(ValueError, match="budget"):
            collapses_to(rp2, rp2, budget=budget)

    def test_verdict_relabel_equivariant(self, rng):
        for _ in range(5):
            k = random_pure_complex(rng, n_vertices=6, dim=2, p=0.3)
            mapping = {v: v + 13 for v in k.vertices}
            assert is_collapsible(k).status == is_collapsible(relabel(k, mapping)).status


class TestCollapsesTo:
    def test_to_itself(self, rp2):
        verdict = collapses_to(rp2, rp2)
        assert verdict.collapsible
        assert verdict.certificate.steps == ()

    def test_cone_to_apex(self):
        k = cycle(5, (1, 2, 3, 4, 5)).cone(9)
        verdict = collapses_to(k, sc((9,)))
        assert verdict.collapsible
        assert verify_certificate(k, verdict.certificate)
        assert verdict.certificate.terminal == sc((9,))

    def test_dunce_hat_to_proper_subcomplex(self, dunce_hat):
        target = sc((1, 2, 4))
        verdict = collapses_to(dunce_hat, target)
        assert verdict.status == NOT_COLLAPSIBLE

    def test_non_subcomplex_rejected(self, rp2):
        with pytest.raises(ValueError):
            collapses_to(rp2, sc((1, 2, 9)))

    def test_empty_target_rejected(self, rp2, monkeypatch):
        # no collapse removes the last vertex; the search must not start
        def no_search(*args):
            raise AssertionError("searched towards the empty complex")

        monkeypatch.setattr(collapse, "_search", no_search)
        for k in (rp2, catalog.get("RP2_6").complex.cone(7)):
            with pytest.raises(ValueError, match="empty complex"):
                collapses_to(k, EMPTY_COMPLEX, budget=200_000)


class TestVerifyCertificate:
    def test_emitted_certificates_verify(self, rng):
        for _ in range(10):
            k = random_pure_complex(rng, n_vertices=6, dim=2, p=0.3).cone(9)
            verdict = is_collapsible(k)
            assert verdict.collapsible
            assert verify_certificate(k, verdict.certificate)

    def test_swapped_steps_fail(self):
        k = standard_ball(2, (1, 2, 3))
        cert = is_collapsible(k).certificate
        assert len(cert.steps) >= 2
        swapped = CollapseCertificate(
            (cert.steps[1], cert.steps[0]) + cert.steps[2:], cert.terminal
        )
        assert verify_certificate(k, cert)
        assert not verify_certificate(k, swapped)

    def test_wrong_terminal_fails(self):
        k = standard_ball(1, (1, 2))
        cert = is_collapsible(k).certificate
        wrong = CollapseCertificate(cert.steps, sc((1, 2)))
        assert not verify_certificate(k, wrong)

    def test_repeated_step_fails(self):
        # the second copy of the first step names faces already removed
        k = standard_ball(3)
        cert = is_collapsible(k).certificate
        repeated = CollapseCertificate(cert.steps[:1] + cert.steps, cert.terminal)
        assert verify_certificate(k, cert)
        assert not verify_certificate(k, repeated)

    def test_relabeled_replay(self, rng):
        k = cycle(4, (1, 2, 3, 4)).cone(9)
        cert = is_collapsible(k).certificate
        mapping = {1: 11, 2: 12, 3: 13, 4: 14, 9: 19}
        image = relabel(k, mapping)
        image_cert = relabel_certificate(
            cert, mapping, relabel(cert.terminal, mapping)
        )
        assert verify_certificate(image, image_cert)


class TestHomologyPreservation:
    def test_betti_constant_along_emitted_certificates(self, rng):
        for _ in range(6):
            k = random_pure_complex(rng, n_vertices=6, dim=2, p=0.3).cone(8)
            verdict = is_collapsible(k)
            assert verdict.collapsible
            betti = reduced_betti(k)
            current = k
            for step in verdict.certificate.steps:
                current = elementary_collapse(current, step)
                assert same_betti(reduced_betti(current), betti)


# -- the search before ranked faces, kept as the oracle ------------------


def _free_pairs_masks(closure, protected):
    """Free pairs (tau, sigma) of ``closure``, best-first, by counting the
    covers of every face from scratch."""
    covers = {}
    parent = {}
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


def _oracle_search(start, protected, is_terminal, budget):
    """DFS over frozenset closures, rebuilding the free pairs at every node;
    returns (steps or None, nodes explored, exhausted)."""
    dead = set()
    path = []
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


def _oracle_is_collapsible(k, budget):
    return _oracle_search(
        frozenset(k._star), frozenset(), lambda c: len(c) == 1, budget
    )


def _assert_search_matches(k, budget, target=None):
    if target is None:
        expected = _oracle_is_collapsible(k, budget)
    else:
        goal = frozenset(target._star)
        expected = _oracle_search(
            frozenset(k._star), goal, lambda c: c == goal, budget
        )
    verdict = _search(k, target, budget)
    cert = verdict.certificate
    found = (
        None if cert is None else list(cert.pairs),
        verdict.nodes_explored,
        verdict.status != INCONCLUSIVE,
    )
    if target is None and k.dim <= 2 and expected[0] is None:
        # one greedy path: not collapsible wherever the oracle decided so,
        # on no more nodes than the oracle took
        assert found[0] is None, (k, budget)
        if expected[2]:
            assert found[2] and found[1] <= expected[1], (k, budget)
    else:
        assert found == expected, (k, target, budget)


def _catalog_variants():
    """Every catalog entry, the entry minus its first facet (which has free
    faces), and the cone over the entry (collapsible)."""
    for name in catalog.names():
        k = catalog.get(name).complex
        yield k
        if len(k.facet_masks) > 1:
            yield from_facets(Face.from_mask(m) for m in k.facet_masks[1:])
        yield k.cone(63)


def _random_complexes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.choice((1, 2, 3))
        p = rng.uniform(0.1, 0.35)
        yield random_pure_complex(rng, n_vertices=7, dim=dim, p=p)


@functools.lru_cache(maxsize=None)
def _sampled_inputs(n_samples=200, seeds=(1, 2, 3)):
    """Every (complex, budget) the sampler finds acyclic, in draw order:
    the draws its greedy descent collapses, and those it hands to
    is_collapsible."""
    seen = []
    greedy_collapses = collapse._greedy_collapses

    def recording(k, budget=collapse.DEFAULT_BUDGET):
        seen.append((k, budget))
        return is_collapsible(k, budget)

    def recording_descent(k, budget):
        collapsed = greedy_collapses(k, budget)
        if collapsed:
            seen.append((k, budget))
        return collapsed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census.collapse_mod, "is_collapsible", recording)
        mp.setattr(census.collapse_mod, "_greedy_collapses", recording_descent)
        acyclic = sum(
            census.sample_acyclic_collapsibility(n_samples, seed=seed).acyclic_found
            for seed in seeds
        )
    assert len(seen) == acyclic
    return tuple(seen)


class TestSearchMatchesOracle:
    """Same certificate steps, node count and exhaustion flag as the
    rebuild-every-node search, so every verdict and report is unchanged.
    The one exception is a non-collapsible input of dimension <= 2, which
    the search decides on its first dead end."""

    def test_catalog(self):
        for k in _catalog_variants():
            _assert_search_matches(k, 3000)

    @pytest.mark.parametrize("budget", [50, 3000])
    def test_random_complexes(self, budget):
        for k in _random_complexes(20261018, 300):
            _assert_search_matches(k, budget)

    def test_sampled_acyclic_complexes(self):
        seen = _sampled_inputs()
        assert len(seen) > 50
        for k, budget in seen:
            _assert_search_matches(k, budget)

    def test_collapses_to_vertex_and_edge_targets(self):
        rng = random.Random(5)
        for i, k in enumerate(_random_complexes(77, 60)):
            if i % 2:
                k = k.cone(9)
            edges = sorted(k.faces(1), key=lambda f: f.vertices)
            targets = [sc((rng.choice(k.vertices),))]
            if edges:
                targets.append(sc(rng.choice(edges).vertices))
            for target in targets:
                _assert_search_matches(k, 300, target)
                verdict = collapses_to(k, target, budget=300)
                if verdict.collapsible:
                    assert verify_certificate(k, verdict.certificate)

    def test_free_faces_and_elementary_collapse(self):
        for k in list(_catalog_variants()) + list(_random_complexes(3, 40)):
            pairs = _free_pairs_masks(frozenset(k._star), frozenset())
            assert [(s.free_face.mask, s.coface.mask) for s in free_faces(k)] == pairs
            for sigma in k._star:
                for v in _bits(sigma):
                    tau = sigma ^ 1 << v
                    if not tau:
                        continue
                    step = CollapseStep(Face.from_mask(tau), Face.from_mask(sigma))
                    if (tau, sigma) in pairs:
                        assert not elementary_collapse(k, step).has_face(tau)
                    else:
                        with pytest.raises(ValueError, match="not a free pair"):
                            elementary_collapse(k, step)

    def test_empty_free_face_rejected(self):
        with pytest.raises(ValueError, match="not a free pair"):
            elementary_collapse(sc((5,)), CollapseStep(Face([]), Face([5])))


# -- the stack DFS, kept as the oracle of the one search loop -------------


def _dfs_only_search(k, target, budget):
    """``_search`` as one DFS from the start node that keeps a stack of
    [closure, free faces, untried faces] levels and a path of mask pairs,
    and looks every child up in the memo: the oracle of the one search
    loop, which keeps only the path and each level's free faces."""
    masks, up, down, pairs, start, free = k._search_faces()
    goal = None
    if target is not None:
        rank = {m: i for i, m in enumerate(masks)}
        goal = sum(1 << rank[m] for m in target._star)
    unprotected = ~(goal or 0)
    greedy = goal is None and k.dim <= 2
    if start & (start - 1) == 0 if goal is None else start == goal:
        faces = frozenset(masks[i] for i in _bits(start))
        cert = CollapseCertificate._from_masks((), faces)
        return collapse.CollapseVerdict(COLLAPSIBLE, 0, cert)
    dead = set()
    path = []
    free &= unprotected
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
            pair = low | high
            child = closure ^ pair
            if child in dead:
                memo_hits += 1
                continue
            node[2] = untried
            s = high.bit_length() - 1
            path.append((masks[t], masks[s]))
            max_depth = max(max_depth, len(path))
            if child & (child - 1) == 0 if goal is None else child == goal:
                faces = frozenset(masks[i] for i in _bits(child))
                cert = CollapseCertificate._from_masks(tuple(path), faces)
                return collapse.CollapseVerdict(
                    COLLAPSIBLE, nodes, cert, memo_hits, len(dead), max_depth
                )
            nodes += 1
            if budget is not None and nodes > budget:
                return collapse.CollapseVerdict(
                    INCONCLUSIVE, nodes, None, memo_hits, len(dead), max_depth
                )
            child_free = free & ~pair
            for j in down[t] + down[s]:
                if j != t:
                    if (up[j] & child).bit_count() == 1:
                        child_free |= 1 << j
                    else:
                        child_free &= ~(1 << j)
            child_free &= unprotected
            stack.append([child, child_free, child_free])
            break
        else:
            if len(dead) >= collapse.MEMO_CAP:
                return collapse.CollapseVerdict(
                    INCONCLUSIVE, nodes, None, memo_hits, len(dead), max_depth
                )
            dead.add(closure)
            if greedy:
                break
            stack.pop()
            if path:
                path.pop()
    return collapse.CollapseVerdict(
        NOT_COLLAPSIBLE, nodes, None, memo_hits, len(dead), max_depth
    )


def _verdict_fields(verdict):
    cert = verdict.certificate
    return (
        verdict.status,
        verdict.nodes_explored,
        verdict.memo_hits,
        verdict.memo_size,
        verdict.max_depth,
        None if cert is None else cert.pairs,
        None if cert is None else cert.faces,
    )


DESCENT_BUDGETS = (0, 1, 2, 3, 5, 50, 3000)


def _assert_descent_matches(cases):
    """``cases`` are (k, target, budget): ``_search`` gives the DFS-only
    search's status, counters and certificate masks."""
    for k, target, budget in cases:
        expected = _verdict_fields(_dfs_only_search(k, target, budget))
        assert _verdict_fields(_search(k, target, budget)) == expected, (
            k, target, budget
        )


class TestDescentMatchesDfsOnly:
    """The one search loop, which keeps no level stack, skips the memo
    until its first dead end and backtracks by putting a pair back and
    trying the free faces ranked after it, returns what the stack DFS
    returns: budgets stop the first descent at its first nodes, and the
    search backtracks from dead ends at every depth the inputs reach."""

    def test_sampler_draws(self):
        draws = sampler_draws()
        assert len(draws) > 500
        _assert_descent_matches(
            (k, None, budget) for k in draws for budget in DESCENT_BUDGETS[:-1]
        )
        seen = _sampled_inputs()
        _assert_descent_matches((k, None, 3000) for k, _ in seen)

    def test_backtracking_three_complexes(self):
        ks = neg_complexes(5, 30)
        _assert_descent_matches(
            (k, None, budget) for k in ks for budget in DESCENT_BUDGETS
        )

    def test_catalog_both_labelings(self):
        rng = random.Random(32)
        ks = list(_catalog_variants())
        ks += [spread_labels(k, rng) for k in ks if len(k.vertices) <= 7]
        assert any(k._table_closure is None for k in ks)
        assert any(k._table_closure is not None for k in map(low_labels, ks))
        _assert_descent_matches(
            (k, None, budget) for k in ks for budget in DESCENT_BUDGETS
        )

    def test_collapses_to_targets(self):
        rng = random.Random(8)
        ks = list(_random_complexes(32, 40)) + neg_complexes(8, 6)
        ks += [k.cone(9) for k in ks[:10]]
        _assert_descent_matches(
            (k, target, budget)
            for k, target, _ in _with_targets(ks, rng, None)
            if target is not None
            for budget in DESCENT_BUDGETS
        )

    def test_greedy_mode_on_searches_that_backtrack(self):
        """The loop's greedy mode collapses exactly the inputs that the
        DFS-only search collapses without backtracking: with one node
        counted per pair on its path."""
        outcomes = {True: 0, False: 0}
        for k in sampler_draws() + neg_complexes(5, 30):
            for budget in DESCENT_BUDGETS:
                verdict = _dfs_only_search(k, None, budget)
                expected = verdict.collapsible and verdict.nodes_explored == len(
                    verdict.certificate.pairs
                )
                got = collapse._greedy_collapses(k, budget)
                assert got == expected, (k, budget)
                outcomes[expected] += 1
        assert min(outcomes.values()) > 100, outcomes

    @pytest.mark.parametrize("cap", [0, 1, 10])
    def test_memo_cap(self, monkeypatch, cap):
        monkeypatch.setattr(collapse, "MEMO_CAP", cap)
        ks = neg_complexes(5, 6) + [sc((0, 1, 2, 3), (4,)), sc((0, 1), (2, 3))]
        _assert_descent_matches((k, None, 3000) for k in ks)


# -- fixed face tables against the per-complex build ----------------------


def _ranked_view(k):
    """The faces a search starts from, in rank order, each with its covers
    in the complex and, per cover, its pair's neighbourhood by the search's
    rule (the faces in ``down[t] + down[s]`` other than t), each with its
    covers in the complex (all as masks); then the start's free faces and
    ``free_faces``."""
    masks, up, down, _, start, free = k._search_faces()

    def covers(bitset):
        return [masks[j] for j in _bits(bitset & start)]

    faces = [
        (
            masks[i],
            covers(up[i]),
            [
                [(masks[j], covers(up[j])) for j in down[i] + down[s] if j != i]
                for s in _bits(up[i] & start)
            ],
        )
        for i in _bits(start)
    ]
    return faces, [masks[i] for i in _bits(free)], free_faces(k)


def _assert_tables_match(cases):
    """``cases`` are (k, target, budget) on vertex ids below TABLE_VERTICES:
    the table path gives the per-complex build's face order, cover tables,
    pair neighbourhoods, start free set, free faces and full search result
    (steps, nodes, exhaustion, terminal, memo hits, memo size and max
    depth)."""
    assert all(k._table_closure is not None for k, _, _ in cases)
    table = [(_ranked_view(k), _search(k, t, b)) for k, t, b in cases]
    with per_complex_faces():
        oracle = [(_ranked_view(k), _search(k, t, b)) for k, t, b in cases]
    for (k, target, budget), got, expected in zip(cases, table, oracle):
        assert got == expected, (k, target, budget)


def _with_targets(ks, rng, budget):
    """Each complex towards a single vertex, a vertex and an edge."""
    for k in ks:
        yield k, None, budget
        yield k, sc((rng.choice(k.vertices),)), budget
        edges = sorted(k.faces(1), key=lambda f: f.vertices)
        if edges:
            yield k, sc(rng.choice(edges).vertices), budget


def _mapped_search(verdict, mapping):
    """A ``_search`` verdict with its certificate's step and face masks
    mapped."""
    cert = verdict.certificate
    if cert is None:
        return verdict
    pairs = tuple(
        (image_mask(t, mapping), image_mask(s, mapping)) for t, s in cert.pairs
    )
    faces = frozenset(image_mask(m, mapping) for m in cert.faces)
    cert = CollapseCertificate._from_masks(pairs, faces)
    return dataclasses.replace(verdict, certificate=cert)


class TestTablesMatchPerComplexBuild:
    """On vertex ids 0..6 the search ranks faces off the fixed tables;
    everything it returns equals the per-complex build's."""

    def test_catalog(self):
        # entries with a vertex id above 6 are relabeled monotonically
        ks = [low_labels(k) for k in _catalog_variants() if len(k.vertices) <= 7]
        assert len(ks) > 20
        _assert_tables_match(list(_with_targets(ks, random.Random(1), 3000)))

    def test_sampler_draws(self):
        draws = sampler_draws()
        assert len(draws) > 500
        _assert_tables_match([(k, None, 50) for k in draws])
        seen = _sampled_inputs()
        _assert_tables_match([(k, None, budget) for k, budget in seen])

    def test_backtracking_three_complexes(self):
        ks = neg_complexes(5, 30)
        verdicts = {is_collapsible(k, 3000).status for k in ks}
        assert verdicts == {NOT_COLLAPSIBLE, INCONCLUSIVE}
        _assert_tables_match([(k, None, 3000) for k in ks])

    def test_terminal_starts_high_targets_and_budgets(self):
        """A search that starts terminal, targets in dimensions 2 and 3,
        and one backtracking 3-complex at budgets that stop it at the first
        node, early, late and never.  The table path runs on a slice that
        holds faces outside the complex, and none of them may reach a
        certificate."""
        vertex = sc((3,))
        tetra = sc((0, 1, 2, 3))
        bowtie = sc((0, 1, 2), (2, 3, 4), (4, 5, 6))
        back = sc((0, 1, 4, 6), (0, 1, 5, 6), (0, 3, 4, 5), (1, 4, 5, 6))
        cases = [(vertex, None, 10), (vertex, vertex, 10), (tetra, tetra, 10)]
        cases += [(bowtie, bowtie, 10), (back, back, 10)]
        cases += [(bowtie, sc((2, 3, 4)), 100), (tetra, sc((1, 2, 3)), 100)]
        cases += [(back, sc((0, 1, 4, 6)), 3000), (back, sc((0, 3, 4)), 3000)]
        cases += [(back, None, budget) for budget in (1, 5, 1000, None)]
        _assert_tables_match(cases)
        for k in (vertex, tetra, bowtie, back):
            verdict = collapses_to(k, k)
            assert (verdict.status, verdict.nodes_explored) == (COLLAPSIBLE, 0)
            assert verdict.certificate.faces == k._star.keys()
        assert is_collapsible(vertex).certificate.faces == {1 << 3}
        verdicts = [_search(back, None, b) for b in (1, 5, 1000, None)]
        assert [(v.status, v.nodes_explored) for v in verdicts] == [
            (INCONCLUSIVE, 2),
            (INCONCLUSIVE, 6),
            (INCONCLUSIVE, 1001),
            (NOT_COLLAPSIBLE, 1668),
        ]

    def test_labels_spread_up_to_63(self):
        """The table path on ids 0..6 and the per-complex build on a
        monotone image with ids up to 63 run the same search: equal steps
        and terminal after mapping, equal nodes and memo counters."""
        rng = random.Random(63)
        ks = list(_random_complexes(64, 40))
        negs = neg_complexes(11, 6)
        cases = list(_with_targets(ks, rng, 3000)) + [(k, None, 3000) for k in negs]
        mappings = {k: spread_mapping(k, rng, monotone=True) for k in ks + negs}
        for k, target, budget in cases:
            mapping = mappings[k]
            image = relabel(k, mapping)
            assert max(image.vertices) == 63
            image_target = None if target is None else relabel(target, mapping)
            assert k._table_closure is not None and image._table_closure is None
            got = _mapped_search(_search(k, target, budget), mapping)
            assert got == _search(image, image_target, budget), (k, target)
        for k in ks:
            image = spread_labels(k, rng)
            verdict = is_collapsible(image, 3000)
            if verdict.collapsible:
                assert verify_certificate(image, verdict.certificate)

    def test_larger_complexes_build_their_own(self, dunce_hat):
        assert dunce_hat._table_closure is None
        assert sc((0, 1, 6), (2, 5))._table_closure is not None
        for k in (sc((0, 1, 7)), sc((10, 20, 30, 40)), sc((2, 3), (3, 8))):
            assert len(k.vertices) <= 7 and k._table_closure is None
            masks, _ = k._ranked_faces()
            own = sorted(k._star, key=lambda m: (-m.bit_count(), _bits(m)))
            assert masks == own


# -- one greedy path against the exhaustive oracle in dimension <= 2 ------

ORACLE_BUDGET = 20_000


def _assert_greedy_matches(k, budget):
    """is_collapsible against the oracle wherever the oracle decides: the
    same verdict, the same steps and node count on collapsible inputs, and
    no more nodes on the others.  Where the oracle runs out of budget, a
    complex with homology must still be reported not collapsible.  Returns
    the verdict, or None when neither check decided."""
    steps, nodes, exhausted = _oracle_is_collapsible(k, budget)
    verdict = is_collapsible(k)
    if steps is not None:
        assert verdict.collapsible, k
        found = [(s.free_face.mask, s.coface.mask) for s in verdict.certificate.steps]
        assert (found, verdict.nodes_explored) == (steps, nodes), k
    elif exhausted:
        assert verdict.status == NOT_COLLAPSIBLE, k
        assert verdict.nodes_explored <= nodes, k
    elif any(reduced_betti(k)):
        assert verdict.status == NOT_COLLAPSIBLE, k
    else:
        return None
    return verdict


def _random_low_complexes(seed, count, n_vertices=6):
    """Random 2-complexes (1-complexes when no triangle is drawn) plus one
    to three extra edges, so that trees, cycles and dangling edges occur."""
    rng = random.Random(seed)
    triangles = list(itertools.combinations(range(n_vertices), 3))
    edges = list(itertools.combinations(range(n_vertices), 2))
    for _ in range(count):
        p = rng.uniform(0.0, 0.35)
        facets = [t for t in triangles if rng.random() < p]
        yield from_facets(facets + rng.sample(edges, rng.randint(1, 3)))


class TestGreedyMatchesExhaustive:
    """In dimension <= 2 the first dead end proves "not collapsible"."""

    def test_catalog_and_dunce_hat(self, dunce_hat):
        # the dunce hat minus a facet takes the oracle 701,997 nodes; its
        # homology (Euler characteristic 0) decides it instead
        inputs = [dunce_hat]
        for name in catalog.names():
            k = catalog.get(name).complex
            if k.dim <= 2:
                inputs.append(k)
                if len(k.facet_masks) > 1:
                    inputs.append(
                        from_facets(Face.from_mask(m) for m in k.facet_masks[1:])
                    )
        for k in inputs:
            assert _assert_greedy_matches(k, ORACLE_BUDGET) is not None

    def test_sampled_complexes(self):
        for k, budget in _sampled_inputs():
            assert _assert_greedy_matches(k, budget) is not None

    def test_random_complexes_with_extra_edges(self):
        negatives = 0
        for k in _random_low_complexes(20261018, 300):
            assert k.dim <= 2
            verdict = _assert_greedy_matches(k, ORACLE_BUDGET)
            assert verdict is not None
            negatives += not verdict.collapsible
        assert negatives >= 100


# -- certificates built on first read against the eager build ------------


def _eager_verdict(verdict):
    """A search verdict as it was before certificates were lazy: every step
    and the terminal complex built at once."""
    cert = verdict.certificate
    if cert is None:
        return verdict
    cert_steps = tuple(
        CollapseStep(Face.from_mask(t), Face.from_mask(s)) for t, s in cert.pairs
    )
    cert = CollapseCertificate(
        cert_steps, SimplicialComplex._from_facet_masks(_antichain(cert.faces))
    )
    return dataclasses.replace(verdict, certificate=cert)


def _report_bytes(k, verdict):
    return reports.strip_timestamp(reports.collapse_report(k, verdict))


def _assert_lazy_matches_eager(k, budget, target=None):
    """Each check reads a fresh lazy verdict, so steps and terminal are
    built in every order the readers use."""
    eager = _eager_verdict(_search(k, target, budget))

    def lazy():
        return _search(k, target, budget)

    found = (
        is_collapsible(k, budget)
        if target is None
        else collapses_to(k, target, budget)
    )
    assert found == eager, (k, target, budget)
    if not eager.collapsible:
        return
    cert, expected = lazy().certificate, eager.certificate
    assert cert.terminal == expected.terminal
    assert cert.steps == expected.steps
    assert verify_certificate(k, lazy().certificate)
    assert verify_certificate(k, expected)
    assert _report_bytes(k, lazy()) == _report_bytes(k, eager)


class TestLazyCertificates:
    def test_catalog(self):
        for k in _catalog_variants():
            _assert_lazy_matches_eager(k, 3000)
            _assert_lazy_matches_eager(k, 3000, k)

    def test_sampled_acyclic_complexes(self):
        seen = _sampled_inputs(2000, (1,))
        assert len(seen) > 500
        for k, budget in seen:
            _assert_lazy_matches_eager(k, budget)

    def test_random_complexes(self):
        for i, k in enumerate(_random_complexes(20261019, 500)):
            _assert_lazy_matches_eager(k, 3000)
            if i % 5 == 0:
                _assert_lazy_matches_eager(k, 300, sc((k.vertices[-1],)))
                edges = sorted(k.faces(1), key=lambda f: f.vertices)
                if edges:
                    _assert_lazy_matches_eager(k, 300, sc(edges[0].vertices))

    def test_behaves_like_the_public_constructor(self):
        for k in (standard_ball(1), standard_ball(3), sc((5,))):
            built = _eager_verdict(_search(k, None, None)).certificate

            def lazy():
                return _search(k, None, None).certificate

            assert lazy() == built and built == lazy()
            assert hash(lazy()) == hash(built)
            assert repr(lazy()) == repr(built)
            restored = pickle.loads(pickle.dumps(lazy()))
            assert restored == built
            assert repr(restored) == repr(built)
            assert lazy() != CollapseCertificate(built.steps, sc((7,)))
            assert lazy() != built.steps
            with pytest.raises(AttributeError):
                lazy().steps = ()

    def test_repr_is_the_dataclass_repr(self):
        cert = is_collapsible(standard_ball(1)).certificate
        assert repr(cert) == (
            "CollapseCertificate(steps=(CollapseStep(free_face=Face(0), "
            "coface=Face(0, 1)),), terminal=SimplicialComplex(1))"
        )

    def test_sampler_builds_no_steps(self, monkeypatch):
        built = []
        post_init = CollapseStep.__post_init__

        def counting(step):
            built.append(step)
            post_init(step)

        monkeypatch.setattr(CollapseStep, "__post_init__", counting)
        report = census.sample_acyclic_collapsibility(200, seed=1)
        assert report.collapsible_count > 0
        assert built == []
        # reading a certificate builds its steps, and the count sees them
        assert len(is_collapsible(standard_ball(2)).certificate.steps) == 3
        assert len(built) == 3


class TestMaskCertificates:
    """A certificate is its step and face masks: replay, equality, hashing
    and pickling read those and build no ``CollapseStep``."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        post_init = CollapseStep.__post_init__

        def counting(step):
            built.append(step)
            post_init(step)

        monkeypatch.setattr(CollapseStep, "__post_init__", counting)
        return built

    def test_verify_builds_no_steps(self, built):
        cone = cycle(5, (1, 2, 3, 4, 5)).cone(9)
        verdicts = [
            (standard_ball(3), is_collapsible(standard_ball(3))),
            (cone, is_collapsible(cone)),
            (cone, collapses_to(cone, sc((9,)))),
        ]
        for k, verdict in verdicts:
            assert verify_certificate(k, verdict.certificate)
        assert built == []

    def test_equality_hash_and_pickle_build_no_steps(self, built):
        k = standard_ball(3)
        cert, again = is_collapsible(k).certificate, is_collapsible(k).certificate
        assert cert == again and hash(cert) == hash(again)
        restored = pickle.loads(pickle.dumps(cert))
        assert restored == cert and hash(restored) == hash(cert)
        assert verify_certificate(k, restored)
        assert built == []

    def test_public_constructor_holds_the_same_masks(self):
        cert = is_collapsible(standard_ball(3)).certificate
        built = CollapseCertificate(cert.steps, cert.terminal)
        assert (built.pairs, built.faces) == (cert.pairs, cert.faces)
        assert built.steps is cert.steps and built.terminal is cert.terminal

    def test_tampered_masks_fail(self):
        k = standard_ball(2, (1, 2, 3))
        cert = is_collapsible(k).certificate
        pairs, faces = cert.pairs, cert.faces
        assert len(pairs) >= 2 and verify_certificate(k, cert)
        tampered = [
            ((pairs[1], pairs[0]) + pairs[2:], faces),
            (pairs, faces | {pairs[-1][0]}),
            (pairs, faces - {min(faces)}),
            (((pairs[0][1], pairs[0][0]),) + pairs[1:], faces),
        ]
        for bad_pairs, bad_faces in tampered:
            bad = CollapseCertificate._from_masks(bad_pairs, frozenset(bad_faces))
            assert not verify_certificate(k, bad), (bad_pairs, bad_faces)


class TestWorkCounters:
    def test_dunce_hat_dies_at_the_root(self, dunce_hat):
        verdict = is_collapsible(dunce_hat)
        assert (verdict.nodes_explored, verdict.memo_hits) == (1, 0)
        assert (verdict.memo_size, verdict.max_depth) == (1, 0)

    def test_two_disjoint_edges_stop_at_first_dead_end(self):
        # collapse {0, 1} onto 1 and {2, 3} onto 3; the two vertices left
        # are the one dead complex, and nothing is backtracked
        for budget in (collapse.DEFAULT_BUDGET, 3):
            verdict = is_collapsible(sc((0, 1), (2, 3)), budget)
            assert verdict.status == NOT_COLLAPSIBLE
            assert (verdict.nodes_explored, verdict.memo_hits) == (3, 0)
            assert (verdict.memo_size, verdict.max_depth) == (1, 2)

    def test_backtracking_in_dimension_3(self):
        # a tetrahedron and a vertex: every complex the tetrahedron collapses
        # through is dead, and the oracle explores the same 65 of them
        k = sc((0, 1, 2, 3), (4,))
        assert _oracle_is_collapsible(k, None) == (None, 65, True)
        verdict = is_collapsible(k)
        assert verdict.status == NOT_COLLAPSIBLE
        assert (verdict.nodes_explored, verdict.memo_size) == (65, 65)
        assert (verdict.memo_hits, verdict.max_depth) == (108, 7)

    def test_collapsible_without_backtracking(self):
        verdict = is_collapsible(standard_ball(3))
        assert (verdict.memo_hits, verdict.memo_size) == (0, 0)
        assert verdict.max_depth == len(verdict.certificate.steps) == 7

    def test_budget_give_up_keeps_counts(self):
        # three collapses of the tetrahedron reach a fourth node, one over
        # the budget
        verdict = is_collapsible(sc((0, 1, 2, 3), (4,)), budget=3)
        assert verdict.status == INCONCLUSIVE
        assert verdict.nodes_explored == 4
        assert verdict.max_depth == 3

    def test_memo_cap_gives_up_inconclusive(self, monkeypatch):
        monkeypatch.setattr(collapse, "MEMO_CAP", 10)
        verdict = is_collapsible(sc((0, 1, 2, 3), (4,)))
        assert verdict.status == INCONCLUSIVE
        assert verdict.memo_size == 10

    def test_default_counters_are_zero(self):
        verdict = collapse.CollapseVerdict(NOT_COLLAPSIBLE, 1)
        assert (verdict.memo_hits, verdict.memo_size, verdict.max_depth) == (0, 0, 0)


# report bytes (timestamp stripped) taken from the search before ranked faces
PINNED_REPORTS = {
    "ball3": (
        "report: collapse\ntool-version: 0.1.0\ninput: 0 1 2 3\nseed: -\n"
        "status: collapsible-with-certificate\nnodes-explored: 7\n"
        "certificate:\n  steps:\n    - 0 1 2 | 0 1 2 3\n    - 0 1 | 0 1 3\n"
        "    - 0 2 | 0 2 3\n    - 1 2 | 1 2 3\n    - 0 | 0 3\n    - 1 | 1 3\n"
        "    - 2 | 2 3\n  terminal: 3"
    ),
    "dunce_hat": (
        "report: collapse\ntool-version: 0.1.0\ninput: 1 2 4, 1 2 5, 1 2 8, "
        "1 3 6, 1 3 7, 1 3 8, 1 4 5, 1 6 7, 2 3 4, 2 3 6, 2 3 7, 2 5 6, 2 7 8, "
        "3 4 8, 4 5 8, 5 6 8, 6 7 8\nseed: -\n"
        "status: not-collapsible-exhausted\nnodes-explored: 1"
    ),
    "ball3_budget1": (
        "report: collapse\ntool-version: 0.1.0\ninput: 0 1 2 3\nseed: -\n"
        "status: inconclusive-budget\nnodes-explored: 2"
    ),
}


class TestPinnedReports:
    @pytest.mark.parametrize(
        "name, budget",
        [("ball3", None), ("dunce_hat", None), ("ball3_budget1", 1)],
    )
    def test_report_bytes(self, name, budget, dunce_hat):
        k = dunce_hat if name == "dunce_hat" else standard_ball(3)
        verdict = is_collapsible(k) if budget is None else is_collapsible(k, budget)
        text = reports.strip_timestamp(reports.collapse_report(k, verdict))
        assert text == PINNED_REPORTS[name]
