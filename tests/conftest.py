import contextlib
import functools
import itertools
import random

import pytest

from simptop import catalog, census, from_facets, homology, relabel
from simptop.complexes import ISO_SEARCH_CAP, SimplicialComplex, _bits


def sc(*facets):
    return from_facets(facets)


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def rp2():
    return catalog.get("RP2_6").complex


@pytest.fixture
def dunce_hat():
    return catalog.get("DunceHat8").complex


def boundary_squared_is_zero(k, q):
    """Is the GF(2) product of the boundary matrices of k in dimensions q-1
    and q the zero matrix?  The product is taken row by row here, as the
    library has no use for it."""
    lower, upper = homology.boundary_matrix(k, q - 1), homology.boundary_matrix(k, q)
    assert lower.cols == upper.rows
    for row in lower.row_bits:
        product = 0
        for j in range(lower.cols):
            if row >> j & 1:
                product ^= upper.row_bits[j]
        if product:
            return False
    return True


def random_pure_complex(rng, n_vertices=7, dim=2, p=0.3):
    while True:
        facets = [
            c
            for c in itertools.combinations(range(n_vertices), dim + 1)
            if rng.random() < p
        ]
        if facets:
            return from_facets(facets)


def stacked_sphere(d, n):
    """A stacked d-sphere on vertices 0..n-1: the boundary of a (d+1)-simplex
    with n - d - 2 facets stellarly subdivided, always the middle facet."""
    facets = [tuple(f) for f in itertools.combinations(range(d + 2), d + 1)]
    for v in range(d + 2, n):
        facet = facets.pop(len(facets) // 2)
        facets += [tuple(sorted(set(facet) - {u} | {v})) for u in facet]
    return from_facets(facets)


@functools.lru_cache(maxsize=None)
def walked_spheres(seed=5, count=150):
    """The spheres of perfbench's ``spheres`` workload: walks from stacked
    spheres on d + 8 vertices, cycling S^2 (10 steps), S^2, S^3 (6 steps),
    each under the cap of d + 8 vertices and seeded from one generator."""
    from simptop.bistellar import random_bistellar_walk

    rng = random.Random(seed)
    plan = ((2, 10), (2, 10), (3, 6))
    spheres = []
    for i in range(count):
        d, steps = plan[i % len(plan)]
        start = stacked_sphere(d, d + 8)
        spheres.append(
            random_bistellar_walk(start, steps, rng.getrandbits(31), max_vertices=d + 8)
        )
    return tuple(spheres)


@contextlib.contextmanager
def per_complex_faces():
    """Every complex builds its own face table, as complexes above
    ``complexes.TABLE_VERTICES`` vertices do: the oracle of the fixed face
    tables.  A property on the class hides any closure already cached."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialComplex, "_table_closure", property(lambda k: None))
        yield


def sampler_draws(seeds=(1, 2, 3), n_samples=200):
    """Every non-empty complex the acyclicity sampler draws, in draw order.

    The sampler tests each non-empty draw's Euler characteristic before
    anything else, so the hook sits there: a hook on the rank test would
    see only the draws with chi = 1.  Nothing else the sampler calls reads
    chi, and the count of recorded draws must match the reports'."""
    drawn = []

    def recording(k):
        drawn.append(k)
        return euler_characteristic(k)

    euler_characteristic = SimplicialComplex.euler_characteristic
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialComplex, "euler_characteristic", recording)
        nonempty = sum(
            census.sample_acyclic_collapsibility(n_samples, seed=seed).nonempty
            for seed in seeds
        )
    assert len(drawn) == nonempty
    return drawn


def neg_complexes(seed, count):
    """Non-acyclic 3-complexes of 3 or 4 random tetrahedra on 7 vertices,
    built like the collapse_neg benchmark's: their searches backtrack."""
    rng = random.Random(seed)
    pool = list(itertools.combinations(range(7), 4))
    out = []
    while len(out) < count:
        k = from_facets(rng.sample(pool, 3 + len(out) % 2))
        if any(homology.reduced_betti(k)):
            out.append(k)
    return out


def spread_mapping(k, rng, monotone=False):
    """Random distinct vertex ids up to 63, 63 among them, for the vertices
    of k; with ``monotone`` the mapping keeps the order of the vertices."""
    images = rng.sample(range(63), len(k.vertices) - 1) + [63]
    if monotone:
        images.sort()
    else:
        rng.shuffle(images)
    return dict(zip(k.vertices, images))


def spread_labels(k, rng):
    """k relabeled onto random distinct vertex ids up to 63, 63 among them."""
    return relabel(k, spread_mapping(k, rng))


def low_labels(k):
    """k relabeled monotonically onto vertex ids 0..n-1."""
    return relabel(k, {v: i for i, v in enumerate(k.vertices)})


def oracle_induced(k, u):
    """k induced on the vertex mask u as it was built before it read the
    star table: every facet's trace on u, the dominated traces dropped."""
    return SimplicialComplex._from_faces(f & u for f in k.facet_masks if f & u)


def image_mask(mask, mapping):
    """A face mask with each vertex v replaced by ``mapping[v]``."""
    return sum(1 << mapping[v] for v in _bits(mask))


# --- the pseudomanifold predicates as they were before they read the star
# table: per-call ridge counts and an all-pairs facet graph.  The oracles of
# structure's table routes.


def oracle_ridge_degrees(k):
    """Ridge mask -> number of facets containing it (k pure, dim >= 1)."""
    degrees = {}
    for f in k.facet_masks:
        for v in _bits(f):
            ridge = f ^ 1 << v
            degrees[ridge] = degrees.get(ridge, 0) + 1
    return degrees


def oracle_is_weak_pseudomanifold(k):
    if k.is_empty() or not k.is_pure():
        return False
    if k.dim == 0:
        return len(k.vertices) == 2
    return all(d == 2 for d in oracle_ridge_degrees(k).values())


def oracle_facet_graph_connected(k):
    facets = k.facet_masks
    if len(facets) <= 1:
        return True
    d = k.dim
    adj = [
        [
            j
            for j in range(len(facets))
            if j != i and (facets[i] & facets[j]).bit_count() == d
        ]
        for i in range(len(facets))
    ]
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(facets)


def oracle_is_pseudomanifold(k):
    if not oracle_is_weak_pseudomanifold(k):
        return False
    if k.dim == 0:
        return True
    return oracle_facet_graph_connected(k)


def oracle_is_weak_pm_with_boundary(k):
    if k.is_empty() or not k.is_pure() or k.dim < 1:
        return False
    degrees = oracle_ridge_degrees(k).values()
    return all(d in (1, 2) for d in degrees) and any(d == 1 for d in degrees)


def oracle_boundary_complex(k):
    """The degree-1 ridges of a weak pm with boundary; the library's
    ValueError messages on other input."""
    if k.is_empty() or not k.is_pure() or k.dim < 1:
        raise ValueError("boundary complex needs a pure complex of dimension >= 1")
    degrees = oracle_ridge_degrees(k)
    if any(d > 2 for d in degrees.values()):
        raise ValueError("not a weak pseudomanifold with boundary: ridge degree > 2")
    boundary = [m for m, d in degrees.items() if d == 1]
    if not boundary:
        raise ValueError("no boundary: every ridge has degree 2")
    return SimplicialComplex(boundary)


def oracle_vertex_invariants(k):
    """Each vertex's link f-vector, from the link complex itself."""
    return {v: k.link([v]).f_vector() for v in k.vertices}


def oracle_are_isomorphic(k, l):
    """``complexes.are_isomorphic`` as it searched before each face was
    checked once: every candidate rescans the faces of k spanned by the
    placed vertices and counts l's faces on their images, so that matched
    counts force non-faces onto non-faces.  Same entry tests, vertex order
    and candidate order, so the same return value, key order included."""
    nk, nl = len(k.vertices), len(l.vertices)
    if max(nk, nl) > ISO_SEARCH_CAP:
        raise ValueError(f"isomorphism search cap: more than {ISO_SEARCH_CAP} vertices")
    if nk != nl or k.f_vector() != l.f_vector():
        return None
    inv_k, inv_l = oracle_vertex_invariants(k), oracle_vertex_invariants(l)
    if sorted(inv_k.values()) != sorted(inv_l.values()):
        return None

    faces_k, faces_l = k._star, l._star
    freq = {}
    for t in inv_k.values():
        freq[t] = freq.get(t, 0) + 1
    order = sorted(k.vertices, key=lambda v: (freq[inv_k[v]], v))
    candidates = {
        v: [w for w in l.vertices if inv_l[w] == inv_k[v]] for v in order
    }

    assigned = {}
    used = 0

    def consistent(v, w):
        placed = assigned.keys()
        img = {a: b for a, b in assigned.items()}
        img[v] = w
        count = 0
        for face in faces_k:
            if face >> v & 1 and all(
                (face >> u & 1) == 0 or u == v or u in placed for u in _bits(face)
            ):
                count += 1
                image = 0
                for u in _bits(face):
                    image |= 1 << img[u]
                if image not in faces_l:
                    return False
        wmask = (1 << w) | sum(1 << assigned[u] for u in placed)
        lcount = sum(1 for face in faces_l if face >> w & 1 and face & ~wmask == 0)
        return count == lcount

    def backtrack(i):
        nonlocal used
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if used >> w & 1:
                continue
            if consistent(v, w):
                assigned[v] = w
                used |= 1 << w
                if backtrack(i + 1):
                    return True
                del assigned[v]
                used ^= 1 << w
        return False

    if backtrack(0):
        return dict(assigned)
    return None
