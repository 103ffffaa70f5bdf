import contextlib
import random

import pytest

from simptop import catalog, census, from_facets, homology, relabel
from simptop.complexes import SimplicialComplex, _bits


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


def random_pure_complex(rng, n_vertices=7, dim=2, p=0.3):
    import itertools

    while True:
        facets = [
            c
            for c in itertools.combinations(range(n_vertices), dim + 1)
            if rng.random() < p
        ]
        if facets:
            return from_facets(facets)


@contextlib.contextmanager
def per_complex_faces():
    """Every complex builds its own face table, as complexes above
    ``complexes.TABLE_VERTICES`` vertices do: the oracle of the fixed face
    tables.  A property on the class hides any closure already cached."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialComplex, "_table_closure", property(lambda k: None))
        yield


def sampler_draws(seeds=(1, 2, 3), n_samples=200):
    """Every non-empty complex the acyclicity sampler draws, in draw order."""
    drawn = []

    def recording(k):
        drawn.append(k)
        return is_z2_acyclic(k)

    is_z2_acyclic = homology.is_z2_acyclic
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census.homology, "is_z2_acyclic", recording)
        for seed in seeds:
            census.sample_acyclic_collapsibility(n_samples, seed=seed)
    return drawn


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


def image_mask(mask, mapping):
    """A face mask with each vertex v replaced by ``mapping[v]``."""
    return sum(1 << mapping[v] for v in _bits(mask))
