import dataclasses
import itertools
import re

import pytest

from simptop import are_isomorphic, catalog, free_faces, is_collapsible, reduced_betti
from simptop.collapse import NOT_COLLAPSIBLE
from simptop.homology import is_z2_acyclic


class TestEntries:
    def test_every_entry_validates(self):
        for name in catalog.names():
            entry = catalog.get(name)
            assert entry.complex.facet_masks

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(KeyError, match="Sigma1"):
            catalog.get("nonsense")

    def test_rp2_summary(self):
        entry = catalog.get("RP2_6")
        assert reduced_betti(entry.complex) == (0, 1, 1)
        assert len(entry.complex.facets) == 10

    def test_upsilon1_is_union_of_two_tetra_spheres(self):
        u1 = catalog.get("Upsilon1").complex
        from simptop import from_facets, standard_sphere

        target = from_facets(
            standard_sphere(2, (1, 2, 3, 7)).facet_tuples()
            + standard_sphere(2, (4, 5, 6, 7)).facet_tuples()
        )
        assert u1 == target

    def test_dunce_hat_witness_properties(self, dunce_hat):
        assert len(dunce_hat.vertices) == 8
        assert dunce_hat.euler_characteristic() == 1
        assert is_z2_acyclic(dunce_hat)
        assert free_faces(dunce_hat) == []
        assert is_collapsible(dunce_hat).status == NOT_COLLAPSIBLE


class TestCrossValidation:
    def test_sigmas_pairwise_non_isomorphic(self):
        names = ["Sigma1", "Sigma2", "Sigma3", "Sigma4", "Sigma5"]
        for a, b in itertools.combinations(names, 2):
            ka, kb = catalog.get(a).complex, catalog.get(b).complex
            if ka.f_vector() == kb.f_vector():
                assert are_isomorphic(ka, kb) is None, (a, b)

    def test_upsilons_non_isomorphic(self):
        u1 = catalog.get("Upsilon1").complex
        u2 = catalog.get("Upsilon2").complex
        assert u1.f_vector() != u2.f_vector()

    def test_sigma1_vs_octahedron(self):
        assert (
            are_isomorphic(
                catalog.get("Sigma1").complex, catalog.get("octahedron").complex
            )
            is None
        )

    def test_spheres_and_balls_consistent(self):
        from simptop import standard_ball, standard_sphere

        assert catalog.get("S2_4").complex == standard_sphere(2, (1, 2, 3, 4))
        assert catalog.get("Delta3_4").complex == standard_ball(3, (1, 2, 3, 4))
        assert catalog.get("S1_5").complex.f_vector() == (5, 5)

    def test_r_is_recomputed_from_the_move(self, rp2):
        from simptop.bistellar import apply_generalized_move

        assert catalog.get("R").complex == apply_generalized_move(rp2, (1, 2, 5, 6))


def _wrong(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value[:-1] + (value[-1] + 1,)


def _invariant_cases():
    """(invariant, the first entry by name that expects it)."""
    cases = {}
    for name in catalog.names():
        for invariant in catalog.get(name).expected:
            cases.setdefault(invariant, name)
    return sorted(cases.items())


class TestSelfValidation:
    def test_sphere_f_vectors_are_stated_not_measured(self):
        assert catalog.get("S0_2").expected["f_vector"] == (2,)
        assert catalog.get("S2_4").expected["f_vector"] == (4, 6, 4)
        assert catalog.get("S4_6").expected["f_vector"] == (6, 15, 20, 15, 6)

    def test_every_invariant_is_expected_somewhere(self):
        assert {invariant for invariant, _ in _invariant_cases()} == {
            "f_vector",
            "euler_characteristic",
            "reduced_betti",
            "z2_acyclic",
            "weak_pseudomanifold",
            "pseudomanifold",
            "free_faces",
        }

    @pytest.mark.parametrize("invariant, name", _invariant_cases())
    def test_a_wrong_expectation_raises(self, invariant, name):
        entry = catalog.get(name)
        catalog._validate(entry)
        expected = {**entry.expected, invariant: _wrong(entry.expected[invariant])}
        with pytest.raises(RuntimeError, match=f"^catalog {re.escape(name)}: "):
            catalog._validate(dataclasses.replace(entry, expected=expected))
