import string

import pytest
from hypothesis import given, settings, strategies as st_h

from simptop import (
    CensusSpec,
    catalog,
    certify_sphere,
    enumerate_census,
    enumerate_moves,
    flip_search,
    is_collapsible,
    standard_ball,
    verify_certificate,
)
from simptop import reports
from simptop.bistellar import replay_trace


class TestTreeFormat:
    def test_parse_inverts_render(self):
        body = {
            "status": "x",
            "nested": {"a": "1", "b": "2"},
            "items": ["one two", "three"],
        }
        text = reports.build_report("demo", body, "1 2", seed=5)
        tree = reports.parse_report(text)
        assert tree["report"] == "demo"
        assert tree["seed"] == "5"
        assert tree["input"] == "1 2"
        assert tree["nested"] == {"a": "1", "b": "2"}
        assert tree["items"] == ["one two", "three"]

    def test_byte_identical_modulo_timestamp(self):
        k = standard_ball(2, (1, 2, 3))
        a = reports.collapse_report(k, is_collapsible(k))
        b = reports.collapse_report(k, is_collapsible(k))
        assert reports.strip_timestamp(a) == reports.strip_timestamp(b)


class TestCertificateRoundTrips:
    def test_collapse_certificate_reverifies_after_parse(self):
        k = standard_ball(3, (1, 2, 3, 4))
        verdict = is_collapsible(k)
        text = reports.collapse_report(k, verdict)
        tree = reports.parse_report(text)
        restored_input = reports.complex_from_text(tree["input"])
        cert = reports.certificate_from_tree(tree["certificate"])
        assert restored_input == k
        assert verify_certificate(restored_input, cert)

    def test_flip_trace_round_trip(self):
        sigma3 = catalog.get("Sigma3").complex
        trace = flip_search(sigma3, "standard-sphere", seed=5)
        tree = reports.parse_report(
            reports.build_report("flip", reports.flip_trace_tree(trace))
        )
        restored = reports.flip_trace_from_tree(tree)
        assert restored == trace
        replay_trace(sigma3, restored)

    def test_sphere_certificate_report(self):
        m = catalog.get("Sigma2").complex
        cert = certify_sphere(m)
        text = reports.sphere_certificate_report(m, cert)
        tree = reports.parse_report(text)
        assert tree["verdict"] == "combinatorial-sphere"
        complement = reports.complex_from_text(tree["complement"])
        restored = reports.certificate_from_tree(tree["collapse"])
        assert verify_certificate(complement, restored)

    def test_moves_report_round_trip(self):
        k = catalog.get("Sigma2").complex
        moves = enumerate_moves(k)
        tree = reports.parse_report(reports.moves_report(k, moves))
        assert int(tree["count"]) == len(moves)
        restored = [reports.move_from_text(item) for item in tree["moves"]]
        assert restored == moves

    def test_census_report(self):
        result = enumerate_census(CensusSpec(n_vertices=5))
        tree = reports.parse_report(reports.census_report(result))
        assert int(tree["classes"]) == result.class_count
        assert len(tree["representatives"]) == result.class_count


# keys and values the line format can carry: keys without spaces or colons,
# values and list items stripped, non-empty and free of colons
_KEYS = st_h.text(
    alphabet=string.ascii_lowercase + string.digits + "-_", min_size=1, max_size=8
)
_VALUES = (
    st_h.text(alphabet=string.ascii_letters + string.digits + " -|,.", max_size=20)
    .map(str.strip)
    .filter(bool)
)
_LEAVES = st_h.one_of(_VALUES, st_h.lists(_VALUES, min_size=1, max_size=4))
_TREES = st_h.recursive(
    st_h.dictionaries(_KEYS, _LEAVES, max_size=4),
    lambda subtrees: st_h.dictionaries(
        _KEYS, st_h.one_of(_LEAVES, subtrees), max_size=4
    ),
    max_leaves=16,
)


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tree=_TREES)
    def test_parse_inverts_render_on_random_trees(self, tree):
        assert reports.parse_report("\n".join(reports._render(tree)) + "\n") == tree

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        text=st_h.one_of(
            st_h.text(),
            st_h.text(alphabet="ab:- \n", max_size=300),
        )
    )
    def test_arbitrary_text_returns_a_tree_or_value_error(self, text):
        try:
            tree = reports.parse_report(text)
        except ValueError:
            return
        assert isinstance(tree, dict)

    def test_deep_nesting_is_a_value_error(self):
        # one level deeper per line used to recurse until RecursionError
        text = "\n".join("  " * i + "a:" for i in range(3000))
        with pytest.raises(ValueError, match="nested deeper"):
            reports.parse_report(text)
        at_limit = "\n".join("  " * i + "a:" for i in range(reports.MAX_DEPTH + 1))
        assert reports.parse_report(at_limit)["a"]["a"]
