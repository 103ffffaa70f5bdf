import pytest
from hypothesis import given, settings, strategies as st_h

from simptop import catalog, from_facets, parse_facets, write_facets
from simptop.facetio import FacetParseError, parse_facets_detailed


class TestParse:
    def test_basic(self):
        k = parse_facets("1 2 3\n1 2 4\n")
        assert k.f_vector() == (4, 5, 2)

    def test_comments_and_blank_lines(self):
        text = "# a complex\n\n1 2 3  # facet one\n\n1 2 4\n"
        assert parse_facets(text).f_vector() == (4, 5, 2)

    def test_dominated_input_normalized_with_warning(self):
        notes = []
        k = parse_facets("1 2\n1 2 3\n", on_warning=notes.append)
        assert k.facet_tuples() == ((1, 2, 3),)
        assert notes

    def test_duplicate_facet_warns(self):
        notes = []
        parse_facets("1 2 3\n3 2 1\n", on_warning=notes.append)
        assert any("duplicate" in n for n in notes)

    def test_label_overflow(self):
        with pytest.raises(FacetParseError, match="vertex cap"):
            parse_facets("64 65\n")

    def test_malformed_line_number(self):
        with pytest.raises(FacetParseError, match="line 2"):
            parse_facets("1 2 3\n1 2 x!\n")

    def test_repeated_label_in_facet(self):
        with pytest.raises(FacetParseError, match="line 1"):
            parse_facets("1 1 2\n")

    def test_repeated_vertex_under_distinct_tokens(self):
        # "0" and "00" are different tokens for the same vertex 0
        with pytest.raises(FacetParseError, match="line 2: repeated label"):
            parse_facets("1 2\n0 00 1\n")

    def test_empty_document(self):
        with pytest.raises(FacetParseError, match="empty complex"):
            parse_facets("# nothing here\n")

    def test_token_labels_first_appearance(self):
        k, labels, _ = parse_facets_detailed("a b c\na b d\n")
        assert labels == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert k.f_vector() == (4, 5, 2)

    def test_mixed_tokens_avoid_numeric_ids(self):
        k, labels, _ = parse_facets_detailed("0 1 x\n")
        assert labels["x"] == 2


class TestRoundTrip:
    def test_write_then_parse_identity(self):
        k = from_facets([(0, 2, 5), (1, 2), (0, 3, 5)])
        assert parse_facets(write_facets(k)) == k

    def test_catalog_round_trips_byte_identical(self):
        for name in catalog.names():
            k = catalog.get(name).complex
            text = write_facets(k)
            assert write_facets(parse_facets(text)) == text

    def test_token_write(self):
        k = from_facets([(0, 1)])
        text = write_facets(k, labels={0: "a", 1: "b"})
        assert text.startswith("# labels: a=0 b=1\n")
        assert "a b" in text

    def test_census_representatives_round_trip(self):
        from simptop import CensusSpec, enumerate_census

        result = enumerate_census(CensusSpec(n_vertices=6))
        for rep in result.representatives:
            assert parse_facets(write_facets(rep)) == rep


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        facets=st_h.lists(
            st_h.frozensets(st_h.integers(0, 63), min_size=1, max_size=5),
            min_size=1,
            max_size=8,
        )
    )
    def test_write_then_parse_random_complexes(self, facets):
        k = from_facets(facets)
        assert parse_facets(write_facets(k)) == k

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        text=st_h.one_of(
            st_h.text(),
            st_h.text(alphabet="0123456789abx_ #!\n\t"),
        )
    )
    def test_arbitrary_text_fails_only_with_parse_error(self, text):
        try:
            k, _, _ = parse_facets_detailed(text)
        except FacetParseError:
            return
        assert not k.is_empty()
