import json
import re
import reprlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartcot.errors import ConfigError, SpecSyntaxError, ValidationError
from chartcot.spec import (
    MARKER_CHAR,
    generate_corpus,
    parse_spec,
    serialize_spec,
    synth_spec,
)

from conftest import UNUSABLE_MIXES, doc_with

PAPER_MIX = {"bar": 0.571, "line": 0.336, "pie": 0.093}


class TestParse:
    def test_minimal_bar_roundtrip(self, minimal_bar_doc):
        spec = parse_spec(minimal_bar_doc)
        assert spec.chart_type == "bar"
        assert len(spec.series) == 1
        assert len(spec.series[0].values) == 3
        assert parse_spec(serialize_spec(spec)) == spec

    def test_value_labels_true_rejected(self):
        with pytest.raises(ValidationError, match="value_labels must be false"):
            parse_spec(doc_with(value_labels=True))

    def test_series_category_length_mismatch(self):
        doc = doc_with(series=[{"name": "Alpha", "values": [1.0, 2.0, 3.0, 4.0]}])
        with pytest.raises(ValidationError, match="length mismatch"):
            parse_spec(doc)

    def test_unknown_key(self):
        with pytest.raises(SpecSyntaxError, match=r"^spec\.color must be absent, not 'red'$"):
            parse_spec(doc_with(color="red"))

    def test_missing_key(self):
        obj = json.loads(doc_with())
        del obj["title"]
        with pytest.raises(SpecSyntaxError, match=r"^spec\.title must be a string, not missing$"):
            parse_spec(json.dumps(obj))

    def test_malformed_json(self):
        with pytest.raises(SpecSyntaxError, match="not valid JSON"):
            parse_spec("{not json")

    def test_nested_too_deep_to_decode(self):
        with pytest.raises(SpecSyntaxError, match="^not valid JSON: maximum recursion depth"):
            parse_spec("[" * 100_000 + "]" * 100_000)

    # Case ids are kept stable when a message is reworded.
    @pytest.mark.parametrize("key, value, message", [
        ("id", None, "id must be a string, not None"),
        ("chart_type", 3, "chart_type must be a string, not 3"),
        ("title", ["t"], "title must be a string, not ['t']"),
        ("x_labels", 5, "x_labels must be a list of strings, not 5"),
        pytest.param("x_labels", [1, 2, 3], "x_labels[0] must be a string, not 1",
                     id="x_labels-value4-x_labels must be a list of strings, not [1, 2, 3]"),
        ("x_labels", "ABC", "x_labels must be a list of strings, not 'ABC'"),
        pytest.param("series", [{"name": 7, "values": [1, 2, 3]}], "series[0].name must be a string, not 7",
                     id="series-value6-its name a string"),
        pytest.param("series", [{"name": "Alpha", "values": [1, 10 ** 400, 3]}],
                     f"series[0].values[1] must be a number, not {reprlib.repr(10 ** 400)}",
                     id="series-value7-series values must be numbers a float can hold"),
        pytest.param("series", [{"name": "Alpha", "values": [1, -(10 ** 400), 3]}],
                     f"series[0].values[1] must be a number, not {reprlib.repr(-(10 ** 400))}",
                     id="series-value8-series values must be numbers a float can hold"),
    ])
    def test_value_of_wrong_type_names_its_field(self, key, value, message):
        # These used to be str()-ed ("None", "['t']") or raise TypeError or OverflowError.
        with pytest.raises(SpecSyntaxError, match=f"^spec\\.{re.escape(message)}$"):
            parse_spec(json.dumps({**json.loads(doc_with()), key: value}))

    def test_non_object_document(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("[1, 2]")

    def test_pie_needs_single_series(self):
        doc = doc_with(
            chart_type="pie",
            series=[
                {"name": "Alpha", "values": [1.0, 2.0, 3.0]},
                {"name": "Bravo", "values": [1.0, 2.0, 3.0]},
            ],
        )
        with pytest.raises(ValidationError, match="exactly one series"):
            parse_spec(doc)

    def test_pie_values_strictly_positive(self):
        doc = doc_with(chart_type="pie", series=[{"name": "Alpha", "values": [1.0, 0.0, 3.0]}])
        with pytest.raises(ValidationError, match="strictly positive"):
            parse_spec(doc)

    def test_non_finite_values(self):
        with pytest.raises(ValidationError, match="non-finite"):
            parse_spec(doc_with(series=[{"name": "Alpha", "values": [1.0, float("nan"), 3.0]}]))

    def test_canvas_bounds(self):
        with pytest.raises(ValidationError, match="canvas"):
            parse_spec(doc_with(canvas=[100, 600]))
        with pytest.raises(ValidationError, match="canvas"):
            parse_spec(doc_with(canvas=[800, 5000]))

    def test_duplicate_series_names(self):
        doc = doc_with(series=[
            {"name": "Alpha", "values": [1.0, 2.0, 3.0]},
            {"name": "Alpha", "values": [4.0, 5.0, 6.0]},
        ])
        with pytest.raises(ValidationError, match="unique"):
            parse_spec(doc)

    def test_series_values_must_be_numbers(self):
        with pytest.raises(SpecSyntaxError, match=r"^spec\.series\[0\]\.values\[1\] must be a number, not 'two'$"):
            parse_spec(doc_with(series=[{"name": "Alpha", "values": [1.0, "two", 3.0]}]))

    def test_empty_series_list(self):
        with pytest.raises(ValidationError, match="non-empty"):
            parse_spec(doc_with(series=[]))


class TestGenerateCorpus:
    def test_type_mix_matches_target_distribution(self):
        # Target shares 57.1 / 33.6 / 9.3 percent; +-20 charts of (571, 336, 93).
        specs = generate_corpus(seed=7, n=1000, type_mix=PAPER_MIX)
        counts = {t: sum(1 for s in specs if s.chart_type == t) for t in ("bar", "line", "pie")}
        assert abs(counts["bar"] - 571) <= 20
        assert abs(counts["line"] - 336) <= 20
        assert abs(counts["pie"] - 93) <= 20

    def test_deterministic(self):
        a = generate_corpus(seed=7, n=50, type_mix=PAPER_MIX)
        b = generate_corpus(seed=7, n=50, type_mix=PAPER_MIX)
        assert [serialize_spec(s) for s in a] == [serialize_spec(s) for s in b]

    def test_different_seed_differs(self):
        a = generate_corpus(seed=7, n=50, type_mix=PAPER_MIX)
        b = generate_corpus(seed=8, n=50, type_mix=PAPER_MIX)
        assert [serialize_spec(s) for s in a] != [serialize_spec(s) for s in b]

    def test_degenerate_mix(self):
        specs = generate_corpus(seed=1, n=25, type_mix={"bar": 1.0})
        assert all(s.chart_type == "bar" for s in specs)

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            generate_corpus(seed=1, n=10, type_mix={"bar": -0.5, "line": 1.5})
        with pytest.raises(ConfigError):
            generate_corpus(seed=1, n=10, type_mix={"bar": 0.0, "line": 0.0})
        with pytest.raises(ConfigError):
            generate_corpus(seed=1, n=10, type_mix={"scatter": 1.0})
        with pytest.raises(ConfigError):
            generate_corpus(seed=1, n=0, type_mix=PAPER_MIX)

    @pytest.mark.parametrize("case", UNUSABLE_MIXES)
    def test_unusable_mix_is_a_config_error(self, case):
        mix, message = UNUSABLE_MIXES[case]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            generate_corpus(seed=1, n=5, type_mix=mix)

    def test_every_generated_spec_parses(self):
        for spec in generate_corpus(seed=3, n=120, type_mix=PAPER_MIX):
            assert parse_spec(serialize_spec(spec)) == spec

    def test_marker_char_never_in_generated_text(self):
        for spec in generate_corpus(seed=3, n=120, type_mix=PAPER_MIX):
            texts = [spec.title, *[s.name for s in spec.series], *spec.x_labels]
            assert all(MARKER_CHAR not in t for t in texts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), index=st.integers(min_value=0, max_value=999),
       chart_type=st.sampled_from(["bar", "line", "pie"]))
def test_synth_roundtrip_property(seed, index, chart_type):
    spec = synth_spec(seed, index, chart_type)
    assert parse_spec(serialize_spec(spec)) == spec
