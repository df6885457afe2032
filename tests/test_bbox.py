import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartcot.bbox import NormBBox, denormalize, normalize, parse, serialize
from chartcot.config import PipelineConfig
from chartcot.errors import ConfigError, ParseError
from chartcot.geometry import PixelBBox

CANVAS = (1000, 800)


def box(x0, y0, x1, y1):
    return PixelBBox(float(x0), float(y0), float(x1), float(y1))


class TestNormalize:
    def test_format_c_half_rounds_up(self):
        # 500 * 999 / 1000 = 499.5 -> rounds away from zero to 500
        n = normalize(box(500, 100, 600, 200), CANVAS, "C")
        assert n.coords[0] == 500

    def test_format_c_boundaries(self):
        n = normalize(box(0, 0, 1000, 800), CANVAS, "C")
        assert n.coords == (0, 0, 999, 999)

    def test_format_a_exact_fraction(self):
        n = normalize(box(500, 100, 600, 200), CANVAS, "A")
        assert n.coords[0] == 0.5

    def test_format_b_on_800_canvas(self):
        n = NormBBox("B", (0.5, 0.1, 0.7, 0.2))
        p = denormalize(n, (800, 800))
        assert p.x0 == 400.0

    def test_y_axis_uses_height(self):
        n = normalize(box(100, 400, 200, 800), CANVAS, "C")
        assert n.coords[1] == round(400 * 999 / 800)
        assert n.coords[3] == 999

    def test_range_validation(self):
        with pytest.raises(ValueError):
            NormBBox("C", (0, 0, 1000, 999))
        with pytest.raises(ValueError):
            NormBBox("A", (0.0, 0.0, 1.2, 1.0))
        with pytest.raises(ValueError):
            NormBBox("C", (0.5, 0, 10, 10))
        with pytest.raises(ValueError):
            NormBBox("D", (0, 0, 1, 1))


class TestQuantizationBounds:
    def test_exhaustive_format_c(self):
        # every integer pixel on a 1000x800 canvas round-trips within
        # 0.5 * size / 999 (= 0.5005 px at size 1000), well under 2 px
        for size in CANVAS:
            worst = 0.0
            for px in range(size + 1):
                n = round(px * 999 / size + 0.5 - 1e-12)  # oracle: half-up
                back = n * size / 999
                worst = max(worst, abs(back - px))
            assert worst <= 1.1
            assert worst <= -(-size // 999)  # ceil(size/999)

    @pytest.mark.parametrize("fmt,decimals", [("A", 4), ("B", 3)])
    def test_exhaustive_decimal_formats(self, fmt, decimals):
        for size in CANVAS:
            bound = size * 0.5 * 10 ** (-decimals) + 1e-9
            for px in range(size + 1):
                frac = round(px / size, decimals)
                assert abs(frac * size - px) <= bound

    def test_denormalize_matches_oracle(self):
        for px in range(0, 1001, 7):
            p = box(px, 0, px + 1 if px < 1000 else px, 1) if px < 1000 else box(999, 0, 1000, 1)
            n = normalize(p, CANVAS, "C")
            back = denormalize(n, CANVAS)
            assert abs(back.x0 - p.x0) <= 1.1


def test_config_accepts_exactly_the_formats_serialize_writes():
    box = PixelBBox(10.0, 20.0, 30.0, 40.0)

    def written(fmt: str) -> bool:
        try:
            return parse(serialize(normalize(box, (100, 100), fmt)), fmt).format == fmt
        except (ValueError, KeyError):
            return False

    def loaded(fmt: str) -> bool:
        try:
            return PipelineConfig(bbox_format=fmt).bbox_format == fmt
        except ConfigError:
            return False

    letters = [chr(c) for c in range(ord("A"), ord("Z") + 1)] + ["", "a", "c", "CC"]
    assert [f for f in letters if loaded(f)] == [f for f in letters if written(f)] == ["A", "B", "C"]


class TestSerialize:
    def test_format_c_text(self):
        n = NormBBox("C", (450, 374, 470, 399))
        assert serialize(n) == "(450,374),(470,399)"

    def test_format_a_zero_padded(self):
        n = NormBBox("A", (0.5, 0.25, 0.75, 1.0))
        assert serialize(n) == "(0.5000,0.2500),(0.7500,1.0000)"

    def test_format_b_three_decimals(self):
        n = NormBBox("B", (0.5, 0.25, 0.755, 1.0))
        assert serialize(n) == "(0.500,0.250),(0.755,1.000)"

    def test_parse_error_on_truncation(self):
        with pytest.raises(ParseError):
            parse("(450,374),(470,399", fmt="C")
        with pytest.raises(ParseError):
            parse("450,374,470,399", fmt="C")

    @pytest.mark.parametrize("text", [None, 5, b"(1,2),(3,4)", ["(1,2),(3,4)"]])
    def test_parse_error_on_a_non_string(self, text):
        with pytest.raises(ParseError, match="is a string, not"):
            parse(text, fmt="C")

    def test_parse_error_on_more_decimals_than_the_format_writes(self):
        assert parse("(0.1234,0.5),(0.75,1.0)", fmt="A").coords == (0.1234, 0.5, 0.75, 1.0)
        with pytest.raises(ParseError, match="at most 4 decimals"):
            parse("(0.12345,0.5),(0.75,1.0)", fmt="A")
        with pytest.raises(ParseError, match="at most 3 decimals"):
            parse("(0.1234,0.5),(0.75,1.0)", fmt="B")

    def test_format_c_integers_no_leading_zeros(self):
        n = NormBBox("C", (0, 7, 42, 999))
        text = serialize(n)
        assert re.fullmatch(r"\((0|[1-9]\d*),(0|[1-9]\d*)\),\((0|[1-9]\d*),(0|[1-9]\d*)\)", text)


@st.composite
def norm_boxes(draw):
    fmt = draw(st.sampled_from(["A", "B", "C"]))
    if fmt == "C":
        coords = tuple(float(draw(st.integers(0, 999))) for _ in range(4))
    else:
        decimals = 4 if fmt == "A" else 3
        coords = tuple(
            round(draw(st.integers(0, 10 ** decimals)) / 10 ** decimals, decimals)
            for _ in range(4)
        )
    return NormBBox(fmt, coords)


@settings(max_examples=300, deadline=None)
@given(norm_boxes())
def test_serialize_parse_roundtrip(n):
    assert parse(serialize(n), fmt=n.format) == n


_MUTATION = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 40), st.just("")),
    st.tuples(st.just("insert"), st.integers(0, 40), st.sampled_from(list("0123456789.,()- \ne"))),
    st.tuples(st.just("replace"), st.integers(0, 40), st.sampled_from(list("0123456789.,()- x"))),
    st.tuples(st.just("repeat"), st.integers(0, 40), st.just("")),
)


def _mutate(text: str, edits) -> str:
    for how, at, ch in edits:
        at %= len(text) + 1
        if how == "delete":
            text = text[:at] + text[at + 1:]
        elif how == "insert":
            text = text[:at] + ch + text[at:]
        elif how == "replace":
            text = text[:at] + ch + text[at + 1:]
        else:
            text = text[:at] + text[at:] * 2
    return text


@settings(max_examples=300, deadline=None)
@given(n=norm_boxes(), edits=st.lists(_MUTATION, max_size=4), fmt=st.sampled_from(["A", "B", "C"]))
def test_mutated_serializations_parse_to_a_round_trip_or_parse_error(n, edits, fmt):
    # A mutated string either parses to a box that serializes back to itself,
    # or is a ParseError; nothing else escapes. The format may not be the writer's.
    try:
        parsed = parse(_mutate(serialize(n), edits), fmt=fmt)
    except ParseError:
        return
    assert isinstance(parsed, NormBBox)
    assert parse(serialize(parsed), fmt=fmt) == parsed


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(["A", "B", "C"]),
    x0=st.integers(0, 800), y0=st.integers(0, 600),
    w=st.integers(1, 99), h=st.integers(1, 99),
    grow=st.integers(0, 50),
)
def test_normalize_monotone(fmt, x0, y0, w, h, grow):
    inner = box(x0 + grow, y0 + grow, x0 + grow + w, y0 + grow + h)
    outer = box(x0, y0, x0 + w + 2 * grow, y0 + h + 2 * grow)
    ni = normalize(inner, CANVAS, fmt).coords
    no = normalize(outer, CANVAS, fmt).coords
    assert no[0] <= ni[0] and no[1] <= ni[1]
    assert ni[2] <= no[2] and ni[3] <= no[3]
