import json
import re
from pathlib import Path

import pytest

from chartcot import errors
from chartcot.render import marker_svg, paint_markers, rasterize, render_svg
from chartcot.spec import ChartSpec, Series, parse_spec, validate_spec


def make_spec(**overrides) -> ChartSpec:
    base = dict(
        id="t0001",
        chart_type="bar",
        title="Revenue by Quarter",
        series=(Series("Alpha", (10.0, 20.0, 15.0)),),
        x_labels=("Q1", "Q2", "Q3"),
        canvas=(800, 600),
        style_seed=3,
        legend=False,
        value_labels=False,
    )
    base.update(overrides)
    return validate_spec(ChartSpec(**base))


def assert_one_reason_form(charts) -> None:
    """Every stage value of ``charts`` is ``pass``, ``fail:injected`` or
    ``fail:<Name>: <message>``, where ``<Name>`` is a class in chartcot.errors."""
    for c in charts:
        for stage, value in c.stages.items():
            if value in ("pass", "fail:injected"):
                continue
            m = re.fullmatch(r"fail:(\w+): .+", value, re.DOTALL)
            cls = getattr(errors, m[1], None) if m else None
            assert isinstance(cls, type) and issubclass(cls, errors.ChartCotError), (c.id, stage, value)


# The damages of the per-file-kind matrix for a run's spec and CoT files.
# Type mixes that cannot make a corpus, with the ConfigError each raises at
# config load and in generate_corpus. The first used to load and then end
# generate_corpus in an IndexError: its sum overflows to inf.
UNUSABLE_MIXES = {
    "overflowing sum": ({"bar": 1e308, "line": 1e308}, "type_mix weights must have a finite sum > 0, not inf"),
    "empty": ({}, "type_mix must name at least one chart type"),
    "all zero": ({"bar": 0.0, "line": 0}, "type_mix weights must have a finite sum > 0, not 0.0"),
    "unknown type": ({"scatter": 1.0}, "type_mix names unknown chart type 'scatter'; the types are ('bar', 'line', 'pie')"),
}

DOCUMENT_DAMAGES = ("missing", "truncated", "non-UTF-8", "other chart")


def damage_document(path: Path, damage: str) -> str:
    """Damage the spec or CoT file ``path`` of a run directory as ``damage``
    names it, and return how reading it back must fail: the error class and
    its message, which names the file. "truncated" keeps the first 40 bytes,
    "non-UTF-8" puts a 0xff byte in the middle, and "other chart" copies the
    next file of that directory over it."""
    rel = f"{path.parent.name}/{path.name}"
    data = path.read_bytes()
    if damage == "missing":
        path.unlink()
        return f"IntegrityError: missing artifact {rel}"
    if damage == "truncated":
        path.write_bytes(data[:40])
        try:
            json.loads(data[:40].decode("utf-8"))
        except ValueError as exc:
            return f"{'SpecSyntaxError' if path.parent.name == 'specs' else 'FormatError'}: {rel}: not valid JSON: {exc}"
    if damage == "non-UTF-8":
        mid = len(data) // 2
        path.write_bytes(data[:mid] + b"\xff" + data[mid + 1:])
        return f"IntegrityError: {rel}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position {mid}: invalid start byte"
    assert damage == "other chart", damage
    siblings = sorted(path.parent.glob("*.json"))
    other = siblings[siblings.index(path) + 1]
    path.write_bytes(other.read_bytes())
    key = "id" if path.parent.name == "specs" else "chart_id"
    return f"IntegrityError: {rel}: {key} is {other.stem!r}, not {path.stem!r}"


def draw_edit(edit):
    """A marker edit drawn in both formats: its SVG and its raster, each with
    the edit's crosses as a layer over the chart."""
    bmp = rasterize(edit.spec)
    paint_markers(bmp, edit.markers)
    return marker_svg(render_svg(edit.spec), edit.markers), bmp


MINIMAL_BAR_DOC = json.dumps({
    "id": "t0001",
    "chart_type": "bar",
    "title": "Revenue by Quarter",
    "series": [{"name": "Alpha", "values": [10.0, 20.0, 15.0]}],
    "x_labels": ["Q1", "Q2", "Q3"],
    "canvas": [800, 600],
    "style_seed": 3,
    "legend": False,
    "value_labels": False,
})


@pytest.fixture
def bar_spec() -> ChartSpec:
    return make_spec()


@pytest.fixture
def two_bar_spec() -> ChartSpec:
    # values [10, 20]: the second bar must be twice as tall as the first
    return make_spec(
        series=(Series("Alpha", (10.0, 20.0)),),
        x_labels=("Q1", "Q2"),
    )


@pytest.fixture
def multi_line_spec() -> ChartSpec:
    return make_spec(
        chart_type="line",
        title="Traffic by Month",
        series=(
            Series("Alpha", (120.0, 260.5, 90.0, 310.0)),
            Series("Bravo", (80.0, 140.0, 220.0, 60.5)),
            Series("Delta", (300.0, 180.0, 240.0, 150.0)),
        ),
        x_labels=("Jan", "Feb", "Mar", "Apr"),
        legend=True,
    )


@pytest.fixture
def pie_spec() -> ChartSpec:
    return make_spec(
        chart_type="pie",
        title="Share by Region",
        series=(Series("Alpha", (45.0, 30.0, 15.0, 10.0)),),
        x_labels=("North", "South", "East", "West"),
        legend=False,
    )


@pytest.fixture
def minimal_bar_doc() -> str:
    return MINIMAL_BAR_DOC


def doc_with(**overrides) -> str:
    obj = json.loads(MINIMAL_BAR_DOC)
    obj.update(overrides)
    return json.dumps(obj)


@pytest.fixture
def parse_minimal():
    return parse_spec(MINIMAL_BAR_DOC)
