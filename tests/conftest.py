import json

import pytest

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
