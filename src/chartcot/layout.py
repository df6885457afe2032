"""Deterministic chart layout: the one description of a chart.

``chart_layout`` places every element of a spec once and records, in the
same pass, its bbox (the grounding oracle), its marker anchor if it is a
datapoint, and its paint items, which the SVG and raster writers only
translate. Only this module branches on the chart type.

Margins are fixed fractions of nothing but the canvas and chart options, never
of text content. Appending a marker glyph to a label therefore leaves every
other element exactly where it was, which is what makes bboxes detected on an
edited render valid ground truth for the vanilla chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import LayoutError
from .geometry import (
    LABEL_FONT_PX,
    TITLE_FONT_PX,
    ElementRef,
    PixelBBox,
    glyph_ascent,
    nice_ticks,
    text_bbox,
    text_pad,
    text_width,
)
from .spec import ChartSpec

MARGIN_LEFT = 64         # room for y tick labels on axis charts
MARGIN_TOP_TITLE = 40
MARGIN_BOTTOM = 36       # room for x tick labels
MARGIN_THIN = 16         # any side without labels
SIDE_COLUMN_W = 160      # legend (bar/line) or category key (pie)

SWATCH_PX = 12
ENTRY_PITCH = 22
MIN_PLOT_SIDE = 40

DOT_HALF = 3  # line-chart vertex marker half-extent

PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
)


def series_color(style_seed: int, index: int) -> tuple[int, int, int]:
    return PALETTE[(style_seed + index) % len(PALETTE)]


@dataclass
class TextItem:
    """One string placed on the canvas; shared by SVG, raster, and detection."""

    text: str
    x_left: float
    baseline: float
    font_px: int


# Paint items are tuples (kind, *args), listed in paint order per group
# (``chart``, ``axes``, ``labels``, the SVG's <g> groups):
#
#   ("rect", x0, y0, x1, y1, color)          bar, line-chart dot, legend or key swatch
#   ("polyline", points, color)              one line series
#   ("pie", cx, cy, r, wedges, colors)       the wedges (a0, a1), which tile one turn; one item,
#                                            so the last wedge closes on the first one's ray
#   ("rule", x1, y1, x2, y2, rect)           an axis or tick line; rect is its 1 px raster stand-in
#   ("text", TextItem)                       a label; marker glyphs take the marker colour
#
# Marker crosses and overlay boxes are not paint items but layers over the
# finished image (render.py).


@dataclass
class ChartLayout:
    spec: ChartSpec
    geometry: dict[ElementRef, PixelBBox]  # exact element-to-bbox oracle
    plot: PixelBBox
    anchors: dict[ElementRef, tuple[float, float]] = field(default_factory=dict)  # datapoint -> marker anchor
    groups: dict[str, list[tuple]] = field(
        default_factory=lambda: {"chart": [], "axes": [], "labels": []})  # paint items

    @property
    def canvas(self) -> tuple[int, int]:
        return self.spec.canvas


def _value_to_y(v: float, top_value: float, plot: PixelBBox) -> float:
    return plot.y1 - (v / top_value) * plot.height


def _store_text(lay: ChartLayout, ref: ElementRef, item: TextItem, extra: PixelBBox | None = None) -> None:
    """Record a text element: paint it and store its padded, clamped bbox."""
    lay.groups["labels"].append(("text", item))
    box = text_bbox(item.x_left, item.baseline, item.text, item.font_px)
    if extra is not None:
        box = PixelBBox(
            min(box.x0, extra.x0), min(box.y0, extra.y0),
            max(box.x1, extra.x1), max(box.y1, extra.y1),
        )
    w, h = lay.canvas
    lay.geometry[ref] = box.expand(text_pad(item.font_px)).clamp(w, h)


def _side_column(lay: ChartLayout, entries: list[tuple[ElementRef, str]], what: str) -> None:
    """Swatch-and-label entries stacked right of the plot, the i-th in colour
    i: a bar or line chart's legend, or a pie's category key."""
    lx = lay.plot.x1 + 14
    for i, (ref, text) in enumerate(entries):
        ey = lay.plot.y0 + i * ENTRY_PITCH
        if ey + SWATCH_PX > lay.canvas[1] - 4:
            raise LayoutError(f"{what} does not fit the canvas height")
        swatch = PixelBBox(lx, ey, lx + SWATCH_PX, ey + SWATCH_PX)
        lay.groups["axes"].append(("rect", *swatch.as_tuple(), series_color(lay.spec.style_seed, i)))
        _store_text(lay, ref, TextItem(text, lx + SWATCH_PX + 6, ey + 10, LABEL_FONT_PX), extra=swatch)


def _check_tick_overlap(lay: ChartLayout) -> None:
    ticks = [box for ref, box in lay.geometry.items() if ref.role == "x_tick"]
    for i in range(len(ticks)):
        for j in range(i + 1, len(ticks)):
            if ticks[i].intersects(ticks[j]):
                raise LayoutError("x tick labels overlap; canvas too small")


def _layout_axes_chart(lay: ChartLayout) -> None:
    spec = lay.spec
    p = lay.plot
    chart, axes = lay.groups["chart"], lay.groups["axes"]
    values = [v for s in spec.series for v in s.values]
    if min(values) < 0:
        raise LayoutError("negative values unsupported by the zero-based axis")
    vmax = max(values)
    _, ticks = nice_ticks(vmax if vmax > 0 else 1.0)
    top = ticks[-1]

    # The raster rule lies below a horizontal line, left of the y axis and
    # right of an x tick.
    axes.append(("rule", p.x0, p.y1, p.x1, p.y1, (p.x0, p.y1, p.x1, p.y1 + 1)))
    axes.append(("rule", p.x0, p.y0, p.x0, p.y1, (p.x0 - 1, p.y0, p.x0, p.y1)))
    y_rules = []
    for tv in ticks:
        y = _value_to_y(tv, top, p)
        y_rules.append(("rule", p.x0 - 4, y, p.x0, y, (p.x0 - 4, y, p.x0, y + 1)))
        label = str(int(tv)) if float(tv).is_integer() else f"{tv:g}"
        x_left = p.x0 - 8 - text_width(label, LABEL_FONT_PX)
        item = TextItem(label, x_left, y + glyph_ascent(LABEL_FONT_PX) / 2 - 1, LABEL_FONT_PX)
        _store_text(lay, ElementRef("y_tick", category=label), item)

    band_w = p.width / len(spec.x_labels)
    x_centers = [p.x0 + (i + 0.5) * band_w for i in range(len(spec.x_labels))]
    for cat, cx in zip(spec.x_labels, x_centers):
        axes.append(("rule", cx, p.y1, cx, p.y1 + 4, (cx, p.y1, cx + 1, p.y1 + 4)))
        x_left = cx - text_width(cat, LABEL_FONT_PX) / 2
        item = TextItem(cat, x_left, p.y1 + 6 + glyph_ascent(LABEL_FONT_PX), LABEL_FONT_PX)
        _store_text(lay, ElementRef("x_tick", category=cat), item)
    axes += y_rules

    w, h = lay.canvas
    bar_w = band_w * 0.8 / len(spec.series)
    for si, s in enumerate(spec.series):
        color = series_color(spec.style_seed, si)
        points = []
        for ci, (cat, cx, v) in enumerate(zip(spec.x_labels, x_centers, s.values)):
            ref = ElementRef("datapoint", series=s.name, category=cat)
            y = _value_to_y(v, top, p)
            if spec.chart_type == "bar":
                x0 = p.x0 + ci * band_w + band_w * 0.1 + si * bar_w
                box = PixelBBox(x0, min(y, p.y1 - 0.5), x0 + bar_w, p.y1)  # zero values keep a sliver of ink
                chart.append(("rect", *box.as_tuple(), color))
                # One pixel below the top edge so the rounded cross centre stays on the bar.
                lay.anchors[ref] = ((box.x0 + box.x1) / 2.0, box.y0 + 1.0)
            else:  # line: the anchor is the vertex
                points.append((cx, y))
                box = PixelBBox(cx - DOT_HALF, y - DOT_HALF, cx + DOT_HALF, y + DOT_HALF).clamp(w, h)
                lay.anchors[ref] = (cx, y)
            lay.geometry[ref] = box
        if points:
            chart.append(("polyline", points, color))
            chart += [("rect", x - DOT_HALF, y - DOT_HALF, x + DOT_HALF, y + DOT_HALF, color) for x, y in points]

    if spec.legend:
        _side_column(lay, [(ElementRef("legend_entry", series=s.name), s.name) for s in spec.series], "legend")


def sector_bounds(cx: float, cy: float, r: float, a0: float, a1: float) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) bounding the centre, rim ends and rim extremes of a disc sector."""
    xs = [cx, cx + r * math.cos(a0), cx + r * math.cos(a1)]
    ys = [cy, cy + r * math.sin(a0), cy + r * math.sin(a1)]
    k = math.ceil(a0 / (math.pi / 2))
    while k * math.pi / 2 <= a1 + 1e-12:
        xs.append(cx + r * math.cos(k * math.pi / 2))
        ys.append(cy + r * math.sin(k * math.pi / 2))
        k += 1
    return min(xs), min(ys), max(xs), max(ys)


def _layout_pie(lay: ChartLayout) -> None:
    spec = lay.spec
    plot = lay.plot
    series = spec.series[0]
    total = sum(series.values)
    cx = plot.x0 + plot.width / 2
    cy = plot.y0 + plot.height / 2
    r = 0.42 * min(plot.width, plot.height)

    angle = -math.pi / 2  # start at 12 o'clock, sweep clockwise (y-down canvas)
    w, h = lay.canvas
    wedges = []
    for cat, v in zip(spec.x_labels, series.values):
        span = (v / total) * 2 * math.pi
        a0, a1 = angle, angle + span
        angle = a1
        wedges.append((a0, a1))
        ref = ElementRef("datapoint", series=series.name, category=cat)
        # The anchor is the wedge's centroid.
        mid = (a0 + a1) / 2
        d = (4 * r * math.sin(span / 2)) / (3 * span) if span > 0 else 0.0
        lay.anchors[ref] = (cx + d * math.cos(mid), cy + d * math.sin(mid))
        lay.geometry[ref] = PixelBBox(*sector_bounds(cx, cy, r, a0, a1)).clamp(w, h)
    colors = [series_color(spec.style_seed, i) for i in range(len(wedges))]
    lay.groups["chart"].append(("pie", cx, cy, r, wedges, colors))

    # The category key's labels are the pie's tick text.
    _side_column(lay, [(ElementRef("x_tick", category=cat), cat) for cat in spec.x_labels], "category key")


def chart_layout(spec: ChartSpec) -> ChartLayout:
    """Full layout: geometry oracle, marker anchors and paint items."""
    w, h = spec.canvas
    is_pie = spec.chart_type == "pie"
    left = MARGIN_THIN if is_pie else MARGIN_LEFT
    right = SIDE_COLUMN_W if (is_pie or spec.legend) else MARGIN_THIN
    top = MARGIN_TOP_TITLE if spec.title else MARGIN_THIN
    bottom = MARGIN_THIN if is_pie else MARGIN_BOTTOM
    if w - left - right < MIN_PLOT_SIDE or h - top - bottom < MIN_PLOT_SIDE:
        raise LayoutError("canvas too small for plot area")
    plot = PixelBBox(float(left), float(top), float(w - right), float(h - bottom))

    lay = ChartLayout(spec=spec, geometry={}, plot=plot)
    lay.geometry[ElementRef("plot_area")] = plot

    if spec.title:
        x_left = (w - text_width(spec.title, TITLE_FONT_PX)) / 2
        item = TextItem(spec.title, x_left, 6 + glyph_ascent(TITLE_FONT_PX), TITLE_FONT_PX)
        _store_text(lay, ElementRef("title"), item)

    if is_pie:
        _layout_pie(lay)
    else:
        _layout_axes_chart(lay)
        _check_tick_overlap(lay)
    return lay


def layout(spec: ChartSpec) -> dict[ElementRef, PixelBBox]:
    """Lay a valid spec out; deterministic element-to-bbox oracle."""
    return chart_layout(spec).geometry
