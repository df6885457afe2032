"""Deterministic chart layout.

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


@dataclass
class TextItem:
    """One string placed on the canvas; shared by SVG, raster, and detection."""

    text: str
    x_left: float
    baseline: float
    font_px: int


@dataclass
class ChartLayout:
    spec: ChartSpec
    geometry: dict[ElementRef, PixelBBox]  # exact element-to-bbox oracle
    plot: PixelBBox
    texts: list[TextItem] = field(default_factory=list)
    # bar/line
    y_tick_values: list[float] = field(default_factory=list)
    y_top_value: float = 0.0
    x_centers: list[float] = field(default_factory=list)
    bar_rects: dict = field(default_factory=dict)      # (series, category) -> PixelBBox
    line_points: dict = field(default_factory=dict)    # (series, category) -> (x, y)
    # pie
    pie_center: tuple[float, float] = (0.0, 0.0)
    pie_radius: float = 0.0
    wedge_angles: dict = field(default_factory=dict)   # category -> (a0, a1) radians
    wedge_centroids: dict = field(default_factory=dict)
    # swatches to fill with series/category colors
    legend_swatches: dict = field(default_factory=dict)  # series -> PixelBBox
    key_swatches: dict = field(default_factory=dict)     # category -> PixelBBox

    @property
    def canvas(self) -> tuple[int, int]:
        return self.spec.canvas


def _value_to_y(v: float, top_value: float, plot: PixelBBox) -> float:
    return plot.y1 - (v / top_value) * plot.height


def _store_text(lay: ChartLayout, ref: ElementRef, item: TextItem, extra: PixelBBox | None = None) -> None:
    """Record a text element: place it and store its padded, clamped bbox."""
    lay.texts.append(item)
    box = text_bbox(item.x_left, item.baseline, item.text, item.font_px)
    if extra is not None:
        box = PixelBBox(
            min(box.x0, extra.x0), min(box.y0, extra.y0),
            max(box.x1, extra.x1), max(box.y1, extra.y1),
        )
    w, h = lay.canvas
    lay.geometry[ref] = box.expand(text_pad(item.font_px)).clamp(w, h)


def _check_tick_overlap(lay: ChartLayout) -> None:
    ticks = [box for ref, box in lay.geometry.items() if ref.role == "x_tick"]
    for i in range(len(ticks)):
        for j in range(i + 1, len(ticks)):
            if ticks[i].intersects(ticks[j]):
                raise LayoutError("x tick labels overlap; canvas too small")


def _layout_axes_chart(lay: ChartLayout) -> None:
    spec = lay.spec
    plot = lay.plot
    values = [v for s in spec.series for v in s.values]
    if min(values) < 0:
        raise LayoutError("negative values unsupported by the zero-based axis")
    vmax = max(values)
    _, ticks = nice_ticks(vmax if vmax > 0 else 1.0)
    lay.y_tick_values = ticks
    lay.y_top_value = ticks[-1]

    for tv in ticks:
        y = _value_to_y(tv, lay.y_top_value, plot)
        label = str(int(tv)) if float(tv).is_integer() else f"{tv:g}"
        x_left = plot.x0 - 8 - text_width(label, LABEL_FONT_PX)
        item = TextItem(label, x_left, y + glyph_ascent(LABEL_FONT_PX) / 2 - 1, LABEL_FONT_PX)
        _store_text(lay, ElementRef("y_tick", category=label), item)

    n_cat = len(spec.x_labels)
    band_w = plot.width / n_cat
    lay.x_centers = [plot.x0 + (i + 0.5) * band_w for i in range(n_cat)]
    for cat, cx in zip(spec.x_labels, lay.x_centers):
        x_left = cx - text_width(cat, LABEL_FONT_PX) / 2
        item = TextItem(cat, x_left, plot.y1 + 6 + glyph_ascent(LABEL_FONT_PX), LABEL_FONT_PX)
        _store_text(lay, ElementRef("x_tick", category=cat), item)

    if spec.chart_type == "bar":
        group_w = band_w * 0.8
        bar_w = group_w / len(spec.series)
        for si, s in enumerate(spec.series):
            for ci, (cat, v) in enumerate(zip(spec.x_labels, s.values)):
                x0 = plot.x0 + ci * band_w + band_w * 0.1 + si * bar_w
                y_top = _value_to_y(v, lay.y_top_value, plot)
                y_top = min(y_top, plot.y1 - 0.5)  # zero values keep a sliver of ink
                box = PixelBBox(x0, y_top, x0 + bar_w, plot.y1)
                lay.bar_rects[(s.name, cat)] = box
                lay.geometry[ElementRef("datapoint", series=s.name, category=cat)] = box
    else:  # line
        for s in spec.series:
            for cat, cx, v in zip(spec.x_labels, lay.x_centers, s.values):
                y = _value_to_y(v, lay.y_top_value, plot)
                lay.line_points[(s.name, cat)] = (cx, y)
                box = PixelBBox(cx - DOT_HALF, y - DOT_HALF, cx + DOT_HALF, y + DOT_HALF)
                w, h = lay.canvas
                lay.geometry[ElementRef("datapoint", series=s.name, category=cat)] = box.clamp(w, h)

    if spec.legend:
        lx = plot.x1 + 14
        for i, s in enumerate(spec.series):
            ey = plot.y0 + i * ENTRY_PITCH
            if ey + SWATCH_PX > lay.canvas[1] - 4:
                raise LayoutError("legend does not fit the canvas height")
            swatch = PixelBBox(lx, ey, lx + SWATCH_PX, ey + SWATCH_PX)
            lay.legend_swatches[s.name] = swatch
            item = TextItem(s.name, lx + SWATCH_PX + 6, ey + 10, LABEL_FONT_PX)
            _store_text(lay, ElementRef("legend_entry", series=s.name), item, extra=swatch)


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
    lay.pie_center = (cx, cy)
    lay.pie_radius = r

    angle = -math.pi / 2  # start at 12 o'clock, sweep clockwise (y-down canvas)
    w, h = lay.canvas
    for cat, v in zip(spec.x_labels, series.values):
        span = (v / total) * 2 * math.pi
        a0, a1 = angle, angle + span
        angle = a1
        lay.wedge_angles[cat] = (a0, a1)
        mid = (a0 + a1) / 2
        d = (4 * r * math.sin(span / 2)) / (3 * span) if span > 0 else 0.0
        lay.wedge_centroids[cat] = (cx + d * math.cos(mid), cy + d * math.sin(mid))
        box = PixelBBox(*sector_bounds(cx, cy, r, a0, a1)).clamp(w, h)
        lay.geometry[ElementRef("datapoint", series=series.name, category=cat)] = box

    # Category key column on the right; these labels are the pie's tick text.
    lx = plot.x1 + 14
    for i, cat in enumerate(spec.x_labels):
        ey = plot.y0 + i * ENTRY_PITCH
        if ey + SWATCH_PX > h - 4:
            raise LayoutError("category key does not fit the canvas height")
        swatch = PixelBBox(lx, ey, lx + SWATCH_PX, ey + SWATCH_PX)
        lay.key_swatches[cat] = swatch
        item = TextItem(cat, lx + SWATCH_PX + 6, ey + 10, LABEL_FONT_PX)
        _store_text(lay, ElementRef("x_tick", category=cat), item, extra=swatch)


def chart_layout(spec: ChartSpec) -> ChartLayout:
    """Full layout: geometry oracle plus everything the renderers need."""
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
