"""Chart rendering: byte-deterministic SVG and raster output.

Raster text is drawn as solid glyph blocks on the fixed-advance metric table,
so no font engine is involved and every text extent matches the layout oracle
exactly. The marker character and marker anchors are the only ink ever drawn
in the reserved marker color.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .errors import ValidationError
from .geometry import PixelBBox, glyph_advance, glyph_ascent
from .layout import DOT_HALF, ChartLayout, chart_layout
from .spec import MARKER_CHAR, ChartSpec

MARKER_COLOR = (255, 0, 255)  # reserved: never used by palette, text, or overlays
OVERLAY_COLOR = (255, 0, 0)
OVERLAY_STROKE = 3
TEXT_COLOR = (40, 40, 40)
AXIS_COLOR = (80, 80, 80)
BACKGROUND = (255, 255, 255)

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

MarkerAnchor = tuple[float, float]


def series_color(style_seed: int, index: int) -> tuple[int, int, int]:
    return PALETTE[(style_seed + index) % len(PALETTE)]


@dataclass
class Bitmap:
    """8-bit RGB raster backed by a (H, W, 3) numpy array."""

    array: np.ndarray

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]

    def to_ppm(self) -> bytes:
        h, w, _ = self.array.shape
        return b"P6\n%d %d\n255\n" % (w, h) + self.array.tobytes()

    @classmethod
    def from_ppm(cls, data: bytes) -> "Bitmap":
        if not data.startswith(b"P6"):
            raise ValueError("not a binary PPM (P6) file")
        fields: list[bytes] = []
        pos = 2
        while len(fields) < 3:
            while pos < len(data) and data[pos:pos + 1].isspace():
                pos += 1
            if data[pos:pos + 1] == b"#":  # comment line
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
                continue
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            fields.append(data[start:pos])
        pos += 1  # single whitespace after maxval
        w, h, maxval = int(fields[0]), int(fields[1]), int(fields[2])
        if maxval != 255:
            raise ValueError("only 8-bit PPM supported")
        arr = np.frombuffer(data[pos:pos + w * h * 3], dtype=np.uint8).reshape(h, w, 3)
        return cls(arr.copy())


# ---------------------------------------------------------------------------
# SVG

def _fmt(v: float) -> str:
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def _hex(color: tuple[int, int, int]) -> str:
    return "#%02x%02x%02x" % color


def _svg_wedge_path(cx: float, cy: float, r: float, a0: float, a1: float) -> str:
    x0, y0 = cx + r * math.cos(a0), cy + r * math.sin(a0)
    x1, y1 = cx + r * math.cos(a1), cy + r * math.sin(a1)
    large = 1 if (a1 - a0) > math.pi else 0
    return (
        f"M {_fmt(cx)} {_fmt(cy)} L {_fmt(x0)} {_fmt(y0)} "
        f"A {_fmt(r)} {_fmt(r)} 0 {large} 1 {_fmt(x1)} {_fmt(y1)} Z"
    )


def _check_overlays(overlays: list[PixelBBox], canvas: tuple[int, int]) -> None:
    w, h = canvas
    for box in overlays:
        if box.x0 < 0 or box.y0 < 0 or box.x1 > w or box.y1 > h:
            raise ValidationError(f"overlay box {box} exceeds the canvas")


def render_svg(
    spec: ChartSpec,
    overlays: list[PixelBBox] | None = None,
    markers: list[MarkerAnchor] | None = None,
):
    """Render to an SVG 1.1 subset (rect, line, path, text, g).

    Returns (svg_text, GeometryMap). Byte-deterministic for fixed inputs;
    overlay boxes are stroked above all chart content.
    """
    overlays = list(overlays or [])
    markers = list(markers or [])
    _check_overlays(overlays, spec.canvas)
    lay = chart_layout(spec)
    w, h = spec.canvas
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )
    out.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="{_hex(BACKGROUND)}"/>')

    out.append('<g class="chart">')
    if spec.chart_type == "bar":
        for si, s in enumerate(spec.series):
            fill = _hex(series_color(spec.style_seed, si))
            for cat in spec.x_labels:
                b = lay.bar_rects[(s.name, cat)]
                out.append(
                    f'<rect x="{_fmt(b.x0)}" y="{_fmt(b.y0)}" width="{_fmt(b.width)}" '
                    f'height="{_fmt(b.height)}" fill="{fill}"/>'
                )
    elif spec.chart_type == "line":
        for si, s in enumerate(spec.series):
            stroke = _hex(series_color(spec.style_seed, si))
            pts = [lay.line_points[(s.name, cat)] for cat in spec.x_labels]
            d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)
            out.append(f'<path d="{d}" fill="none" stroke="{stroke}" stroke-width="2"/>')
            for x, y in pts:
                out.append(
                    f'<rect x="{_fmt(x - DOT_HALF)}" y="{_fmt(y - DOT_HALF)}" '
                    f'width="{2 * DOT_HALF}" height="{2 * DOT_HALF}" fill="{stroke}"/>'
                )
    else:
        cx, cy = lay.pie_center
        for ci, cat in enumerate(spec.x_labels):
            a0, a1 = lay.wedge_angles[cat]
            fill = _hex(series_color(spec.style_seed, ci))
            out.append(f'<path d="{_svg_wedge_path(cx, cy, lay.pie_radius, a0, a1)}" fill="{fill}"/>')
    out.append("</g>")

    out.append('<g class="axes">')
    if spec.chart_type != "pie":
        p = lay.plot
        axis = _hex(AXIS_COLOR)
        out.append(
            f'<line x1="{_fmt(p.x0)}" y1="{_fmt(p.y1)}" x2="{_fmt(p.x1)}" y2="{_fmt(p.y1)}" stroke="{axis}"/>'
        )
        out.append(
            f'<line x1="{_fmt(p.x0)}" y1="{_fmt(p.y0)}" x2="{_fmt(p.x0)}" y2="{_fmt(p.y1)}" stroke="{axis}"/>'
        )
        for cx in lay.x_centers:
            out.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(p.y1)}" x2="{_fmt(cx)}" y2="{_fmt(p.y1 + 4)}" stroke="{axis}"/>'
            )
        for tv in lay.y_tick_values:
            y = p.y1 - (tv / lay.y_top_value) * p.height
            out.append(
                f'<line x1="{_fmt(p.x0 - 4)}" y1="{_fmt(y)}" x2="{_fmt(p.x0)}" y2="{_fmt(y)}" stroke="{axis}"/>'
            )
    for swatches, colorer in (
        (lay.legend_swatches, lambda i: series_color(spec.style_seed, i)),
        (lay.key_swatches, lambda i: series_color(spec.style_seed, i)),
    ):
        for i, (name, box) in enumerate(swatches.items()):
            out.append(
                f'<rect x="{_fmt(box.x0)}" y="{_fmt(box.y0)}" width="{_fmt(box.width)}" '
                f'height="{_fmt(box.height)}" fill="{_hex(colorer(i))}"/>'
            )
    out.append("</g>")

    out.append('<g class="labels">')
    for t in lay.texts:
        out.append(
            f'<text x="{_fmt(t.x_left)}" y="{_fmt(t.baseline)}" font-size="{t.font_px}" '
            f'font-family="monospace" fill="{_hex(TEXT_COLOR)}">{escape(t.text)}</text>'
        )
    out.append("</g>")

    if markers:
        out.append('<g class="marker">')
        mk = _hex(MARKER_COLOR)
        for mx, my in markers:
            out.append(
                f'<rect x="{_fmt(mx - 1.5)}" y="{_fmt(my - 4.5)}" width="3" height="9" fill="{mk}"/>'
            )
            out.append(
                f'<rect x="{_fmt(mx - 4.5)}" y="{_fmt(my - 1.5)}" width="9" height="3" fill="{mk}"/>'
            )
        out.append("</g>")

    if overlays:
        out.append('<g class="overlay">')
        for box in overlays:
            out.append(
                f'<rect class="overlay-box" x="{_fmt(box.x0)}" y="{_fmt(box.y0)}" '
                f'width="{_fmt(box.width)}" height="{_fmt(box.height)}" fill="none" '
                f'stroke="{_hex(OVERLAY_COLOR)}" stroke-width="{OVERLAY_STROKE}"/>'
            )
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n", lay.geometry


# ---------------------------------------------------------------------------
# Raster

def _fill_rect(arr: np.ndarray, x0: float, y0: float, x1: float, y1: float, color) -> None:
    h, w, _ = arr.shape
    rx0, rx1 = int(round(x0)), int(round(x1))
    ry0, ry1 = int(round(y0)), int(round(y1))
    if rx1 <= rx0:
        rx1 = rx0 + 1
    if ry1 <= ry0:
        ry1 = ry0 + 1
    ix0, ix1 = max(0, rx0), min(w, rx1)
    iy0, iy1 = max(0, ry0), min(h, ry1)
    if ix0 >= ix1 or iy0 >= iy1:
        return
    arr[iy0:iy1, ix0:ix1] = color


def _stamp_points(arr: np.ndarray, xs: np.ndarray, ys: np.ndarray, color, brush: int = 2) -> None:
    h, w, _ = arr.shape
    for dy in range(brush):
        for dx in range(brush):
            px = xs + dx
            py = ys + dy
            ok = (px >= 0) & (px < w) & (py >= 0) & (py < h)
            arr[py[ok], px[ok]] = color


def _draw_segment(arr: np.ndarray, p0, p1, color) -> None:
    n = int(max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1]))) + 1
    ts = np.linspace(0.0, 1.0, n + 1)
    xs = np.rint(p0[0] + (p1[0] - p0[0]) * ts).astype(int)
    ys = np.rint(p0[1] + (p1[1] - p0[1]) * ts).astype(int)
    _stamp_points(arr, xs - 1, ys - 1, color)


def _fill_triangle(arr: np.ndarray, p0, p1, p2, color) -> None:
    h, w, _ = arr.shape
    x0 = max(0, int(math.floor(min(p0[0], p1[0], p2[0]))))
    x1 = min(w, int(math.ceil(max(p0[0], p1[0], p2[0]))) + 1)
    y0 = max(0, int(math.floor(min(p0[1], p1[1], p2[1]))))
    y1 = min(h, int(math.ceil(max(p0[1], p1[1], p2[1]))) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    px = np.arange(x0, x1, dtype=np.float64)[None, :] + 0.5
    py = np.arange(y0, y1, dtype=np.float64)[:, None] + 0.5

    def edge(ax, ay, bx, by):
        return (px - ax) * (by - ay) - (py - ay) * (bx - ax)

    e0 = edge(p0[0], p0[1], p1[0], p1[1])
    e1 = edge(p1[0], p1[1], p2[0], p2[1])
    e2 = edge(p2[0], p2[1], p0[0], p0[1])
    inside = ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))
    region = arr[y0:y1, x0:x1]
    region[inside] = color


PIE_SEGMENT = 2 * math.pi / 64  # max angular width of one fan triangle


def _fill_wedge(arr: np.ndarray, cx: float, cy: float, r: float, a0: float, a1: float, color) -> None:
    span = a1 - a0
    nseg = max(1, int(math.ceil(span / PIE_SEGMENT - 1e-12)))
    step = span / nseg
    for i in range(nseg):
        b0 = a0 + i * step
        b1 = b0 + step
        _fill_triangle(
            arr,
            (cx, cy),
            (cx + r * math.cos(b0), cy + r * math.sin(b0)),
            (cx + r * math.cos(b1), cy + r * math.sin(b1)),
            color,
        )


def _draw_text_blocks(arr: np.ndarray, lay: ChartLayout) -> None:
    for t in lay.texts:
        adv = glyph_advance(t.font_px)
        top = t.baseline - glyph_ascent(t.font_px)
        for i, ch in enumerate(t.text):
            if ch == " ":
                continue
            color = MARKER_COLOR if ch == MARKER_CHAR else TEXT_COLOR
            x0 = t.x_left + i * adv
            _fill_rect(arr, x0, top + 1, x0 + adv - 1, top + t.font_px - 1, color)


def _draw_cross(arr: np.ndarray, x: float, y: float) -> None:
    cx, cy = int(round(x)), int(round(y))
    _fill_rect(arr, cx - 1, cy - 4, cx + 2, cy + 5, MARKER_COLOR)
    _fill_rect(arr, cx - 4, cy - 1, cx + 5, cy + 2, MARKER_COLOR)


def rasterize(
    spec: ChartSpec,
    markers: list[MarkerAnchor] | None = None,
    overlays: list[PixelBBox] | None = None,
):
    """Rasterize to canvas-sized RGB. Returns (Bitmap, GeometryMap).

    Each marker anchor becomes a 9x9 cross in the reserved marker color,
    clipped at canvas edges.
    """
    markers = list(markers or [])
    overlays = list(overlays or [])
    _check_overlays(overlays, spec.canvas)
    lay = chart_layout(spec)
    w, h = spec.canvas
    arr = np.empty((h, w, 3), dtype=np.uint8)
    arr.fill(BACKGROUND[0])  # white background; all channels equal

    if spec.chart_type == "bar":
        for si, s in enumerate(spec.series):
            color = series_color(spec.style_seed, si)
            for cat in spec.x_labels:
                b = lay.bar_rects[(s.name, cat)]
                _fill_rect(arr, b.x0, b.y0, b.x1, b.y1, color)
    elif spec.chart_type == "line":
        for si, s in enumerate(spec.series):
            color = series_color(spec.style_seed, si)
            pts = [lay.line_points[(s.name, cat)] for cat in spec.x_labels]
            for p0, p1 in zip(pts, pts[1:]):
                _draw_segment(arr, p0, p1, color)
            for x, y in pts:
                _fill_rect(arr, x - DOT_HALF, y - DOT_HALF, x + DOT_HALF, y + DOT_HALF, color)
    else:
        cx, cy = lay.pie_center
        for ci, cat in enumerate(spec.x_labels):
            a0, a1 = lay.wedge_angles[cat]
            _fill_wedge(arr, cx, cy, lay.pie_radius, a0, a1, series_color(spec.style_seed, ci))

    if spec.chart_type != "pie":
        p = lay.plot
        _fill_rect(arr, p.x0, p.y1, p.x1, p.y1 + 1, AXIS_COLOR)
        _fill_rect(arr, p.x0 - 1, p.y0, p.x0, p.y1, AXIS_COLOR)
        for cx in lay.x_centers:
            _fill_rect(arr, cx, p.y1, cx + 1, p.y1 + 4, AXIS_COLOR)
        for tv in lay.y_tick_values:
            y = p.y1 - (tv / lay.y_top_value) * p.height
            _fill_rect(arr, p.x0 - 4, y, p.x0, y + 1, AXIS_COLOR)

    for i, box in enumerate(lay.legend_swatches.values()):
        _fill_rect(arr, box.x0, box.y0, box.x1, box.y1, series_color(spec.style_seed, i))
    for i, box in enumerate(lay.key_swatches.values()):
        _fill_rect(arr, box.x0, box.y0, box.x1, box.y1, series_color(spec.style_seed, i))

    _draw_text_blocks(arr, lay)

    for mx, my in markers:
        _draw_cross(arr, mx, my)

    for box in overlays:
        s = OVERLAY_STROKE
        _fill_rect(arr, box.x0 - s / 2, box.y0 - s / 2, box.x1 + s / 2, box.y0 + s / 2, OVERLAY_COLOR)
        _fill_rect(arr, box.x0 - s / 2, box.y1 - s / 2, box.x1 + s / 2, box.y1 + s / 2, OVERLAY_COLOR)
        _fill_rect(arr, box.x0 - s / 2, box.y0 - s / 2, box.x0 + s / 2, box.y1 + s / 2, OVERLAY_COLOR)
        _fill_rect(arr, box.x1 - s / 2, box.y0 - s / 2, box.x1 + s / 2, box.y1 + s / 2, OVERLAY_COLOR)

    return Bitmap(arr), lay.geometry
