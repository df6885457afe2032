"""Chart rendering: byte-deterministic SVG and raster output.

Raster text is drawn as solid glyph blocks on the fixed-advance metric table,
so no font engine is involved and every text extent matches the layout oracle
exactly. The marker character and marker anchors are the only ink ever drawn
in the reserved marker color.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .errors import IntegrityError, ValidationError
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
        # bytes.join copies the pixels once; concatenating tobytes() copies them twice.
        return b"".join((b"P6\n%d %d\n255\n" % (w, h), np.ascontiguousarray(self.array).data))

    @classmethod
    def from_ppm(cls, data: bytes) -> "Bitmap":
        """Decode a binary PPM (P6, maxval 255); IntegrityError if malformed or cut short."""
        if not data.startswith(b"P6"):
            raise IntegrityError("not a binary PPM (P6) file")
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
            if pos >= len(data):
                raise IntegrityError(f"PPM header cut off: the file ends at byte {len(data)}")
            fields.append(data[start:pos])
        pos += 1  # single whitespace after maxval
        try:
            w, h, maxval = (int(f) for f in fields)
        except ValueError:
            raise IntegrityError(f"PPM header fields are not integers: {fields!r}") from None
        if maxval != 255 or w < 1 or h < 1:
            raise IntegrityError(f"unsupported PPM: {w}x{h}, maxval {maxval} (need 8-bit, non-empty)")
        need = w * h * 3
        if len(data) - pos < need:
            raise IntegrityError(
                f"PPM pixel data cut short: expected {need} bytes for {w}x{h}, found {len(data) - pos}"
            )
        arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3)
        return cls(arr.copy())


# ---------------------------------------------------------------------------
# Scene
#
# _scene describes a chart once: its items in paint order, grouped as the SVG
# groups them. render_svg and rasterize only translate items, so the two
# outputs cannot drift apart. Each item is a tuple (kind, *args):
#
#   ("rect", x0, y0, x1, y1, color)          bar, line-chart dot, legend or key swatch
#   ("polyline", points, color)              one line series
#   ("pie", cx, cy, r, wedges, colors)       every wedge (a0, a1) at once, as _fill_pie paints them
#   ("rule", x1, y1, x2, y2, rect)           an axis or tick line; rect is its 1 px raster stand-in
#   ("text", TextItem)                       a label; marker glyphs take the marker colour
#   ("cross", x, y)                          a marker anchor's 9x9 cross
#   ("overlay", box)                         a stroked overlay PixelBBox


def _scene(spec: ChartSpec, markers: list[MarkerAnchor], overlays: list[PixelBBox],
           layout: ChartLayout | None) -> tuple[ChartLayout, list[tuple[str, list[tuple]]]]:
    """(layout, [(group, items)]) for one chart; ``layout`` defaults to ``chart_layout(spec)``."""
    w, h = spec.canvas
    for box in overlays:
        if box.x0 < 0 or box.y0 < 0 or box.x1 > w or box.y1 > h:
            raise ValidationError(f"overlay box {box} exceeds the canvas")
    lay = layout if layout is not None else chart_layout(spec)
    colors = [series_color(spec.style_seed, i) for i in range(max(len(spec.series), len(spec.x_labels)))]

    chart: list[tuple] = []
    axes: list[tuple] = []
    if spec.chart_type == "bar":
        for s, color in zip(spec.series, colors):
            for cat in spec.x_labels:
                b = lay.bar_rects[(s.name, cat)]
                chart.append(("rect", b.x0, b.y0, b.x1, b.y1, color))
    elif spec.chart_type == "line":
        for s, color in zip(spec.series, colors):
            pts = [lay.line_points[(s.name, cat)] for cat in spec.x_labels]
            chart.append(("polyline", pts, color))
            for x, y in pts:
                chart.append(("rect", x - DOT_HALF, y - DOT_HALF, x + DOT_HALF, y + DOT_HALF, color))
    else:
        cx, cy = lay.pie_center
        wedges = [lay.wedge_angles[cat] for cat in spec.x_labels]
        chart.append(("pie", cx, cy, lay.pie_radius, wedges, colors[:len(wedges)]))

    if spec.chart_type != "pie":
        # The raster rule lies below a horizontal line, left of the y axis
        # and right of an x tick.
        p = lay.plot
        axes.append(("rule", p.x0, p.y1, p.x1, p.y1, (p.x0, p.y1, p.x1, p.y1 + 1)))
        axes.append(("rule", p.x0, p.y0, p.x0, p.y1, (p.x0 - 1, p.y0, p.x0, p.y1)))
        for cx in lay.x_centers:
            axes.append(("rule", cx, p.y1, cx, p.y1 + 4, (cx, p.y1, cx + 1, p.y1 + 4)))
        for tv in lay.y_tick_values:
            y = p.y1 - (tv / lay.y_top_value) * p.height
            axes.append(("rule", p.x0 - 4, y, p.x0, y, (p.x0 - 4, y, p.x0, y + 1)))
    for swatches in (lay.legend_swatches, lay.key_swatches):
        for box, color in zip(swatches.values(), colors):
            axes.append(("rect", box.x0, box.y0, box.x1, box.y1, color))

    groups = [("chart", chart), ("axes", axes), ("labels", [("text", t) for t in lay.texts])]
    if markers:
        groups.append(("marker", [("cross", x, y) for x, y in markers]))
    if overlays:
        groups.append(("overlay", [("overlay", box) for box in overlays]))
    return lay, groups


# ---------------------------------------------------------------------------
# SVG

def _fmt(v: float) -> str:
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def _hex(color: tuple[int, int, int]) -> str:
    return "#%02x%02x%02x" % color


def _svg_wedge_path(cx: float, cy: float, r: float, a0: float, a1: float) -> str:
    def rim(a: float) -> str:
        return f"{_fmt(cx + r * math.cos(a))} {_fmt(cy + r * math.sin(a))}"

    start, end = rim(a0), rim(a1)
    large = 1 if (a1 - a0) > math.pi else 0
    arc = f"A {_fmt(r)} {_fmt(r)} 0"
    if large and end == start:
        # A full turn. SVG draws nothing for an arc that ends where it starts,
        # so go round in two halves.
        return f"M {_fmt(cx)} {_fmt(cy)} L {start} {arc} 0 1 {rim((a0 + a1) / 2)} {arc} 0 1 {end} Z"
    return f"M {_fmt(cx)} {_fmt(cy)} L {start} {arc} {large} 1 {end} Z"


def render_svg(
    spec: ChartSpec,
    overlays: list[PixelBBox] | None = None,
    markers: list[MarkerAnchor] | None = None,
    layout: ChartLayout | None = None,
):
    """Render to an SVG 1.1 subset (rect, line, path, text, g).

    Returns (svg_text, layout geometry). Byte-deterministic for fixed inputs;
    overlay boxes are stroked above all chart content. ``layout`` is
    ``chart_layout(spec)`` when the caller already has it.
    """
    lay, groups = _scene(spec, markers or [], overlays or [], layout)
    w, h = spec.canvas
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )
    out.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="{_hex(BACKGROUND)}"/>')
    for group, items in groups:
        out.append(f'<g class="{group}">')
        for item in items:
            kind = item[0]
            if kind == "text":
                t = item[1]
                out.append(
                    f'<text x="{_fmt(t.x_left)}" y="{_fmt(t.baseline)}" font-size="{t.font_px}" '
                    f'font-family="monospace" fill="{_hex(TEXT_COLOR)}">{escape(t.text)}</text>'
                )
            elif kind == "rect":
                _, x0, y0, x1, y1, color = item
                out.append(
                    f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                    f'height="{_fmt(y1 - y0)}" fill="{_hex(color)}"/>'
                )
            elif kind == "rule":
                _, x1, y1, x2, y2, _ = item
                out.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                    f'stroke="{_hex(AXIS_COLOR)}"/>'
                )
            elif kind == "polyline":
                _, pts, color = item
                d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)
                out.append(f'<path d="{d}" fill="none" stroke="{_hex(color)}" stroke-width="2"/>')
            elif kind == "pie":
                _, cx, cy, r, wedges, colors = item
                for (a0, a1), color in zip(wedges, colors):
                    out.append(f'<path d="{_svg_wedge_path(cx, cy, r, a0, a1)}" fill="{_hex(color)}"/>')
            elif kind == "cross":
                _, x, y = item
                mk = _hex(MARKER_COLOR)
                out.append(f'<rect x="{_fmt(x - 1.5)}" y="{_fmt(y - 4.5)}" width="3" height="9" fill="{mk}"/>')
                out.append(f'<rect x="{_fmt(x - 4.5)}" y="{_fmt(y - 1.5)}" width="9" height="3" fill="{mk}"/>')
            else:  # overlay
                box = item[1]
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
#
# Every primitive keeps the rounding, clipping and draw order of a plain
# per-primitive rasterizer; tests/test_render_golden.py pins the bytes.


class _Ink:
    """Contiguous (n, 3) colour rows, built once per raster and colour.

    Copying a slice of a prepared row into a pixel run is ~30x faster than
    assigning a 3-tuple, which numpy broadcasts over a size-3 inner dimension.
    """

    def __init__(self, n: int):
        self._n = n
        self._rows: dict = {}

    def __call__(self, color, n: int) -> np.ndarray:
        row = self._rows.get(color)
        if row is None or len(row) < n:
            row = np.empty((max(n, self._n), 3), dtype=np.uint8)
            row[:] = color
            self._rows[color] = row
        return row[:n]


def _fill_rect(arr: np.ndarray, ink: _Ink, x0: float, y0: float, x1: float, y1: float, color) -> None:
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
    arr[iy0:iy1, ix0:ix1] = ink(color, ix1 - ix0)


def _stamp_points(arr: np.ndarray, ink: _Ink, xs: np.ndarray, ys: np.ndarray, color, brush: int = 2) -> None:
    """Paint a brush x brush block at every (x, y), clipped to the canvas."""
    h, w, _ = arr.shape
    offsets = np.arange(brush)
    shape = (brush, brush, len(xs))
    px = np.broadcast_to(xs[None, None, :] + offsets[None, :, None], shape).ravel()
    py = np.broadcast_to(ys[None, None, :] + offsets[:, None, None], shape).ravel()
    ok = (px >= 0) & (px < w) & (py >= 0) & (py < h)
    flat = (py[ok] * w + px[ok])
    arr.reshape(-1, 3)[flat] = ink(color, len(flat))


def _segment_points(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """Top-left brush corners along one polyline segment."""
    n = int(max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1]))) + 1
    ts = np.linspace(0.0, 1.0, n + 1)
    xs = np.rint(p0[0] + (p1[0] - p0[0]) * ts).astype(int)
    ys = np.rint(p0[1] + (p1[1] - p0[1]) * ts).astype(int)
    return xs - 1, ys - 1


def _draw_polyline(arr: np.ndarray, ink: _Ink, pts, color) -> None:
    if len(pts) < 2:
        return
    segs = [_segment_points(p0, p1) for p0, p1 in zip(pts, pts[1:])]
    _stamp_points(arr, ink, np.concatenate([s[0] for s in segs]), np.concatenate([s[1] for s in segs]), color)


# ---------------------------------------------------------------------------
# Pie fan
#
# Each wedge is a fan of ceil(span / PIE_SEGMENT) equal triangles around the
# centre. A pixel belongs to a triangle when its centre passes the float64
# edge test of _fan_inside, evaluated over that triangle's own bbox; later
# triangles win shared pixels. Rather than test every triangle over its bbox
# (their bboxes add up to ~7.6x the pie's area), pixels are classified by
# angle and radius: those well inside one triangle, or well outside the disc,
# take their label from a lookup table, and only the thin rims along rays and
# chords run the exact test, against the triangles whose angular range comes
# near them. The classification has slack far above float error, so the label
# plane equals the triangle-by-triangle result.

PIE_SEGMENT = 2 * math.pi / 64  # max angular width of one fan triangle
_FAN_BINS = 16384   # angle lookup resolution over one turn (~3.8e-4 rad per bin)
_FAN_BAND = 64      # plane rows classified at once; bounds the temporaries
_FAN_CHUNK = 4096   # rim pixels per exact test; bounds its temporaries
_FAN_THIN = 1e-6    # triangles narrower than this (rad) take the exact bbox test
_FAN_SLACK = 0.05   # px of radial slack around the fast inside/outside classes


def _fan_edge(px, py, ax, ay, bx, by):
    return (px - ax) * (by - ay) - (py - ay) * (bx - ax)


def _fan_inside(px, py, cx, cy, x0, y0, x1, y1):
    """Pixel centre (px, py) on the inner side of every edge of triangle
    (c, p0, p1), either winding."""
    e0 = _fan_edge(px, py, cx, cy, x0, y0)
    e1 = _fan_edge(px, py, x0, y0, x1, y1)
    e2 = _fan_edge(px, py, x1, y1, cx, cy)
    return ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))


def _fan_triangles(cx: float, cy: float, r: float, wedges) -> list[tuple]:
    """(wedge index, b0, b1, x0, y0, x1, y1) per fan triangle, in draw order."""
    tris = []
    for wi, (a0, a1) in enumerate(wedges):
        span = a1 - a0
        nseg = max(1, int(math.ceil(span / PIE_SEGMENT - 1e-12)))
        step = span / nseg
        for i in range(nseg):
            b0 = a0 + i * step
            b1 = b0 + step
            tris.append((wi, b0, b1, cx + r * math.cos(b0), cy + r * math.sin(b0),
                         cx + r * math.cos(b1), cy + r * math.sin(b1)))
    return tris


def _fan_bbox(cx: float, cy: float, tri: tuple, w: int, h: int) -> tuple[int, int, int, int]:
    xs, ys = (cx, tri[3], tri[5]), (cy, tri[4], tri[6])
    return (max(0, int(math.floor(min(xs)))), min(w, int(math.ceil(max(xs))) + 1),
            max(0, int(math.floor(min(ys)))), min(h, int(math.ceil(max(ys))) + 1))


class _FanTable:
    """Angle-bin lookup over the regular (not thin) fan triangles, in draw order.

    Bin b covers angles base + [b, b + 1) / bins_per_rad; a triangle touches
    the bins its angular range meets. Pixels whose angle falls in bin b are
    tested against ``first[b] : first[b] + count[b]``, the triangles touching
    bins b - 2 .. b + 2 in the extended list (the triangles repeated one turn
    earlier and later, so the ends of the turn see each other). ``label[b]``
    is the label of the one triangle touching bins b - 2 .. b + 2 when it
    touches all of them, else 0. The margins dwarf float32 angle error.
    """

    def __init__(self, tris: list[tuple], labels: list[int], dtype):
        turn = 2 * math.pi
        n = len(tris)
        self.base = -math.pi / 2
        self.bins_per_rad = _FAN_BINS / turn
        self.offset = _FAN_BINS - self.base * self.bins_per_rad  # keeps bins positive before the mask
        coords = np.array([t[3:7] for t in tris], dtype=np.float64)
        self.x0, self.y0, self.x1, self.y1 = np.tile(coords, (3, 1)).T
        self.labels = np.tile(np.array(labels, dtype=dtype), 3)
        shifts = np.repeat([-turn, 0.0, turn], n)
        f0, f1 = (  # first and last bin each extended triangle touches
            np.floor((np.tile([t[i] for t in tris], 3) + shifts - self.base) * self.bins_per_rad)
            .astype(np.intp)
            for i in (1, 2)
        )

        def at_most(f, lo: int, hi: int) -> np.ndarray:
            """#{j : f[j] <= t} for t = lo .. hi (f is sorted)."""
            hist = np.bincount(np.clip(f, lo, hi + 1) - lo, minlength=hi - lo + 2)
            return np.cumsum(hist)[:hi - lo + 1]

        bins = np.arange(_FAN_BINS)
        self.first = at_most(f1, -3, _FAN_BINS - 4)               # f1 < b - 2
        self.count = at_most(f0, 2, _FAN_BINS + 1) - self.first   # and f0 <= b + 2
        only = np.minimum(self.first, 3 * n - 1)
        whole = (self.count == 1) & (f0[only] <= bins - 2) & (f1[only] >= bins + 2)
        self.label = np.where(whole, self.labels[only], 0).astype(dtype)

    def bins(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        turns = np.arctan2(dy, dx) * self.bins_per_rad + self.offset
        return turns.astype(np.intp) & (_FAN_BINS - 1)

    def hits(self, xs, ys, cx: float, cy: float, first, count) -> np.ndarray:
        """Highest label among the candidate triangles containing each pixel
        (xs, ys), 0 if none."""
        if not xs.size:
            return np.zeros(0, dtype=self.labels.dtype)
        k = np.arange(max(1, int(count.max())))
        valid = k[None, :] < count[:, None]
        idx = np.where(valid, first[:, None] + k[None, :], 0)
        px = xs.astype(np.float64)[:, None] + 0.5
        py = ys.astype(np.float64)[:, None] + 0.5
        inside = _fan_inside(px, py, cx, cy,
                             self.x0[idx], self.y0[idx], self.x1[idx], self.y1[idx])
        return np.where(inside & valid, self.labels[idx], 0).max(axis=1)


def _fill_pie(arr: np.ndarray, cx: float, cy: float, r: float, wedges, colors) -> None:
    """Fill the fan of every wedge (a0, a1) with its colour.

    Pixels come out exactly as filling each fan triangle in order through
    _fan_inside over its own canvas-clipped bbox; see the section comment.
    The pie's bbox must still be plain background: it is painted whole.
    """
    h, w, _ = arr.shape
    tris = _fan_triangles(cx, cy, r, wedges)
    boxes = [_fan_bbox(cx, cy, t, w, h) for t in tris]
    boxes_in = [b for b in boxes if b[0] < b[1] and b[2] < b[3]]
    if not boxes_in:
        return
    x0, x1 = min(b[0] for b in boxes_in), max(b[1] for b in boxes_in)
    y0, y1 = min(b[2] for b in boxes_in), max(b[3] for b in boxes_in)
    dtype = np.uint8 if len(tris) < 255 else np.uint16
    # Label k + 1 -> colour of triangle k, as one 3-byte item per pixel.
    rgb = np.array([BACKGROUND] + [colors[t[0]] for t in tris], dtype=np.uint8).view("V3")[:, 0]

    # Label plane: 1 + index of the last triangle containing the pixel, 0 if none.
    plane = np.zeros((y1 - y0, x1 - x0), dtype=dtype)
    regular = [k for k, t in enumerate(tris) if t[2] - t[1] >= _FAN_THIN]
    slivers = [k for k, t in enumerate(tris) if t[2] - t[1] < _FAN_THIN]
    if regular:
        table = _FanTable([tris[k] for k in regular], [k + 1 for k in regular], dtype)
        # Every regular triangle holds the disc sector out to its chord, which
        # is no nearer the centre than r * cos(PIE_SEGMENT / 2), and nothing
        # beyond r.
        inner = r * math.cos(PIE_SEGMENT / 2) - _FAN_SLACK
        inner2 = inner * inner if inner > 0 else -1.0
        outer2 = (r + _FAN_SLACK) ** 2
        dx = (np.arange(x0, x1, dtype=np.float64) + 0.5 - cx).astype(np.float32)
        dx2 = dx * dx
        rims, rim_bins = [], []
        for r0 in range(0, y1 - y0, _FAN_BAND):
            r1 = min(r0 + _FAN_BAND, y1 - y0)
            dy = np.arange(y0 + r0, y0 + r1, dtype=np.float64) + 0.5 - cy
            gap = 0.0 if dy[0] <= 0.0 <= dy[-1] else float(np.abs(dy).min())
            if gap * gap >= outer2:
                continue
            # Only the columns of the band's widest chord can reach the disc.
            half = math.sqrt(outer2 - gap * gap)
            c0 = max(0, int(cx - half) - 1 - x0)
            c1 = min(x1 - x0, int(cx + half) + 2 - x0)
            dy = dy.astype(np.float32)[:, None]
            d2 = dx2[c0:c1] + dy * dy
            bins = table.bins(dx[c0:c1], dy)
            found = np.where(d2 <= inner2, table.label[bins], 0)
            rim = np.flatnonzero((found == 0) & (d2 < outer2))
            plane[r0:r1, c0:c1] = found
            ys, xs = np.divmod(rim, c1 - c0)
            rims.append((ys + r0) * (x1 - x0) + xs + c0)
            rim_bins.append(bins.flat[rim])
        # Pixels near a ray or the rim: the exact test, against nearby triangles only.
        if rims:
            rim_all, bins_all = np.concatenate(rims), np.concatenate(rim_bins)
            for i in range(0, rim_all.size, _FAN_CHUNK):
                rim, b = rim_all[i:i + _FAN_CHUNK], bins_all[i:i + _FAN_CHUNK]
                ys, xs = np.divmod(rim, x1 - x0)
                plane.flat[rim] = table.hits(xs + x0, ys + y0, cx, cy, table.first[b], table.count[b])
        # Within a pixel of the centre the angle says nothing: test every triangle.
        ys, xs = np.meshgrid(np.arange(math.floor(cy) - 1, math.floor(cy) + 2),
                             np.arange(math.floor(cx) - 1, math.floor(cx) + 2), indexing="ij")
        near = ((xs + 0.5 - cx) ** 2 + (ys + 0.5 - cy) ** 2 < 1.0) & (xs >= x0) & (xs < x1) & (ys >= y0) & (ys < y1)
        ys, xs = ys[near], xs[near]
        every = np.full(ys.size, len(regular))
        plane[ys - y0, xs - x0] = table.hits(xs, ys, cx, cy, every, every)
    for k in slivers:
        # Sliver: its edges are nearly degenerate, so test it the direct way.
        bx0, bx1, by0, by1 = boxes[k]
        if bx0 < bx1 and by0 < by1:
            px = np.arange(bx0, bx1, dtype=np.float64)[None, :] + 0.5
            py = np.arange(by0, by1, dtype=np.float64)[:, None] + 0.5
            view = plane[by0 - y0:by1 - y0, bx0 - x0:bx1 - x0]
            inside = _fan_inside(px, py, cx, cy, *tris[k][3:7])
            view[inside] = np.maximum(view[inside], k + 1)
    out = arr.view("V3")[y0:y1, x0:x1, 0]
    for r0 in range(0, y1 - y0, _FAN_BAND):
        np.take(rgb, plane[r0:r0 + _FAN_BAND], out=out[r0:r0 + _FAN_BAND], mode="clip")


_GLYPH_RUN = re.compile(f"[^ {re.escape(MARKER_CHAR)}]+|{re.escape(MARKER_CHAR)}+")


def _glyph_run(arr: np.ndarray, ink: _Ink, x_left: float, i0: int, i1: int, adv: int,
               y0: float, y1: float, color) -> None:
    """Blocks for glyphs i0 .. i1 - 1 of a text item, as _fill_rect draws them.

    Glyph i spans round(x_left + i * adv) .. round(x_left + i * adv + adv - 1).
    Away from a rounding tie every block is the one before shifted by adv; at
    an exact tie (x_left = k + 0.5) every second one is. So each class of
    blocks is one strided assignment, unless x_left is within a hair of a tie
    without being one or the run leaves the canvas: then glyph by glyph.
    """
    h, w, _ = arr.shape
    spans = []
    for i in range(i0, min(i0 + 2, i1)):
        x0 = x_left + i * adv
        rx0, rx1 = int(round(x0)), int(round(x0 + adv - 1))
        spans.append((rx0, max(rx1, rx0 + 1)))
    period = 1 if len(spans) == 1 or spans[1] == (spans[0][0] + adv, spans[0][1] + adv) else 2
    pitch = period * adv
    classes = [(sx0, sx1, len(range(i0 + k, i1, period))) for k, (sx0, sx1) in enumerate(spans[:period])]
    frac = x_left - math.floor(x_left)
    if (adv < 1 or (frac != 0.5 and abs(frac - 0.5) < 1e-9)
            or any(sx0 < 0 or sx0 + cnt * pitch > w for sx0, _, cnt in classes)):
        for i in range(i0, i1):
            x0 = x_left + i * adv
            _fill_rect(arr, ink, x0, y0, x0 + adv - 1, y1, color)
        return
    iy0, iy1 = max(0, int(round(y0))), min(h, max(int(round(y1)), int(round(y0)) + 1))
    if iy0 >= iy1:
        return
    for sx0, sx1, cnt in classes:
        block = arr[iy0:iy1, sx0:sx0 + cnt * pitch].reshape(iy1 - iy0, cnt, pitch, 3)
        block[:, :, :sx1 - sx0] = ink(color, sx1 - sx0)


def rasterize(
    spec: ChartSpec,
    markers: list[MarkerAnchor] | None = None,
    overlays: list[PixelBBox] | None = None,
    layout: ChartLayout | None = None,
):
    """Rasterize to canvas-sized RGB. Returns (Bitmap, layout geometry).

    Each marker anchor becomes a 9x9 cross in the reserved marker color,
    clipped at canvas edges. ``layout`` is ``chart_layout(spec)`` when the
    caller already has it.
    """
    lay, groups = _scene(spec, markers or [], overlays or [], layout)
    w, h = spec.canvas
    arr = np.empty((h, w, 3), dtype=np.uint8)
    arr.fill(BACKGROUND[0])  # white background; all channels equal
    ink = _Ink(w)
    for _, items in groups:
        for item in items:
            kind = item[0]
            if kind == "text":
                # Each non-space glyph is a solid block; the marker glyph in the marker color.
                t = item[1]
                adv = glyph_advance(t.font_px)
                top = t.baseline - glyph_ascent(t.font_px)
                for m in _GLYPH_RUN.finditer(t.text):
                    color = MARKER_COLOR if m.group()[0] == MARKER_CHAR else TEXT_COLOR
                    _glyph_run(arr, ink, t.x_left, m.start(), m.end(), adv, top + 1, top + t.font_px - 1, color)
            elif kind == "rect":
                _fill_rect(arr, ink, *item[1:])
            elif kind == "rule":
                _fill_rect(arr, ink, *item[5], AXIS_COLOR)
            elif kind == "polyline":
                _draw_polyline(arr, ink, *item[1:])
            elif kind == "pie":
                _fill_pie(arr, *item[1:])
            elif kind == "cross":
                cx, cy = int(round(item[1])), int(round(item[2]))
                _fill_rect(arr, ink, cx - 1, cy - 4, cx + 2, cy + 5, MARKER_COLOR)
                _fill_rect(arr, ink, cx - 4, cy - 1, cx + 5, cy + 2, MARKER_COLOR)
            else:  # overlay: four strokes centred on the box edges
                box, s = item[1], OVERLAY_STROKE / 2
                for x0, y0, x1, y1 in ((box.x0, box.y0, box.x1, box.y0), (box.x0, box.y1, box.x1, box.y1),
                                       (box.x0, box.y0, box.x0, box.y1), (box.x1, box.y0, box.x1, box.y1)):
                    _fill_rect(arr, ink, x0 - s, y0 - s, x1 + s, y1 + s, OVERLAY_COLOR)
    return Bitmap(arr), lay.geometry
