"""Chart rendering: byte-deterministic SVG and raster output.

``render_svg`` and ``rasterize`` draw the chart alone, as a translation of
the paint items of ``chart_layout``, which describes each chart once, so the
two outputs cannot drift apart and neither branches on the chart type.
Marker crosses and overlay boxes are each one layer in one opaque colour over
a finished image, drawn only by ``marker_svg`` and ``paint_markers``, then
``overlay_svg`` and ``paint_overlays``: an edit's or overlay's image is its
vanilla image plus a layer.

Raster text is drawn as solid glyph blocks on the fixed-advance metric table,
so no font engine is involved and every text extent matches the layout oracle
exactly. The marker character and marker anchors are the only ink ever drawn
in the reserved marker color.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import IntegrityError, ValidationError
from .geometry import glyph_advance, glyph_ascent
from .layout import PALETTE, ChartLayout, chart_layout, sector_bounds
from .spec import MARKER_CHAR, ChartSpec

MARKER_COLOR = (255, 0, 255)  # reserved: never used by palette, text, or overlays
OVERLAY_COLOR = (255, 0, 0)
OVERLAY_STROKE = 3
TEXT_COLOR = (40, 40, 40)
AXIS_COLOR = (80, 80, 80)
BACKGROUND = (255, 255, 255)

MarkerAnchor = tuple[float, float]


class Bitmap:
    """8-bit RGB raster held in its binary PPM (P6, maxval 255) file layout.

    One flat uint8 buffer holds the header and then the pixels. ``array`` is
    the (H, W, 3) view of the pixels, so painting the canvas edits the file
    image in place and ``to_ppm`` copies nothing.
    """

    def __init__(self, ppm: np.ndarray, width: int, height: int):
        """``ppm``: a flat, writable uint8 buffer ending in width x height x 3 pixel bytes."""
        self._ppm = ppm
        self.array = ppm[len(ppm) - width * height * 3:].reshape(height, width, 3)

    @classmethod
    def blank(cls, width: int, height: int) -> "Bitmap":
        """A canvas with its PPM header written and its pixels not yet set."""
        header = _ppm_header(width, height)
        ppm = np.empty(len(header) + width * height * 3, dtype=np.uint8)
        ppm[:len(header)] = np.frombuffer(header, dtype=np.uint8)
        return cls(ppm, width, height)

    def copy(self) -> "Bitmap":
        return Bitmap(self._ppm.copy(), self.width, self.height)

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]

    def to_ppm(self) -> memoryview:
        """The PPM file as a read-only view of the canvas's own buffer (its
        ``len`` is the file size), valid until the canvas is painted again."""
        return self._ppm.data.toreadonly()

    @classmethod
    def from_ppm(cls, data) -> "Bitmap":
        """Decode what ``to_ppm`` writes, from any bytes-like object: the header
        ``P6\\n<width> <height>\\n255\\n``, then exactly width x height x 3
        pixel bytes. Anything else is an IntegrityError saying what is wrong.

        A writable buffer becomes the bitmap's own buffer, uncopied; a
        read-only one is copied.
        """
        view = memoryview(data).cast("B")
        head = _PPM_HEADER.match(view)
        if head is None:
            start = bytes(view[:32])
            if start[:2] != b"P6":
                raise IntegrityError("not a binary PPM (P6) file")
            if start[2:3] == b"\n" and start.count(b"\n") < 3 and len(view) < 32:
                raise IntegrityError(f"PPM header cut off: the file ends at byte {len(view)}")
            raise IntegrityError(f"PPM header fields are not integers laid out as P6\\n<width> <height>\\n255\\n: "
                                 f"the file starts {start!r}")
        w, h = int(head[1]), int(head[2])
        if head[3] != b"255":
            raise IntegrityError(f"unsupported PPM: {w}x{h}, maxval {head[3].decode()} (need 255)")
        need, found = w * h * 3, len(view) - head.end()
        if found != need:
            raise IntegrityError(f"PPM pixel data {'cut short' if found < need else 'too long'}: "
                                 f"expected {need} bytes for {w}x{h}, found {found}")
        ppm = np.frombuffer(view, dtype=np.uint8)
        return cls(ppm.copy() if view.readonly else ppm, w, h)


# The one header to_ppm writes (_ppm_header); no comments, no other whitespace.
_PPM_HEADER = re.compile(rb"P6\n([1-9][0-9]*) ([1-9][0-9]*)\n([0-9]+)\n")


def _ppm_header(width: int, height: int) -> bytes:
    return b"P6\n%d %d\n255\n" % (width, height)


def _check_overlays(canvas: tuple[int, int], boxes) -> None:
    w, h = canvas
    for box in boxes:
        if box.x0 < 0 or box.y0 < 0 or box.x1 > w or box.y1 > h:
            raise ValidationError(f"overlay box {box} exceeds the canvas")


# ---------------------------------------------------------------------------
# SVG

def _fmt(v: float) -> str:
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def escape_text(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def unescape_text(data: str) -> str:
    """The inverse of ``escape_text``; ``&amp;`` goes last, so ``&amp;lt;`` reads ``&lt;``."""
    return data.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


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


def render_svg(spec: ChartSpec, layout: ChartLayout | None = None) -> str:
    """The chart as a byte-deterministic SVG 1.1 subset (rect, line, path,
    text, g). ``layout``: ``chart_layout(spec)``, if known."""
    lay = layout if layout is not None else chart_layout(spec)
    w, h = spec.canvas
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )
    out.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="{_hex(BACKGROUND)}"/>')
    for group, items in lay.groups.items():
        out.append(f'<g class="{group}">')
        for item in items:
            kind = item[0]
            if kind == "text":
                t = item[1]
                out.append(
                    f'<text x="{_fmt(t.x_left)}" y="{_fmt(t.baseline)}" font-size="{t.font_px}" '
                    f'font-family="monospace" fill="{_hex(TEXT_COLOR)}">{escape_text(t.text)}</text>'
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
            else:  # pie
                _, cx, cy, r, wedges, colors = item
                for (a0, a1), color in zip(wedges, colors):
                    out.append(f'<path d="{_svg_wedge_path(cx, cy, r, a0, a1)}" fill="{_hex(color)}"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_layer(svg: str, group: str, body: str) -> str:
    """``svg`` with ``body`` as a last ``<g class="<group>">`` before
    ``</svg>``; unchanged when ``body`` is empty."""
    if not body:
        return svg
    head, end, tail = svg.rpartition("</svg>")
    if not end:
        raise ValidationError("not an SVG document: no closing </svg>")
    return f'{head}<g class="{group}">\n{body}</g>\n{end}{tail}'


def marker_svg(svg: str, anchors) -> str:
    """``svg`` with a 9x9 cross in the marker colour at each anchor, above all
    its content, as a last ``<g class="marker">``."""
    mk = _hex(MARKER_COLOR)
    return _svg_layer(svg, "marker", "".join(
        f'<rect x="{_fmt(x - dx)}" y="{_fmt(y - dy)}" width="{w}" height="{h}" fill="{mk}"/>\n'
        for x, y in anchors for dx, dy, w, h in ((1.5, 4.5, 3, 9), (4.5, 1.5, 9, 3))
    ))


def overlay_svg(svg: str, boxes, canvas: tuple[int, int]) -> str:
    """``svg`` with the overlay boxes stroked above all its content, as a last
    ``<g class="overlay">``; ValidationError for a box outside ``canvas``."""
    _check_overlays(canvas, boxes)
    stroke = f'fill="none" stroke="{_hex(OVERLAY_COLOR)}" stroke-width="{OVERLAY_STROKE}"'
    return _svg_layer(svg, "overlay", "".join(
        f'<rect class="overlay-box" x="{_fmt(box.x0)}" y="{_fmt(box.y0)}" '
        f'width="{_fmt(box.width)}" height="{_fmt(box.height)}" {stroke}/>\n'
        for box in boxes
    ))


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


def _fill_pie(arr: np.ndarray, cx: float, cy: float, r: float, wedges, colors) -> None:
    """Paint the wedges (a0, a1), which tile one turn in order, as exact disc sectors.

    A pixel is painted when its centre lies within r of (cx, cy), at or after
    the wedge's start ray and at or before its end ray (either, for a wedge
    wider than a half turn), and inside the wedge's sector bbox; later wedges
    paint over earlier ones. Float64 products, no arctan2 (its SIMD variants
    differ between machines). Neighbouring wedges test one shared ray and the
    last ends on the first one's, so rounding cannot leave a disc pixel unpainted.
    """
    h, w, _ = arr.shape
    out = arr.view("V3")[:, :, 0]  # one 3-byte item per pixel
    rays = [(math.cos(a0), math.sin(a0)) for a0, _ in wedges]
    rays.append(rays[0])
    for k, ((a0, a1), color) in enumerate(zip(wedges, colors)):
        bx0, by0, bx1, by1 = sector_bounds(cx, cy, r, a0, a1)
        x0, x1 = max(0, math.floor(bx0)), min(w, math.ceil(bx1) + 1)
        y0, y1 = max(0, math.floor(by0)), min(h, math.ceil(by1) + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        (c0, s0), (c1, s1) = rays[k], rays[k + 1]
        dx = np.arange(x0, x1, dtype=np.float64) + 0.5 - cx
        dy = np.arange(y0, y1, dtype=np.float64) + 0.5 - cy
        after = np.greater_equal.outer(c0 * dy, s0 * dx)
        before = np.less_equal.outer(c1 * dy, s1 * dx)
        # Wider than a half turn: the end ray lies behind the start ray, or on
        # it for a full turn. Judged from the rays, as the pixel tests are.
        wide = s0 * c1 > c0 * s1 or (s0 * c1 == c0 * s1 and a1 - a0 > math.pi)
        inside = (after | before) if wide else (after & before)
        inside &= np.add.outer(dy * dy, dx * dx) <= r * r
        out[y0:y1, x0:x1][inside] = np.array(color, dtype=np.uint8).view("V3")[0]


def rasterize(spec: ChartSpec, layout: ChartLayout | None = None) -> Bitmap:
    """The chart as a canvas-sized RGB raster. ``layout``: ``chart_layout(spec)``, if known."""
    lay = layout if layout is not None else chart_layout(spec)
    w, h = spec.canvas
    bmp = Bitmap.blank(w, h)
    arr = bmp.array
    arr.fill(BACKGROUND[0])  # white background; all channels equal
    ink = _Ink(w)
    for items in lay.groups.values():
        for item in items:
            kind = item[0]
            if kind == "text":
                # Each non-space glyph is a solid block; the marker glyph in the marker color.
                t = item[1]
                adv = glyph_advance(t.font_px)
                top = t.baseline - glyph_ascent(t.font_px)
                for i, ch in enumerate(t.text):
                    if ch != " ":
                        x0 = t.x_left + i * adv
                        _fill_rect(arr, ink, x0, top + 1, x0 + adv - 1, top + t.font_px - 1,
                                   MARKER_COLOR if ch == MARKER_CHAR else TEXT_COLOR)
            elif kind == "rect":
                _fill_rect(arr, ink, *item[1:])
            elif kind == "rule":
                _fill_rect(arr, ink, *item[5], AXIS_COLOR)
            elif kind == "polyline":
                _draw_polyline(arr, ink, *item[1:])
            else:  # pie
                _fill_pie(arr, *item[1:])
    return bmp


def paint_markers(bitmap: Bitmap, anchors) -> None:
    """Paint a 9x9 cross in the reserved marker colour, centred on the rounded
    anchor and clipped at the canvas edges, onto a finished raster."""
    arr, ink = bitmap.array, _Ink(9)
    for x, y in anchors:
        cx, cy = int(round(x)), int(round(y))
        _fill_rect(arr, ink, cx - 1, cy - 4, cx + 2, cy + 5, MARKER_COLOR)
        _fill_rect(arr, ink, cx - 4, cy - 1, cx + 5, cy + 2, MARKER_COLOR)


def paint_overlays(bitmap: Bitmap, boxes) -> None:
    """Stroke each box onto a finished raster: four strokes, OVERLAY_STROKE
    wide and centred on the box edges, in the overlay colour. A box outside
    the canvas raises ValidationError before anything is painted."""
    arr = bitmap.array
    _check_overlays((bitmap.width, bitmap.height), boxes)
    ink, s = _Ink(bitmap.width), OVERLAY_STROKE / 2
    for box in boxes:
        for x0, y0, x1, y1 in ((box.x0, box.y0, box.x1, box.y0), (box.x0, box.y1, box.x1, box.y1),
                               (box.x0, box.y0, box.x0, box.y1), (box.x1, box.y0, box.x1, box.y1)):
            _fill_rect(arr, ink, x0 - s, y0 - s, x1 + s, y1 + s, OVERLAY_COLOR)
