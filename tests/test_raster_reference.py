"""The batched rasterizer against the per-primitive painter it replaced.

``_Ink``, ``_fill_rect``, ``_stamp_points``, ``_segment_points``,
``_draw_polyline``, the paint-item loop of ``reference_rasterize`` and the
marker and overlay painters below are verbatim copies of that painter: one
``round`` per corner, one ``np.linspace`` per polyline segment and one slice
write per primitive. Random paint-item lists must come out byte-identical.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartcot import render
from chartcot.geometry import PixelBBox, glyph_advance, glyph_ascent
from chartcot.layout import TextItem
from chartcot.render import (
    AXIS_COLOR,
    BACKGROUND,
    MARKER_COLOR,
    OVERLAY_COLOR,
    OVERLAY_STROKE,
    TEXT_COLOR,
    Bitmap,
    _fill_pie,
    lift_markers,
    paint_markers,
    paint_overlays,
    rasterize,
)
from chartcot.spec import MARKER_CHAR


class _Ink:
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


def reference_rasterize(canvas: tuple[int, int], groups: dict) -> Bitmap:
    w, h = canvas
    bmp = Bitmap.blank(w, h)
    arr = bmp.array
    arr.fill(BACKGROUND[0])  # white background; all channels equal
    ink = _Ink(w)
    for items in groups.values():
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


def reference_paint_markers(bitmap: Bitmap, anchors) -> list:
    arr, ink = bitmap.array, _Ink(9)
    covered = []
    for x, y in anchors:
        cx, cy = int(round(x)), int(round(y))
        block = (slice(max(0, cy - 4), max(0, cy + 5)), slice(max(0, cx - 4), max(0, cx + 5)))
        covered.append((block, arr[block].copy()))
        _fill_rect(arr, ink, cx - 1, cy - 4, cx + 2, cy + 5, MARKER_COLOR)
        _fill_rect(arr, ink, cx - 4, cy - 1, cx + 5, cy + 2, MARKER_COLOR)
    return covered


def reference_paint_overlays(bitmap: Bitmap, boxes) -> None:
    arr = bitmap.array
    ink, s = _Ink(bitmap.width), OVERLAY_STROKE / 2
    for box in boxes:
        for x0, y0, x1, y1 in ((box.x0, box.y0, box.x1, box.y0), (box.x0, box.y1, box.x1, box.y1),
                               (box.x0, box.y0, box.x0, box.y1), (box.x1, box.y0, box.x1, box.y1)):
            _fill_rect(arr, ink, x0 - s, y0 - s, x1 + s, y1 + s, OVERLAY_COLOR)


def batched_rasterize(canvas: tuple[int, int], groups: dict) -> Bitmap:
    # rasterize reads only the spec's canvas and the layout's paint items.
    return rasterize(SimpleNamespace(canvas=canvas), SimpleNamespace(groups=groups))


# ---------------------------------------------------------------------------
# Paint items on a small canvas: coordinates run past every edge, and come
# whole, half-integer, a half pixel about an edge or anywhere in between.

W, H = 40, 30
COLORS = [(10, 120, 200), (200, 60, 30), (30, 160, 60)]

edge = st.sampled_from([v + d for v in (0.0, 1.0, H - 1.0, H, W - 1.0, W) for d in (-0.5, 0.0, 0.5)])
coord = st.one_of(
    st.integers(-12, 52).map(float),
    st.integers(-24, 104).map(lambda k: k / 2),
    st.floats(-12.0, 52.0, allow_nan=False, allow_infinity=False),
    edge,
)
color = st.sampled_from(COLORS)

rect_items = st.tuples(st.just("rect"), coord, coord, coord, coord, color)
rule_items = st.builds(lambda x, y, box: ("rule", x, y, x, y, box), coord, coord, st.tuples(coord, coord, coord, coord))
text_items = st.builds(
    lambda text, x, baseline, font_px: ("text", TextItem(text, x, baseline, font_px)),
    st.text(alphabet=["a", "W", " ", "?", MARKER_CHAR], max_size=6), coord, coord, st.integers(3, 14),
)


@st.composite
def polyline_items(draw):
    # Anywhere, or on the canvas with the brush at times one pixel past its far edges.
    on_x, on_y = (st.one_of(st.floats(1.0, k), st.sampled_from([1.0, k - 0.5, k, k + 0.5])) for k in (W, H))
    x, y = draw(st.sampled_from([(coord, coord), (on_x, on_y)]))
    pts = draw(st.lists(st.tuples(x, y), min_size=1, max_size=5))
    if len(pts) > 1 and draw(st.booleans()):  # a zero-length segment
        k = draw(st.integers(0, len(pts) - 1))
        pts.insert(k, pts[k])
    return ("polyline", pts, draw(color))


@st.composite
def pie_items(draw):
    a0 = draw(st.floats(0.0, 2 * math.pi))
    cut = draw(st.floats(0.1, 2 * math.pi - 0.1))
    wedges = [(a0, a0 + cut), (a0 + cut, a0 + 2 * math.pi)]
    return ("pie", draw(coord), draw(coord), draw(st.floats(1.0, 15.0)), wedges, COLORS[:2])


paint_items = st.one_of(rect_items, rule_items, text_items, polyline_items(), pie_items())


@settings(max_examples=200, deadline=None)
@given(groups=st.fixed_dictionaries({
    "chart": st.lists(paint_items, max_size=8),
    "axes": st.lists(st.one_of(rule_items, rect_items), max_size=4),
    "labels": st.lists(text_items, max_size=4),
}))
def test_batched_raster_matches_the_per_primitive_painter(groups):
    want = reference_rasterize((W, H), groups)
    got = batched_rasterize((W, H), groups)
    assert bytes(got.to_ppm()) == bytes(want.to_ppm())


def test_each_segment_ends_exactly_on_its_end_point():
    # 49 * (1 / 49) < 1, so without the exact 1 that linspace puts last, the
    # end x of 47.5 would be reached as 47.4999... and round to 47, not 48.
    groups = {"chart": [("polyline", [(-1.0, 5.0), (47.5, 5.0)], COLORS[0])]}
    want, got = reference_rasterize((60, 12), groups), batched_rasterize((60, 12), groups)
    assert bytes(got.to_ppm()) == bytes(want.to_ppm())
    assert tuple(got.array[5, 48]) == COLORS[0]


@pytest.mark.parametrize("pts", [
    [(1.0, 1.0), (W - 0.5, H - 0.5)],  # the brush's last pixel is the canvas's last pixel
    [(1.0, 1.0), (W + 0.5, 1.0)],  # rounds to W: one brush column past the right edge
    [(1.0, 1.0), (1.0, H + 0.5)],  # rounds to H: one brush row past the bottom edge
    [(0.5, 0.5), (5.0, 5.0)],  # rounds to 0: one brush row and column past the top left
])
def test_polyline_brush_at_the_canvas_edges(pts):
    groups = {"chart": [("polyline", pts, COLORS[0])]}
    want, got = reference_rasterize((W, H), groups), batched_rasterize((W, H), groups)
    assert bytes(got.to_ppm()) == bytes(want.to_ppm())


@settings(max_examples=100, deadline=None)
@given(anchors=st.lists(st.tuples(coord, coord), max_size=4))
def test_markers_match_the_per_primitive_painter(anchors):
    groups = {"chart": [("rect", 5.0, 5.0, 30.0, 25.0, COLORS[0])]}
    want, got = reference_rasterize((W, H), groups), batched_rasterize((W, H), groups)
    before = bytes(got.to_ppm())
    want_covered = reference_paint_markers(want, anchors)
    covered = paint_markers(got, anchors)
    assert bytes(got.to_ppm()) == bytes(want.to_ppm())
    assert [(b, p.tobytes()) for b, p in covered] == [(b, p.tobytes()) for b, p in want_covered]
    lift_markers(got, covered)
    assert bytes(got.to_ppm()) == before


@settings(max_examples=100, deadline=None)
@given(boxes=st.lists(
    st.builds(lambda x0, y0, dx, dy: PixelBBox(x0, y0, min(W, x0 + dx), min(H, y0 + dy)),
              st.floats(0.0, W - 1.0), st.floats(0.0, H - 1.0), st.floats(0.01, W), st.floats(0.01, H)),
    max_size=3))
def test_overlays_match_the_per_primitive_painter(boxes):
    want, got = Bitmap.blank(W, H), Bitmap.blank(W, H)
    want.array.fill(255)
    got.array.fill(255)
    reference_paint_overlays(want, boxes)
    paint_overlays(got, boxes)
    assert bytes(got.to_ppm()) == bytes(want.to_ppm())


# ---------------------------------------------------------------------------
# A NaN or infinite coordinate raises ValueError, as int(round(v)) refused it,
# and paints nothing.

BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD)
def test_non_finite_marker_anchor_raises_value_error(bad):
    bmp = batched_rasterize((W, H), {"chart": []})
    before = bytes(bmp.to_ppm())
    with pytest.raises(ValueError, match="not a finite number"):
        paint_markers(bmp, [(10.0, 10.0), (bad, 5.0)])
    assert bytes(bmp.to_ppm()) == before


@pytest.mark.parametrize("bad", BAD)
def test_non_finite_box_corner_raises_value_error(bad):
    arr = np.full((H, W, 3), 255, dtype=np.uint8)
    with pytest.raises(ValueError, match="not a finite number"):
        render._paint_boxes(arr, [1.0, 1.0, 5.0, 5.0, 2.0, bad, 6.0, 6.0], [COLORS[0], COLORS[1]])
    assert (arr == 255).all()


@pytest.mark.parametrize("item", [
    ("rect", 1.0, 1.0, math.inf, 5.0, COLORS[0]),
    ("rule", 0.0, 0.0, 0.0, 0.0, (1.0, math.nan, 2.0, 5.0)),
    ("text", TextItem("ab", math.nan, 10.0, 8)),
    ("polyline", [(1.0, 1.0), (math.nan, 4.0)], COLORS[0]),
])
def test_non_finite_paint_item_raises_value_error(item):
    with pytest.raises(ValueError, match="not a finite number"):
        batched_rasterize((W, H), {"chart": [item]})
