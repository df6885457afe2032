import math
import random
import re

import numpy as np
import pytest

from chartcot.errors import LayoutError, ValidationError
from chartcot.geometry import ElementRef, PixelBBox
from chartcot.layout import chart_layout, layout
from chartcot.render import (
    BACKGROUND,
    MARKER_COLOR,
    PALETTE,
    PIE_SEGMENT,
    Bitmap,
    _fill_pie,
    rasterize,
    render_svg,
)
from chartcot.spec import Series, generate_corpus

from conftest import make_spec


def marker_pixels(bitmap: Bitmap) -> np.ndarray:
    a = bitmap.array
    mask = (a[..., 0] == 255) & (a[..., 1] == 0) & (a[..., 2] == 255)
    return np.argwhere(mask)


def ink_in(bitmap: Bitmap, box: PixelBBox) -> bool:
    y0, y1 = max(0, int(box.y0)), min(bitmap.height, int(np.ceil(box.y1)))
    x0, x1 = max(0, int(box.x0)), min(bitmap.width, int(np.ceil(box.x1)))
    region = bitmap.array[y0:y1, x0:x1]
    return bool(np.any(region != BACKGROUND[0]))


class TestLayout:
    def test_bar_heights_proportional(self, two_bar_spec):
        geo = layout(two_bar_spec)
        b1 = geo[ElementRef("datapoint", series="Alpha", category="Q1")]
        b2 = geo[ElementRef("datapoint", series="Alpha", category="Q2")]
        assert abs(b2.height - 2 * b1.height) <= 1.0

    def test_deterministic(self, multi_line_spec):
        g1 = layout(multi_line_spec)
        g2 = layout(multi_line_spec)
        assert g1 == g2

    def test_dense_small_canvas_never_overlaps_ticks(self):
        # 8 categories x 4 series on a 200x200 canvas: either a LayoutError
        # or a map with pairwise-disjoint tick label boxes.
        spec = make_spec(
            series=tuple(
                Series(name, tuple(float(10 + i * 7 + j) for j in range(8)))
                for i, name in enumerate(("Alpha", "Bravo", "Delta", "Echo"))
            ),
            x_labels=("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug"),
            canvas=(200, 200),
            legend=True,
        )
        try:
            geo = layout(spec)
        except LayoutError:
            return
        ticks = [box for ref, box in geo.items() if ref.role == "x_tick"]
        for i in range(len(ticks)):
            for j in range(i + 1, len(ticks)):
                assert not ticks[i].intersects(ticks[j])

    def test_bboxes_within_canvas(self, multi_line_spec, pie_spec, bar_spec):
        for spec in (multi_line_spec, pie_spec, bar_spec):
            geo = layout(spec)
            w, h = spec.canvas
            for ref, box in geo.items():
                assert 0 <= box.x0 < box.x1 <= w, ref
                assert 0 <= box.y0 < box.y1 <= h, ref

    def test_entries_cover_visible_elements(self, multi_line_spec):
        geo = layout(multi_line_spec)
        assert ElementRef("title") in geo
        assert ElementRef("plot_area") in geo
        for s in multi_line_spec.series:
            assert ElementRef("legend_entry", series=s.name) in geo
            for cat in multi_line_spec.x_labels:
                assert ElementRef("datapoint", series=s.name, category=cat) in geo
        for cat in multi_line_spec.x_labels:
            assert ElementRef("x_tick", category=cat) in geo
        assert sum(ref.role == "y_tick" for ref in geo) >= 2

    def test_pie_key_labels_are_ticks(self, pie_spec):
        geo = layout(pie_spec)
        assert {r.category for r in geo if r.role == "x_tick"} == set(pie_spec.x_labels)
        assert not any(r.role == "y_tick" for r in geo)

    def test_tiny_canvas_fails(self):
        spec = make_spec(canvas=(200, 200), legend=True,
                         series=(Series("Alpha", (1.0, 2.0, 3.0)), Series("Bravo", (1.0, 2.0, 3.0))))
        with pytest.raises(LayoutError):
            layout(spec)

    def test_negative_values_rejected(self):
        spec = make_spec(series=(Series("Alpha", (-5.0, 20.0, 15.0)),))
        with pytest.raises(LayoutError, match="negative"):
            layout(spec)

    def test_ink_intersects_every_bbox(self, two_bar_spec, multi_line_spec, pie_spec):
        for spec in (two_bar_spec, multi_line_spec, pie_spec):
            bmp, geo = rasterize(spec)
            for ref, box in geo.items():
                assert ink_in(bmp, box), f"{spec.chart_type}: no ink in {ref}"


class TestSvg:
    def test_title_text_node_inside_bbox(self, bar_spec):
        svg, geo = render_svg(bar_spec)
        nodes = re.findall(r'<text x="([\d.]+)" y="([\d.]+)"[^>]*>([^<]*)</text>', svg)
        title_nodes = [n for n in nodes if n[2] == bar_spec.title]
        assert len(title_nodes) == 1
        x, y = float(title_nodes[0][0]), float(title_nodes[0][1])
        assert geo[ElementRef("title")].contains(x, y)

    def test_single_overlay_rect(self, bar_spec):
        svg, _ = render_svg(bar_spec, overlays=[PixelBBox(100, 100, 200, 160)])
        assert svg.count('class="overlay-box"') == 1

    def test_byte_deterministic(self, multi_line_spec):
        s1, _ = render_svg(multi_line_spec, overlays=[PixelBBox(10, 10, 50, 50)])
        s2, _ = render_svg(multi_line_spec, overlays=[PixelBBox(10, 10, 50, 50)])
        assert s1.encode() == s2.encode()

    def test_overlay_outside_canvas_rejected(self, bar_spec):
        with pytest.raises(ValidationError, match="canvas"):
            render_svg(bar_spec, overlays=[PixelBBox(700, 500, 900, 700)])

    def test_full_turn_wedge_draws_two_half_arcs(self):
        # A viewer skips an arc whose end point is its start point, so a
        # one-category pie must go round in two arcs that end apart.
        spec = make_spec(chart_type="pie", series=(Series("Share", (5.0,)),), x_labels=("All",))
        svg, _ = render_svg(spec)
        (path,) = re.findall(r'<path d="([^"]*)"', svg)
        start = re.search(r" L ([\d.]+ [\d.]+)", path).group(1)
        ends = re.findall(r" A [\d.]+ [\d.]+ 0 [01] 1 ([\d.]+ [\d.]+)", path)
        assert len(ends) == 2
        assert ends[0] != ends[1] and ends[0] != start
        assert ends[1] == start

    def test_escapes_markup_text(self):
        spec = make_spec(title="A<B & C")
        svg, _ = render_svg(spec)
        assert "A&lt;B &amp; C" in svg


class TestRaster:
    def test_no_marker_color_without_markers(self, bar_spec, pie_spec):
        for spec in (bar_spec, pie_spec):
            bmp, _ = rasterize(spec)
            assert marker_pixels(bmp).size == 0

    def test_marker_centroid(self, bar_spec):
        bmp, _ = rasterize(bar_spec, markers=[(100.0, 100.0)])
        pts = marker_pixels(bmp)
        assert pts.size > 0
        cy, cx = pts.mean(axis=0) + 0.5
        assert abs(cx - 100.0) <= 1.0 and abs(cy - 100.0) <= 1.0

    def test_corner_marker_clipped_single_component(self, bar_spec):
        bmp, _ = rasterize(bar_spec, markers=[(0.0, 0.0)])
        pts = {(int(y), int(x)) for y, x in marker_pixels(bmp)}
        assert pts
        # independent flood fill over the scanned pixels
        stack = [next(iter(pts))]
        seen = {stack[0]}
        while stack:
            y, x = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nb = (y + dy, x + dx)
                    if nb in pts and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        assert seen == pts

    def test_byte_deterministic(self, pie_spec):
        b1, _ = rasterize(pie_spec, markers=[(300.0, 200.0)])
        b2, _ = rasterize(pie_spec, markers=[(300.0, 200.0)])
        assert b1.to_ppm() == b2.to_ppm()

    def test_ppm_roundtrip(self, bar_spec):
        bmp, _ = rasterize(bar_spec)
        data = bmp.to_ppm()
        assert data.startswith(b"P6\n800 600\n255\n")
        again = Bitmap.from_ppm(data)
        assert np.array_equal(again.array, bmp.array)

    def test_overlay_stroke_drawn(self, bar_spec):
        bmp, _ = rasterize(bar_spec, overlays=[PixelBBox(100, 100, 200, 160)])
        a = bmp.array
        red = (a[..., 0] == 255) & (a[..., 1] == 0) & (a[..., 2] == 0)
        assert red.sum() > 100

    def test_corpus_renders_cleanly(self):
        # every generated spec must lay out and rasterize without error
        for spec in generate_corpus(seed=5, n=40, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2}):
            bmp, _ = rasterize(spec)
            assert (bmp.width, bmp.height) == spec.canvas


def test_marker_color_reserved():
    from chartcot.render import AXIS_COLOR, OVERLAY_COLOR, PALETTE, TEXT_COLOR
    assert MARKER_COLOR not in PALETTE
    assert MARKER_COLOR not in (TEXT_COLOR, OVERLAY_COLOR, AXIS_COLOR, BACKGROUND)


def test_svg_uses_subset_tags_only(multi_line_spec, pie_spec):
    for spec in (multi_line_spec, pie_spec):
        svg, _ = render_svg(spec, overlays=[PixelBBox(200, 100, 300, 200)],
                            markers=[(250.0, 150.0)])
        tags = set(re.findall(r"<([a-zA-Z?][\w?]*)", svg))
        assert tags <= {"?xml", "svg", "rect", "line", "path", "text", "g"}


def test_wedge_angles_cover_circle(pie_spec):
    lay = chart_layout(pie_spec)
    spans = [a1 - a0 for a0, a1 in lay.wedge_angles.values()]
    assert abs(sum(spans) - 2 * np.pi) < 1e-9
    # shares 45/30/15/10 map to proportional angles
    assert abs(spans[0] / (2 * np.pi) - 0.45) < 1e-9


def _reference_pie(arr, cx, cy, r, wedges, colors):
    """The pie fan drawn one triangle at a time over its own bbox, later
    triangles on top: the pixel rule the lookup-table fan must reproduce."""
    h, w, _ = arr.shape
    for (a0, a1), color in zip(wedges, colors):
        nseg = max(1, int(math.ceil((a1 - a0) / PIE_SEGMENT - 1e-12)))
        step = (a1 - a0) / nseg
        for i in range(nseg):
            b0 = a0 + i * step
            b1 = b0 + step
            p0 = (cx, cy)
            p1 = (cx + r * math.cos(b0), cy + r * math.sin(b0))
            p2 = (cx + r * math.cos(b1), cy + r * math.sin(b1))
            xs, ys = (p0[0], p1[0], p2[0]), (p0[1], p1[1], p2[1])
            x0, x1 = max(0, math.floor(min(xs))), min(w, math.ceil(max(xs)) + 1)
            y0, y1 = max(0, math.floor(min(ys))), min(h, math.ceil(max(ys)) + 1)
            if x0 >= x1 or y0 >= y1:
                continue
            px = np.arange(x0, x1, dtype=np.float64)[None, :] + 0.5
            py = np.arange(y0, y1, dtype=np.float64)[:, None] + 0.5

            def edge(a, b):
                return (px - a[0]) * (b[1] - a[1]) - (py - a[1]) * (b[0] - a[0])

            e0, e1, e2 = edge(p0, p1), edge(p1, p2), edge(p2, p0)
            inside = ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))
            arr[y0:y1, x0:x1][inside] = color


def test_pie_fan_matches_triangle_by_triangle_reference():
    # Off-grid and half-integer centres (a pixel centre on the pie centre),
    # pies clipped by the canvas, a full-turn wedge, and slivers from shares
    # down to 1e-13 of the whole.
    rng = random.Random(4)
    for case in range(40):
        w, h = rng.randint(120, 260), rng.randint(120, 260)
        cx = rng.choice([w / 2, w / 2 + 0.5, rng.uniform(0, w)])
        cy = rng.choice([h / 2, h / 2 + 0.5, rng.uniform(0, h)])
        r = rng.uniform(17, 140)
        n = 1 if case == 0 else rng.randint(2, 9)
        shares = [rng.choice([1e-13, 1e-8, 1e-4, rng.uniform(0.02, 1.0)]) for _ in range(n)]
        angle, wedges = -math.pi / 2, []
        for v in shares:
            wedges.append((angle, angle + v / sum(shares) * 2 * math.pi))
            angle = wedges[-1][1]
        colors = [PALETTE[i % len(PALETTE)] for i in range(n)]
        want = np.full((h, w, 3), BACKGROUND[0], dtype=np.uint8)
        got = want.copy()
        _reference_pie(want, cx, cy, r, wedges, colors)
        _fill_pie(got, cx, cy, r, wedges, colors)
        assert np.array_equal(got, want), f"case {case}: cx={cx} cy={cy} r={r} shares={shares}"
