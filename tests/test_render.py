import math
import random
import re

import numpy as np
import pytest

from chartcot.errors import IntegrityError, LayoutError, ValidationError
from chartcot.geometry import ElementRef, PixelBBox
from chartcot.layout import chart_layout, layout, sector_bounds
from chartcot.render import (
    BACKGROUND,
    MARKER_COLOR,
    PALETTE,
    Bitmap,
    _fill_pie,
    lift_markers,
    marker_svg,
    overlay_svg,
    paint_markers,
    paint_overlays,
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
            bmp = rasterize(spec)
            for ref, box in layout(spec).items():
                assert ink_in(bmp, box), f"{spec.chart_type}: no ink in {ref}"


class TestSvg:
    def test_title_text_node_inside_bbox(self, bar_spec):
        svg, geo = render_svg(bar_spec), layout(bar_spec)
        nodes = re.findall(r'<text x="([\d.]+)" y="([\d.]+)"[^>]*>([^<]*)</text>', svg)
        title_nodes = [n for n in nodes if n[2] == bar_spec.title]
        assert len(title_nodes) == 1
        x, y = float(title_nodes[0][0]), float(title_nodes[0][1])
        assert geo[ElementRef("title")].contains(x, y)

    def test_single_overlay_rect(self, bar_spec):
        svg = overlay_svg(render_svg(bar_spec), [PixelBBox(100, 100, 200, 160)], bar_spec.canvas)
        assert svg.count('class="overlay-box"') == 1

    def test_byte_deterministic(self, multi_line_spec):
        s1 = overlay_svg(render_svg(multi_line_spec), [PixelBBox(10, 10, 50, 50)], multi_line_spec.canvas)
        s2 = overlay_svg(render_svg(multi_line_spec), [PixelBBox(10, 10, 50, 50)], multi_line_spec.canvas)
        assert s1.encode() == s2.encode()

    def test_overlay_outside_canvas_rejected(self, bar_spec):
        with pytest.raises(ValidationError, match="canvas"):
            overlay_svg(render_svg(bar_spec), [PixelBBox(700, 500, 900, 700)], bar_spec.canvas)

    def test_full_turn_wedge_draws_two_half_arcs(self):
        # A viewer skips an arc whose end point is its start point, so a
        # one-category pie must go round in two arcs that end apart.
        spec = make_spec(chart_type="pie", series=(Series("Share", (5.0,)),), x_labels=("All",))
        svg = render_svg(spec)
        (path,) = re.findall(r'<path d="([^"]*)"', svg)
        start = re.search(r" L ([\d.]+ [\d.]+)", path).group(1)
        ends = re.findall(r" A [\d.]+ [\d.]+ 0 [01] 1 ([\d.]+ [\d.]+)", path)
        assert len(ends) == 2
        assert ends[0] != ends[1] and ends[0] != start
        assert ends[1] == start

    def test_escapes_markup_text(self):
        spec = make_spec(title="A<B & C")
        svg = render_svg(spec)
        assert "A&lt;B &amp; C" in svg


class TestRaster:
    def test_no_marker_color_without_markers(self, bar_spec, pie_spec):
        for spec in (bar_spec, pie_spec):
            bmp = rasterize(spec)
            assert marker_pixels(bmp).size == 0

    def test_marker_centroid(self, bar_spec):
        bmp = rasterize(bar_spec)
        paint_markers(bmp, [(100.0, 100.0)])
        pts = marker_pixels(bmp)
        assert pts.size > 0
        cy, cx = pts.mean(axis=0) + 0.5
        assert abs(cx - 100.0) <= 1.0 and abs(cy - 100.0) <= 1.0

    def test_corner_marker_clipped_single_component(self, bar_spec):
        bmp = rasterize(bar_spec)
        paint_markers(bmp, [(0.0, 0.0)])
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
        b1, b2 = rasterize(pie_spec), rasterize(pie_spec)
        paint_markers(b1, [(300.0, 200.0)])
        paint_markers(b2, [(300.0, 200.0)])
        assert b1.to_ppm() == b2.to_ppm()

    def test_ppm_roundtrip(self, bar_spec):
        bmp = rasterize(bar_spec)
        data = bmp.to_ppm()
        assert bytes(data[:15]) == b"P6\n800 600\n255\n"
        again = Bitmap.from_ppm(data)
        assert np.array_equal(again.array, bmp.array)

    def test_copy_is_painted_apart(self, bar_spec):
        bmp = rasterize(bar_spec)
        data = bytes(bmp.to_ppm())
        twin = Bitmap(np.frombuffer(bmp.to_ppm(), dtype=np.uint8).copy(), bmp.width, bmp.height)
        assert twin.to_ppm() == data
        paint_markers(twin, [(100.0, 100.0)])
        assert bmp.to_ppm() == data
        fresh = rasterize(bar_spec)
        paint_markers(fresh, [(100.0, 100.0)])
        assert twin.to_ppm() == fresh.to_ppm()

    def test_lifting_crosses_restores_the_canvas_byte_for_byte(self, bar_spec):
        # Crosses clipped at every corner and edge, one wholly off the canvas,
        # two apart, two overlapping, and all at once, painted onto one canvas.
        bmp = rasterize(bar_spec)
        vanilla = bytes(bmp.to_ppm())
        w, h = bmp.width, bmp.height
        edges = [(0.0, 0.0), (w - 1.0, 0.0), (0.0, h - 1.0), (w - 1.0, h - 1.0), (-3.4, -3.6),
                 (w + 3.0, h + 3.0), (w / 2, -2.0), (-2.0, h / 2), (-40.0, -40.0)]
        cases = [[xy] for xy in edges] + [[(100.0, 100.0), (300.0, 200.0)], [(100.0, 100.0), (103.0, 102.0)],
                                          [(0.0, 0.0), (2.4, 1.6)], edges]
        for anchors in cases:
            fresh = rasterize(bar_spec)
            paint_markers(fresh, anchors)
            covered = paint_markers(bmp, anchors)
            assert bmp.to_ppm() == fresh.to_ppm(), anchors
            lift_markers(bmp, covered)
            assert bmp.to_ppm() == vanilla, anchors

    def test_ppm_decode_views_a_writable_buffer_and_copies_anything_else(self, bar_spec):
        bmp = rasterize(bar_spec)
        data = bytes(bmp.to_ppm())
        viewed = bytearray(data)
        assert np.shares_memory(Bitmap.from_ppm(viewed).array, np.frombuffer(viewed, dtype=np.uint8))
        for other in (data, memoryview(viewed).toreadonly()):
            again = Bitmap.from_ppm(other)
            assert again.array.flags.writeable and np.array_equal(again.array, bmp.array)
            assert not np.shares_memory(again.array, np.frombuffer(other, dtype=np.uint8))
            assert again.to_ppm() == data

    @pytest.mark.parametrize("data,message", [
        (b"P3\n2 1\n255\n" + bytes(6), "not a binary PPM"),
        (b"P6\n2 1\n25", "PPM header cut off: the file ends at byte 9"),
        (b"P6\n2 x\n255\n" + bytes(6), "PPM header fields are not integers"),
        (b"P6\n2 1\n65535\n" + bytes(12), "unsupported PPM: 2x1, maxval 65535"),
        (b"P6\n2 1\n255\n" + bytes(5), "PPM pixel data cut short: expected 6 bytes for 2x1, found 5"),
        # Only the header and pixel count to_ppm writes are accepted.
        (b"P6\n2 1\n255\n" + bytes(6) + b"\n", "PPM pixel data too long: expected 6 bytes for 2x1, found 7"),
        (b"P6\n# made by hand\n2 1\n255\n" + bytes(6), "PPM header fields are not integers laid out as "),
        (b"P6 2\t1\r\n255\n" + bytes(6), "PPM header fields are not integers laid out as "),
        (b"P6\n02 1\n255\n" + bytes(6), "PPM header fields are not integers laid out as "),
        (b"P6\n0 1\n255\n", "PPM header fields are not integers laid out as "),
        (b"P6\n2 1\n0255\n" + bytes(6), "unsupported PPM: 2x1, maxval 0255"),
    ])
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_malformed_ppm_is_integrity_error(self, data, message, kind):
        with pytest.raises(IntegrityError, match=f"^{re.escape(message)}"):
            Bitmap.from_ppm(kind(data))

    def test_overlay_stroke_drawn(self, bar_spec):
        bmp = rasterize(bar_spec)
        paint_overlays(bmp, [PixelBBox(100, 100, 200, 160)])
        a = bmp.array
        red = (a[..., 0] == 255) & (a[..., 1] == 0) & (a[..., 2] == 0)
        assert red.sum() > 100

    def test_corpus_renders_cleanly(self):
        # every generated spec must lay out and rasterize without error
        for spec in generate_corpus(seed=5, n=40, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2}):
            bmp = rasterize(spec)
            assert (bmp.width, bmp.height) == spec.canvas


def test_marker_color_reserved():
    from chartcot.render import AXIS_COLOR, OVERLAY_COLOR, PALETTE, TEXT_COLOR
    assert MARKER_COLOR not in PALETTE
    assert MARKER_COLOR not in (TEXT_COLOR, OVERLAY_COLOR, AXIS_COLOR, BACKGROUND)


def test_svg_uses_subset_tags_only(multi_line_spec, pie_spec):
    for spec in (multi_line_spec, pie_spec):
        svg = overlay_svg(marker_svg(render_svg(spec), [(250.0, 150.0)]), [PixelBBox(200, 100, 300, 200)], spec.canvas)
        tags = set(re.findall(r"<([a-zA-Z?][\w?]*)", svg))
        assert tags <= {"?xml", "svg", "rect", "line", "path", "text", "g"}


def test_wedge_angles_cover_circle(pie_spec):
    (pie,) = chart_layout(pie_spec).groups["chart"]
    spans = [a1 - a0 for a0, a1 in pie[4]]  # ("pie", cx, cy, r, wedges, colors)
    assert abs(sum(spans) - 2 * np.pi) < 1e-9
    # shares 45/30/15/10 map to proportional angles
    assert abs(spans[0] / (2 * np.pi) - 0.45) < 1e-9


def _pie_cases():
    """(label, canvas size, cx, cy, r, wedges, colors) for generated pies.

    Off-grid and half-integer centres (a pixel centre on the pie centre),
    pies clipped by the canvas, a full-turn wedge, and slivers from shares
    down to 1e-13 of the whole; then equal shares around half-integer
    centres, whose rays run exactly along pixel centres, with one wedge a
    half turn wide.
    """
    rng = random.Random(4)
    cases = []
    for case in range(40):
        w, h = rng.randint(120, 260), rng.randint(120, 260)
        cx = rng.choice([w / 2, w / 2 + 0.5, rng.uniform(0, w)])
        cy = rng.choice([h / 2, h / 2 + 0.5, rng.uniform(0, h)])
        r = rng.uniform(17, 140)
        n = 1 if case == 0 else rng.randint(2, 9)
        shares = [rng.choice([1e-13, 1e-8, 1e-4, rng.uniform(0.02, 1.0)]) for _ in range(n)]
        cases.append((f"case {case}", w, h, cx, cy, r, shares))
    for shares in ([1.0], [1.0, 1.0], [1.0, 1.0, 2.0], [1.0] * 8, [3.0, 1e-13, 1.0]):
        cases.append(("equal shares", 121, 121, 60.5, 60.5, 50.0, shares))
    for label, w, h, cx, cy, r, shares in cases:
        angle, wedges = -math.pi / 2, []
        for v in shares:
            wedges.append((angle, angle + v / sum(shares) * 2 * math.pi))
            angle = wedges[-1][1]
        colors = [PALETTE[i % len(PALETTE)] for i in range(len(shares))]
        yield f"{label}: cx={cx} cy={cy} r={r} shares={shares}", (w, h), cx, cy, r, wedges, colors


def _reference_pie(arr, cx, cy, r, wedges, colors):
    """The sector rule one pixel at a time: a disc pixel takes the colour of
    the last wedge whose clipped sector bbox and sector hold its centre."""
    h, w, _ = arr.shape
    rays = [(math.cos(a0), math.sin(a0)) for a0, _ in wedges]
    rays.append(rays[0])  # the last wedge ends on the ray the first starts on
    tests = []
    for k, (a0, a1) in enumerate(wedges):
        bx0, by0, bx1, by1 = sector_bounds(cx, cy, r, a0, a1)
        (c0, s0), (c1, s1) = rays[k], rays[k + 1]
        # Wider than a half turn: the end ray lies behind the start ray, or on
        # it for a full turn.
        wide = s0 * c1 > c0 * s1 or (s0 * c1 == c0 * s1 and a1 - a0 > math.pi)
        tests.append((math.floor(bx0), math.ceil(bx1) + 1, math.floor(by0), math.ceil(by1) + 1,
                      c0, s0, c1, s1, wide, colors[k]))
    for y in range(h):
        dy = y + 0.5 - cy
        for x in range(w):
            dx = x + 0.5 - cx
            if dx * dx + dy * dy > r * r:
                continue
            for x0, x1, y0, y1, c0, s0, c1, s1, wide, color in reversed(tests):
                if x0 <= x < x1 and y0 <= y < y1:
                    after, before = c0 * dy >= s0 * dx, c1 * dy <= s1 * dx
                    if (after or before) if wide else (after and before):
                        arr[y, x] = color
                        break


def test_pie_matches_per_pixel_sector_reference():
    for label, (w, h), cx, cy, r, wedges, colors in _pie_cases():
        want = np.full((h, w, 3), BACKGROUND[0], dtype=np.uint8)
        got = want.copy()
        _reference_pie(want, cx, cy, r, wedges, colors)
        _fill_pie(got, cx, cy, r, wedges, colors)
        assert np.array_equal(got, want), label


def test_pie_paints_every_disc_pixel_and_nothing_else():
    # A polygon inscribed in the circle leaves rim pixels white; rounding at
    # a ray must not leave a line of them either.
    for label, (w, h), cx, cy, r, wedges, colors in _pie_cases():
        arr = np.full((h, w, 3), BACKGROUND[0], dtype=np.uint8)
        _fill_pie(arr, cx, cy, r, wedges, colors)
        dx = np.arange(w) + 0.5 - cx
        dy = np.arange(h) + 0.5 - cy
        disc = np.add.outer(dy * dy, dx * dx) <= r * r
        painted = np.isin(arr.view("V3")[..., 0], np.array(colors, dtype=np.uint8).view("V3")[:, 0])
        assert np.array_equal(painted, disc), f"{label}: {int((disc & ~painted).sum())} disc pixels unpainted"
