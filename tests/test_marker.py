import dataclasses
import math
import re
from xml.sax.saxutils import unescape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartcot.cot import Step, generate_cot_rule_based
from chartcot.errors import (
    AmbiguousError,
    ChartCotError,
    CollisionError,
    LayoutError,
    NotFoundError,
    TargetError,
)
from chartcot.geometry import ElementRef, PixelBBox, glyph_bbox
from chartcot.layout import chart_layout, layout
from chartcot.marker import (
    EditedSpec,
    apply_marker,
    detect_markers,
    finalize_bbox,
    marker_min_size,
    raster_components,
    structural_hits,
    verify_marker,
)
from chartcot.render import MARKER_COLOR, marker_svg, paint_markers, rasterize, render_svg
from chartcot.spec import CANVAS_CHOICES, MARKER_CHAR, Series, generate_corpus

from conftest import draw_edit, make_spec


def grounding(index: int, ref: ElementRef) -> Step:
    return Step(index=index, kind="Grounding", text="locate it", target=ref)


class TestApplyMarker:
    def test_legend_suffix(self, multi_line_spec):
        edit = apply_marker(multi_line_spec, grounding(0, ElementRef("legend_entry", series="Bravo")))
        names = [s.name for s in edit.spec.series]
        assert "Bravo@" in names and "Bravo" not in names
        assert edit.spec.title == multi_line_spec.title
        assert edit.spec.x_labels == multi_line_spec.x_labels
        assert edit.markers == ()

    def test_x_tick_suffix(self, bar_spec):
        edit = apply_marker(bar_spec, grounding(0, ElementRef("x_tick", category="Q2")))
        assert edit.spec.x_labels == ("Q1", "Q2@", "Q3")
        assert edit.spec.series == bar_spec.series

    def test_title_suffix(self, bar_spec):
        edit = apply_marker(bar_spec, grounding(0, ElementRef("title")))
        assert edit.spec.title == bar_spec.title + "@"

    def test_bar_anchor_matches_layout(self, two_bar_spec):
        # anchor sits at the bar's top-center, one pixel inside the bar
        geo = layout(two_bar_spec)
        ref = ElementRef("datapoint", series="Alpha", category="Q2")
        edit = apply_marker(two_bar_spec, grounding(0, ref))
        box = geo[ref]
        assert edit.markers == (((box.x0 + box.x1) / 2.0, box.y0 + 1.0),)

    def test_line_anchor_is_vertex(self, multi_line_spec):
        lines = [item[1] for item in chart_layout(multi_line_spec).groups["chart"] if item[0] == "polyline"]
        ref = ElementRef("datapoint", series="Delta", category="Mar")
        edit = apply_marker(multi_line_spec, grounding(0, ref))
        series = [s.name for s in multi_line_spec.series].index("Delta")
        assert edit.markers == (lines[series][multi_line_spec.x_labels.index("Mar")],)

    def test_pie_anchor_is_wedge_centroid(self, pie_spec):
        lay = chart_layout(pie_spec)
        ((_, pcx, pcy, r, wedges, _),) = lay.groups["chart"]
        ref = ElementRef("datapoint", series="Alpha", category="South")
        edit = apply_marker(pie_spec, grounding(0, ref))
        a0, a1 = wedges[pie_spec.x_labels.index("South")]
        span = a1 - a0
        d = 4 * r * math.sin(span / 2) / (3 * span)
        mid = (a0 + a1) / 2
        cx = pcx + d * math.cos(mid)
        cy = pcy + d * math.sin(mid)
        assert edit.markers[0] == pytest.approx((cx, cy))
        assert lay.geometry[ref].contains(*edit.markers[0])

    def test_every_datapoint_has_an_anchor_inside_its_box(self):
        for spec in generate_corpus(seed=19, n=200, type_mix={"bar": 0.4, "line": 0.3, "pie": 0.3}):
            lay = chart_layout(spec)
            points = {ref: box for ref, box in lay.geometry.items() if ref.role == "datapoint"}
            assert points and set(lay.anchors) == set(points), spec.id
            for ref, box in points.items():
                assert box.contains(*lay.anchors[ref]), (spec.id, ref)

    def test_collision(self):
        spec = make_spec(title="Revenue @ Noon")
        with pytest.raises(CollisionError):
            apply_marker(spec, grounding(0, ElementRef("x_tick", category="Q1")))

    def test_unresolvable_target(self, bar_spec):
        with pytest.raises(TargetError):
            apply_marker(bar_spec, grounding(0, ElementRef("x_tick", category="Q9")))
        with pytest.raises(TargetError):
            apply_marker(bar_spec, grounding(0, ElementRef("legend_entry", series="Alpha")))

    def test_y_tick_not_editable(self, bar_spec):
        with pytest.raises(TargetError, match="derived"):
            apply_marker(bar_spec, grounding(0, ElementRef("y_tick", category="20")))

    def test_reasoning_step_rejected(self, bar_spec):
        with pytest.raises(TargetError):
            apply_marker(bar_spec, Step(index=0, kind="Reasoning", text="think"))

    def test_plot_area_takes_no_marker(self, bar_spec):
        with pytest.raises(TargetError, match="'plot_area'"):
            apply_marker(bar_spec, grounding(0, ElementRef("plot_area")))


class TestVerify:
    def test_applied_edit_passes(self, bar_spec):
        edit = apply_marker(bar_spec, grounding(0, ElementRef("x_tick", category="Q1")))
        assert verify_marker(edit)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), chart_type=st.sampled_from(["bar", "line", "pie"]), data=st.data())
    def test_every_returned_edit_verifies(self, seed, chart_type, data):
        # Spec validation keeps series names and x labels unique, and
        # apply_marker refuses a spec already holding the marker, so an edit
        # it returns carries exactly one marker.
        spec = generate_corpus(seed=seed, n=1, type_mix={chart_type: 1.0})[0]
        target = data.draw(st.sampled_from(_markable_targets(spec)))
        try:
            edit = apply_marker(spec, grounding(0, target))
        except ChartCotError:
            return
        assert verify_marker(edit)

    def test_unedited_fails(self, bar_spec):
        bare = EditedSpec(spec=bar_spec, markers=(), step_index=0, vanilla=chart_layout(bar_spec))
        assert not verify_marker(bare)

    def test_two_anchors_fail(self, bar_spec):
        corrupted = EditedSpec(
            spec=bar_spec, markers=((10.0, 10.0), (50.0, 50.0)), step_index=0, vanilla=chart_layout(bar_spec)
        )
        assert not verify_marker(corrupted)


class TestDetect:
    def test_text_edit_structural(self, multi_line_spec):
        geo = layout(multi_line_spec)
        ref = ElementRef("legend_entry", series="Alpha")
        edit = apply_marker(multi_line_spec, grounding(0, ref))
        svg, bmp = render_svg(edit.spec), rasterize(edit.spec)
        result = detect_markers(svg, bmp)
        assert result.method == "structural"
        assert result.bbox.intersects(geo[ref])

    def test_point_edit_raster_centroid(self, two_bar_spec):
        ref = ElementRef("datapoint", series="Alpha", category="Q2")
        edit = apply_marker(two_bar_spec, grounding(0, ref))
        svg, bmp = draw_edit(edit)
        result = detect_markers(svg, bmp)
        assert result.method == "raster"
        cx, cy = result.bbox.center
        ax, ay = edit.markers[0]
        assert abs(cx - ax) <= 2.0 and abs(cy - ay) <= 2.0

    def test_two_blobs_ambiguous(self, bar_spec):
        svg, bmp = render_svg(bar_spec), rasterize(bar_spec)
        bmp.array[10:15, 10:15] = MARKER_COLOR
        bmp.array[100:105, 300:305] = MARKER_COLOR
        with pytest.raises(AmbiguousError):
            detect_markers(svg, bmp)

    def test_unedited_not_found(self, bar_spec):
        svg, bmp = render_svg(bar_spec), rasterize(bar_spec)
        with pytest.raises(NotFoundError):
            detect_markers(svg, bmp)

    def test_structural_raster_agree_on_text_edits(self, multi_line_spec):
        edit = apply_marker(multi_line_spec, grounding(0, ElementRef("x_tick", category="Feb")))
        svg, bmp = render_svg(edit.spec), rasterize(edit.spec)
        s_hits = structural_hits(svg)
        r_comps = raster_components(bmp)
        assert len(s_hits) == 1 and len(r_comps) == 1
        (sx, sy), (rx, ry) = s_hits[0].center, r_comps[0].center
        assert abs(sx - rx) <= 3.0 and abs(sy - ry) <= 3.0

    def test_removal_property_corpus(self):
        for spec in generate_corpus(seed=13, n=10, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2}):
            svg, bmp = render_svg(spec), rasterize(spec)
            with pytest.raises(NotFoundError):
                detect_markers(svg, bmp)


def _structural_hits_reference(doc: str) -> list[PixelBBox]:
    """Every text node parsed, marker or not: the scan structural_hits narrows."""
    hits = []
    for m in re.finditer(r'<text x="([-0-9.]+)" y="([-0-9.]+)" font-size="(\d+)"[^>]*>([^<]*)</text>', doc):
        content = unescape(m.group(4))
        for idx, ch in enumerate(content):
            if ch == MARKER_CHAR:
                hits.append(glyph_bbox(float(m.group(1)), float(m.group(2)), idx, int(m.group(3))))
    return hits


class TestStructuralScan:
    def test_matches_full_scan_on_corpus_edits(self):
        docs = []
        for spec in generate_corpus(seed=17, n=60, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2}):
            for step in generate_cot_rule_based(spec, seed=0).grounding_steps():
                edit = apply_marker(spec, step)
                docs.append(marker_svg(render_svg(edit.spec), edit.markers))
        counts = {len(_structural_hits_reference(d)) for d in docs}
        assert {0, 1} <= counts
        for doc in docs:
            assert structural_hits(doc) == _structural_hits_reference(doc)

    def test_matches_full_scan_on_crafted_documents(self):
        node = '<text x="{x}" y="40" font-size="12" font-family="monospace" fill="#222222">{t}</text>'
        docs = [
            node.format(x=10, t="a@b@") + node.format(x=90, t="c@"),     # several per node, several nodes
            '<g data-note="@">' + node.format(x=5, t="plain") + "</g>",  # marker outside any text node
            node.format(x=5, t="&lt;@&amp;@"),                            # entities before the marker
            '<text x="1" y="2">@</text>' + node.format(x=-3.5, t="@"),   # a node the pattern rejects
            "@" + node.format(x=0, t="no marker") + "@",
            "",
        ]
        for doc in docs:
            assert structural_hits(doc) == _structural_hits_reference(doc)
        assert len(structural_hits(docs[0])) == 3

    def test_detect_without_bitmap(self, multi_line_spec, two_bar_spec):
        edit = apply_marker(multi_line_spec, grounding(0, ElementRef("x_tick", category="Feb")))
        assert detect_markers(render_svg(edit.spec), None).method == "structural"
        point = apply_marker(two_bar_spec, grounding(0, ElementRef("datapoint", series="Alpha", category="Q2")))
        with pytest.raises(NotFoundError):
            detect_markers(marker_svg(render_svg(point.spec), point.markers), None)

    def test_detect_without_vector_document(self, two_bar_spec):
        # Detect draws a cross only as pixels: the raster pass decides alone.
        point = apply_marker(two_bar_spec, grounding(0, ElementRef("datapoint", series="Alpha", category="Q2")))
        bmp = rasterize(point.spec)
        with pytest.raises(NotFoundError):
            detect_markers(None, bmp)
        paint_markers(bmp, point.markers)
        assert detect_markers(None, bmp) == detect_markers(*draw_edit(point))
        with pytest.raises(NotFoundError):
            detect_markers(None, None)

    def test_edit_kind_chooses_the_pass_over_corpus_targets(self):
        # A text edit's raster paints the @ glyphs its SVG holds, so it cannot
        # change the structural verdict; a cross has no text, so its SVG gives
        # no structural hit. The pipeline therefore rasterises point edits only.
        text_edits = point_edits = 0
        for spec in generate_corpus(seed=3, n=40, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2}):
            for target in _markable_targets(spec):
                try:
                    edit = apply_marker(spec, grounding(0, target))
                    svg = marker_svg(render_svg(edit.spec), edit.markers)
                except ChartCotError:
                    continue
                if edit.markers:
                    point_edits += 1
                    assert structural_hits(svg) == [], (spec.id, target)
                else:
                    text_edits += 1
                    assert _verdict(svg, rasterize(edit.spec)) == _verdict(svg, None), (spec.id, target)
        assert text_edits > 100 and point_edits > 100


def _markable_targets(spec) -> list[ElementRef]:
    """Every layout element but the plot area and the derived y ticks, plus the title."""
    refs = [ref for ref in layout(spec) if ref.role not in ("plot_area", "y_tick", "title")]
    return [ElementRef("title"), *refs]


def _verdict(svg, bitmap):
    """detect_markers' result, or the type of the error it raises."""
    try:
        return detect_markers(svg, bitmap)
    except (NotFoundError, AmbiguousError) as exc:
        return type(exc)


class TestFinalize:
    def test_widens_to_minimum(self):
        raw = PixelBBox(97.0, 90.0, 103.0, 104.0)  # 6 wide, 14 tall, center x=100
        out = finalize_bbox(raw, (1000, 800), 12.0, 12.0)
        assert (out.x0, out.x1) == (94.0, 106.0)
        assert (out.y0, out.y1) == (90.0, 104.0)

    def test_large_box_unchanged(self):
        raw = PixelBBox(100.0, 100.0, 150.0, 130.0)
        assert finalize_bbox(raw, (1000, 800), 12.0, 12.0) == raw

    def test_clamped_at_left_edge(self):
        raw = PixelBBox(2.0, 100.0, 6.0, 112.0)  # center x = 4
        out = finalize_bbox(raw, (1000, 800), 12.0, 12.0)
        assert (out.x0, out.x1) == (0.0, 12.0)

    def test_clamped_at_bottom_edge(self):
        raw = PixelBBox(100.0, 795.0, 112.0, 799.0)
        out = finalize_bbox(raw, (1000, 800), 12.0, 12.0)
        assert (out.y0, out.y1) == (788.0, 800.0)

    def test_center_preserved_without_clamp(self):
        raw = PixelBBox(500.0, 400.0, 503.0, 402.0)
        out = finalize_bbox(raw, (1000, 800), 12.0, 12.0)
        assert out.center == raw.center

    def test_min_size_scales_with_canvas(self):
        assert marker_min_size(1000) == 12.0
        assert marker_min_size(2000) == 24.0
        assert marker_min_size(500) == 6.0


def test_end_to_end_soundness_sample():
    # full chain on a small corpus: detected center inside (or within half a
    # minimum-width of) the vanilla geometry bbox for the step's target
    specs = generate_corpus(seed=17, n=12, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2})
    for spec in specs:
        sample = generate_cot_rule_based(spec, seed=17)
        geo = layout(spec)
        half_min = marker_min_size(spec.canvas[0]) / 2
        for step in sample.grounding_steps():
            edit = apply_marker(spec, step)
            result = detect_markers(*draw_edit(edit))
            cx, cy = result.bbox.center
            box = geo[step.target].expand(half_min)
            assert box.contains(cx, cy), (spec.id, step.target)


def _marked_name(ref: ElementRef, target: ElementRef) -> ElementRef:
    """``ref`` as ``chart_layout`` names it once the text of ``target`` ends in the marker."""
    key = {"legend_entry": "series", "x_tick": "category"}.get(target.role)
    if key is None or ref.role == "y_tick" or getattr(ref, key) != getattr(target, key):
        return ref
    return dataclasses.replace(ref, **{key: getattr(ref, key) + MARKER_CHAR})


class TestEditLayout:
    """A text edit is laid out from the vanilla layout, with only its marked label placed again."""

    def test_replaced_label_lays_out_as_the_edited_spec(self):
        # Every text target of five corpora, each chart on every canvas: the
        # edit's layout is chart_layout(edit.spec) with the elements under
        # their vanilla names, and the vanilla layout is left as it was.
        checked = 0
        for seed in range(1, 6):
            for spec in generate_corpus(seed=seed, n=12, type_mix={"bar": 0.4, "line": 0.3, "pie": 0.3}):
                for canvas in CANVAS_CHOICES:
                    vanilla = chart_layout(dataclasses.replace(spec, canvas=canvas))
                    for target in [ref for ref in vanilla.texts if ref.role != "y_tick"]:
                        edit = apply_marker(vanilla.spec, grounding(0, target), full_layout=vanilla)
                        try:
                            want = chart_layout(edit.spec)
                        except LayoutError as exc:
                            with pytest.raises(LayoutError, match=f"^{re.escape(str(exc))}$"):
                                edit.layout
                            continue
                        got = edit.layout
                        assert got.groups == want.groups, (spec.id, canvas, target)
                        assert render_svg(edit.spec, layout=got) == render_svg(edit.spec)
                        assert (got.spec, got.plot) == (want.spec, want.plot)
                        for part in ("geometry", "anchors", "texts"):
                            renamed = {_marked_name(ref, target): v for ref, v in getattr(got, part).items()}
                            assert renamed == getattr(want, part), (spec.id, canvas, target, part)
                        checked += 1
                    assert vanilla == chart_layout(vanilla.spec)
        assert checked > 2000

    def test_marked_tick_that_overlaps_its_neighbour_fails_both_ways(self):
        # "Feb@" widens its tick label until it overlaps "Mar" on a 200 px
        # canvas, where the vanilla labels just fit.
        spec = make_spec(canvas=(200, 300), series=(Series("Alpha", (10.0, 20.0, 15.0, 12.0)),),
                         x_labels=("Jan", "Feb", "Mar", "Apr"))
        vanilla = chart_layout(spec)
        edit = apply_marker(spec, grounding(0, ElementRef("x_tick", category="Feb")), full_layout=vanilla)
        with pytest.raises(LayoutError) as fresh:
            chart_layout(edit.spec)
        with pytest.raises(LayoutError) as replaced:
            edit.layout
        assert str(replaced.value) == str(fresh.value) == "x tick labels overlap; canvas too small"

    def test_a_cross_keeps_the_vanilla_layout(self, two_bar_spec):
        vanilla = chart_layout(two_bar_spec)
        point = apply_marker(two_bar_spec, grounding(0, ElementRef("datapoint", series="Alpha", category="Q2")),
                             full_layout=vanilla)
        assert point.layout is vanilla
