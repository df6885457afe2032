from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartcot.bbox import BOX_PATTERN, NormBBox, denormalize, normalize
from chartcot.cot import Answer, CotSample, Step, generate_cot_rule_based
from chartcot.errors import CoverageError, ValidationError
from chartcot.geometry import ElementRef
from chartcot.instruction import ImageRef, build_instructions
from chartcot.layout import layout
from chartcot.marker import apply_marker, detect_markers, finalize_bbox, marker_min_size
from chartcot.render import overlay_svg, render_svg

from conftest import draw_edit, make_spec


def sample_from_kinds(kinds: str, chart_id: str = "t0001") -> CotSample:
    steps = []
    for i, k in enumerate(kinds):
        if k == "G":
            steps.append(Step(i, "Grounding", f"ground element {i}",
                              ElementRef("x_tick", category=f"K{i}")))
        else:
            steps.append(Step(i, "Reasoning", f"reason about {i}"))
    return CotSample(chart_id=chart_id, question="What is the value at K1?",
                     answer=Answer(42.0), steps=tuple(steps))


def boxes_for(kinds: str) -> dict[int, NormBBox]:
    return {
        i: NormBBox("C", (10.0 + i, 20.0 + i, 60.0 + i, 80.0 + i))
        for i, k in enumerate(kinds)
        if k == "G"
    }


def simulate(kinds: str) -> list[tuple]:
    """Independent brute-force emission oracle."""
    records = [("T1a", -1), ("T1b", -1), ("T4_final", -1)]
    for i, k in enumerate(kinds):
        if k == "G":
            records.append(("T2", i))
    for i in range(len(kinds) - 1):
        if kinds[i] == "G" and kinds[i + 1] == "G":
            records.append(("T3", i + 1))
    return sorted(records)


class TestEmission:
    def test_gggr(self, bar_spec):
        records = build_instructions(bar_spec, sample_from_kinds("GGGR"), boxes_for("GGGR"))
        kinds = Counter(r.kind for r in records)
        assert kinds == {"T1a": 1, "T1b": 1, "T2": 3, "T3": 2, "T4_final": 1}
        assert len(records) == 8

    def test_gr(self, bar_spec):
        records = build_instructions(bar_spec, sample_from_kinds("GR"), boxes_for("GR"))
        kinds = Counter(r.kind for r in records)
        assert kinds == {"T1a": 1, "T1b": 1, "T2": 1, "T4_final": 1}
        assert len(records) == 4

    def test_missing_box(self, bar_spec):
        boxes = boxes_for("GGR")
        del boxes[1]
        with pytest.raises(CoverageError):
            build_instructions(bar_spec, sample_from_kinds("GGR"), boxes)

    def test_extra_box(self, bar_spec):
        boxes = boxes_for("GGR")
        boxes[2] = NormBBox("C", (1.0, 1.0, 2.0, 2.0))
        with pytest.raises(CoverageError):
            build_instructions(bar_spec, sample_from_kinds("GGR"), boxes)

    def test_no_bbox_leak_in_t1(self, bar_spec):
        records = build_instructions(bar_spec, sample_from_kinds("GGGR"), boxes_for("GGGR"))
        for r in records:
            payload = "\n".join([*r.prompt, r.ground_truth])
            if r.kind in ("T1a", "T1b"):
                assert not BOX_PATTERN.search(payload), r.kind
            if r.kind in ("T2", "T3"):
                assert BOX_PATTERN.search(r.ground_truth)  # positive control

    def test_t3_chains_to_adjacent_grounding(self, bar_spec):
        kinds = "GGRG"  # adjacent pair (0, 1) only; the R breaks the second chain
        records = build_instructions(bar_spec, sample_from_kinds(kinds), boxes_for(kinds))
        t3 = [r for r in records if r.kind == "T3"]
        assert len(t3) == 1
        assert t3[0].step_index == 1
        assert t3[0].image.variant == "overlay"
        assert t3[0].image.overlay_upto == 0
        assert len(t3[0].image.overlay_boxes) == 1

    def test_t2_prompt_carries_prior_steps(self, bar_spec):
        sample = sample_from_kinds("GRG")
        records = build_instructions(bar_spec, sample, boxes_for("GRG"))
        t2_last = [r for r in records if r.kind == "T2" and r.step_index == 2][0]
        joined = "\n".join(t2_last.prompt)
        assert "ground element 0" in joined and "reason about 1" in joined

    def test_records_sorted(self, bar_spec):
        records = build_instructions(bar_spec, sample_from_kinds("GGGR"), boxes_for("GGGR"))
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_reasoning_only_trace(self, bar_spec):
        records = build_instructions(bar_spec, sample_from_kinds("RR"), {})
        assert Counter(r.kind for r in records) == {"T1a": 1, "T1b": 1, "T4_final": 1}


@settings(max_examples=250, deadline=None)
@given(st.text(alphabet="GR", min_size=1, max_size=8))
def test_emission_matches_simulator(kinds):
    spec = make_spec()
    records = build_instructions(spec, sample_from_kinds(kinds), boxes_for(kinds))
    assert sorted((r.kind, r.step_index) for r in records) == simulate(kinds)


class TestCap:
    def test_integer_cap(self, bar_spec):
        records = build_instructions(
            bar_spec, sample_from_kinds("GGGR"), boxes_for("GGGR"), cap=4, seed=3
        )
        kinds = Counter(r.kind for r in records)
        assert len(records) == 4
        assert kinds["T1a"] == kinds["T1b"] == kinds["T4_final"] == 1

    def test_cap_below_always_kept(self, bar_spec):
        records = build_instructions(
            bar_spec, sample_from_kinds("GGGR"), boxes_for("GGGR"), cap=2, seed=3
        )
        assert Counter(r.kind for r in records) == {"T1a": 1, "T1b": 1, "T4_final": 1}

    def test_cap_deterministic(self, bar_spec):
        a = build_instructions(bar_spec, sample_from_kinds("GGGGR"), boxes_for("GGGGR"), cap=5, seed=9)
        b = build_instructions(bar_spec, sample_from_kinds("GGGGR"), boxes_for("GGGGR"), cap=5, seed=9)
        assert [(r.kind, r.step_index) for r in a] == [(r.kind, r.step_index) for r in b]

    def test_fractional_cap_hits_target_mean(self):
        # cap=3.24 keeps 3 records for ~76% of charts and 4 for ~24%,
        # reproducing a 3.24 records/chart corpus mean
        total = 0
        n = 2000
        for i in range(n):
            sample = sample_from_kinds("GGR", chart_id=f"c{i:05d}")
            records = build_instructions(make_spec(), sample, boxes_for("GGR"), cap=3.24, seed=11)
            total += len(records)
        assert abs(total / n - 3.24) < 0.05


class TestOverlayImage:
    def test_single_box(self, bar_spec):
        box = denormalize(NormBBox("C", (100, 100, 300, 300)), bar_spec.canvas)
        svg = overlay_svg(render_svg(bar_spec), [box], bar_spec.canvas)
        assert svg.count('class="overlay-box"') == 1
        ref = ImageRef(chart_id=bar_spec.id, overlay_boxes=(box,))
        assert ref.variant == "overlay"

    def test_out_of_canvas_rejected(self, bar_spec):
        from chartcot.geometry import PixelBBox
        with pytest.raises(ValidationError):
            overlay_svg(render_svg(bar_spec), [PixelBBox(700.0, 60.0, 900.0, 120.0)], bar_spec.canvas)


def test_ground_truth_boxes_intersect_targets(multi_line_spec):
    # end to end: detected, finalized, normalized boxes must still cover the
    # element they ground once denormalized back to pixels
    spec = multi_line_spec
    sample = generate_cot_rule_based(spec, seed=2)
    geo = layout(spec)
    min_px = marker_min_size(spec.canvas[0])
    boxes = {}
    for step in sample.grounding_steps():
        edit = apply_marker(spec, step)
        raw = detect_markers(*draw_edit(edit)).bbox
        final = finalize_bbox(raw, spec.canvas, min_px, min_px)
        boxes[step.index] = normalize(final, spec.canvas, "C")
    records = build_instructions(spec, sample, boxes)
    by_index = {s.index: s for s in sample.steps}
    for r in records:
        if r.kind not in ("T2", "T3"):
            continue
        from chartcot.bbox import parse
        pix = denormalize(parse(r.ground_truth, "C"), spec.canvas)
        target = by_index[r.step_index].target
        assert pix.intersects(geo[target].expand(min_px / 2)), (r.kind, target)
