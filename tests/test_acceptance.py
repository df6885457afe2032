"""Acceptance criteria, one test per criterion, in order.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Expected values marked as targets come from the corpus design
targets; tolerances are part of each criterion and are pinned here.
"""

import json
import random
import time

from chartcot.bbox import BOX_PATTERN, NormBBox, denormalize, normalize, parse, serialize
from chartcot.cli import main
from chartcot.cot import Answer, generate_cot_rule_based
from chartcot.errors import AmbiguousError, NotFoundError
from chartcot.evaluate import evaluate, relaxed_match
from chartcot.geometry import PixelBBox
from chartcot.instruction import build_instructions
from chartcot.layout import layout
from chartcot.marker import (
    TEXT_ROLES,
    apply_marker,
    detect_markers,
    finalize_bbox,
    marker_min_size,
)
from chartcot.pipeline import STAGES, DatasetManifest, PipelineConfig, compute_stats, run
from chartcot.spec import generate_corpus

from conftest import draw_edit
from test_evaluate import EXPECTED_CORRECT, MARGINS, _fixture_io
from test_instruction import boxes_for, sample_from_kinds, simulate

TYPE_MIX = {"bar": 0.571, "line": 0.336, "pie": 0.093}


def _report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_grounding_soundness():
    started = time.perf_counter()
    specs = generate_corpus(seed=41, n=200, type_mix=TYPE_MIX)
    steps_total = 0
    detected = 0
    centers_inside = 0
    text_cases = 0
    text_structural = 0
    for spec in specs:
        sample = generate_cot_rule_based(spec, seed=41)
        geo = layout(spec)
        for step in sample.grounding_steps():
            steps_total += 1
            is_text = step.target.role in TEXT_ROLES
            text_cases += is_text
            try:
                edit = apply_marker(spec, step)
                result = detect_markers(*draw_edit(edit))
            except (NotFoundError, AmbiguousError):
                continue
            detected += 1
            if is_text and result.method == "structural":
                text_structural += 1
            min_px = marker_min_size(spec.canvas[0])
            final = finalize_bbox(result.bbox, spec.canvas, min_px, min_px)
            cx, cy = final.center
            if geo[step.target].contains(cx, cy):
                centers_inside += 1
    elapsed = time.perf_counter() - started

    assert detected / steps_total >= 0.98
    assert centers_inside / detected >= 0.95
    assert text_structural == text_cases  # structural pass: 100% of text cases
    assert elapsed < 60.0
    _report(1, (
        f"{detected}/{steps_total} steps detected, "
        f"{centers_inside}/{detected} centers inside target bboxes, "
        f"{text_structural}/{text_cases} text cases structural, {elapsed:.1f}s"
    ))


def test_criterion_2_stage_accounting():
    config = PipelineConfig(
        seed=202, n_charts=10_000, workers=2,
        fault_injection={"cot": 0.0383, "code": 0.2416, "render": 0.4896, "detect": 0.2283},
    )
    manifest = run(config)
    reports = {r["stage"]: r for r in manifest.stage_reports()}
    targets = {"cot": 96.17, "code": 75.84, "render": 51.04, "detect": 77.17}
    deltas = {}
    for stage, target in targets.items():
        rate = reports[stage]["success_rate"] * 100.0
        deltas[stage] = rate - target
        assert abs(rate - target) <= 1.5, (stage, rate)
    ordered = [reports[s] for s in STAGES]
    for prev, cur in zip(ordered, ordered[1:]):
        assert cur["attempted"] == prev["passed"]
    passed_sets = [{c.id for c in manifest.charts if c.passed(s)} for s in STAGES]
    for earlier, later in zip(passed_sets, passed_sets[1:]):
        assert later <= earlier
    _report(2, "rate deltas (points): " + ", ".join(
        f"{s}{d:+.2f}" for s, d in deltas.items()
    ) + "; gate identity and monotonicity exact over 10K charts")


def test_criterion_3_bbox_formats():
    bounds = {"A": 0.5e-4, "B": 0.5e-3}
    worst = {"A": 0.0, "B": 0.0, "C": 0.0}
    for size, axis in ((1000, "x"), (800, "y")):
        canvas = (size, 800) if axis == "x" else (1000, size)
        for px in range(size + 1):
            if axis == "x":
                box = PixelBBox(px, 0, px + 1, 1) if px < size else PixelBBox(size - 1, 0, size, 1)
                idx = (0, 2) if px < size else (2,)
            else:
                box = PixelBBox(0, px, 1, px + 1) if px < size else PixelBBox(0, size - 1, 1, size)
                idx = (1, 3) if px < size else (3,)
            for fmt in ("A", "B", "C"):
                back = denormalize(normalize(box, canvas, fmt), canvas)
                for i in idx:
                    err = abs(back.as_tuple()[i] - box.as_tuple()[i])
                    worst[fmt] = max(worst[fmt], err)
    assert worst["C"] <= 2.0
    assert worst["A"] <= bounds["A"] * 1000 + 1e-9
    assert worst["B"] <= bounds["B"] * 1000 + 1e-9

    rng = random.Random(99)
    failures = 0
    for _ in range(100_000):
        fmt = rng.choice(("A", "B", "C"))
        if fmt == "C":
            coords = tuple(float(rng.randint(0, 999)) for _ in range(4))
        else:
            d = 4 if fmt == "A" else 3
            coords = tuple(round(rng.randint(0, 10 ** d) / 10 ** d, d) for _ in range(4))
        n = NormBBox(fmt, coords)
        if parse(serialize(n), fmt) != n:
            failures += 1
    assert failures == 0
    _report(3, (
        f"worst round-trip error px: A={worst['A']:.4f}, B={worst['B']:.3f}, "
        f"C={worst['C']:.3f}; 100000 serialize/parse round-trips, 0 failures"
    ))


def test_criterion_4_instruction_expansion():
    rng = random.Random(7)
    spec = generate_corpus(seed=1, n=1, type_mix={"bar": 1.0})[0]
    leak_checked = 0
    for i in range(10_000):
        kinds = "".join(rng.choice("GR") for _ in range(rng.randint(1, 8)))
        sample = sample_from_kinds(kinds, chart_id=f"c{i:05d}")
        records = build_instructions(spec, sample, boxes_for(kinds))
        g = kinds.count("G")
        chained = sum(1 for a, b in zip(kinds, kinds[1:]) if a == "G" and b == "G")
        assert len(records) == 2 + g + max(0, chained) + 1, kinds
        assert sorted((r.kind, r.step_index) for r in records) == simulate(kinds)
        for r in records:
            if r.kind in ("T1a", "T1b"):
                leak_checked += 1
                assert not BOX_PATTERN.search("\n".join([*r.prompt, r.ground_truth]))
    _report(4, f"10000 random step sequences match the closed form; "
               f"{leak_checked} T1 records free of bbox substrings")


def test_criterion_5_evaluator():
    preds, gold = _fixture_io()
    report = evaluate(preds, gold, margins=MARGINS, mode="match")
    for group in ("human", "aug"):
        for margin in MARGINS:
            assert report.cells[margin][group]["correct"] == EXPECTED_CORRECT[group][margin]

    rng = random.Random(17)
    for _ in range(100_000):
        gold_v = rng.uniform(-1000.0, 1000.0)
        pred_v = gold_v * (1.0 + rng.uniform(-0.5, 0.5))
        m1, m2 = sorted((rng.uniform(0, 0.3), rng.uniform(0, 0.3)))
        at_m1 = relaxed_match(Answer(pred_v), Answer(gold_v), m1)
        at_m2 = relaxed_match(Answer(pred_v), Answer(gold_v), m2)
        assert at_m2 or not at_m1  # monotone in the margin
        k = rng.choice((-3.5, 0.25, 2.0, 10.0))
        assert relaxed_match(Answer(pred_v * k), Answer(gold_v * k), m1) == at_m1
    _report(5, "30-case fixture reproduced exactly at margins 0.05/0.10/0.20; "
               "monotonicity and scale invariance held on 100000 random pairs")


def test_criterion_6_determinism(tmp_path):
    cfg_obj = {"seed": 61, "n_charts": 24}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_obj), encoding="utf-8")
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["build", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["build", "--config", str(cfg_path), "--out", str(out8), "--workers", "8"]) == 0

    assert (out1 / "dataset.jsonl").read_bytes() == (out8 / "dataset.jsonl").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    m8 = json.loads((out8 / "manifest.json").read_text(encoding="utf-8"))
    m1.pop("generated_at")
    m8.pop("generated_at")
    assert m1 == m8
    assert (out1 / "stats.json").read_bytes() == (out8 / "stats.json").read_bytes()
    _report(6, "workers 1 vs 8: dataset.jsonl, manifest (modulo timestamp) and stats identical")


def test_criterion_7_statistics():
    config = PipelineConfig(seed=71, n_charts=1000, type_mix=TYPE_MIX, workers=2)
    manifest = run(config)
    stats = compute_stats(manifest)
    dist = stats["chart_type_distribution"]
    targets = {"bar": 57.1, "line": 33.6, "pie": 9.3}
    for chart_type, target in targets.items():
        assert abs(dist[chart_type] * 100.0 - target) <= 2.0, chart_type
    assert stats["total_step_mode"] in (3, 4, 5)
    _report(7, "type distribution " + ", ".join(
        f"{t}={dist[t] * 100:.1f}%" for t in ("bar", "line", "pie")
    ) + f"; total-step mode {stats['total_step_mode']}")


def test_criterion_8_resumability(tmp_path):
    config = PipelineConfig(seed=81, n_charts=10, workers=2)
    straight_dir = tmp_path / "straight"
    straight = run(config, out_dir=straight_dir)
    from chartcot.pipeline import emit_dataset
    emit_dataset(straight)
    reference_dataset = (straight_dir / "dataset.jsonl").read_bytes()

    for stage in STAGES:
        stage_dir = tmp_path / f"killed_after_{stage}"
        run(config, out_dir=stage_dir, stop_after=stage)  # simulated kill point
        resumed = run(config, out_dir=stage_dir)
        emit_dataset(resumed)
        assert resumed.digest() == straight.digest(), stage
        assert (stage_dir / "dataset.jsonl").read_bytes() == reference_dataset, stage
        loaded = DatasetManifest.load(stage_dir / "manifest.json")
        assert loaded.digest() == straight.digest(), stage
    _report(8, "kill+resume after each of the 6 stages reproduced the "
               "uninterrupted manifest and dataset byte-for-byte")
