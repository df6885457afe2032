"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import evalgen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
from spantrace import Span  # noqa: E402


def test_self_times_subtract_merged_and_clipped_children():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, None, False),
        Span(1, "a", 1.0, 4.0, 0, None, False),
        Span(2, "b", 3.0, 6.0, 0, None, False),    # overlaps a
        Span(3, "c", 2.0, 3.0, 1, None, False),    # grandchild, inside a
        Span(4, "d", 9.0, 12.0, 0, None, False),   # runs past its parent
    ]
    assert spantrace.self_times(spans) == ({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}, 0.0)


def test_self_times_take_the_wrapper_cost_off_each_parent():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, None, False),
        Span(1, "a", 1.0, 4.0, 0, None, False),
        Span(2, "b", 5.0, 6.0, 0, None, False),
        Span(3, "c", 2.0, 3.9, 1, None, False),    # leaves a 0.1 s of self time
    ]
    selfs, removed = spantrace.self_times(spans, child_cost=0.5)
    # root: 10 - 4 covered - 2 children x 0.5; a: 3 - 1.9 covered, less 0.5
    assert selfs == pytest.approx({0: 5.0, 1: 0.6, 2: 1.0, 3: 1.9})
    assert removed == pytest.approx(1.5)
    selfs, removed = spantrace.self_times(spans, child_cost=2.0)
    assert selfs[1] == 0.0 and removed == pytest.approx(4.0 + 1.1)  # never below 0
    assert sum(selfs.values()) + removed == pytest.approx(10.0)


def test_tracer_self_times_sum_to_root_and_charts_are_inherited():
    from chartcot.spec import ChartSpec, Series

    spec = ChartSpec(id="c00007", chart_type="pie", title="t", series=(Series("s", (50.0, 50.0)),),
                     x_labels=("a", "b"), canvas=(800, 600), style_seed=1, legend=False,
                     value_labels=False)
    tracer = spantrace.Tracer(spec_type=ChartSpec)
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    layer = tracer.wrap("layer", lambda s: [leaf() for _ in range(3)])
    root = tracer.wrap("root", lambda: layer(spec), counts=lambda args, r: {"roots": 1})
    root()
    summary = spantrace.summarize(tracer)
    root_span = next(s for s in tracer.spans if s.name == "root")
    assert sum(v for k, v in summary["self"].items() if "@" not in k) == pytest.approx(root_span.end - root_span.start)
    assert summary["calls"] == {"root": 1, "layer": 1, "layer@pie": 1, "leaf": 3, "leaf@pie": 3}
    assert summary["counts"] == {"roots": 1}
    assert {s.chart for s in tracer.spans if s.name != "root"} == {"c00007"}


def test_calibrated_tracer_still_accounts_for_the_whole_root():
    tracer = spantrace.Tracer()
    assert tracer.calibrate(calls=200, rounds=3) >= 0.0
    assert tracer.spans == []
    leaf = tracer.wrap("leaf", lambda: None)
    root = tracer.wrap("root", lambda: [leaf() for _ in range(500)])
    root()
    summary = spantrace.summarize(tracer)
    root_span = next(s for s in tracer.spans if s.name == "root")
    assert summary["wrapper"]["calls"] == 500
    assert summary["wrapper"]["seconds"] == pytest.approx(min(500 * tracer.child_cost, summary["wrapper"]["seconds"]))
    assert sum(summary["self"].values()) + summary["wrapper"]["seconds"] == pytest.approx(root_span.end - root_span.start)


def test_a_call_inside_a_renaming_span_gets_its_own_name_and_no_counts():
    tracer = spantrace.Tracer(renames={("build", "emit"): "build_in_emit"})
    build = tracer.wrap("build", lambda: [1, 2, 3], counts=lambda args, r: {"records": len(r)})
    emit = tracer.wrap("emit", lambda: build())
    stage = tracer.wrap("stage", lambda: build())
    stage()
    emit()
    summary = spantrace.summarize(tracer)
    assert summary["calls"] == {"stage": 1, "emit": 1, "build": 1, "build_in_emit": 1}
    assert summary["counts"] == {"records": 3}


def test_install_fails_loudly_naming_the_wrapper():
    with pytest.raises(spantrace.TraceError, match="'render.svg'"):
        spantrace.install(spantrace.Tracer(), sys.modules, [("render.svg", ["chartcot.pipeline:no_such_name"], None)])


def test_eval_tally_matches_a_hand_computed_case():
    items = [
        ("bar", [True, True, True], True),     # rel. error 0.01
        ("bar", [False, True, True], True),    # rel. error 0.07
        ("pie", [False, False, True], True),   # rel. error 0.15
        ("pie", [False, False, False], False),  # empty \box{}
    ]
    assert evalgen.tally(items) == {
        "n_predictions": 4,
        "extraction_failures": 1,
        "cells": {
            "0.05": {"bar": {"correct": 1, "total": 2}, "pie": {"correct": 0, "total": 2}},
            "0.1": {"bar": {"correct": 2, "total": 2}, "pie": {"correct": 0, "total": 2}},
            "0.2": {"bar": {"correct": 2, "total": 2}, "pie": {"correct": 1, "total": 2}},
        },
    }


def _run_eval(tmp_path: Path, n: int) -> tuple[Path, dict]:
    from chartcot import cli

    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    expected = evalgen.write_inputs(3, n, gold, pred)
    margins = ",".join(str(m) for m in evalgen.MARGINS)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--gold", str(gold), "--pred", str(pred), "--margins", margins,
                         "--out", str(tmp_path)]) == 0
    return tmp_path / "eval_report.json", expected


def test_eval_generator_covers_every_form_and_agrees_with_chartcot(tmp_path):
    _, preds, _ = evalgen.generate(5, 400)
    texts = [p["raw_text"] for p in preds]
    assert any("\\box{}" in t for t in texts)
    assert any("\\box" not in t and not any(c.isdigit() for c in t) for t in texts)
    assert any("\\box" not in t and any(c.isdigit() for c in t) for t in texts)
    assert any("%}" in t for t in texts) and any(",0" in t or ",1" in t for t in texts)
    forms = evalgen.generate(5, 400)[2]["forms"]
    assert set(forms) == {f for f, _ in evalgen.FORMS} and sum(forms.values()) == 400
    assert forms["empty_box"] + forms["no_number"] == evalgen.generate(5, 400)[2]["extraction_failures"]
    report, expected = _run_eval(tmp_path, 400)
    assert checks.check_eval(report, expected) == []


def test_check_eval_rejects_a_tampered_report(tmp_path):
    report, expected = _run_eval(tmp_path, 200)
    obj = json.loads(report.read_text())
    obj["cells"]["0.1"]["bar"]["correct"] += 1
    report.write_text(json.dumps(obj))
    assert checks.check_eval(report, expected)
    obj["cells"]["0.1"]["bar"]["correct"] -= 1
    obj["extraction_failures"] += 1
    report.write_text(json.dumps(obj))
    assert checks.check_eval(report, expected)


def test_check_accounting_rejects_a_tampered_manifest():
    from chartcot.pipeline import PipelineConfig
    from chartcot.pipeline import run as run_pipeline

    manifest = run_pipeline(PipelineConfig(seed=2, n_charts=4))
    reference = manifest.digest()
    assert checks.check_accounting(manifest.digest(), reference) == []
    chart = next(c for c in manifest.charts if c.detections)
    key = next(iter(chart.detections))
    chart.detections[key] = dict(chart.detections[key], bbox=[0, 0, 1, 1])
    assert checks.check_accounting(manifest.digest(), reference)


@pytest.fixture(scope="module")
def built_run(tmp_path_factory):
    from chartcot.pipeline import PipelineConfig, emit_dataset, write_stats
    from chartcot.pipeline import run as run_pipeline

    out = tmp_path_factory.mktemp("build") / "run"
    manifest = run_pipeline(PipelineConfig(seed=2, n_charts=3), out_dir=out)
    emit_dataset(manifest)
    write_stats(manifest)
    return out, checks.dataset_digest(checks.read_records(out))


def _tamper_record(out: Path) -> None:
    lines = (out / "dataset.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["ground_truth"] += " "
    (out / "dataset.jsonl").write_text("\n".join([json.dumps(rec), *lines[1:]]) + "\n")


def _empty_image(out: Path) -> None:
    rec = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])
    (out / rec["image"]["file"]).write_bytes(b"")


@pytest.mark.parametrize("tamper", [
    _tamper_record,
    _empty_image,
    lambda out: (out / "stats.json").unlink(),
    lambda out: (out / "dataset.jsonl").write_text("{not json\n"),
])
def test_check_dataset_rejects_tampered_outputs(built_run, tmp_path, tamper):
    import shutil

    src, reference = built_run
    out = tmp_path / "run"
    shutil.copytree(src, out)
    assert checks.check_dataset(out, reference) == []
    tamper(out)
    assert checks.check_dataset(out, reference)


def test_command_exits_non_zero_on_a_wrong_output(monkeypatch, capsys):
    ref = run.load_reference()
    monkeypatch.setattr(run, "CHARTS", dict(run.CHARTS, accounting=2))
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    monkeypatch.setattr(run, "setup_seconds", lambda src: 0.2)
    bad = dict(ref, accounting={k: "0" * 64 for k in ref["accounting"]})
    monkeypatch.setattr(run, "load_reference", lambda: bad)
    assert run.main(["--workload", "accounting", "--seed", "0", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # The yardstick's repetition of the pair is neither checked nor counted.
    assert result["correct"] is False and result["attempted"] == 2


def test_resume_prepares_again_when_a_repetition_writes_through_the_link(monkeypatch, tmp_path):
    preps = []

    def fake_child(job):
        out = Path(job["dir"])
        if job["kind"] == "prep_resume":
            preps.append(job["seed"])
            out.mkdir(parents=True)
            (out / "journal").write_text("prepared\n")
        elif job.get("append"):
            with (out / "journal").open("a") as f:  # writes into the shared inode
                f.write("resumed\n")
        return {"items": 1}

    monkeypatch.setattr(run, "child", fake_child)
    inputs = {"seed": 4, "n": 1, "expect": "x", "prepared": str(tmp_path / "prepared")}
    run.prepare(inputs)
    assert "reprepared" not in run.run_rep("resume", 0, tmp_path, 1, False, inputs)
    assert len(preps) == 1
    inputs["append"] = True
    assert run.run_rep("resume", 1, tmp_path, 1, False, inputs)["reprepared"] == 1
    assert len(preps) == 2
    assert (tmp_path / "prepared" / "journal").read_text() == "prepared\n"


def test_end_to_end_scales_chartcot_by_the_yardstick():
    def pair(src_wall, ys_wall, src_setup, ys_setup):
        return {"src": {"items": 30, "wall": src_wall, "setup": src_setup, "rss_mb": 50.0},
                "yardstick": {"items": 30, "wall": ys_wall, "setup": ys_setup, "rss_mb": 40.0}}

    ref_rate = run.YARDSTICK_RATE["build"]
    # Both sides as fast: the yardstick's reference figures, whatever the host did.
    same = run.end_to_end("build", [pair(1.0, 1.0, 0.2, 0.2), pair(3.0, 3.0, 0.5, 0.5)])
    assert same["throughput"]["value"] == ref_rate
    assert same["setup_s"]["value"] == run.YARDSTICK_SETUP_S
    # chartcot twice as fast and 10% slower to start, in every pair but one.
    pairs = [pair(1.0, 2.0, 0.22, 0.2), pair(2.0, 4.0, 0.33, 0.3), pair(4.0, 1.0, 0.1, 0.4)]
    faster = run.end_to_end("build", pairs)
    assert faster["throughput"]["value"] == pytest.approx(2 * ref_rate)
    assert faster["setup_s"]["value"] == pytest.approx(1.1 * run.YARDSTICK_SETUP_S)
    assert faster["peak_rss_mb"]["value"] == 50.0


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    rep = {"items": 1, "wall": 1.0, "setup": 0.2, "rss_mb": 1.0}
    e2e = run.end_to_end("eval", [{"src": rep, "yardstick": rep}])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    empty = {"calls": {}, "total": {}, "self": {}, "failed": {}, "counts": {}}
    per_layer = layers.layer_metrics(empty, 0, 0, 0, 1.0, 1.0, 0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}


def test_reference_covers_every_recorded_seed():
    ref = run.load_reference()
    for name in ("accounting", "build", "resume"):
        assert sorted(map(int, ref[name])) == sorted(ref["seeds"])
    assert run.corpus_seed(ref, 10**9 + 7, 3) in ref["seeds"]

