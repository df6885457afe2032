import json
import re
import subprocess
import sys
import uuid
from collections import Counter
from pathlib import Path

import pytest

from chartcot import marker, pipeline, render
from chartcot.client import ClientConfig, LlmClient
from chartcot.cot import KIND_GROUNDING, Answer, CotSample, Step
from chartcot.errors import ConfigError, EmptyError, IntegrityError, NotFoundError
from chartcot.gallery import build_gallery
from chartcot.pipeline import (
    STAGES,
    ChartOutcome,
    DatasetManifest,
    PipelineConfig,
    compute_stats,
    emit_dataset,
    run,
    write_stats,
)
from chartcot.geometry import ElementRef, PixelBBox
from chartcot.instruction import ImageRef
from chartcot.marker import structural_hits
from chartcot.render import Bitmap, paint_overlays, rasterize
from chartcot.spec import Series, generate_corpus
from chartcot.util import read_jsonl

from conftest import DOCUMENT_DAMAGES, UNUSABLE_MIXES, assert_one_reason_form, damage_document, make_spec


def small_config(**overrides) -> PipelineConfig:
    base = dict(seed=23, n_charts=12, workers=2)
    base.update(overrides)
    return PipelineConfig(**base)


class TestConfig:
    def test_unknown_keys(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({"seed": 1, "shards": 4})

    def test_bad_fault_stage(self):
        with pytest.raises(ConfigError):
            PipelineConfig(fault_injection={"ocr": 0.5})

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            PipelineConfig(fault_injection={"render": 1.5})

    def test_nested_client(self):
        cfg = PipelineConfig.from_json({"client": {"mode": "stub", "stub_seed": 7}})
        assert cfg.client.stub_seed == 7

    def test_roundtrip(self):
        cfg = small_config(cap=3.24, fault_injection={"render": 0.1})
        assert PipelineConfig.from_json(cfg.to_json()).config_hash() == cfg.config_hash()

    # Case ids are kept stable when a message is reworded.
    @pytest.mark.parametrize("obj,message", [pytest.param(obj, message, id=case_id) for case_id, obj, message in [
        ("obj0-'n_charts'", {"n_charts": "5"}, "config.n_charts must be an integer, not '5'"),
        ("obj1-'workers'", {"workers": 2.5}, "config.workers must be an integer, not 2.5"),
        ("obj2-'seed'", {"seed": True}, "config.seed must be an integer, not True"),
        ("obj3-'seed'", {"seed": None}, "config.seed must be an integer, not None"),
        ("obj4-'cap'", {"cap": "1"}, "config.cap must be a number, not '1'"),
        ("obj5-'bar'", {"type_mix": {"bar": "x"}}, "config.type_mix['bar'] must be a number, not 'x'"),
        ("obj6-'bar'", {"type_mix": {"bar": float("nan"), "line": 1.0}},
         "type_mix weight of 'bar' must be a finite number >= 0, not nan"),
        ("obj7-'detect'", {"fault_injection": {"detect": "0.5"}},
         "config.fault_injection['detect'] must be a number, not '0.5'"),
        ("obj8-'detect'", {"fault_injection": {"detect": [0.5]}},
         "config.fault_injection['detect'] must be a number, not [0.5]"),
        ("obj9-'timeout'", {"client": {"timeout": "30"}}, "config.client.timeout must be a number, not '30'"),
        ("obj10-'max_retries'", {"client": {"max_retries": 2.0}},
         "config.client.max_retries must be an integer, not 2.0"),
        ("obj11-'max_concurrency'", {"client": {"max_concurrency": "4"}},
         "config.client.max_concurrency must be an integer, not '4'"),
        ("obj12-'temperature'", {"client": {"temperature": [0]}}, "config.client.temperature must be a number, not [0]"),
        ("obj13-'backoff'", {"client": {"backoff": False}}, "config.client.backoff must be a number, not False"),
        ("obj14-'stub_seed'", {"client": {"stub_seed": "7"}}, "config.client.stub_seed must be an integer, not '7'"),
        ("obj15-'stub_fault_rate'", {"client": {"stub_fault_rate": None}},
         "config.client.stub_fault_rate must be a number, not None"),
        ("obj16-client config", {"client": [{"mode": "stub"}]}, "config.client must be an object, not [{'mode': 'stub'}]"),
    ]])
    def test_value_of_wrong_type_names_its_key(self, obj, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_json(obj)

    @pytest.mark.parametrize("key", ["cap", "min_marker_px"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_cap_and_marker_size_must_be_finite_and_not_negative(self, key, value):
        # Before the check, a NaN or infinite cap ended the qa stage in a
        # traceback, a NaN min_marker_px turned the minimum box size off and an
        # infinite one made every box the whole canvas.
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number >= 0, not {value!r}$"):
            PipelineConfig.from_json({key: value})

    @pytest.mark.parametrize("case", UNUSABLE_MIXES)
    def test_type_mix_that_makes_no_corpus_fails_at_load(self, case):
        mix, message = UNUSABLE_MIXES[case]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_json({"type_mix": mix, "n_charts": 5})

    def test_ints_pass_for_numbers(self):
        cfg = PipelineConfig.from_json({"min_marker_px": 12, "cap": 3, "client": {"timeout": 30}})
        assert cfg.min_marker_px == 12 and cfg.client.timeout == 30


class TestFaultFreeRun:
    def test_all_charts_reach_qa(self, tmp_path):
        cfg = PipelineConfig(seed=2, n_charts=50, workers=2)
        manifest = run(cfg, out_dir=tmp_path)
        for report in manifest.stage_reports():
            assert report["attempted"] == 50
            assert report["passed"] == 50
        dataset = emit_dataset(manifest)
        lines = read_jsonl(dataset)
        assert lines            # non-empty
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "stage_reports.json").exists()

    def test_referenced_images_exist(self, tmp_path):
        cfg = small_config()
        manifest = run(cfg, out_dir=tmp_path)
        emit_dataset(manifest)
        records = read_jsonl(tmp_path / "dataset.jsonl")
        assert records
        for rec in records:
            assert (tmp_path / rec["image"]["file"]).exists(), rec["image"]

    def test_dataset_sorted(self, tmp_path):
        manifest = run(small_config(), out_dir=tmp_path)
        emit_dataset(manifest)
        records = read_jsonl(tmp_path / "dataset.jsonl")
        keys = [(r["chart_id"], r["kind"]) for r in records]
        assert keys == sorted(keys)

    def test_reemit_identical(self, tmp_path):
        manifest = run(small_config(), out_dir=tmp_path)
        emit_dataset(manifest)
        first = (tmp_path / "dataset.jsonl").read_bytes()
        emit_dataset(manifest)
        assert (tmp_path / "dataset.jsonl").read_bytes() == first


class TestAccounting:
    def test_gate_identity_and_monotonicity(self):
        cfg = PipelineConfig(
            seed=5, n_charts=300, workers=2,
            fault_injection={"cot": 0.1, "code": 0.2, "render": 0.3, "detect": 0.2},
        )
        manifest = run(cfg)
        assert_one_reason_form(manifest.charts)
        reports = manifest.stage_reports()
        for prev, cur in zip(reports, reports[1:]):
            assert cur["attempted"] == prev["passed"]
        passed_sets = [
            {c.id for c in manifest.charts if c.passed(stage)} for stage in STAGES
        ]
        for earlier, later in zip(passed_sets, passed_sets[1:]):
            assert later <= earlier

    def test_failures_only_injected(self):
        cfg = PipelineConfig(seed=5, n_charts=150, workers=2, fault_injection={"render": 0.5})
        manifest = run(cfg)
        for c in manifest.charts:
            for status in c.stages.values():
                assert status in ("pass", "fail:injected")

    def test_worker_count_never_changes_outcomes(self):
        cfg1 = PipelineConfig(seed=5, n_charts=60, workers=1, fault_injection={"render": 0.4})
        cfg8 = PipelineConfig(seed=5, n_charts=60, workers=8, fault_injection={"render": 0.4})
        m1, m8 = run(cfg1), run(cfg8)
        assert m1.digest() == m8.digest()


class TestResume:
    def test_stage_by_stage_equals_straight_run(self, tmp_path):
        cfg = small_config()
        staged_dir = tmp_path / "staged"
        straight_dir = tmp_path / "straight"
        for stage in STAGES:
            run(cfg, out_dir=staged_dir, stop_after=stage)
        staged = run(cfg, out_dir=staged_dir)
        emit_dataset(staged)
        straight = run(cfg, out_dir=straight_dir)
        emit_dataset(straight)
        assert staged.digest() == straight.digest()
        assert (staged_dir / "dataset.jsonl").read_bytes() == (straight_dir / "dataset.jsonl").read_bytes()

    def test_resume_skips_completed_charts(self, tmp_path):
        cfg = small_config(client=ClientConfig(mode="stub"))
        run(cfg, out_dir=tmp_path)
        before = {p: p.stat().st_mtime_ns for p in (tmp_path / "renders").iterdir()}
        run(cfg, out_dir=tmp_path)  # nothing left to do
        after = {p: p.stat().st_mtime_ns for p in (tmp_path / "renders").iterdir()}
        assert before == after

    def test_config_mismatch_rejected(self, tmp_path):
        run(small_config(), out_dir=tmp_path)
        with pytest.raises(ConfigError, match="different config"):
            run(small_config(seed=99), out_dir=tmp_path)

    def test_only_stage_requires_previous(self, tmp_path):
        cfg = small_config()
        manifest = run(cfg, out_dir=tmp_path, only_stage="cot")
        # meta never ran, so cot is never attempted
        assert all("cot" not in c.stages for c in manifest.charts)
        run(cfg, out_dir=tmp_path, stop_after="meta")
        manifest = run(cfg, out_dir=tmp_path, only_stage="cot")
        assert all(c.passed("cot") for c in manifest.charts)

    def test_unknown_stage(self):
        with pytest.raises(ConfigError):
            run(small_config(), stop_after="ocr")

    def test_passed_stage_has_artifacts_on_disk(self, tmp_path):
        cfg = small_config()
        manifest = run(cfg, out_dir=tmp_path, stop_after="render")
        for c in manifest.charts:
            assert (tmp_path / f"specs/{c.id}.json").exists()
            if c.passed("cot"):
                assert (tmp_path / f"cot/{c.id}.json").exists()
            if c.passed("render"):
                assert (tmp_path / f"renders/{c.id}.ppm").exists()
                assert not (tmp_path / f"renders/{c.id}.svg").exists()


    @staticmethod
    def _resume_with_damaged_file(tmp_path, pattern, damage, stage) -> None:
        # Resumed after render, detect reads each chart's CoT back to redo its
        # edits, and qa reads its vanilla image back to stroke the overlay
        # boxes onto it, so only the victim fails, at that stage.
        cfg = small_config()
        straight = {c.id: c for c in run(cfg).charts}
        run(cfg, out_dir=tmp_path, stop_after="render")
        victim = sorted(tmp_path.glob(pattern))[0]
        chart_id = victim.stem
        assert straight[chart_id].all_passed() and straight[chart_id].records
        reason = damage(victim)
        manifest = run(cfg, out_dir=tmp_path)  # resumes at detect; must not raise
        assert_one_reason_form(manifest.charts)
        for c in manifest.charts:
            if c.id == chart_id:
                before = {s: v for s, v in straight[c.id].stages.items() if STAGES.index(s) < STAGES.index(stage)}
                assert c.stages == {**before, stage: f"fail:{reason}"}
                assert c.detections == (straight[c.id].detections if stage == "qa" else None)
            else:
                assert (c.stages, c.detections, c.records) == (
                    straight[c.id].stages, straight[c.id].detections, straight[c.id].records)

    def test_truncated_vanilla_ppm_fails_only_that_charts_qa(self, tmp_path):
        def truncate(victim):
            data = victim.read_bytes()
            victim.write_bytes(data[:-5000])
            w, h = map(int, data.split(b"\n")[1].split())
            return (f"IntegrityError: renders/{victim.name}: PPM pixel data cut short: "
                    f"expected {w * h * 3} bytes for {w}x{h}, found {w * h * 3 - 5000}")

        self._resume_with_damaged_file(tmp_path, "renders/*.ppm", truncate, "qa")

    def test_missing_vanilla_ppm_fails_only_that_charts_qa(self, tmp_path):
        def remove(victim):
            victim.unlink()
            return f"IntegrityError: missing artifact renders/{victim.name}"

        self._resume_with_damaged_file(tmp_path, "renders/*.ppm", remove, "qa")

    @pytest.mark.parametrize("damage", DOCUMENT_DAMAGES)
    def test_damaged_cot_fails_only_that_charts_detect(self, tmp_path, damage):
        # A non-UTF-8 CoT used to end the resumed run in a UnicodeDecodeError.
        self._resume_with_damaged_file(tmp_path, "cot/*.json", lambda victim: damage_document(victim, damage), "detect")

    def test_run_directory_in_older_layout_resumes_to_straight_bytes(self, tmp_path):
        # Older runs also wrote each edit's document (edited/*.json), its SVG
        # and its PPM. Resume recomputes the edits, their SVGs and their
        # rasters, so garbage in all those files changes nothing.
        cfg = small_config()
        straight_dir = tmp_path / "straight"
        straight = run(cfg, out_dir=straight_dir)
        emit_dataset(straight)
        resumed_dir = tmp_path / "resumed"
        run(cfg, out_dir=resumed_dir, stop_after="render")
        (resumed_dir / "edited").mkdir()
        methods = set()
        for c in straight.charts:
            for key, det in (c.detections or {}).items():
                stem = f"{c.id}__s{key}"
                (resumed_dir / f"edited/{stem}.json").write_text("{not an edit", encoding="utf-8")
                (resumed_dir / f"renders/{stem}.svg").write_text("<svg>not a chart", encoding="utf-8")
                (resumed_dir / f"renders/{stem}.ppm").write_bytes(b"not a raster")
                methods.add(det["method"])
        assert methods == {"raster", "structural"}
        resumed = run(cfg, out_dir=resumed_dir)
        emit_dataset(resumed)
        assert [(c.stages, c.detections) for c in resumed.charts] == [(c.stages, c.detections) for c in straight.charts]
        assert (resumed_dir / "dataset.jsonl").read_bytes() == (straight_dir / "dataset.jsonl").read_bytes()
        for image in {rec["image"]["file"] for rec in read_jsonl(straight_dir / "dataset.jsonl")}:
            assert (resumed_dir / image).read_bytes() == (straight_dir / image).read_bytes(), image


class TestRunDirectory:
    def test_run_keeps_only_what_cannot_be_recomputed(self, tmp_path):
        # specs/ and cot/ hold a spec and a CoT per chart that passed those
        # stages; renders/ holds exactly the images the dataset names. Edits,
        # their SVGs and their rasters, raster-decided ones included, are
        # recomputed: no edited/, no edited PPM, and no SVG outside the
        # gallery, which draws its own.
        manifest = run(small_config(n_charts=20), out_dir=tmp_path)
        emit_dataset(manifest)
        write_stats(manifest)
        build_gallery(manifest)
        # Every chart that reaches render passes: no render artifact of a
        # discarded chart falls outside the expected set.
        assert all(c.all_passed() for c in manifest.charts if c.passed("render"))
        assert any(d["method"] == "raster" for c in manifest.charts for d in (c.detections or {}).values())
        images = {rec["image"]["file"] for rec in read_jsonl(tmp_path / "dataset.jsonl")}
        assert {p.relative_to(tmp_path).as_posix() for p in (tmp_path / "renders").iterdir()} == images
        assert any("__ov" in name for name in images)
        expected = set(images)
        for c in manifest.charts:
            expected |= {f"specs/{c.id}.json"} if c.passed("meta") else set()
            expected |= {f"cot/{c.id}.json"} if c.passed("cot") else set()
        found = {p.relative_to(tmp_path).as_posix()
                 for top in ("specs", "cot", "renders") for p in (tmp_path / top).rglob("*") if p.is_file()}
        assert found == expected
        assert not (tmp_path / "edited").exists()
        assert [p for p in tmp_path.rglob("*.svg") if p.relative_to(tmp_path).parts[0] != "gallery"] == []
        assert any((tmp_path / "gallery").rglob("*.svg"))


class TestEditedRasters:
    """Detect draws each edit once, in the format that finds its marker: a text
    edit as an SVG, a datapoint edit as a raster under its cross."""

    def test_in_memory_run_rasterises_only_undecided_edits(self, monkeypatch, tmp_path):
        # The renders run in forked workers, so each call leaves one file
        # behind for the parent to count.
        svg_dir, raster_dir = tmp_path / "svgs", tmp_path / "rasters"
        svg_dir.mkdir()
        raster_dir.mkdir()
        real_svg, real_raster = pipeline.render_svg, pipeline.rasterize

        def counting_svg(spec, **kw):
            svg = real_svg(spec, **kw)
            (svg_dir / uuid.uuid4().hex).write_text(svg, encoding="utf-8")
            return svg

        def counting_raster(spec, **kw):
            (raster_dir / uuid.uuid4().hex).write_text(spec.id, encoding="utf-8")
            return real_raster(spec, **kw)

        monkeypatch.setattr(pipeline, "render_svg", counting_svg)
        monkeypatch.setattr(pipeline, "rasterize", counting_raster)
        manifest = run(PipelineConfig(seed=31, n_charts=40, workers=2))
        svgs = [path.read_text(encoding="utf-8") for path in svg_dir.iterdir()]
        rasters = list(raster_dir.iterdir())
        # In memory only edited charts are drawn: one SVG per text edit, each
        # decided by its one marker glyph, and one vanilla raster per datapoint edit.
        rendered = [c for c in manifest.charts if c.passed("render")]
        assert all(c.passed("detect") for c in rendered)
        edits = sum(c.steps["grounding"] for c in rendered)
        points = sum(det["method"] == "raster" for c in rendered for det in c.detections.values())
        assert 0 < points < edits
        assert len(svgs) == edits - points
        assert all(len(structural_hits(svg)) == 1 for svg in svgs)
        assert len(rasters) == points

    def test_each_edit_is_scanned_once(self, monkeypatch):
        # detect_markers runs the one structural scan of a text edit's SVG; a
        # datapoint edit has no SVG to scan, and the pipeline scans nothing itself.
        scans = []
        real = marker.structural_hits

        def counting(doc):
            scans.append(doc)
            return real(doc)

        monkeypatch.setattr(marker, "structural_hits", counting)
        monkeypatch.setattr(pipeline, "structural_hits", counting, raising=False)
        manifest = run(PipelineConfig(seed=31, n_charts=20, workers=1))
        assert all(c.passed("detect") for c in manifest.charts if c.passed("render"))
        detections = [det for c in manifest.charts if c.passed("detect") for det in c.detections.values()]
        text_edits = sum(det["method"] == "structural" for det in detections)
        assert 0 < text_edits < len(detections)
        assert len(scans) == text_edits


class TestBadTeacherTarget:
    @pytest.mark.parametrize("target", [
        "x_tick", 5, [1], {"role": "x_tick", "category": ["Q1"]}, {"role": "legend_entry", "series": ["A"]},
    ])
    def test_bad_target_fails_its_chart_at_cot_and_the_run_goes_on(self, monkeypatch, target):
        cfg = PipelineConfig(seed=8, n_charts=4, workers=1)
        victim = generate_corpus(cfg.seed, cfg.n_charts, cfg.type_mix)[0].id
        real = LlmClient.chat

        def chat(self, messages):
            reply = real(self, messages)
            doc = json.loads(reply)
            if doc["chart_id"] != victim:
                return reply
            next(step for step in doc["steps"] if "target" in step)["target"] = target
            return json.dumps(doc)

        monkeypatch.setattr(LlmClient, "chat", chat)
        manifest = run(cfg)
        assert_one_reason_form(manifest.charts)
        for c in manifest.charts:
            if c.id == victim:
                assert re.match(r"fail:FormatError: cot\.steps\[\d+\]\.target( must|\.)", c.stages["cot"]), c.stages
                assert list(c.stages) == ["meta", "cot"]
            else:
                assert c.all_passed(), (c.id, c.stages)


class TestBadTeacherReply:
    """A reply that does not decode, or whose text fields are not strings,
    fails its own chart at cot; the run goes on."""

    def _run_with_victim_reply(self, monkeypatch, damage):
        cfg = PipelineConfig(seed=8, n_charts=4, workers=1)
        victim = generate_corpus(cfg.seed, cfg.n_charts, cfg.type_mix)[0].id
        real = LlmClient._stub_reply

        def stub_reply(self, messages):
            reply = real(self, messages)
            doc = json.loads(reply)
            return damage(doc) if doc["chart_id"] == victim else reply

        monkeypatch.setattr(LlmClient, "_stub_reply", stub_reply)
        manifest = run(cfg)
        assert_one_reason_form(manifest.charts)
        for c in manifest.charts:
            if c.id != victim:
                assert c.all_passed(), (c.id, c.stages)
        (failed,) = [c for c in manifest.charts if c.id == victim]
        assert list(failed.stages) == ["meta", "cot"]
        return failed.stages["cot"]

    def test_reply_nested_too_deep_to_decode(self, monkeypatch):
        reason = self._run_with_victim_reply(monkeypatch, lambda doc: "[" * 100_000 + "]" * 100_000)
        assert reason.startswith("fail:FormatError: not valid JSON: maximum recursion depth exceeded"), reason

    # Case ids are kept stable when a message is reworded.
    @pytest.mark.parametrize("path, value, reason", [
        (("chart_id",), 7, "chart_id must be a string, not 7"),
        (("question",), None, "question must be a string, not None"),
        (("question",), ["q"], "question must be a string, not ['q']"),
        pytest.param(("steps", 0, "kind"), 5, "steps[0].kind must be a string, not 5",
                     id="path3-5-step kind must be a string, not 5"),
        pytest.param(("steps", 1, "text"), {}, "steps[1].text must be a string, not {}",
                     id="path4-value4-step text must be a string, not {}"),
    ])
    def test_text_field_that_is_not_a_string(self, monkeypatch, path, value, reason):
        def damage(doc):
            *outer, last = path
            node = doc
            for key in outer:
                node = node[key]
            node[last] = value
            return json.dumps(doc)

        assert self._run_with_victim_reply(monkeypatch, damage) == f"fail:FormatError: cot.{reason}"


class TestReviewRejection:
    def test_rejected_answer_fails_its_chart_at_cot_and_the_run_goes_on(self, monkeypatch):
        cfg = PipelineConfig(seed=8, n_charts=4, workers=1)
        victim = generate_corpus(cfg.seed, cfg.n_charts, cfg.type_mix)[0].id
        real = LlmClient.review_qa
        monkeypatch.setattr(LlmClient, "review_qa", lambda self, sample, spec: spec.id != victim and real(self, sample, spec))
        manifest = run(cfg)
        assert_one_reason_form(manifest.charts)
        for c in manifest.charts:
            if c.id == victim:
                assert c.stages == {"meta": "pass", "cot": "fail:ReviewError: the review rejected the answer"}
            else:
                assert c.all_passed(), (c.id, c.stages)


class TestOneLayoutPerChart:
    """A run lays each chart out once, its text edits included, and
    rasterises it at most once; detect lifts its crosses off the canvas."""

    @pytest.fixture
    def calls(self, monkeypatch) -> tuple[Counter, Counter]:
        layouts, rasters = Counter(), Counter()
        layout = sys.modules["chartcot.layout"]  # the package attribute is the layout function
        real_layout, real_raster = layout.chart_layout, pipeline.rasterize

        def counting_layout(spec):
            layouts[spec.id] += 1
            return real_layout(spec)

        def counting_raster(spec, **kw):
            rasters[spec.id] += 1
            return real_raster(spec, **kw)

        for module in (layout, pipeline, marker, render):
            monkeypatch.setattr(module, "chart_layout", counting_layout)
        monkeypatch.setattr(pipeline, "rasterize", counting_raster)
        return layouts, rasters

    @pytest.mark.parametrize("how", ["memory", "build", "resume"])
    def test_one_layout_and_at_most_one_raster_per_chart(self, tmp_path, calls, how):
        layouts, rasters = calls
        config = PipelineConfig(seed=5, n_charts=12, workers=1)
        out = None if how == "memory" else tmp_path
        runs = [dict(stop_after="render"), {}] if how == "resume" else [{}]
        for window in runs:
            layouts.clear()
            rasters.clear()
            manifest = run(config, out_dir=out, **window)
            if out is not None and not window:
                emit_dataset(manifest)
            laid_out = {c.id for c in manifest.charts if c.passed("cot")}
            assert len(laid_out) >= 10 and layouts == Counter(dict.fromkeys(laid_out, 1)), window
            assert rasters and max(rasters.values()) == 1, window
        methods = Counter(d["method"] for c in manifest.charts for d in c.detections.values())
        assert methods["structural"] > 0 and methods["raster"] > 0

    def test_detect_leaves_the_canvas_as_render_drew_it(self, monkeypatch, tmp_path):
        spec = generate_corpus(seed=3, n=1, type_mix={"bar": 1.0})[0]
        vanilla = bytes(rasterize(spec).to_ppm())
        real_detect = pipeline.detect_markers
        for fail in (False, True):
            task = pipeline._ChartTask(spec, ChartOutcome(id=spec.id, chart_type=spec.chart_type),
                                       small_config(), LlmClient(ClientConfig()), tmp_path / str(fail))
            task.run_stages(list(STAGES[:4]))

            def detect(svg, bmp, _fail=fail):
                if bmp is not None:
                    assert bytes(bmp.to_ppm()) != vanilla  # the cross is on the canvas
                    if _fail:
                        raise NotFoundError("no marker found by either pass")
                return real_detect(svg, bmp)

            monkeypatch.setattr(pipeline, "detect_markers", detect)
            task.run_stages(["detect"])
            assert_one_reason_form([task.outcome])
            # The first datapoint edit is the first that detect draws on the canvas.
            step = next(edit.step_index for edit in task.edits if edit.markers)
            want = f"fail:NotFoundError: step {step}: no marker found by either pass" if fail else "pass"
            assert task.outcome.stages["detect"] == want
            assert bytes(task._canvas.to_ppm()) == vanilla


class TestUndrawableEdit:
    def test_edit_that_cannot_be_laid_out_fails_detect_not_render(self, tmp_path):
        # "Feb@" widens its tick label until the four labels overlap on a
        # 200 px canvas: the vanilla chart lays out, the edited one does not.
        spec = make_spec(canvas=(200, 300), series=(Series("Alpha", (10.0, 20.0, 15.0, 12.0)),),
                         x_labels=("Jan", "Feb", "Mar", "Apr"))
        step = Step(index=0, kind=KIND_GROUNDING, text="locate Feb", target=ElementRef("x_tick", category="Feb"))
        outcome = ChartOutcome(id=spec.id, chart_type=spec.chart_type, stages={"meta": "pass", "cot": "pass"})
        task = pipeline._ChartTask(spec, outcome, small_config(), None, tmp_path)
        task.sample = CotSample(chart_id=spec.id, question="What is the value at Feb?",
                                answer=Answer(value=20.0), steps=(step,))
        task.run_stages(list(STAGES))
        assert outcome.stages == {
            "meta": "pass", "cot": "pass", "code": "pass", "render": "pass",
            "detect": "fail:LayoutError: x tick labels overlap; canvas too small",
        }
        assert (tmp_path / "renders" / ImageRef(spec.id).file_name()).exists()


class TestOverlayImages:
    """Overlay images are the vanilla raster of the chart with boxes stroked on top."""

    A, B, C = PixelBBox(10, 20, 110, 90), PixelBBox(200.5, 40.25, 320, 150), PixelBBox(0, 0, 800, 600)

    def _write_sequence(self, monkeypatch, tmp_path, sequence) -> tuple[int, int]:
        """Write the vanilla image, then one overlay image per box tuple, through
        one chart task; check each against a full render and return how many
        times the task rasterised and how many PPMs it decoded."""
        spec = generate_corpus(seed=3, n=1, type_mix={"bar": 1.0})[0]
        calls, decodes = [], []
        real_raster, real_from_ppm = pipeline.rasterize, Bitmap.from_ppm.__func__

        def counting_raster(spec, **kw):
            calls.append(kw)
            return real_raster(spec, **kw)

        def counting_from_ppm(cls, data):
            decodes.append(data)
            return real_from_ppm(cls, data)

        monkeypatch.setattr(pipeline, "rasterize", counting_raster)
        monkeypatch.setattr(Bitmap, "from_ppm", classmethod(counting_from_ppm))
        task = pipeline._ChartTask(spec, ChartOutcome(id=spec.id, chart_type=spec.chart_type),
                                   small_config(), None, tmp_path)
        images = [ImageRef(spec.id)]
        images += [ImageRef(spec.id, boxes, upto) for upto, boxes in enumerate(sequence)]
        for image in images:
            task._write_image(image)
            boxes = list(image.overlay_boxes)
            want = rasterize(spec)
            paint_overlays(want, boxes)
            assert (tmp_path / "renders" / image.file_name()).read_bytes() == want.to_ppm()
        return len(calls), len(decodes)

    def test_nested_boxes_rasterise_once(self, monkeypatch, tmp_path):
        A, B, C = self.A, self.B, self.C
        assert self._write_sequence(monkeypatch, tmp_path, [(A,), (A, B), (A, B, C)]) == (1, 0)

    def test_repeated_box_rasterises_once(self, monkeypatch, tmp_path):
        A, B = self.A, self.B
        assert self._write_sequence(monkeypatch, tmp_path, [(A,), (A, A), (A, A, B)]) == (1, 0)

    def test_boxes_that_do_not_nest_read_the_vanilla_back(self, monkeypatch, tmp_path):
        A, B, C = self.A, self.B, self.C
        # (A, C) drops B, whose strokes cannot be taken off the canvas.
        assert self._write_sequence(monkeypatch, tmp_path, [(A, B), (A, C), (A, C)]) == (1, 1)

    @staticmethod
    def _count_renders(monkeypatch, tmp_path) -> Path:
        """Make every pipeline rasterize, which must draw the vanilla chart,
        leave a file named after the chart and "vanilla", every pipeline
        render_svg a file named after the chart and "svg", and every PPM
        decode a file named "decode": the renders run in forked workers."""
        calls = tmp_path / "calls"
        calls.mkdir()
        real_svg, real_raster, real_from_ppm = pipeline.render_svg, pipeline.rasterize, Bitmap.from_ppm.__func__

        def counting_svg(spec, **kw):
            (calls / f"{spec.id}.svg.{uuid.uuid4().hex}").touch()
            return real_svg(spec, **kw)

        def counting_raster(spec, **kw):
            assert "markers" not in kw, "crosses are painted onto the vanilla raster"
            (calls / f"{spec.id}.vanilla.{uuid.uuid4().hex}").touch()
            return real_raster(spec, **kw)

        def counting_from_ppm(cls, data):
            (calls / f"decode.{uuid.uuid4().hex}").touch()
            return real_from_ppm(cls, data)

        monkeypatch.setattr(pipeline, "render_svg", counting_svg)
        monkeypatch.setattr(pipeline, "rasterize", counting_raster)
        monkeypatch.setattr(Bitmap, "from_ppm", classmethod(counting_from_ppm))
        return calls

    def test_persisted_run_rasterises_vanilla_once_per_chart(self, monkeypatch, tmp_path):
        out = tmp_path / "run"
        calls = self._count_renders(monkeypatch, tmp_path)
        manifest = run(small_config(n_charts=20), out_dir=out)
        names = [p.name for p in calls.iterdir()]
        overlays = sorted((out / "renders").glob("*__ov*.ppm"))
        with_overlays = {p.name.split("__")[0] for p in overlays}
        assert len(overlays) > len(with_overlays)  # some chart has two
        for c in manifest.charts:
            assert sum(n.startswith(f"{c.id}.vanilla.") for n in names) == int(c.passed("render")), c.id
        # Detect paints a datapoint cross onto a copy of the render stage's
        # canvas, so that chart's overlay images still stroke onto the canvas
        # and a straight run reads no image back.
        point_edited = {c.id for c in manifest.charts
                        if any(det["method"] == "raster" for det in (c.detections or {}).values())}
        assert point_edited & with_overlays
        assert not any(n.startswith("decode.") for n in names)

    def test_resumed_qa_decodes_vanilla_once_per_chart_with_overlays(self, monkeypatch, tmp_path):
        out = tmp_path / "run"
        run(small_config(n_charts=20), out_dir=out, stop_after="detect")
        calls = self._count_renders(monkeypatch, tmp_path)
        run(small_config(n_charts=20), out_dir=out)
        names = [p.name for p in calls.iterdir()]
        with_overlays = {p.name.split("__")[0] for p in (out / "renders").glob("*__ov*.ppm")}
        assert with_overlays
        assert all(n.startswith("decode.") for n in names)
        assert len(names) == len(with_overlays)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_stopped_after_render_draws_no_edit(self, monkeypatch, tmp_path, workers):
        # Render writes only the vanilla image; the resumed detect draws each
        # text edit's SVG once, and rasterises the vanilla chart for a point edit.
        out, cfg = tmp_path / "run", small_config(n_charts=20, workers=workers)
        calls = self._count_renders(monkeypatch, tmp_path)
        stopped = run(cfg, out_dir=out, stop_after="render")
        names = [p.name for p in calls.iterdir()]
        assert any(c.passed("render") for c in stopped.charts)
        for c in stopped.charts:
            assert sum(n.startswith(f"{c.id}.vanilla.") for n in names) == int(c.passed("render")), c.id
        assert not [n for n in names if ".svg." in n]
        for p in calls.iterdir():
            p.unlink()
        resumed = run(cfg, out_dir=out)
        names = [p.name for p in calls.iterdir()]
        assert any(det["method"] == "raster" for c in resumed.charts for det in (c.detections or {}).values())
        for c in resumed.charts:
            if not c.passed("render"):
                continue
            assert c.passed("detect"), c.id
            raster = sum(det["method"] == "raster" for det in c.detections.values())
            assert sum(n.startswith(f"{c.id}.svg.") for n in names) == c.steps["grounding"] - raster, c.id
            assert sum(n.startswith(f"{c.id}.vanilla.") for n in names) == raster, c.id


class TestStats:
    def test_histogram_totals_match_passed(self):
        manifest = run(PipelineConfig(seed=6, n_charts=40, workers=2))
        stats = compute_stats(manifest)
        n = stats["passed_charts"]
        for key in ("grounding", "reasoning", "total"):
            assert sum(stats["step_histograms"][key].values()) == n
        assert stats["total_step_mode"] in (3, 4, 5)
        assert abs(sum(stats["chart_type_distribution"].values()) - 1.0) < 1e-9

    def test_single_chart(self):
        manifest = run(PipelineConfig(seed=6, n_charts=1, type_mix={"bar": 1.0}))
        stats = compute_stats(manifest)
        assert stats["passed_charts"] == 1
        assert list(stats["step_histograms"]["total"].values()) == [1]

    def test_empty_raises(self):
        manifest = run(PipelineConfig(seed=6, n_charts=5, fault_injection={"cot": 1.0}))
        with pytest.raises(EmptyError):
            compute_stats(manifest)

    def test_stats_recount_matches_cot_files(self, tmp_path):
        manifest = run(small_config(), out_dir=tmp_path)
        stats = compute_stats(manifest)
        from chartcot.cot import validate_cot
        totals = {}
        for path in sorted((tmp_path / "cot").glob("*.json")):
            sample = validate_cot(path.read_text(encoding="utf-8"))
            totals[len(sample.steps)] = totals.get(len(sample.steps), 0) + 1
        assert {int(k): v for k, v in stats["step_histograms"]["total"].items()} == totals


GOOD_ENTRY = {
    "id": "c00000", "chart_type": "bar", "stages": {"meta": "pass", "cot": "fail:x"}, "question": "Q?",
    "steps": {"grounding": 1, "reasoning": 2, "total": 3},
    "detections": {"1": {"bbox": [1, 2.5, 30, 40], "method": "raster"}}, "records": 4,
    "files": {"all": ["specs/c00000.json"]},
}


class TestChartOutcomeShape:
    def test_entries_of_the_right_shape_round_trip(self):
        for entry in (GOOD_ENTRY, {**GOOD_ENTRY, "question": None, "steps": None, "detections": None,
                                   "records": None, "stages": {}, "files": {}}):
            assert ChartOutcome.from_json(entry).to_json() == entry

    @pytest.mark.parametrize("key,value", [
        ("id", 7), ("chart_type", None), ("stages", ["pass"]), ("stages", {"meta": 1}),
        ("question", 5), ("steps", [1]), ("steps", {"grounding": 1}),
        ("steps", {"grounding": 1, "reasoning": True, "total": 2}),
        ("steps", {"grounding": 1, "reasoning": 1, "total": 2, "extra": 0}),
        ("detections", []), ("detections", {"x": {"bbox": [1, 2, 3, 4], "method": "raster"}}),
        ("detections", {"1": {"bbox": [1, 2, 3], "method": "raster"}}),
        ("detections", {"1": {"bbox": [1, 2, 3, "4"], "method": "raster"}}),
        ("detections", {"1": {"bbox": [1, 2, 3, 4], "method": None}}),
        ("detections", {"1": {"bbox": [1, 2, 3, 4]}}),
        ("records", "7"), ("records", True), ("records", 7.0),
        ("files", []), ("files", {"all": "specs/c00000.json"}), ("files", {"all": [1]}),
        # Boxes that PixelBBox rejects used to load, and a NaN one ended the next build in a traceback.
        *[("detections", {"1": {"bbox": bbox, "method": "raster"}}) for bbox in (
            [float("nan"), 2.5, 30, 40], [1, 2.5, float("inf"), 40], [1, -float("inf"), 30, 40], [30, 2.5, 30, 40])],
    ])
    def test_a_key_of_the_wrong_shape_is_named(self, key, value):
        with pytest.raises(IntegrityError, match=rf"^chart\.{key}\b.* must be .*, not "):
            ChartOutcome.from_json({**GOOD_ENTRY, key: value})


class TestEmitEdgeCases:
    def test_empty_passed_set(self, tmp_path):
        cfg = PipelineConfig(seed=4, n_charts=5, fault_injection={"cot": 1.0})
        manifest = run(cfg, out_dir=tmp_path)
        dataset = emit_dataset(manifest)
        assert dataset.read_text(encoding="utf-8") == ""
        reports = json.loads((tmp_path / "stage_reports.json").read_text())
        assert [r["stage"] for r in reports] == list(STAGES)

    def test_missing_artifact_of_passed_chart(self, tmp_path):
        cfg = PipelineConfig(seed=4, n_charts=3)
        run(cfg, out_dir=tmp_path)
        (tmp_path / "cot/c00000.json").unlink()
        manifest = run(cfg, out_dir=tmp_path)  # every chart already passed
        assert manifest.charts[0].all_passed()
        with pytest.raises(IntegrityError, match=r"^missing artifact cot/c00000\.json$"):
            emit_dataset(manifest)

    def test_run_stopped_before_qa_emits_no_record(self, tmp_path):
        # Every chart has passed each stage run so far, but none has written
        # its overlay images, which qa does; the dataset used to name them.
        manifest = run(PipelineConfig(seed=4, n_charts=3), out_dir=tmp_path, stop_after="detect")
        assert all(c.passed("detect") for c in manifest.charts)
        assert emit_dataset(manifest).read_text(encoding="utf-8") == ""

    def test_emit_requires_directory(self):
        manifest = run(PipelineConfig(seed=4, n_charts=2))
        with pytest.raises(ConfigError):
            emit_dataset(manifest)

    def test_manifest_load_roundtrip(self, tmp_path):
        manifest = run(small_config(), out_dir=tmp_path)
        write_stats(manifest)
        loaded = DatasetManifest.load(tmp_path / "manifest.json")
        assert loaded.digest() == manifest.digest()
        assert Path(tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("damage", ["truncated", "not json", "no config", "chart key", "chart list", "too deep"])
    def test_damaged_manifest_is_integrity_error(self, tmp_path, damage):
        run(PipelineConfig(seed=4, n_charts=3), out_dir=tmp_path, stop_after="meta")
        path = tmp_path / "manifest.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        if damage == "truncated":
            text = path.read_text(encoding="utf-8")[:300]
        elif damage == "not json":
            text = "\x00\x01 not a manifest"
        elif damage == "too deep":
            text = "[" * 100_000 + "]" * 100_000
        elif damage == "no config":
            del obj["config"]
        elif damage == "chart key":
            del obj["charts"][1]["stages"]
        else:
            obj["charts"] = ["c00000"]
        if damage in ("no config", "chart key", "chart list"):
            text = json.dumps(obj)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IntegrityError, match=r"^manifest .*manifest\.json is "):
            DatasetManifest.load(path)
        with pytest.raises(IntegrityError):
            run(PipelineConfig(seed=4, n_charts=3), out_dir=tmp_path)

    @pytest.mark.parametrize("key, shape", [("config", "an object"), ("charts", "a list")])
    def test_manifest_without_config_or_charts_names_the_key(self, tmp_path, key, shape):
        # A manifest with no charts key used to load as zero charts, so a
        # resume redid every chart and asked the teacher again.
        config = PipelineConfig(seed=4, n_charts=3)
        run(config, out_dir=tmp_path, stop_after="cot")
        path = tmp_path / "manifest.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        del obj[key]
        path.write_text(json.dumps(obj), encoding="utf-8")
        message = f"IntegrityError: manifest.{key} must be {shape}, not missing"
        with pytest.raises(IntegrityError, match=f"^manifest .*manifest\\.json is cut short or malformed: {message}$"):
            DatasetManifest.load(path)
        with pytest.raises(IntegrityError, match=message):
            run(config, out_dir=tmp_path)


class TestForkedWorkers:
    def test_import_does_not_load_process_machinery(self):
        # Neither importing chartcot nor a run with forked workers loads a
        # process pool.
        code = (
            "import sys, chartcot, chartcot.cli\n"
            "from chartcot import pipeline\n"
            "def loaded():\n"
            "    print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
            "loaded()\n"
            "pipeline.run(pipeline.PipelineConfig(seed=23, n_charts=4, workers=2))\n"
            "loaded()\n"
        )
        src = Path(pipeline.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                             timeout=120, check=True)
        assert out.stdout.split("\n") == ["[]", "[]", ""]

    def test_unexpected_worker_error_keeps_its_type(self):
        # A bug in one worker (not a ChartCotError, so no stage catches it)
        # must leave run() with its own type, not hang the pool. The run is
        # in a child interpreter so that a hang fails on the timeout.
        code = (
            "from chartcot import pipeline\n"
            "real = pipeline.build_instructions\n"
            "def buggy(spec, *args, **kw):\n"
            "    if spec.id == 'c00005':\n"
            "        raise LookupError('bug in a worker')\n"
            "    return real(spec, *args, **kw)\n"
            "pipeline.build_instructions = buggy\n"
            "try:\n"
            "    pipeline.run(pipeline.PipelineConfig(seed=23, n_charts=12, workers=2))\n"
            "except LookupError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = Path(pipeline.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                             timeout=120, check=True)
        assert out.stdout.strip() == "LookupError bug in a worker"

    # Runs a 12-chart workers=2 run in a child interpreter, in which chart
    # c00005 fails in its qa stage as the case says; prints what the run
    # raised, whether a child process is left and whether the open file
    # descriptors changed. Every chart start, the failure and each WorkerError
    # the parent builds are noted in the log file, one line each.
    _HYGIENE = (
        "import json, os, signal, sys\n"
        "from chartcot import pipeline\n"
        "case, log, parent = sys.argv[1], sys.argv[2], os.getpid()\n"
        "def note(line):\n"
        "    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)\n"
        "    os.write(fd, line.encode() + b'\\n')\n"
        "    os.close(fd)\n"
        "real_stages, real_build = pipeline._ChartTask.run_stages, pipeline.build_instructions\n"
        "def run_stages(task, wanted):\n"
        "    note('start ' + task.spec.id)\n"
        "    return real_stages(task, wanted)\n"
        "def build(spec, *args, **kw):\n"
        "    if spec.id == 'c00005' and case != 'clean':\n"
        "        note('fail ' + spec.id)\n"
        "        if case == 'kill':\n"
        "            os.kill(os.getpid(), signal.SIGKILL)\n"
        "        raise LookupError('bug in a worker' if case == 'lookup' else lambda: 0)\n"
        "    return real_build(spec, *args, **kw)\n"
        "real_error = pipeline.WorkerError\n"
        "def worker_error(message):\n"
        "    if os.getpid() == parent:\n"
        "        note('parent error')\n"
        "    return real_error(message)\n"
        "pipeline._ChartTask.run_stages, pipeline.build_instructions = run_stages, build\n"
        "pipeline.WorkerError = worker_error\n"
        "fds = sorted(os.listdir('/proc/self/fd'))\n"
        "error = None\n"
        "try:\n"
        "    pipeline.run(pipeline.PipelineConfig(seed=23, n_charts=12, workers=2))\n"
        "except Exception as exc:\n"
        "    error = f'{type(exc).__name__}: {exc}'\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    children = True\n"
        "except ChildProcessError:\n"
        "    children = False\n"
        "print(json.dumps({'error': error, 'children': children,\n"
        "                  'fds_same': fds == sorted(os.listdir('/proc/self/fd'))}))\n"
    )

    @pytest.mark.parametrize("case, error", [
        ("clean", None),
        ("kill", r"WorkerError: worker \d+ killed by signal 9 before its charts were done"),
        ("unpicklable", r"WorkerError: worker \d+ cannot send LookupError\(<function .*<lambda>.*\): .+"),
        ("lookup", r"LookupError: bug in a worker"),
    ])
    def test_run_leaves_no_child_and_no_open_file(self, tmp_path, case, error):
        # The run is in a child interpreter so that a hang fails on the timeout.
        log = tmp_path / "log"
        src = Path(pipeline.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", self._HYGIENE, case, str(log)], cwd=src,
                             capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout)
        assert (result["error"] is None) if error is None else re.fullmatch(error, result["error"])
        assert result["children"] is False
        assert result["fds_same"] is True
        lines = log.read_text(encoding="utf-8").splitlines()
        if case == "clean":
            assert sorted(lines) == [f"start c{i:05d}" for i in range(12)]
        else:
            # Once a worker fails, each other worker may have one chart in
            # hand, and none takes another. A killed worker cannot stop the
            # others: only the parent can, once it sees the worker's pipe
            # close, so a kill is counted from the parent's line.
            after = lines[lines.index("parent error" if case == "kill" else "fail c00005") + 1:]
            assert all(line.startswith("start ") for line in after)
            assert len(after) <= 2 - 1
