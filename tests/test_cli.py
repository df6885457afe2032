import gc
import html
import json
import re
import reprlib
import subprocess
import sys
from pathlib import Path

import pytest

from chartcot import cli, pipeline
from chartcot.cli import main
from chartcot.pipeline import DatasetManifest, PipelineConfig
from chartcot.util import read_jsonl

from conftest import DOCUMENT_DAMAGES, damage_document


def write_config(tmp_path: Path, **overrides) -> Path:
    obj = {"seed": 12, "n_charts": 10, **overrides}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestBuild:
    def test_build_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_charts=50)
        out = tmp_path / "run1"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "dataset.jsonl").exists()
        assert (out / "manifest.json").exists()
        assert (out / "stats.json").exists()
        stdout = capsys.readouterr().out
        assert "qa: 50/50" in stdout.replace("  ", " ")

    def test_dead_worker_is_error_not_traceback(self, tmp_path):
        # A worker SIGKILLed mid-run ends the build with "error: ..." and exit
        # status 1. The build is in a child interpreter so that a hang fails on
        # the timeout.
        code = (
            "import os, signal, sys\n"
            "from chartcot import cli, pipeline\n"
            "real = pipeline.build_instructions\n"
            "def build(spec, *args, **kw):\n"
            "    if spec.id == 'c00005':\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(spec, *args, **kw)\n"
            "pipeline.build_instructions = build\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = Path(pipeline.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code, "build", "--out", str(tmp_path / "run"), "--n", "12",
                              "--seed", "23", "--workers", "2"], cwd=src, capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        assert re.fullmatch(r"error: worker \d+ killed by signal 9 before its charts were done\n", out.stderr)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, n_charts=4)
        main(["build", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["build", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a/dataset.jsonl").read_bytes()
        b = (tmp_path / "b/dataset.jsonl").read_bytes()
        assert a != b

    def test_stage_commands_chain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_charts=6)
        out = tmp_path / "run"
        for command in ("gen", "cot", "edit", "render", "detect"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert all(c.passed("detect") for c in manifest.charts)
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "dataset.jsonl").exists()

    def test_stats_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_charts=6)
        out = tmp_path / "run"
        main(["build", "--config", str(cfg), "--out", str(out)])
        assert main(["stats", "--out", str(out)]) == 0
        assert "step_histograms" in capsys.readouterr().out


class TestUsageErrors:
    def test_missing_artifact_of_passed_chart_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=4, n_charts=3)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "cot/c00000.json").unlink()
        capsys.readouterr()
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: missing artifact cot/c00000.json\n"

    @pytest.mark.parametrize("pattern", ["c00000.ppm", "*__ov*.ppm"], ids=["vanilla", "overlay"])
    def test_missing_image_of_passed_chart_exits_1(self, tmp_path, capsys, pattern):
        # A passed chart is not re-run, so writing the dataset checks that each
        # image it names is there; the build used to exit 0 and name the file.
        cfg = write_config(tmp_path, seed=4, n_charts=3)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        victim = sorted((out / "renders").glob(pattern))[0]
        victim.unlink()
        capsys.readouterr()
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: missing artifact renders/{victim.name}\n"

    @pytest.mark.parametrize("damage", DOCUMENT_DAMAGES)
    @pytest.mark.parametrize("kind", ["specs", "cot"])
    def test_damaged_document_of_passed_chart_exits_1(self, tmp_path, capsys, kind, damage):
        # Writing the dataset reads every passed chart's spec and CoT back, and a
        # chart that passed is not re-run, so each damage stops the build. A
        # non-UTF-8 CoT used to end it in a traceback, and a file holding
        # another chart's document was used as it was.
        cfg = write_config(tmp_path, seed=4, n_charts=3)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        reason = damage_document(out / f"{kind}/c00000.json", damage)
        capsys.readouterr()
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {reason.split(': ', 1)[1]}\n"

    def test_detections_missing_a_grounding_step_name_the_chart(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=4, n_charts=3)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        obj = json.loads(manifest.read_text(encoding="utf-8"))
        entry = next(c for c in obj["charts"] if len(c["detections"]) > 1)
        steps = sorted(map(int, entry["detections"]))
        del entry["detections"][str(steps[0])]
        manifest.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: chart {entry['id']}: boxes cover steps {steps[1:]} but grounding steps are {steps}\n")

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc.update(x_labels=5), "spec.x_labels must be a list of strings, not 5"),
        (lambda doc: doc.update(id=None), "spec.id must be a string, not None"),
        (lambda doc: doc.update(title=["t"]), "spec.title must be a string, not ['t']"),
        (lambda doc: doc["series"][0]["values"].__setitem__(0, 10 ** 400),
         f"spec.series[0].values[0] must be a number, not {reprlib.repr(10 ** 400)}"),
    ], ids=["x_labels", "id", "title", "value"])
    def test_spec_value_of_wrong_type_exits_1(self, tmp_path, capsys, damage, message):
        cfg = write_config(tmp_path, seed=4, n_charts=3)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "specs/c00000.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        damage(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: specs/c00000.json: {message}\n"

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--unknown-flag", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "chartcot" in capsys.readouterr().out

    def test_domain_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "bogus_key": True}), encoding="utf-8")
        code = main(["build", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unparsable_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["build", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_nested_too_deep_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["build", "--config", str(deep), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {deep} is not valid JSON: maximum recursion depth"), err

    def test_config_value_of_wrong_type_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_charts="5")
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: config.n_charts must be an integer, not '5'\n"
        assert not (tmp_path / "x").exists()

    def test_negative_client_backoff_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, client={"mode": "http", "endpoint": "http://127.0.0.1:9/v1", "backoff": -1})
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: backoff must be a finite number >= 0, not -1\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value", [
        ("cap", float("nan")), ("cap", float("inf")), ("min_marker_px", float("nan")), ("min_marker_px", float("inf")),
    ])
    def test_cap_or_marker_size_not_finite_exits_1(self, tmp_path, capsys, key, value):
        # json writes these as NaN and Infinity, which the config reader accepts.
        cfg = write_config(tmp_path, **{key: value})
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {key} must be a finite number >= 0, not {value!r}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["build", "stats", "gallery"])
    def test_truncated_manifest_exits_1(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, n_charts=3)
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:300])
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} is cut short or malformed: JSONDecodeError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("steps", {"grounding": 1}), ("records", "7"), ("stages", ["pass"]), ("steps", [1]),
    ], ids=["steps-without-reasoning", "records-string", "stages-list", "steps-list"])
    def test_chart_entry_of_wrong_shape_exits_1(self, tmp_path, capsys, key, value):
        # Every key is there, but one has a JSON shape that compute_stats
        # would trip over.
        cfg = write_config(tmp_path, n_charts=2)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        obj = json.loads(manifest.read_text(encoding="utf-8"))
        obj["charts"][0][key] = value
        manifest.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} is cut short or malformed: "
                              f"IntegrityError: manifest.charts[0].{key}")
        assert " must be " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bbox", [[float("nan"), 0, 1, 1], [0, 0, float("inf"), 1], [5, 0, 5, 1]],
                             ids=["nan", "infinity", "degenerate"])
    @pytest.mark.parametrize("command", ["build", "stats", "gallery"])
    def test_detection_box_that_pixel_bbox_rejects_exits_1(self, tmp_path, capsys, command, bbox):
        # A NaN box used to load and end the next build in a ValueError traceback.
        cfg = write_config(tmp_path, seed=4, n_charts=3)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        obj = json.loads(manifest.read_text(encoding="utf-8"))
        obj["charts"][0]["detections"]["0"]["bbox"] = bbox
        manifest.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} is cut short or malformed: "
                              f"IntegrityError: manifest.charts[0].detections['0'].bbox must be "), err
        assert "Traceback" not in err


class TestEvalCommand:
    def test_eval_writes_report(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(
            "\n".join(
                json.dumps(o)
                for o in (
                    {"sample_id": "s1", "answer": 100.0, "group": "human"},
                    {"sample_id": "s2", "answer": 50.0, "group": "aug"},
                )
            ),
            encoding="utf-8",
        )
        pred.write_text(
            "\n".join(
                json.dumps(o)
                for o in (
                    {"sample_id": "s1", "raw_text": "\\box{104}"},
                    {"sample_id": "s2", "raw_text": "\\box{80}"},
                )
            ),
            encoding="utf-8",
        )
        code = main([
            "eval", "--gold", str(gold), "--pred", str(pred),
            "--margins", "0.05,0.1,0.2", "--mode", "match", "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert report["cells"]["0.05"]["human"]["correct"] == 1
        assert report["cells"]["0.05"]["aug"]["correct"] == 0
        stdout = capsys.readouterr().out
        assert "Avg." in stdout and "ALL" in stdout

    def test_eval_non_numeric_margin_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(json.dumps({"sample_id": "s1", "answer": 1.0, "group": "human"}), encoding="utf-8")
        pred.write_text(json.dumps({"sample_id": "s1", "raw_text": "\\box{1}"}), encoding="utf-8")
        code = main(["eval", "--gold", str(gold), "--pred", str(pred), "--margins", "0.05,x",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: --margins must be comma-separated numbers, not '0.05,x'\n"
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize("margins", ["nan,0.05", "0.05,inf", "-0.1"])
    def test_eval_bad_margin_exits_1_before_reading_files(self, tmp_path, capsys, margins):
        # Neither input file exists: the margins are rejected before either is read.
        code = main(["eval", "--gold", str(tmp_path / "gold.jsonl"), "--pred", str(tmp_path / "pred.jsonl"),
                     "--margins", margins, "--out", str(tmp_path)])
        assert code == 1
        assert re.fullmatch(r"error: margin must be a finite number >= 0, not \S+\n", capsys.readouterr().err)
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize("margins", ["", ","])
    def test_eval_empty_margin_list_exits_1_before_reading_files(self, tmp_path, capsys, margins):
        code = main(["eval", "--gold", str(tmp_path / "gold.jsonl"), "--pred", str(tmp_path / "pred.jsonl"),
                     "--margins", margins, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --margins must name at least one margin, not {margins!r}\n"
        assert not (tmp_path / "eval_report.json").exists()

    def test_eval_duplicate_gold_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text("".join(json.dumps({"sample_id": "a", "answer": a}) + "\n" for a in (10.0, 99.0)),
                        encoding="utf-8")
        pred.write_text(json.dumps({"sample_id": "a", "raw_text": "\\box{10}"}) + "\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: duplicate gold entry for sample 'a'\n"
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize("option", [["--seed", "1"], ["--config", "cfg.json"]])
    def test_eval_takes_no_run_options(self, tmp_path, capsys, option):
        # Scoring reads no config and draws nothing at random.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gold", str(tmp_path / "gold.jsonl"), "--pred", str(tmp_path / "pred.jsonl"), *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_eval_missing_gold_is_domain_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text("", encoding="utf-8")
        pred.write_text(json.dumps({"sample_id": "s1", "raw_text": "\\box{1}"}), encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert "error" in capsys.readouterr().err

    def _eval_with_pred_lines(self, tmp_path, lines: list[bytes]) -> tuple[int, str]:
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(
            json.dumps({"sample_id": "s1", "answer": 1.0}) + "\n" + json.dumps({"sample_id": "s2", "answer": 2.0}),
            encoding="utf-8",
        )
        pred.write_bytes(b"\n".join(lines) + b"\n")
        code = main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)])
        return code, str(pred)

    GOOD = json.dumps({"sample_id": "s1", "raw_text": "\\box{1}"}).encode()

    def test_malformed_json_line_names_file_and_line(self, tmp_path, capsys):
        code, pred = self._eval_with_pred_lines(tmp_path, [self.GOOD, b"", b'{"sample_id": "s2", "raw_'])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {pred}:3: not valid JSON: ")
        assert "Traceback" not in err

    def test_line_nested_too_deep_names_file_and_line(self, tmp_path, capsys):
        code, pred = self._eval_with_pred_lines(tmp_path, [self.GOOD, b"[" * 100_000 + b"]" * 100_000])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {pred}:2: not valid JSON: maximum recursion depth"), err

    def test_non_utf8_line_names_file_and_line(self, tmp_path, capsys):
        code, pred = self._eval_with_pred_lines(tmp_path, [self.GOOD, b'{"sample_id": "s2", "raw_text": "\xff"}'])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {pred}:2: not UTF-8 text\n"

    def test_record_without_sample_id_names_file_and_line(self, tmp_path, capsys):
        code, pred = self._eval_with_pred_lines(tmp_path, [b"", self.GOOD, b"", b'{"raw_text": "\\box{2}"}'])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {pred}:4: record has no 'sample_id' field\n"

    def test_record_that_is_not_an_object_names_file_and_line(self, tmp_path, capsys):
        code, pred = self._eval_with_pred_lines(tmp_path, [b"[1, 2]", self.GOOD])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {pred}:1: record is not a JSON object\n"

    def test_bad_gold_answer_names_file_and_line(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(json.dumps({"sample_id": "s1", "answer": None}) + "\n", encoding="utf-8")
        pred.write_bytes(self.GOOD + b"\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {gold}:1: answer must be a number or short text\n"

    @pytest.mark.parametrize("answer, reason", [
        ("NaN", "answer must be a finite number, not nan"),
        ("-Infinity", "answer must be a finite number, not -inf"),
        ("1e400", "answer must be a finite number, not inf"),
        ('{"value": Infinity, "percent": true}', "answer must be a finite number, not inf"),
        ("1" + "0" * 400, "answer is too large for a float"),
        ('"NaN"', "answer must be a finite number, not 'NaN'"),
        ('"1e400"', "answer must be a finite number, not '1e400'"),
    ])
    def test_non_finite_gold_answer_names_file_and_line(self, tmp_path, capsys, answer, reason):
        # Python's json reads NaN and Infinity, and float() reads "NaN" and
        # "1e400"; such a gold answer would score every prediction wrong, so
        # the first one stops the command.
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        lines = [json.dumps({"sample_id": "s1", "answer": 1.0})]
        lines += [f'{{"sample_id": "s{i}", "answer": {answer}}}' for i in (2, 3, 4)]
        gold.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pred.write_bytes(self.GOOD + b"\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {gold}:2: {reason}\n"
        assert not (tmp_path / "eval_report.json").exists()

    def test_list_group_names_file_and_line(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(json.dumps({"sample_id": "s1", "answer": 1.0, "group": ["x"]}) + "\n", encoding="utf-8")
        pred.write_bytes(self.GOOD + b"\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {gold}:1: group must be a string, not ['x']\n"
        assert not (tmp_path / "eval_report.json").exists()

    def test_number_and_string_groups_in_one_file_name_the_number(self, tmp_path, capsys):
        # A number group could not be sorted among string ones; the first
        # such line stops the command before anything is scored.
        code, pred = self._eval_with_pred_lines(tmp_path, [
            json.dumps({"sample_id": "s1", "raw_text": "\\box{1}", "group": "x"}).encode(),
            b"",
            json.dumps({"sample_id": "s2", "raw_text": "\\box{2}", "group": 3}).encode(),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {pred}:3: group must be a string, not 3\n"
        assert not (tmp_path / "eval_report.json").exists()


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestEvalCollector:
    """chartcot eval pauses the cyclic collector while it reads and scores,
    and leaves it as it found it on every exit."""

    def _files(self, tmp_path, gold_answers=(1.0,)):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text("".join(json.dumps({"sample_id": "s1", "answer": a}) + "\n" for a in gold_answers),
                        encoding="utf-8")
        pred.write_text(json.dumps({"sample_id": "s1", "raw_text": "\\box{1}"}) + "\n", encoding="utf-8")
        return ["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)]

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def enabled(self, request):
        """The collector's state when eval is called; the caller's is restored after."""
        was = gc.isenabled()
        _set_collector(request.param)
        yield request.param
        _set_collector(was)

    def test_success_restores_the_collector(self, tmp_path, monkeypatch, enabled):
        seen = []
        real_evaluate = cli.evaluate

        def watching(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", watching)
        assert main(self._files(tmp_path)) == 0
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_input_error_restores_the_collector(self, tmp_path, capsys, enabled):
        argv = self._files(tmp_path)
        (tmp_path / "pred.jsonl").write_text('{"sample_id": \n', encoding="utf-8")
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'pred.jsonl'}:1: not valid JSON: ")
        assert gc.isenabled() is enabled

    def test_duplicate_gold_restores_the_collector(self, tmp_path, capsys, enabled):
        assert main(self._files(tmp_path, gold_answers=(1.0, 2.0))) == 1
        assert capsys.readouterr().err == "error: duplicate gold entry for sample 's1'\n"
        assert gc.isenabled() is enabled


def _links(html_text: str) -> list[str]:
    return re.findall(r'(?:href|src)="([^"]+)"', html_text)


class TestGallery:
    def test_pages_and_links_resolve(self, tmp_path):
        cfg = write_config(tmp_path, n_charts=10)
        out = tmp_path / "run"
        main(["build", "--config", str(cfg), "--out", str(out)])
        assert main(["gallery", "--out", str(out)]) == 0
        index = out / "gallery/index.html"
        assert index.exists()
        pages = list((out / "gallery/charts").glob("*.html"))
        assert len(pages) == 10
        for page in [index, *pages]:
            for link in _links(page.read_text(encoding="utf-8")):
                target = (page.parent / link).resolve()
                assert target.exists(), f"{page.name} -> {link}"

    def test_three_grounding_steps_show_three_renders(self, tmp_path):
        cfg = write_config(tmp_path, n_charts=10)
        out = tmp_path / "run"
        main(["build", "--config", str(cfg), "--out", str(out)])
        main(["gallery", "--out", str(out)])
        manifest = DatasetManifest.load(out / "manifest.json")
        rich = [c for c in manifest.charts if c.steps and c.steps["grounding"] == 3]
        assert rich, "corpus should include a 3-grounding-step chart"
        page = (out / f"gallery/charts/{rich[0].id}.html").read_text(encoding="utf-8")
        assert page.count("annotated/") == 3

    @pytest.mark.parametrize("kind", [f"{damage} {kind}" for kind in ("spec", "cot") for damage in DOCUMENT_DAMAGES])
    def test_bad_artifact_is_named_on_its_page_alone(self, tmp_path, kind):
        cfg = write_config(tmp_path, n_charts=10)
        out = tmp_path / "run"
        main(["build", "--config", str(cfg), "--out", str(out)])
        damage, _, file_kind = kind.rpartition(" ")
        victim = sorted((out / ("cot" if file_kind == "cot" else "specs")).glob("*.json"))[0]
        reason = damage_document(victim, damage)
        assert main(["gallery", "--out", str(out)]) == 0
        index = out / "gallery/index.html"
        pages = sorted((out / "gallery/charts").glob("*.html"))
        assert len(pages) == 10
        for page in [index, *pages]:
            for link in _links(page.read_text(encoding="utf-8")):
                assert (page.parent / link).resolve().exists(), f"{page.name} -> {link}"
        rel = f"{victim.parent.name}/{victim.name}"
        for page in pages:
            assert (rel in page.read_text(encoding="utf-8")) == (page.stem == victim.stem), page.name
        assert html.escape(reason) in (out / f"gallery/charts/{victim.stem}.html").read_text(encoding="utf-8")
        assert any("annotated/" in page.read_text(encoding="utf-8") for page in pages if page.stem != victim.stem)

    @pytest.mark.parametrize("line, reason", [
        ('{"kind": "T1a"}', "record has no 'chart_id' field"),
        ('{"chart_id": ["c00000"]}', "chart_id must be a string, not ['c00000']"),
        ('["c00000"]', "record is not a JSON object"),
    ], ids=["no-chart-id", "chart-id-list", "not-an-object"])
    def test_dataset_line_without_chart_id_exits_1(self, tmp_path, capsys, line, reason):
        cfg = write_config(tmp_path, n_charts=2)
        out = tmp_path / "run"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        dataset = out / "dataset.jsonl"
        lines = dataset.read_text(encoding="utf-8").splitlines()
        dataset.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["gallery", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {dataset}:{len(lines) + 1}: {reason}\n"

    def test_empty_manifest_states_zero(self, tmp_path):
        manifest = DatasetManifest(config=PipelineConfig(), charts=[], out_dir=tmp_path)
        from chartcot.gallery import build_gallery
        index = build_gallery(manifest)
        assert "Zero samples" in index.read_text(encoding="utf-8")


def test_dataset_record_schema(tmp_path):
    cfg = write_config(tmp_path, n_charts=4)
    out = tmp_path / "run"
    main(["build", "--config", str(cfg), "--out", str(out)])
    for rec in read_jsonl(out / "dataset.jsonl"):
        assert set(rec) == {"kind", "chart_id", "image", "prompt", "ground_truth"}
        assert set(rec["image"]) == {"variant", "file"}
        assert isinstance(rec["prompt"], list)
