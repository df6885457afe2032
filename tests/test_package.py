"""The package surface: every public name loads its submodule on first use,
the commands that touch no pixels never load numpy, and loading a config
loads four modules of the package (not ``util``) and no json or hashlib.

The load checks run in fresh interpreters, because this test process has
imported every module long before.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import chartcot
import chartcot.client
import chartcot.config
from chartcot.pipeline import ChartOutcome, PipelineConfig

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

# chartcot.__all__ as it was when the package imported every module eagerly.
PUBLIC = {
    "Answer", "Bitmap", "ChartCotError", "ChartSpec", "CotSample", "DatasetManifest", "DetectionResult",
    "EditedSpec", "ElementRef", "EvalReport", "ImageRef", "InstructionSample", "NormBBox", "PipelineConfig",
    "PixelBBox", "Series", "Step", "apply_marker", "build_instructions", "compute_stats", "denormalize",
    "detect_markers", "emit_dataset", "evaluate", "extract_answer", "finalize_bbox", "generate_corpus",
    "generate_cot_llm", "generate_cot_rule_based", "layout", "normalize", "parse", "parse_spec", "rasterize",
    "relaxed_match", "render_svg", "run", "serialize", "serialize_spec", "validate_cot", "verify_marker",
}

PIXEL_MODULES = ("numpy", "chartcot.render", "chartcot.marker")

# What ``import chartcot`` plus loading a config may load of the package.
COLD_MODULES = ["chartcot", "chartcot.config", "chartcot.documents", "chartcot.errors"]
# What it must not load at all: hashlib's OpenSSL load alone is ~2.5 ms, and
# json and util cost ~2 and ~4.5 ms to compile where no bytecode is cached.
NOT_COLD = ("json", "hashlib", "_hashlib", "logging", "numpy", "chartcot.util")


def _python(code: str, *args: str) -> str:
    """The output of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str, *args: str) -> list[str]:
    """Which of PIXEL_MODULES a fresh interpreter has loaded after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {PIXEL_MODULES!r} if m in sys.modules]))"
    return json.loads(_python(probe, *args).splitlines()[-1])


# chartcot eval over the files of ``eval_files``, and chartcot --version.
EVAL_COMMAND = ("import sys; from chartcot import cli\n"
                "code = cli.main(['eval', '--gold', sys.argv[1], '--pred', sys.argv[2], '--out', sys.argv[3]])\n"
                "assert code == 0, code")
VERSION_COMMAND = ("from chartcot import cli\n"
                   "try:\n    cli.main(['--version'])\nexcept SystemExit as exc:\n    assert exc.code == 0, exc.code")


@pytest.fixture
def eval_files(tmp_path) -> list[str]:
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text('{"sample_id": "s0", "answer": 10, "group": "bar"}\n'
                    '{"sample_id": "s1", "answer": "North", "group": "pie"}\n', encoding="utf-8")
    pred.write_text('{"sample_id": "s0", "raw_text": "\\\\box{10}"}\n'
                    '{"sample_id": "s1", "raw_text": "\\\\box{South}"}\n', encoding="utf-8")
    return [str(gold), str(pred), str(tmp_path)]


class TestNoNumpy:
    def test_config_loading(self):
        assert _loaded_after("import chartcot; chartcot.PipelineConfig.from_json({})") == []

    def test_evaluate_module(self):
        assert _loaded_after("import chartcot.evaluate") == []

    def test_eval_command(self, eval_files):
        assert _loaded_after(EVAL_COMMAND, *eval_files) == []
        assert json.loads((Path(eval_files[2]) / "eval_report.json").read_text(encoding="utf-8"))

    def test_version(self):
        assert _loaded_after(VERSION_COMMAND) == []

    def test_pipeline_loads_numpy(self):
        # The probe sees numpy where the pixels are, so an empty list above
        # is not vacuous.
        assert _loaded_after("import chartcot.pipeline") == list(PIXEL_MODULES)


class TestColdPath:
    def test_config_loading_loads_four_modules_and_no_json_hashlib_util_or_logging(self):
        # Both lists are taken before the probe imports json to print them.
        code = ("import sys, chartcot\n"
                "chartcot.PipelineConfig.from_json({'seed': 7, 'n_charts': 200, 'workers': 2})\n"
                "modules = sorted(m for m in sys.modules if m.partition('.')[0] == 'chartcot')\n"
                f"loaded = [m for m in {NOT_COLD!r} if m in sys.modules]\n"
                "import json\n"
                "print(json.dumps(modules))\n"
                "print(json.dumps(loaded))")
        modules, loaded = _python(code).splitlines()
        assert json.loads(modules) == COLD_MODULES
        assert json.loads(loaded) == []

    def test_hashing_loads_hashlib_where_it_hashes(self):
        # The probe sees hashlib once a config is hashed, so the empty list
        # above is not vacuous.
        code = ("import sys, chartcot\n"
                "print(chartcot.PipelineConfig.from_json({'seed': 7}).config_hash(), 'hashlib' in sys.modules)")
        assert _python(code).split() == [chartcot.PipelineConfig(seed=7).config_hash(), "True"]

    @pytest.mark.parametrize("command", ["eval", "version"])
    def test_eval_and_version_load_no_logging(self, eval_files, command):
        code = EVAL_COMMAND if command == "eval" else VERSION_COMMAND
        assert _python(f"{code}\nimport sys\nprint('logging' in sys.modules)", *eval_files).splitlines()[-1] == "False"

    def test_client_config_is_one_class_and_pickles(self):
        assert chartcot.client.ClientConfig is chartcot.config.ClientConfig
        client = chartcot.config.ClientConfig(stub_seed=4, stub_fault_rate=0.25)
        assert pickle.loads(pickle.dumps(client)) == client
        config = PipelineConfig(seed=3, n_charts=2, client=client)
        assert pickle.loads(pickle.dumps(config)) == config


class TestLazySurface:
    def test_all_is_unchanged(self):
        assert len(chartcot.__all__) == len(PUBLIC)
        assert set(chartcot.__all__) == PUBLIC

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_its_home_module_object(self, name):
        value = getattr(chartcot, name)
        assert getattr(sys.modules[value.__module__], name) is value

    def test_reexports_are_one_object(self):
        assert chartcot.PipelineConfig is chartcot.pipeline.PipelineConfig
        assert chartcot.evaluate is sys.modules["chartcot.evaluate"].evaluate
        assert chartcot.layout is sys.modules["chartcot.layout"].layout

    def test_functions_named_like_their_module_survive_its_import(self):
        # Importing a submodule binds it on the package; evaluate and layout
        # must stay the functions when their modules load after the package.
        code = ("import sys, chartcot\n"
                "chartcot.PipelineConfig\n"
                "import chartcot.pipeline, chartcot.evaluate, chartcot.layout\n"
                "assert chartcot.evaluate is sys.modules['chartcot.evaluate'].evaluate, chartcot.evaluate\n"
                "assert chartcot.layout is sys.modules['chartcot.layout'].layout, chartcot.layout\n"
                "print('ok')")
        assert _python(code) == "ok\n"

    def test_dir_lists_every_public_name(self):
        assert set(chartcot.__all__) <= set(dir(chartcot))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from chartcot import *", namespace)
        assert PUBLIC <= namespace.keys()

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chartcot.no_such_name
        assert not hasattr(chartcot, "no_such_name")

    def test_config_and_outcome_pickle(self):
        # Forked workers pickle outcomes back to the parent.
        config = PipelineConfig.from_json({"seed": 3, "n_charts": 2, "client": {"stub_seed": 4}})
        assert pickle.loads(pickle.dumps(config)) == config
        outcome = ChartOutcome(id="c00000", chart_type="bar", stages={"meta": "pass"}, records=2,
                               files={"all": ["specs/c00000.json"]})
        assert pickle.loads(pickle.dumps(outcome)) == outcome
