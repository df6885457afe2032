"""Every call site that the benchmark's traced run wraps must exist, and
must see the work the benchmark counts through it.

perfbench/layers.py lists, per layer span, the ``module:attr`` or
``module:Class.attr`` names it wraps. A refactor that drops or renames one
breaks the traced benchmark run; this test catches it in the unit suite.
The layer metrics also assume how the pipeline uses some sites: one
``Bitmap.to_ppm`` call per PPM written, one ``Bitmap.from_ppm`` call per
vanilla image read back on resume, and written sizes taken from the data
handed to the atomic writers. Those are checked on small runs, and so is
what the traced run requires: every layer named in ``REQUIRED`` records a
call on its workload. The plan file is loaded by path and only read.
"""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from chartcot import cli, pipeline, render
from chartcot.pipeline import PipelineConfig, run

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plan_sites() -> list[tuple[str, str]]:
    return [(name, site) for name, sites, _ in _layers().PLAN for site in sites]


@pytest.mark.parametrize("name,site", _plan_sites(), ids=lambda v: v)
def test_plan_site_resolves(name, site):
    modname, _, path = site.partition(":")
    importlib.import_module(modname)
    # Look the module up in sys.modules: the package attribute chartcot.layout
    # is the re-exported function, not the module.
    owner = sys.modules[modname]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # The tracer replaces class attributes in the class's own namespace.
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert raw is not None, f"{name}: {site} no longer exists"
    assert callable(raw) or isinstance(raw, classmethod), f"{name}: {site} is not callable"


@pytest.fixture
def layer_calls(monkeypatch) -> Counter:
    """Calls per layer, counted by a wrapper on every plan site. A call made
    directly inside the layer that ``RENAMES`` pairs it with counts under
    the renamed layer, as in the traced run."""
    layers = _layers()
    calls, active = Counter(), []
    for name, sites, _ in layers.PLAN:
        renamed = {outer: alt for (inner, outer), alt in layers.RENAMES.items() if inner == name}
        for site in sites:
            modname, _, path = site.partition(":")
            importlib.import_module(modname)
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)

            def counting(*args, _real=raw.__func__ if is_classmethod else raw, _name=name, _renamed=renamed,
                         **kwargs):
                span = _renamed.get(active[-1], _name) if active else _name
                calls[span] += 1
                active.append(span)
                try:
                    return _real(*args, **kwargs)
                finally:
                    active.pop()

            monkeypatch.setattr(owner, attr, classmethod(counting) if is_classmethod else counting)
    return calls


def test_every_required_layer_records_calls(tmp_path, layer_calls):
    # The traced benchmark run fails when a workload stops calling a layer
    # it requires. Small workers=1 versions of the four workloads show it
    # here. Calls go through the module, whose names the wrappers replace.
    config = PipelineConfig(seed=5, n_charts=6, workers=1)
    seen = {}

    def persisted(out):
        manifest = pipeline.run(config, out_dir=out)
        pipeline.emit_dataset(manifest)
        pipeline.write_stats(manifest)

    def take() -> dict:
        counts = dict(layer_calls)
        layer_calls.clear()
        return counts

    pipeline.run(config)
    seen["accounting"] = take()
    persisted(tmp_path / "build")
    seen["build"] = take()
    pipeline.run(config, out_dir=tmp_path / "resume", stop_after="render")
    take()
    persisted(tmp_path / "resume")
    seen["resume"] = take()
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"sample_id": "s0", "answer": 10, "group": "bar"}) + "\n", encoding="utf-8")
    pred.write_text(json.dumps({"sample_id": "s0", "raw_text": "\\box{10}"}) + "\n", encoding="utf-8")
    assert cli.main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path)]) == 0
    seen["eval"] = take()
    required = _layers().REQUIRED
    assert set(seen) == set(required)
    for workload, names in required.items():
        assert [name for name in names if not seen[workload].get(name)] == [], workload


def test_every_ppm_is_encoded_once_and_every_write_counts_its_file_size(tmp_path, monkeypatch):
    # render.ppm_encode counts Bitmap.to_ppm calls; util.write_bytes counts
    # the data handed to the pipeline's atomic writers, as layers.py reads it.
    count_bytes = _layers()._write_bytes
    encodes, writes = [], []
    real_to_ppm = render.Bitmap.to_ppm

    def counting_to_ppm(self):
        encodes.append(self)
        return real_to_ppm(self)

    def recording(real):
        def write(path, data):
            real(path, data)
            writes.append((Path(path), count_bytes((path, data), None)["util.write_bytes"], Path(path).stat().st_size))
        return write

    monkeypatch.setattr(render.Bitmap, "to_ppm", counting_to_ppm)
    for name in ("atomic_write_bytes", "atomic_write_text"):
        monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
    run(PipelineConfig(seed=5, n_charts=6, workers=1), out_dir=tmp_path)
    ppms = sorted(tmp_path.glob("renders/*.ppm"))
    assert any("__ov" in p.name for p in ppms) and not any("__s" in p.name for p in ppms)
    assert len(encodes) == len(ppms)
    assert sorted(path for path, _, _ in writes if path.suffix == ".ppm") == ppms
    for path, counted, size in writes:
        assert counted == size, path


def test_resume_decodes_one_ppm_per_chart_with_overlays(tmp_path, monkeypatch):
    # Resumed past render, each chart's qa reads its vanilla image back once
    # and strokes its overlay boxes onto it; detect rasterises the vanilla
    # chart afresh for a point edit's cross.
    config = PipelineConfig(seed=5, n_charts=6, workers=1)
    run(config, out_dir=tmp_path, stop_after="render")
    decodes = []
    real_from_ppm = render.Bitmap.from_ppm.__func__

    def counting_from_ppm(cls, data):
        decodes.append(data)
        return real_from_ppm(cls, data)

    monkeypatch.setattr(render.Bitmap, "from_ppm", classmethod(counting_from_ppm))
    manifest = run(config, out_dir=tmp_path)
    assert any(d["method"] == "raster" for c in manifest.charts for d in (c.detections or {}).values())
    with_overlays = {p.name.split("__")[0] for p in tmp_path.glob("renders/*__ov*.ppm")}
    assert with_overlays
    assert len(decodes) == len(with_overlays)


def test_eval_calls_each_scoring_site_once_per_unit_of_work(tmp_path, monkeypatch):
    # evaluate.extract counts one call per prediction, evaluate.match one per
    # extracted prediction (one call scores every margin) and util.read_jsonl
    # one per input file.
    calls = {}
    for name, sites, _ in _layers().PLAN:
        if name in ("evaluate.extract", "evaluate.match", "util.read_jsonl"):
            for site in sites:
                modname, _, attr = site.partition(":")
                module = importlib.import_module(modname)
                real = getattr(module, attr)

                def counting(*args, _real=real, _name=name, **kwargs):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, attr, counting)
    replies = ["\\box{10}", "about 9.5", "\\box{}", "no number", "\\box{North}", "\\box{1,000}"]
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text("".join(json.dumps({"sample_id": f"s{i}", "answer": 10, "group": f"g{i % 2}"}) + "\n"
                            for i in range(len(replies))), encoding="utf-8")
    pred.write_text("".join(json.dumps({"sample_id": f"s{i}", "raw_text": r}) + "\n"
                            for i, r in enumerate(replies)), encoding="utf-8")
    assert cli.main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path),
                     "--margins", "0.05,0.1,0.2"]) == 0
    # Four replies yield an answer, each scored at every margin by one call.
    assert calls == {"util.read_jsonl": 2, "evaluate.extract": 6, "evaluate.match": 4}
