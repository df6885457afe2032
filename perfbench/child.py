"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py '<job json>'

Imports chartcot from the job's ``src`` directory (never from an installed
copy): the checkout's ``src/``, or the benchmark's frozen yardstick copy. Runs
the job, checks its outputs and prints one JSON line: items, wall and
CPU seconds, failed items, problems found, peak RSS and, when traced, the
trace summary. The run directory, gold and prediction files are made by run.py.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import layers
import spantrace

CHARTCOT_MODULES = (
    "chartcot.pipeline", "chartcot.cli", "chartcot.layout", "chartcot.render",
    "chartcot.marker", "chartcot.client", "chartcot.evaluate", "chartcot.spec",
)


def _failed(manifest) -> int:
    return len(manifest.charts) - len(manifest.passed_charts())


def accounting(job: dict, timed) -> dict:
    pl = sys.modules["chartcot.pipeline"]
    config = pl.PipelineConfig(seed=job["seed"], n_charts=job["n"], workers=job["workers"])
    manifest = timed(lambda: pl.run(config))
    return {
        "items": job["n"], "failed": _failed(manifest),
        "problems": checks.check_accounting(manifest.digest(), job["expect"]),
    }


def prep_resume(job: dict, timed) -> dict:
    pl = sys.modules["chartcot.pipeline"]
    config = pl.PipelineConfig(seed=job["seed"], n_charts=job["n"], workers=job["workers"])
    manifest = pl.run(config, out_dir=job["dir"], stop_after="render")
    # A resumed run reads artifacts written long before. Flushing this run's
    # own files keeps their writeback out of the timed resume.
    for path in Path(job["dir"]).rglob("*"):
        if path.is_file():
            with path.open("rb") as f:
                os.fsync(f.fileno())
    return {"items": job["n"], "failed": _failed(manifest), "problems": []}


def build(job: dict, timed) -> dict:
    """A persisted run, then the dataset and stats: the work of ``chartcot build``.
    The resume workload runs the same calls over a directory stopped after render."""
    pl = sys.modules["chartcot.pipeline"]
    config = pl.PipelineConfig(seed=job["seed"], n_charts=job["n"], workers=job["workers"])
    out = Path(job["dir"])

    def work():
        manifest = pl.run(config, out_dir=out)
        pl.emit_dataset(manifest)
        pl.write_stats(manifest)
        return manifest

    manifest = timed(work)
    return {
        "items": job["n"], "failed": _failed(manifest),
        "problems": checks.check_dataset(out, job["expect"]), "bytes": checks.tree_bytes(out),
    }


def evaluate(job: dict, timed) -> dict:
    cli = sys.modules["chartcot.cli"]
    out = Path(job["dir"])
    argv = ["eval", "--gold", job["gold"], "--pred", job["pred"],
            "--margins", job["margins"], "--out", str(out)]

    def work():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    code = timed(work)
    if code != 0:
        return {"items": job["n"], "failed": job["n"], "problems": [f"chartcot eval exited with {code}"]}
    return {"items": job["n"], "failed": 0,
            "problems": checks.check_eval(out / "eval_report.json", job["expect"])}


JOBS = {
    "accounting": accounting, "build": build, "resume": build,
    "eval": evaluate, "prep_resume": prep_resume,
}


def _import_chartcot(src: Path) -> None:
    src = src.resolve()
    sys.path.insert(0, str(src))
    for name in CHARTCOT_MODULES:
        importlib.import_module(name)
    found = Path(sys.modules["chartcot"].__file__).resolve()
    if src not in found.parents:
        raise SystemExit(f"perfbench: imported chartcot from {found}, not from {src}")


def _write_spans(path: Path, tracer: spantrace.Tracer) -> None:
    with path.open("w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps(s._asdict()) + "\n")


def main(job: dict) -> dict:
    _import_chartcot(Path(job["src"]))
    tracer = None
    if job.get("trace"):
        # No eval call carries a chart, so eval skips the chart lookup.
        spec_type = None if job["kind"] == "eval" else sys.modules["chartcot.spec"].ChartSpec
        tracer = spantrace.Tracer(spec_type=spec_type, renames=layers.RENAMES)
        tracer.calibrate()
        spantrace.install(tracer, sys.modules, layers.PLAN)

    clock = {"wall": 0.0, "cpu": 0.0}

    def timed(fn):
        """Run the timed part, recording its wall seconds and the CPU seconds
        of all the process's threads in ``clock``."""
        if tracer is not None:
            fn = tracer.wrap("bench", fn)
        cpu, start = time.process_time(), time.perf_counter()
        result = fn()
        clock.update(wall=time.perf_counter() - start, cpu=time.process_time() - cpu)
        return result

    out = JOBS[job["kind"]](job, timed)
    if job.get("yardstick"):
        # The yardstick is the program as it was when the benchmark was made;
        # its outputs are not checked against a reference that moves on.
        out["problems"] = []
    out.update(clock)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        summary = spantrace.summarize(tracer)
        idle = [name for name in layers.REQUIRED[job["kind"]] if not summary["calls"].get(name)]
        if idle:
            raise spantrace.TraceError(f"layers recorded no calls on {job['kind']}: {idle}")
        self_sum = sum(v for k, v in summary["self"].items() if "@" not in k) + summary["wrapper"]["seconds"]
        if abs(self_sum - out["wall"]) > 0.01 * out["wall"]:
            raise spantrace.TraceError(
                f"self times and wrapper cost sum to {self_sum:.4f} s, traced wall is {out['wall']:.4f} s")
        _write_spans(Path(job["spans_out"]), tracer)
        out["trace"] = summary
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
