"""chartcot benchmark: four batch workloads, checked outputs, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload {accounting,build,resume,eval} \
        --seed N --seconds S --trace {0,1}

Each repetition submits one seeded corpus from a fresh child interpreter and
times it to completion (a closed loop with one client). ``--trace 0`` runs
pairs of repetitions at ``WORKERS`` workers, one of chartcot from ``src/`` and
one of the frozen yardstick copy in ``yardstick/`` on the same inputs, until
``--seconds`` have passed, at least ``MIN_PAIRS`` of them, and reports the
end-to-end metrics. ``--trace 1`` runs each repetition once untraced and once
traced at one worker and reports the per-layer metrics. The last stdout line is the JSON result; the line before
it records the machine and the inputs. Exits non-zero when an output check
fails, and without a result when chartcot's sources are missing or a child
fails. See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import evalgen
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("accounting", "build", "resume", "eval")
# Charts per repetition. A persisted chart takes ~10.5 MB, so a build
# repetition writes ~0.3 GB (deleted afterwards) and each of the
# two directories a resume run prepares (src and yardstick) holds ~0.5 GB.
CHARTS = {"accounting": 60, "build": 30, "resume": 50}
PREDICTIONS = 60000
WORKERS = 2
# A frozen copy of src/chartcot as it was when the benchmark was made. It runs
# the same inputs between the program's repetitions as a yardstick of how fast
# the host runs; it never changes with the program.
YARDSTICK = HERE / "yardstick"
# The fewest pairs of an untraced run, and so of set-up sample pairs.
MIN_PAIRS = 4
# The yardstick's figures on the reference host, the 2-vCPU x86 VM the bounds
# were set on: medians over its repetitions in five runs per workload.
YARDSTICK_RATE = {"accounting": 41.50, "build": 14.05, "resume": 32.32, "eval": 26573.0}
YARDSTICK_SETUP_S = 0.2985
CHILD_TIMEOUT_S = 120

SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import chartcot\n"
    "chartcot.PipelineConfig.from_json({'seed': 7, 'n_charts': 200, 'workers': 2})\n"
    "print(time.perf_counter() - t)\n"
)


class ChildFailed(RuntimeError):
    pass


def child(job: dict) -> dict:
    """Run one job in a fresh interpreter and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{job['kind']} child ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{job['kind']} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(src: Path) -> float:
    """One cold start of ``import chartcot`` from ``src`` plus
    ``PipelineConfig.from_json`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"setup interpreter exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return float(proc.stdout)


def load_reference() -> dict:
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if ref["charts"] != CHARTS:
        raise ChildFailed(f"{REFERENCE_FILE.name} was recorded for {ref['charts']}, not {CHARTS}; run record.py")
    return ref


def corpus_seed(ref: dict, seed: int, rep: int) -> int:
    """The workload seed picks which recorded corpora a run uses: one per
    repetition, or per pair, for accounting and build, one per run for resume."""
    seeds = ref["seeds"]
    return seeds[(seed + rep) % len(seeds)]


def src_dir(yardstick: bool) -> Path:
    return YARDSTICK if yardstick else ROOT / "src"


def run_rep(name: str, rep: int, tmp: Path, workers: int, trace: bool, inputs: dict,
            yardstick: bool = False) -> dict:
    """One repetition of chartcot, or of the yardstick, whose outputs are not
    checked; its run directory is deleted afterwards, untimed.

    A resume repetition starts from a hard-linked copy of the prepared
    directory. chartcot replaces files atomically today, so the prepared
    files stay intact. A run that writes into an existing file would change
    them through the link, so the prepared directory is compared with its
    snapshot after every repetition and prepared again if it moved.
    """
    rep_dir = Path(tempfile.mkdtemp(dir=tmp, prefix=f"rep{rep}-"))
    job = dict(inputs, kind=name, src=str(src_dir(yardstick)), yardstick=yardstick, workers=workers, trace=trace,
               dir=str(rep_dir / "run"), spans_out=str(WORK / f"spans-{name}.jsonl"))
    job.pop("state", None)
    try:
        if "prepared" in inputs:
            shutil.copytree(inputs["prepared"], job["dir"], copy_function=os.link)
        result = child(job)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if "prepared" in inputs and snapshot(Path(inputs["prepared"])) != inputs["state"]:
        prepare(inputs, yardstick)
        result["reprepared"] = 1
    return result


def snapshot(root: Path) -> dict:
    """Relative path -> (size, mtime_ns) of every file under ``root``."""
    return {
        str(p.relative_to(root)): (st.st_size, st.st_mtime_ns)
        for p in root.rglob("*") if p.is_file() for st in (p.stat(),)
    }


def rep_inputs(name: str, ref: dict, seed: int, rep: int) -> dict:
    cseed = corpus_seed(ref, seed, rep)
    return {"seed": cseed, "n": CHARTS[name], "expect": ref[name][str(cseed)]}


def prepare(inputs: dict, yardstick: bool = False) -> None:
    """Run the corpus through render, untimed, into ``inputs["prepared"]``
    and record the directory's snapshot under ``inputs["state"]``."""
    prepared = Path(inputs["prepared"])
    shutil.rmtree(prepared, ignore_errors=True)
    job = {k: v for k, v in inputs.items() if k not in ("prepared", "state")}
    child(dict(job, kind="prep_resume", src=str(src_dir(yardstick)), workers=WORKERS, dir=str(prepared)))
    inputs["state"] = snapshot(prepared)


def prepare_resume(ref: dict, seed: int, tmp: Path, yardstick: bool) -> dict:
    """Prepare the run's corpus once, each side with its own program, as
    artifact formats may change; every repetition resumes a copy."""
    inputs = dict(rep_inputs("resume", ref, seed, 0), prepared=str(tmp / f"prepared-{int(yardstick)}"))
    prepare(inputs, yardstick)
    return inputs


def prepare_eval(seed: int, tmp: Path) -> dict:
    gold, pred = tmp / "gold.jsonl", tmp / "pred.jsonl"
    expected = evalgen.write_inputs(seed, PREDICTIONS, gold, pred)
    return {"gold": str(gold), "pred": str(pred), "n": PREDICTIONS, "expect": expected,
            "margins": ",".join(str(m) for m in evalgen.MARGINS)}


def add_summaries(total: dict, summary: dict) -> None:
    for key, values in summary.items():
        total.setdefault(key, Counter()).update(values)


def rate(rep: dict) -> float:
    return rep["items"] / rep["wall"]


def end_to_end(name: str, pairs: list[dict]) -> dict:
    """Each pair holds a repetition of chartcot (``src``) and one of the
    yardstick on the same inputs, run back to back, each with a cold start
    (``setup``) just before it.

    The host's speed drifts by up to ~1.7x from one minute to the next, and
    that drift slows both sides of a pair alike. So the time metrics are the
    median over pairs of chartcot's figure over the yardstick's, times the
    yardstick's figure on the reference host: what chartcot would show on
    that host. While chartcot is the yardstick's code, they read about the
    yardstick's reference figures.
    """
    speedup = statistics.median(rate(p["src"]) / rate(p["yardstick"]) for p in pairs)
    setup = statistics.median(p["src"]["setup"] / p["yardstick"]["setup"] for p in pairs)
    return {
        "throughput": {"value": speedup * YARDSTICK_RATE[name], "unit": "items/s"},
        "setup_s": {"value": setup * YARDSTICK_SETUP_S, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["src"]["rss_mb"] for p in pairs), "unit": "MiB"},
    }


def per_layer(name: str, pairs: list[tuple[dict, dict]]) -> dict:
    summary: dict = {}
    for _, traced in pairs:
        add_summaries(summary, traced["trace"])
    items = sum(t["items"] for _, t in pairs)
    values = layers.layer_metrics(
        summary,
        charts=0 if name == "eval" else items,
        preds=items if name == "eval" else 0,
        run_bytes=sum(t.get("bytes", 0) for _, t in pairs),
        traced_s=sum(t["wall"] for _, t in pairs),
        untraced_s=sum(u["wall"] for u, _ in pairs),
        items=sum(u["items"] for u, _ in pairs),
    )
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[dict, list, dict]:
    """Run repetitions until ``seconds`` have passed since the call, so that
    preparation counts against the run's length; a pair starts only if half
    the length of the one before still fits. An untraced run first
    starts one interpreter per side, untimed, which writes the bytecode
    caches. Its pairs then alternate which side runs first."""
    deadline = time.monotonic() + seconds
    ref = load_reference()
    sides = {"src": False} if trace else {"src": False, "yardstick": True}
    prepared = {}
    if name == "eval":
        prepared = dict.fromkeys(sides, prepare_eval(seed, tmp))
    elif name == "resume":
        prepared = {side: prepare_resume(ref, seed, tmp, ys) for side, ys in sides.items()}

    def inputs_for(side: str, rep: int) -> dict:
        return prepared.get(side) or rep_inputs(name, ref, seed, rep)

    if not trace:
        for ys in sides.values():
            setup_seconds(src_dir(ys))
    reps: list = []
    seeds = []
    last_s = 0.0  # length of the last pair; one starts only if half of it fits
    while len(reps) < (1 if trace else MIN_PAIRS) or time.monotonic() + last_s / 2 < deadline:
        n, started = len(reps), time.monotonic()
        seeds.append(inputs_for("src", n).get("seed"))
        if trace:
            untraced = run_rep(name, n, tmp, 1, False, inputs_for("src", n))
            reps.append((untraced, run_rep(name, n, tmp, 1, True, inputs_for("src", n))))
            continue
        pair = {}
        for side in (list(sides) if n % 2 == 0 else list(sides)[::-1]):
            ys = sides[side]
            setup = setup_seconds(src_dir(ys))
            pair[side] = dict(run_rep(name, n, tmp, WORKERS, False, inputs_for(side, n), ys), setup=setup)
        reps.append(pair)
        last_s = time.monotonic() - started
    ran = [r for pair in reps for r in (pair if trace else pair.values())]
    # Of an untraced run, only chartcot's repetitions count and are checked.
    done = ran if trace else [p["src"] for p in reps]
    metrics = per_layer(name, reps) if trace else end_to_end(name, reps)
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "reps": len(reps),
        "workers": 1 if trace else WORKERS,
        "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "numpy": done[0]["numpy"], "free_disk_gb": round(shutil.disk_usage(ROOT).free / 1e9, 1),
    }
    if not trace:
        # The plain figures of both sides, per pair, that the metrics come from.
        info.update({
            f"{side}_{key}": [round(f(p[side]), 4) for p in reps]
            for side in sides for key, f in (("items_per_s", rate), ("setup_s", lambda r: r["setup"]))
        })
    if name == "eval":
        info.update(predictions=PREDICTIONS, groups=len(evalgen.GROUPS), reply_forms=prepared["src"]["expect"]["forms"])
    else:
        info.update(charts_per_rep=CHARTS[name], corpus_seeds=seeds)
    if name == "resume":
        info.update(reprepared=sum(r.get("reprepared", 0) for r in ran))
    return metrics, done, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: subprocess.run kills and reaps its
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "chartcot" / "__init__.py").is_file():
        print(f"perfbench: no chartcot sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        metrics, reps, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [p for r in reps for p in r["problems"]]
    for p in problems:
        print(f"perfbench: output check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["items"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print("# perfbench " + json.dumps(info))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
