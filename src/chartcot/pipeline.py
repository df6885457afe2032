"""Gated batch pipeline: meta -> cot -> code -> render -> detect -> qa.

Each chart advances through the gates independently; a chart failing any gate
is discarded from later stages but stays in that stage's accounting. All
randomness is keyed by (seed, purpose, chart id), so outputs are identical
across worker counts and across resumed runs. With more than one worker the
charts run in forked worker processes, which send back only their outcomes;
the parent folds the outcomes in and is the only writer of the manifest,
which it writes atomically.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import os
import pickle
import selectors
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Optional

from .bbox import normalize
from .client import LlmClient
# The stage names and run configuration live in config, which imports no
# numpy; they stay importable from here.
from .config import DEFAULT_TYPE_MIX, PASS, STAGES, PipelineConfig
from .cot import CotSample, generate_cot_llm, validate_cot
from .errors import (
    AmbiguousError,
    ChartCotError,
    ClientError,
    ConfigError,
    EmptyError,
    FormatError,
    IntegrityError,
    NotFoundError,
    WorkerError,
)
from .geometry import PixelBBox
from .instruction import VARIANT_OVERLAY, VARIANT_VANILLA, ImageRef, InstructionSample, build_instructions
from .layout import ChartLayout, chart_layout
from .marker import (
    EditedSpec,
    apply_marker,
    detect_markers,
    finalize_bbox,
    marker_min_size,
    verify_marker,
)
from .render import Bitmap, lift_markers, paint_markers, paint_overlays, rasterize, render_svg
from .spec import ChartSpec, generate_corpus, parse_spec, serialize_spec
from .util import (
    atomic_write_bytes,
    atomic_write_text,
    canonical_json,
    dumps_pretty,
    read_buffer,
    rng_for,
)


@dataclass
class ChartOutcome:
    id: str
    chart_type: str
    stages: dict = field(default_factory=dict)    # stage -> "pass" | "fail:<reason>"
    question: Optional[str] = None
    steps: Optional[dict] = None                  # {"grounding", "reasoning", "total"}
    detections: Optional[dict] = None             # step index (str) -> {"bbox", "method"}
    records: Optional[int] = None
    files: dict = field(default_factory=dict)

    def passed(self, stage: str) -> bool:
        return self.stages.get(stage) == PASS

    def all_passed(self) -> bool:
        return bool(self.stages) and all(v == PASS for v in self.stages.values())

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "ChartOutcome":
        """A manifest chart entry; TypeError naming the first key whose value
        has the wrong JSON shape, so that no later reader meets it."""
        kwargs = {}
        for name, (shape, admits) in _OUTCOME_SHAPES.items():
            value = kwargs[name] = obj[name]
            if not admits(value):
                raise TypeError(f"chart {obj['id']!r} key {name!r} must be {shape}, not {value!r}")
        return cls(**kwargs)


def _of_types(values, *types: type) -> bool:
    """Whether every item of ``values`` has one of ``types`` as its exact
    type, as JSON decodes them: a bool is no int."""
    return {*map(type, values)} <= set(types)


def _is_str_map(value, *types: type) -> bool:
    return isinstance(value, dict) and _of_types(value, str) and _of_types(value.values(), *types)


def _is_detection(d) -> bool:
    return (isinstance(d, dict) and d.keys() == {"bbox", "method"} and type(d["method"]) is str
            and type(d["bbox"]) is list and len(d["bbox"]) == 4 and _of_types(d["bbox"], int, float))


# The JSON shape of each ChartOutcome field, in field order: what it must be,
# and the test of a value.
_OUTCOME_SHAPES = {
    "id": ("a string", lambda v: type(v) is str),
    "chart_type": ("a string", lambda v: type(v) is str),
    "stages": ("an object of strings", lambda v: _is_str_map(v, str)),
    "question": ("null or a string", lambda v: v is None or type(v) is str),
    "steps": ("null or an object of integer grounding, reasoning and total",
              lambda v: v is None or _is_str_map(v, int) and v.keys() == {"grounding", "reasoning", "total"}),
    "detections": ('null or an object from step index to {"bbox": 4 numbers, "method": string}',
                   lambda v: v is None or _is_str_map(v, dict) and all(map(str.isdecimal, v))
                   and all(map(_is_detection, v.values()))),
    "records": ("null or an integer", lambda v: v is None or type(v) is int),
    "files": ("an object of string lists",
              lambda v: _is_str_map(v, list) and all(_of_types(paths, str) for paths in v.values())),
}


@dataclass
class DatasetManifest:
    config: PipelineConfig
    charts: list
    out_dir: Optional[Path] = None
    generated_at: str = ""

    @property
    def run_id(self) -> str:
        return f"run-{self.config.config_hash()}"

    def stage_reports(self) -> list[dict]:
        reports = []
        for stage in STAGES:
            attempted = sum(1 for c in self.charts if stage in c.stages)
            passed = sum(1 for c in self.charts if c.passed(stage))
            reports.append({
                "stage": stage,
                "attempted": attempted,
                "passed": passed,
                "success_rate": (passed / attempted) if attempted else 0.0,
            })
        return reports

    def passed_charts(self) -> list:
        return [c for c in self.charts if c.all_passed()]

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "config_hash": self.config.config_hash(),
            "config": self.config.to_json(),
            "generated_at": self.generated_at,
            "stage_reports": self.stage_reports(),
            "charts": [c.to_json() for c in self.charts],
        }

    def digest(self) -> str:
        """Content hash; timestamps are excluded."""
        payload = self.to_json()
        payload.pop("generated_at")
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def save(self) -> Path:
        if self.out_dir is None:
            raise ConfigError("manifest has no run directory")
        self.generated_at = dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")
        path = self.out_dir / "manifest.json"
        atomic_write_text(path, dumps_pretty(self.to_json()))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """The manifest at ``path``; IntegrityError naming it when it is cut
        short, not JSON, or lacks a key of the config or of a chart entry."""
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
            return cls(config=PipelineConfig.from_json(obj["config"]),
                       charts=[ChartOutcome.from_json(c) for c in obj.get("charts", [])],
                       out_dir=path.parent, generated_at=obj.get("generated_at", ""))
        except (ValueError, RecursionError, KeyError, TypeError, AttributeError, ConfigError) as exc:
            raise IntegrityError(f"manifest {path} is cut short or malformed: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Per-chart execution

class _ChartTask:
    """Runs one chart through a window of stages, laying it out once and
    rasterising it at most once. A persisted run keeps only the specs, CoTs and
    images the dataset names; detect draws the edits in memory, also on resume."""

    def __init__(self, spec: ChartSpec, outcome: ChartOutcome, config: PipelineConfig,
                 client: LlmClient, out_dir: Optional[Path]):
        self.spec = spec
        self.outcome = outcome
        self.config = config
        self.client = client
        self.out = out_dir
        self.sample: Optional[CotSample] = None
        self.edits: Optional[list[EditedSpec]] = None
        # Persisted runs: the vanilla raster with the overlay boxes of the
        # images written so far stroked onto it.
        self._canvas: Optional[Bitmap] = None
        self._painted: set[PixelBBox] = set()

    @cached_property
    def layout(self) -> ChartLayout:
        """The vanilla spec's layout, computed once and shared by every stage."""
        return chart_layout(self.spec)

    # -- fault injection ----------------------------------------------------

    def _injected_fault(self, stage: str) -> bool:
        p = self.config.fault_injection.get(stage, 0.0)
        return p > 0.0 and rng_for(self.config.seed, "fault", stage, self.spec.id).random() < p

    # -- artifact io ----------------------------------------------------------

    def _write(self, rel: str, data: str | bytes) -> None:
        if self.out is not None:
            write = atomic_write_text if isinstance(data, str) else atomic_write_bytes
            write(self.out / rel, data)
            self.outcome.files.setdefault("all", []).append(rel)

    def _write_image(self, image: ImageRef) -> None:
        """Write the image's PPM: the vanilla chart, rasterised once per chart,
        with the image's overlay boxes stroked on top.

        Overlay boxes are one opaque colour painted last, so strokes already on
        the canvas need not be painted again. An overlay image that finds no
        canvas in memory (on resume, or when its boxes do not hold those
        painted so far) starts from the vanilla image read back from disk.
        """
        if self.out is None:
            return
        boxes = image.overlay_boxes
        if self._canvas is None or not self._painted <= set(boxes):
            self._canvas = self._read_vanilla() if boxes else rasterize(self.spec, layout=self.layout)
            self._painted = set()
        paint_overlays(self._canvas, [box for box in boxes if box not in self._painted])
        self._painted.update(boxes)
        self._write(f"renders/{image.file_name()}", self._canvas.to_ppm())

    def _read_vanilla(self) -> Bitmap:
        """The render stage's vanilla image; IntegrityError naming the file
        when it is missing or malformed."""
        rel = f"renders/{ImageRef(self.spec.id, VARIANT_VANILLA).file_name()}"
        data = self._read(rel)
        try:
            return Bitmap.from_ppm(data)
        except IntegrityError as exc:
            raise IntegrityError(f"{rel}: {exc}") from None

    def _read(self, rel: str) -> bytearray:
        """A prior stage's artifact; a missing one fails this chart's stage."""
        assert self.out is not None, "resume requires a run directory"
        return _read_artifact(self.out, rel)

    def _load_sample(self) -> CotSample:
        if self.sample is None:
            self.sample = validate_cot(self._read(f"cot/{self.spec.id}.json").decode("utf-8"))
        return self.sample

    def _edits(self) -> list[EditedSpec]:
        """The chart's verified marker edits, computed once: in the code stage,
        or from the persisted CoT by a later stage on resume."""
        if self.edits is None:
            self.edits = marker_edits(self.spec, self._load_sample(), self.layout)
        return self.edits

    # -- stages ---------------------------------------------------------------

    def _stage_meta(self) -> None:
        self._write(f"specs/{self.spec.id}.json", serialize_spec(self.spec) + "\n")

    def _stage_cot(self) -> None:
        try:
            sample = generate_cot_llm(self.spec, self.client)
        except (FormatError, IntegrityError) as exc:
            raise _StageFail(f"cot-invalid: {exc}") from exc
        if not self.client.review_qa(sample, self.spec):
            raise _StageFail("review rejected the answer")
        self.sample = sample
        grounding = len(sample.grounding_steps())
        self.outcome.question = sample.question
        self.outcome.steps = {
            "grounding": grounding,
            "reasoning": len(sample.steps) - grounding,
            "total": len(sample.steps),
        }
        self._write(f"cot/{self.spec.id}.json", sample.to_text() + "\n")

    def _stage_code(self) -> None:
        self._edits()

    def _stage_render(self) -> None:
        self._write_image(ImageRef(chart_id=self.spec.id, variant=VARIANT_VANILLA))

    def _stage_detect(self) -> None:
        """Draw each edit once, in the format that finds its marker, and detect it: a text
        edit as its SVG, a datapoint edit as its cross, lifted off after, on the render stage's
        canvas or else on one raster made here (on resume, qa reads the vanilla image back)."""
        w, _ = self.spec.canvas
        min_px = marker_min_size(w, self.config.min_marker_px)
        detections = {}
        canvas = self._canvas
        for edit in self._edits():
            svg, bmp, covered = None, None, ()
            if edit.markers:
                bmp = canvas = canvas if canvas is not None else rasterize(self.spec, layout=self.layout)
                covered = paint_markers(bmp, edit.markers)
            else:
                svg = render_svg(edit.spec, layout=edit.layout)
            try:
                result = detect_markers(svg, bmp)
            except (NotFoundError, AmbiguousError) as exc:
                raise _StageFail(f"detect step {edit.step_index}: {exc}") from exc
            finally:
                lift_markers(bmp, covered)
            final = finalize_bbox(result.bbox, self.spec.canvas, min_px, min_px)
            detections[str(edit.step_index)] = {"bbox": list(final.as_tuple()), "method": result.method}
        self.outcome.detections = detections

    def _stage_qa(self) -> None:
        records = _chart_records(self.spec, self._load_sample(), self.outcome, self.config)
        self.outcome.records = len(records)
        for rec in records:
            if rec.image.variant == VARIANT_OVERLAY:
                self._write_image(rec.image)

    def run_stages(self, wanted: list[str]) -> ChartOutcome:
        for pos, stage in enumerate(STAGES):
            if stage not in wanted:
                continue
            if stage in self.outcome.stages:
                if not self.outcome.passed(stage):
                    break
                continue  # already done in a previous run
            if pos > 0 and not self.outcome.passed(STAGES[pos - 1]):
                break  # gate: previous stage missing or failed
            if self._injected_fault(stage):
                self.outcome.stages[stage] = "fail:injected"
                break
            try:
                getattr(self, f"_stage_{stage}")()
            except _StageFail as exc:
                self.outcome.stages[stage] = f"fail:{exc}"
                break
            except ClientError as exc:
                self.outcome.stages[stage] = f"fail:client: {exc}"
                break
            except ChartCotError as exc:
                self.outcome.stages[stage] = f"fail:{type(exc).__name__}: {exc}"
                break
            self.outcome.stages[stage] = PASS
        return self.outcome


class _StageFail(ChartCotError):
    """A stage gate rejected the chart (not a run-level error)."""


def marker_edits(spec: ChartSpec, sample: CotSample, layout: ChartLayout) -> list[EditedSpec]:
    """One verified marker edit per grounding step of ``sample``; ``layout``
    is the vanilla spec's, which places the datapoint anchors."""
    edits = []
    for step in sample.grounding_steps():
        edit = apply_marker(spec, step, full_layout=layout)
        assert verify_marker(edit), f"apply_marker returned an unverified edit at step {step.index}"
        edits.append(edit)
    return edits


def _chart_records(spec: ChartSpec, sample: CotSample, outcome: ChartOutcome,
                   config: PipelineConfig) -> list[InstructionSample]:
    """A chart's instruction records, built from its detections as boxes in
    the run's bbox format; the qa stage and ``emit_dataset`` share it."""
    boxes = {
        int(k): normalize(PixelBBox(*d["bbox"]), spec.canvas, config.bbox_format)
        for k, d in (outcome.detections or {}).items()
    }
    return build_instructions(spec, sample, boxes, cap=config.cap, seed=config.seed)


def _read_artifact(out: Path, rel: str) -> bytearray:
    """The artifact's bytes in a writable buffer, which a PPM decode views in place."""
    try:
        return read_buffer(out / rel)
    except FileNotFoundError:
        raise IntegrityError(f"missing artifact {rel}") from None


# ---------------------------------------------------------------------------
# Run orchestration

def _stage_window(stop_after: Optional[str], only_stage: Optional[str]) -> list[str]:
    for stage in (only_stage, stop_after):
        if stage is not None and stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
    if only_stage is not None:
        return [only_stage]
    return list(STAGES[: STAGES.index(stop_after) + 1] if stop_after is not None else STAGES)


def run(
    config: PipelineConfig,
    out_dir: str | Path | None = None,
    stop_after: Optional[str] = None,
    only_stage: Optional[str] = None,
) -> DatasetManifest:
    """Execute the pipeline (optionally a stage window) and return the manifest.

    With a run directory, artifacts and the manifest are persisted and a
    matching manifest found there resumes the run, skipping complete charts.
    Without one, everything stays in memory (accounting-only runs).
    """
    wanted = _stage_window(stop_after, only_stage)
    out = Path(out_dir) if out_dir is not None else None
    existing: dict[str, ChartOutcome] = {}
    if out is not None and (out / "manifest.json").exists():
        prior = DatasetManifest.load(out / "manifest.json")
        if prior.config.config_hash() != config.config_hash():
            raise ConfigError("run directory holds a manifest for a different config")
        existing = {c.id: c for c in prior.charts}

    specs = generate_corpus(config.seed, config.n_charts, config.type_mix)

    def work(index: int, client: LlmClient) -> ChartOutcome:
        spec = specs[index]
        outcome = existing.get(spec.id) or ChartOutcome(id=spec.id, chart_type=spec.chart_type)
        return _ChartTask(spec, outcome, config, client, out).run_stages(wanted)

    if config.workers == 1:
        client = LlmClient(config.client)
        outcomes = [work(i, client) for i in range(len(specs))]
    else:
        outcomes = _run_forked(work, len(specs), config)
    outcomes.sort(key=lambda c: c.id)

    manifest = DatasetManifest(config=config, charts=outcomes, out_dir=out)
    if out is not None:
        manifest.save()
    return manifest


class _TokenPipe:
    """A gate that forked processes share: a pipe holding one byte per token,
    which entering takes (waiting while none is left) and leaving puts back."""

    def __init__(self, tokens: int):
        self.r, self.w = os.pipe()
        os.write(self.w, b"." * tokens)

    def __enter__(self) -> None:
        os.read(self.r, 1)

    def __exit__(self, *exc) -> None:
        os.write(self.w, b".")


def _run_forked(work, n: int, config: PipelineConfig) -> list[ChartOutcome]:
    """Run chart indices 0..n-1 in ``config.workers`` forked processes, which
    inherit the run's state, take indices one at a time from a counter in
    shared memory and send each outcome back on a pipe of their own. The
    parent waits on all pipes at once, so a worker's exception is raised here
    with its own type and a worker that dies raises WorkerError at once; both
    kill the other workers. The client gate is a token pipe that all share.
    """
    import mmap
    import signal

    workers = min(config.workers, n)
    # A worker has at most one request in flight, so more tokens would go unused
    # (and a pipe holds only so many bytes).
    lock, gate = _TokenPipe(1), _TokenPipe(min(config.client.max_concurrency, workers))
    counter = mmap.mmap(-1, 8)  # anonymous and shared: the next chart index
    work = partial(work, client=LlmClient(config.client, gate=gate))
    fds, pids = [], {}  # read ends of the result pipes; read end -> pid until reaped
    try:
        for _ in range(workers):
            r, w = os.pipe()
            fds.append(r)
            try:
                if (pid := os.fork()) == 0:
                    _forked_worker(work, n, counter, lock, w, fds)
            finally:
                os.close(w)
            pids[r] = pid
        outcomes, left = [None] * n, n
        with selectors.DefaultSelector() as sel:
            for fd in fds:
                sel.register(fd, selectors.EVENT_READ, bytearray())
            while left:
                for key, _ in sel.select():
                    buf, chunk = key.data, os.read(key.fd, 1 << 16)
                    if not chunk:  # the worker ended without its done mark
                        pid = pids.pop(key.fd)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                        raise WorkerError(f"worker {pid} {how} before its charts were done")
                    buf += chunk
                    while len(buf) >= 8 and len(buf) >= 8 + (size := int.from_bytes(buf[:8], "little")):
                        msg = buf[8:8 + size]
                        del buf[:8 + size]
                        if not msg:  # the done mark
                            sel.unregister(key.fd)
                            continue
                        index, outcome = pickle.loads(msg)
                        if index is None:
                            raise outcome
                        outcomes[index] = outcome
                        left -= 1
        return outcomes
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids.values():
            os.waitpid(pid, 0)
        for fd in (*fds, lock.r, lock.w, gate.r, gate.w):
            os.close(fd)
        counter.close()


def _forked_worker(work, n: int, counter, lock: _TokenPipe, out: int, fds: list) -> None:
    """Send ``(index, outcome)`` on ``out`` for each index taken from ``counter``
    until it reaches ``n``, then an empty done mark; never return. A chart that
    raises, or an outcome that cannot be pickled, sends ``(None, exception)``
    and sets the counter to ``n``, so that no worker takes another chart."""
    status = 1
    try:
        for fd in fds:  # the parent alone reads the result pipes
            os.close(fd)
        out = os.fdopen(out, "wb")
        while True:
            with lock:
                index = int.from_bytes(counter[:8], "little")
                counter[:8] = min(index + 1, n).to_bytes(8, "little")
            if index == n:
                break
            try:
                item = (index, work(index))
            except BaseException as exc:
                item = (None, exc)
            try:
                data = pickle.dumps(item)
                if item[0] is None:
                    pickle.loads(data)  # an exception must also rebuild in the parent
            except Exception as exc:
                what = f"the outcome of chart {index}" if item[0] is not None else repr(item[1])
                item = (None, WorkerError(f"worker {os.getpid()} cannot send {what}: {type(exc).__name__}: {exc}"))
                data = pickle.dumps(item)
            if item[0] is None:
                with lock:
                    counter[:8] = n.to_bytes(8, "little")
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()
        out.write(bytes(8))
        out.flush()
        status = 0
    finally:
        os._exit(status)


def emit_dataset(manifest: DatasetManifest) -> Path:
    """Write dataset.jsonl (sorted by chart, kind, step) and the stage report.

    Records are rebuilt deterministically from persisted artifacts, so a
    resumed run emits the same bytes as an uninterrupted one. A passed chart
    whose spec or CoT is gone raises ``IntegrityError("missing artifact ...")``;
    a spec that does not parse raises its error prefixed ``specs/<id>.json: ``.
    """
    out = manifest.out_dir
    if out is None:
        raise ConfigError("emit_dataset requires a persisted run")
    records: list[tuple] = []
    for outcome in manifest.passed_charts():
        rel = f"specs/{outcome.id}.json"
        data = _read_artifact(out, rel).decode("utf-8")
        try:
            spec = parse_spec(data)
        except ChartCotError as exc:
            raise type(exc)(f"{rel}: {exc}") from None
        sample = validate_cot(_read_artifact(out, f"cot/{outcome.id}.json").decode("utf-8"))
        for rec in _chart_records(spec, sample, outcome, manifest.config):
            records.append((rec.sort_key(), rec.to_record(f"renders/{rec.image.file_name()}")))
    records.sort(key=lambda pair: pair[0])
    lines = "".join(canonical_json(r) + "\n" for _, r in records)
    atomic_write_text(out / "dataset.jsonl", lines)
    atomic_write_text(out / "stage_reports.json", dumps_pretty(manifest.stage_reports()))
    return out / "dataset.jsonl"


def compute_stats(manifest: DatasetManifest) -> dict:
    """Histograms and distribution facts over charts that passed every gate run."""
    passed = [c for c in manifest.charts if c.all_passed() and c.steps]
    if not passed:
        raise EmptyError("no charts passed the pipeline")
    counts = {key: Counter(c.steps[key] for c in passed) for key in ("grounding", "reasoning", "total")}
    total = counts["total"]
    types = Counter(c.chart_type for c in passed)
    n = len(passed)
    with_records = [c.records for c in passed if c.records is not None]
    return {
        "passed_charts": n,
        "step_histograms": {key: {str(k): hist[k] for k in sorted(hist)} for key, hist in counts.items()},
        "total_step_mode": min(total, key=lambda k: (-total[k], k)),
        "chart_type_distribution": {t: types[t] / n for t in sorted(types)},
        "records_total": sum(with_records),
        "records_per_chart_mean": (sum(with_records) / len(with_records)) if with_records else None,
    }


def write_stats(manifest: DatasetManifest) -> Path:
    if manifest.out_dir is None:
        raise ConfigError("write_stats requires a persisted run")
    stats = compute_stats(manifest)
    path = manifest.out_dir / "stats.json"
    atomic_write_text(path, dumps_pretty(stats))
    return path
