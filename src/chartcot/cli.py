"""Command-line entry point.

Subcommand granularity mirrors the pipeline gates so any stage can be run and
inspected in isolation: gen, cot, edit, render, detect run one stage against
a run directory; build runs everything and emits the dataset.

The commands that read or write a run (the stages, build, stats, gallery)
import pipeline and gallery, and with them numpy, when they start; eval and
--version never load numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .config import PipelineConfig
from .errors import ChartCotError, ConfigError
from .evaluate import DEFAULT_MARGINS, GROUP_BY, MODES, GoldEntry, Prediction, check_margin, evaluate
from .util import atomic_write_text, dumps_pretty, read_jsonl

_STAGE_COMMANDS = {
    "gen": ("meta", "generate the chart spec corpus"),
    "cot": ("cot", "generate and review chain-of-thought samples"),
    "edit": ("code", "insert and verify a marker for every grounding step (kept in memory only)"),
    "render": ("render", "write each chart's vanilla image"),
    "detect": ("detect", "draw each edited chart in memory and detect its marker"),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="pipeline config JSON file")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, help="worker process count (forked; 1 runs in this process)")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    obj = {}
    if args.config:
        try:
            obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    if getattr(args, "n", None) is not None:
        obj["n_charts"] = args.n
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.workers is not None:
        obj["workers"] = args.workers
    return PipelineConfig.from_json(obj)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartcot",
        description="Build grounded chart CoT instruction datasets and score predictions.",
    )
    parser.add_argument("--version", action="version", version=f"chartcot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (stage, help_text) in _STAGE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=partial(_cmd_stage, stage=stage))
        _add_common(p)
        if name == "gen":
            p.add_argument("--n", type=int, help="number of charts")

    p = sub.add_parser("build", help="run the full pipeline and emit the dataset")
    p.set_defaults(handler=_cmd_build)
    _add_common(p)
    p.add_argument("--n", type=int, help="number of charts")

    p = sub.add_parser("stats", help="compute statistics over a finished run")
    p.set_defaults(handler=_cmd_stats)
    _add_common(p)

    p = sub.add_parser("eval", help="score predictions with relaxed accuracy")
    p.set_defaults(handler=_cmd_eval)
    p.add_argument("--gold", required=True, help="gold JSONL: {sample_id, answer, group}")
    p.add_argument("--pred", required=True, help="predictions JSONL: {sample_id, raw_text}")
    p.add_argument("--margins", default=",".join(str(m) for m in DEFAULT_MARGINS))
    p.add_argument("--mode", choices=MODES, default="match")
    p.add_argument("--group-by", choices=GROUP_BY, default="group")
    p.add_argument("--out", help="directory for eval_report.json (default: cwd)")

    p = sub.add_parser("gallery", help="write the static HTML review gallery")
    p.set_defaults(handler=_cmd_gallery)
    _add_common(p)
    return parser


def _cmd_stage(args: argparse.Namespace, stage: str) -> int:
    from .pipeline import run

    manifest = run(_load_config(args), out_dir=args.out, only_stage=stage)
    report = next(r for r in manifest.stage_reports() if r["stage"] == stage)
    print(
        f"{stage}: {report['passed']}/{report['attempted']} passed "
        f"({report['success_rate'] * 100:.2f}%)"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from .pipeline import emit_dataset, run, write_stats

    config = _load_config(args)
    manifest = run(config, out_dir=args.out)
    dataset = emit_dataset(manifest)
    try:
        write_stats(manifest)
    except ChartCotError:
        pass  # empty runs still produce a dataset file and reports
    for report in manifest.stage_reports():
        print(
            f"{report['stage']:>7}: {report['passed']}/{report['attempted']} "
            f"({report['success_rate'] * 100:.2f}%)"
        )
    print(f"dataset: {dataset}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .pipeline import DatasetManifest, compute_stats, write_stats

    manifest = DatasetManifest.load(Path(args.out) / "manifest.json")
    stats = compute_stats(manifest)
    write_stats(manifest)
    print(dumps_pretty(stats), end="")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        margins = tuple(float(m) for m in args.margins.split(",") if m)
    except ValueError:
        raise ConfigError(f"--margins must be comma-separated numbers, not {args.margins!r}") from None
    if not margins:
        raise ConfigError(f"--margins must name at least one margin, not {args.margins!r}")
    for m in margins:
        check_margin(m)
    # The records hold no reference cycles, so the collector is paused while
    # they are read and scored: a collection would only walk them. Passed by
    # keyword, the gold file is read first, and the records are freed when
    # evaluate returns, before the collector is back on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = evaluate(gold=read_jsonl(args.gold, GoldEntry.from_json),
                          predictions=read_jsonl(args.pred, Prediction.from_json),
                          margins=margins, mode=args.mode, group_by=args.group_by)
    finally:
        if collecting:
            gc.enable()
    out_dir = Path(args.out) if args.out else Path(".")
    report_path = out_dir / "eval_report.json"
    atomic_write_text(report_path, dumps_pretty(report.to_json()))
    print(report.to_table())
    print(f"report: {report_path}")
    return 0


def _cmd_gallery(args: argparse.Namespace) -> int:
    from .gallery import build_gallery
    from .pipeline import DatasetManifest

    manifest = DatasetManifest.load(Path(args.out) / "manifest.json")
    index = build_gallery(manifest)
    print(f"gallery: {index}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ChartCotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
