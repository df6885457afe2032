"""Output checks: each returns a list of problems, empty when the output is right."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dataset_digest(records: list[dict]) -> str:
    """sha256 of the dataset records with ``image.file`` stripped, in file order.

    The image path encodes the artifact format, which may change without the
    dataset's content changing.
    """
    h = hashlib.sha256()
    for rec in records:
        rec = dict(rec, image={k: v for k, v in rec["image"].items() if k != "file"})
        h.update((_canonical(rec) + "\n").encode("utf-8"))
    return h.hexdigest()


def read_records(run_dir: Path) -> list[dict]:
    text = (run_dir / "dataset.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line]


def check_accounting(digest: str, expected: str) -> list[str]:
    if digest != expected:
        return [f"manifest digest {digest} differs from the reference {expected}"]
    return []


def check_dataset(run_dir: Path, expected: str) -> list[str]:
    """dataset.jsonl matches the reference digest, every image it references
    exists and is non-empty, and stats.json parses."""
    if not (run_dir / "dataset.jsonl").is_file():
        return ["dataset.jsonl is missing"]
    try:
        records = read_records(run_dir)
        digest = dataset_digest(records)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"dataset.jsonl is malformed: {exc}"]
    problems = []
    if not records:
        problems.append("dataset.jsonl has no records")
    if digest != expected:
        problems.append(f"dataset digest {digest} differs from the reference {expected}")
    images = {run_dir / rec["image"]["file"] for rec in records}
    missing = sorted(str(p) for p in images if not p.is_file() or p.stat().st_size == 0)
    if missing:
        problems.append(f"{len(missing)} referenced images are missing or empty, e.g. {missing[0]}")
    try:
        json.loads((run_dir / "stats.json").read_text(encoding="utf-8"))["passed_charts"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"stats.json is missing or malformed: {exc!r}")
    return problems


def check_eval(report_path: Path, expected: dict) -> list[str]:
    """Per-margin, per-group correct/total counts and extraction failures
    equal the generator's tally."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        got = {
            "n_predictions": report["n_predictions"],
            "extraction_failures": report["extraction_failures"],
            "cells": {
                m: {g: {"correct": c["correct"], "total": c["total"]} for g, c in groups.items()}
                for m, groups in report["cells"].items()
            },
        }
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"eval report is missing or malformed: {exc!r}"]
    problems = []
    for key in ("n_predictions", "extraction_failures"):
        if got[key] != expected[key]:
            problems.append(f"{key} is {got[key]}, expected {expected[key]}")
    if got["cells"] != expected["cells"]:
        problems.append(f"per-margin, per-group counts differ: {got['cells']} vs {expected['cells']}")
    return problems


def tree_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(root) for f in files
    )
