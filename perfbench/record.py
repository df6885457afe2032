"""Record the reference outputs the benchmark's checks compare against.

Run from the repository root only when a change alters chartcot's outputs on
purpose, and say so in the change:

    python3 perfbench/record.py

For each corpus seed it stores the in-memory manifest digest at the
accounting size, and the dataset digest of a straight persisted build at the
build size and at the resume size.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
from run import CHARTS, REFERENCE_FILE, ROOT, WORK, WORKERS

SEEDS = list(range(32))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from chartcot.pipeline import PipelineConfig, emit_dataset, run, write_stats

    ref = {"charts": CHARTS, "seeds": SEEDS, "accounting": {}, "build": {}, "resume": {}}
    WORK.mkdir(exist_ok=True)
    for seed in SEEDS:
        manifest = run(PipelineConfig(seed=seed, n_charts=CHARTS["accounting"], workers=WORKERS))
        if len(manifest.passed_charts()) != len(manifest.charts):
            raise SystemExit(f"seed {seed}: charts fail a gate; pick workloads on which nothing fails")
        ref["accounting"][str(seed)] = manifest.digest()
        # Resume is checked against a straight build of its corpus size.
        for name in ("build", "resume"):
            out = Path(tempfile.mkdtemp(dir=WORK, prefix="record-")) / "run"
            try:
                manifest = run(PipelineConfig(seed=seed, n_charts=CHARTS[name], workers=WORKERS), out_dir=out)
                emit_dataset(manifest)
                write_stats(manifest)
                ref[name][str(seed)] = checks.dataset_digest(checks.read_records(out))
            finally:
                shutil.rmtree(out.parent)
        print(f"seed {seed}: recorded", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
