"""Byte-identity gate for the pipeline's persisted records.

Pins the config hash of the default config and of a config where every key
(client keys included) is non-default; the manifest digest and the bytes of
every other file of a persisted run plus dataset and stats; and the manifest
digest of an in-memory run with injected detect faults, so failure entries
are pinned too. A refactor of the config, manifest, spec or artifact code
must reproduce these exactly. Re-record (``python tests/test_pipeline_golden.py``)
only for a deliberate output change that is named as such; the pie wedge rule
change re-recorded ``build.files_digest`` alone (its pie PPMs changed, no
record or manifest entry did), and dropping the edit documents and SVGs from
the run directory re-recorded both ``build`` digests (fewer files, and fewer
entries in each chart's ``files``; no remaining file changed), and so did
dropping the edited PPMs, which left renders/ holding only the images the
dataset names.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from chartcot.client import ClientConfig
from chartcot.pipeline import PipelineConfig, emit_dataset, run, write_stats

NON_DEFAULT = PipelineConfig(
    seed=3,
    n_charts=5,
    type_mix={"bar": 0.5, "line": 0.5},
    bbox_format="A",
    min_marker_px=10.0,
    cap=2.5,
    client=ClientConfig(
        mode="http", endpoint="http://127.0.0.1:8000/v1", model="teacher", temperature=0.3,
        max_retries=4, max_concurrency=2, timeout=12.5, backoff=0.25, stub_seed=9,
        stub_fault_rate=0.1,
    ),
    fault_injection={"detect": 0.5},
    workers=3,
)

GOLDEN = {
    "config_hash.default": "274944fd233a8a91",
    "config_hash.non_default": "5e4398c40f8bf0aa",
    "build.manifest_digest": "bccd9e86c8a350243ad603131f37443f7246d29d5762d42846c2c6decccb2f6a",
    "build.files_digest": "5714c14eb7a6a43b92a7db5e284920c2a147fedb486b989c0a0bb416b45c1f1b",
    "faults.manifest_digest": "2c8f5236f490cd5a0d4fd1593d2e5cf8137f26ae360bca5ceb1cafb2532ff68a",
}


def _files_digest(root: Path) -> str:
    """sha256 over the sorted (path, bytes) of every file but the manifest."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _build(out: Path) -> tuple[str, str]:
    manifest = run(PipelineConfig(seed=7, n_charts=12, workers=1), out_dir=out)
    emit_dataset(manifest)
    write_stats(manifest)
    return manifest.digest(), _files_digest(out)


def _faults() -> str:
    return run(PipelineConfig(seed=7, n_charts=12, fault_injection={"detect": 0.25})).digest()


def _table() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        manifest_digest, files_digest = _build(Path(tmp))
    return {
        "config_hash.default": PipelineConfig().config_hash(),
        "config_hash.non_default": NON_DEFAULT.config_hash(),
        "build.manifest_digest": manifest_digest,
        "build.files_digest": files_digest,
        "faults.manifest_digest": _faults(),
    }


def test_config_hashes():
    assert PipelineConfig().config_hash() == GOLDEN["config_hash.default"]
    assert NON_DEFAULT.config_hash() == GOLDEN["config_hash.non_default"]


def test_non_default_config_roundtrips():
    again = PipelineConfig.from_json(NON_DEFAULT.to_json())
    assert again.config_hash() == NON_DEFAULT.config_hash()
    assert again.client == NON_DEFAULT.client


def test_persisted_build_bytes(tmp_path):
    manifest_digest, files_digest = _build(tmp_path)
    assert manifest_digest == GOLDEN["build.manifest_digest"], "manifest changed"
    assert files_digest == GOLDEN["build.files_digest"], "run directory bytes changed"


def test_fault_run_manifest():
    assert _faults() == GOLDEN["faults.manifest_digest"]


if __name__ == "__main__":  # re-record: a deliberate, named output change only
    print("GOLDEN = {")
    for key, value in _table().items():
        print(f"    {key!r}: {value!r},")
    print("}")
