"""Static HTML gallery for offline review of a finished run.

One page per chart: the vanilla render, each edited render with its detected
box drawn on top, the CoT steps, and the chart's instruction records. Plain
HTML with relative links only; nothing needs a server or scripts.
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from .cot import validate_cot
from .geometry import PixelBBox
from .marker import parse_edited_document
from .pipeline import DatasetManifest
from .render import render_svg
from .util import atomic_write_text, read_jsonl

_PAGE_STYLE = (
    "body{font-family:sans-serif;margin:24px;max-width:1100px}"
    "img{border:1px solid #ccc;max-width:100%}"
    "table{border-collapse:collapse}td,th{border:1px solid #aaa;padding:4px 8px}"
    "pre{background:#f6f6f6;padding:8px;overflow-x:auto}"
)


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title><style>{_PAGE_STYLE}</style></head>"
        f"<body>{body}</body></html>\n"
    )


def _chart_page(manifest: DatasetManifest, outcome, records: list[dict], gallery_dir: Path) -> str:
    out = manifest.out_dir
    cid = outcome.id
    parts = [f"<h1>{html.escape(cid)} ({html.escape(outcome.chart_type)})</h1>"]
    parts.append("<p><a href=\"../index.html\">back to index</a></p>")
    status = ", ".join(f"{s}: {html.escape(v)}" for s, v in outcome.stages.items())
    parts.append(f"<p>Stages &mdash; {status}</p>")

    parts.append("<h2>Vanilla render</h2>")
    parts.append(f'<img src="../../renders/{cid}.svg" alt="vanilla chart">')

    cot_path = out / f"cot/{cid}.json"
    sample = None
    if cot_path.exists():
        sample = validate_cot(cot_path.read_text(encoding="utf-8"))
        parts.append("<h2>Question and steps</h2>")
        parts.append(f"<p><b>Q:</b> {html.escape(sample.question)}</p>")
        parts.append("<ol start=\"1\">")
        for step in sample.steps:
            parts.append(f"<li>[{step.kind}] {html.escape(step.text)}</li>")
        parts.append("</ol>")
        parts.append(f"<p><b>Answer:</b> {html.escape(sample.answer.to_text())}</p>")

    if sample is not None and outcome.detections:
        parts.append("<h2>Edited renders with detected boxes</h2>")
        for key, det in sorted(outcome.detections.items(), key=lambda kv: int(kv[0])):
            k = int(key)
            edited_path = out / f"edited/{cid}__s{k}.json"
            if not edited_path.exists():
                continue
            edit = parse_edited_document(edited_path.read_text(encoding="utf-8"), step_index=k)
            box = PixelBBox(*det["bbox"])
            svg, _ = render_svg(edit.spec, overlays=[box], markers=list(edit.markers))
            rel = f"annotated/{cid}__s{k}.svg"
            atomic_write_text(gallery_dir / rel, svg)
            parts.append(
                f"<h3>step {k} (method: {html.escape(det['method'])})</h3>"
                f'<img src="../{rel}" alt="edited render step {k}">'
            )

    if records:
        parts.append("<h2>Instruction records</h2>")
        for rec in records:
            parts.append(f"<pre>{html.escape(json.dumps(rec, indent=2, sort_keys=True))}</pre>")
    return _page(cid, "".join(parts))


def build_gallery(manifest: DatasetManifest) -> Path:
    """Write gallery/index.html plus one page per chart. Returns the index path."""
    out = manifest.out_dir
    if out is None:
        raise ValueError("gallery requires a persisted run")
    gallery_dir = out / "gallery"
    dataset_path = out / "dataset.jsonl"
    by_chart: dict[str, list[dict]] = {}
    if dataset_path.exists():
        for rec in read_jsonl(dataset_path):
            by_chart.setdefault(rec["chart_id"], []).append(rec)

    rows = []
    for outcome in manifest.charts:
        page_rel = f"charts/{outcome.id}.html"
        page = _chart_page(manifest, outcome, by_chart.get(outcome.id, []), gallery_dir)
        atomic_write_text(gallery_dir / page_rel, page)
        state = "passed" if outcome.all_passed() else "discarded"
        question = html.escape(outcome.question or "")
        steps = outcome.steps["total"] if outcome.steps else ""
        rows.append(
            f'<tr><td><a href="{page_rel}">{html.escape(outcome.id)}</a></td>'
            f"<td>{html.escape(outcome.chart_type)}</td><td>{question}</td>"
            f"<td>{steps}</td><td>{state}</td></tr>"
        )

    if rows:
        body = (
            f"<h1>Run {html.escape(manifest.run_id)}</h1>"
            f"<p>{len(manifest.charts)} charts, {len(manifest.passed_charts())} passed all gates.</p>"
            "<table><tr><th>chart</th><th>type</th><th>question</th><th>steps</th><th>status</th></tr>"
            + "".join(rows)
            + "</table>"
        )
    else:
        body = f"<h1>Run {html.escape(manifest.run_id)}</h1><p>Zero samples in this run.</p>"
    index = gallery_dir / "index.html"
    atomic_write_text(index, _page(f"Run {manifest.run_id}", body))
    return index
