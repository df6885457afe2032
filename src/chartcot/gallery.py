"""Static HTML gallery for offline review of a finished run.

One page per chart: the vanilla render, each edited render with its detected
box drawn on top, the CoT steps, and the chart's instruction records. The
run keeps no SVG, so the gallery draws its renders from the specs and CoTs
into its own directory. Plain HTML with relative links only; nothing needs a
server or scripts.
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from .cot import CotSample, validate_cot
from .errors import ChartCotError
from .geometry import PixelBBox
from .layout import ChartLayout, chart_layout
from .pipeline import ChartOutcome, DatasetManifest, marker_edits
from .render import marker_svg, overlay_svg, render_svg
from .spec import ChartSpec, parse_spec
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


def _edited_renders(spec: ChartSpec, sample: CotSample, lay: ChartLayout, outcome: ChartOutcome,
                    gallery_dir: Path, parts: list[str]) -> None:
    """Each detected step's edit, recomputed as the pipeline does, drawn with
    its detected box on top."""
    edits = {edit.step_index: edit for edit in marker_edits(spec, sample, lay)}
    parts.append("<h2>Edited renders with detected boxes</h2>")
    for key, det in sorted(outcome.detections.items(), key=lambda kv: int(kv[0])):
        k = int(key)
        edit = edits[k]
        svg = overlay_svg(marker_svg(render_svg(edit.spec), edit.markers), [PixelBBox(*det["bbox"])], spec.canvas)
        annotated = f"annotated/{outcome.id}__s{k}.svg"
        atomic_write_text(gallery_dir / annotated, svg)
        parts.append(
            f"<h3>step {k} (method: {html.escape(det['method'])})</h3>"
            f'<img src="../{annotated}" alt="edited render step {k}">'
        )


def _chart_page(manifest: DatasetManifest, outcome, records: list[dict], gallery_dir: Path) -> str:
    """A chart's page. Renders are drawn here from the spec and CoT, which
    the run keeps; a missing or damaged one is named on the page instead."""
    out = manifest.out_dir
    cid = outcome.id
    parts = [f"<h1>{html.escape(cid)} ({html.escape(outcome.chart_type)})</h1>"]
    parts.append("<p><a href=\"../index.html\">back to index</a></p>")
    status = ", ".join(f"{s}: {html.escape(v)}" for s, v in outcome.stages.items())
    parts.append(f"<p>Stages &mdash; {status}</p>")

    rel = f"specs/{cid}.json"
    try:
        spec = parse_spec((out / rel).read_text(encoding="utf-8")) if outcome.passed("meta") else None
        if spec is not None:
            lay = chart_layout(spec)
            vanilla = f"vanilla/{cid}.svg"
            atomic_write_text(gallery_dir / vanilla, render_svg(spec, layout=lay))
            parts.append("<h2>Vanilla render</h2>")
            parts.append(f'<img src="../{vanilla}" alt="vanilla chart">')
        rel = f"cot/{cid}.json"
        if spec is not None and outcome.passed("cot"):
            sample = validate_cot((out / rel).read_text(encoding="utf-8"))
            parts.append("<h2>Question and steps</h2>")
            parts.append(f"<p><b>Q:</b> {html.escape(sample.question)}</p>")
            parts.append("<ol start=\"1\">")
            for step in sample.steps:
                parts.append(f"<li>[{step.kind}] {html.escape(step.text)}</li>")
            parts.append("</ol>")
            parts.append(f"<p><b>Answer:</b> {html.escape(sample.answer.to_text())}</p>")
            if outcome.detections:
                _edited_renders(spec, sample, lay, outcome, gallery_dir, parts)
    except (FileNotFoundError, UnicodeDecodeError, KeyError, ChartCotError) as exc:
        # The files are read in order, so ``rel`` names the one at fault.
        error = "missing" if isinstance(exc, FileNotFoundError) else f"{type(exc).__name__}: {exc}"
        parts.append(f"<p><b>{html.escape(rel)}</b> cannot be used: {html.escape(error)}</p>")

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
