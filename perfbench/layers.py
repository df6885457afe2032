"""What the traced run wraps in chartcot, and the per-layer metrics it derives.

Each plan entry names a span and every module that calls the function on a
workload's path, so a call made through any of those imports is traced.
"""

from __future__ import annotations

from collections import Counter

_ACCOUNTING = [
    "spec.generate_corpus", "cot.generate", "client.chat", "client.review",
    "marker.apply", "layout.chart_layout", "render.svg", "render.rasterize",
    "marker.detect", "marker.structural", "marker.raster_components",
    "instruction.build", "pipeline.run", "pipeline.chart",
]
_PERSIST = [
    "render.ppm_encode", "util.write", "pipeline.manifest_save", "pipeline.emit",
    "instruction.build_in_emit",
]

# Layers that must record calls on each workload; zero calls fails the run.
REQUIRED = {
    "accounting": _ACCOUNTING,
    "build": _ACCOUNTING + _PERSIST,
    "resume": [
        "spec.generate_corpus", "layout.chart_layout", "render.svg", "render.rasterize",
        "render.ppm_decode", "marker.detect", "marker.structural", "marker.raster_components",
        "instruction.build", "pipeline.run", "pipeline.chart", "pipeline.manifest_load",
    ] + _PERSIST,
    "eval": ["util.read_jsonl", "evaluate.evaluate", "evaluate.extract", "evaluate.match", "util.write"],
}


# emit_dataset rebuilds every chart's records with the same build_instructions
# the qa stage calls. Those calls get their own span name, so the
# instruction.* metrics cover the qa stage alone and emit's share is counted
# once, inside pipeline.emit.
RENAMES = {("instruction.build", "pipeline.emit"): "instruction.build_in_emit"}


def _write_bytes(args, _result):
    data = args[1]
    return {"util.write_bytes": len(data.encode("utf-8") if isinstance(data, str) else data)}


PLAN = [
    ("spec.generate_corpus", ["chartcot.pipeline:generate_corpus"], None),
    ("cot.generate", ["chartcot.pipeline:generate_cot_llm"], None),
    ("client.chat", ["chartcot.client:LlmClient.chat"], None),
    ("client.review", ["chartcot.client:LlmClient.review_qa"], None),
    ("marker.apply", ["chartcot.pipeline:apply_marker"], None),
    ("layout.chart_layout", [
        "chartcot.layout:chart_layout", "chartcot.pipeline:chart_layout",
        "chartcot.render:chart_layout", "chartcot.marker:chart_layout",
    ], None),
    ("render.svg", ["chartcot.pipeline:render_svg"], None),
    ("render.rasterize", ["chartcot.pipeline:rasterize"], None),
    ("render.ppm_encode", ["chartcot.render:Bitmap.to_ppm"], None),
    ("render.ppm_decode", ["chartcot.render:Bitmap.from_ppm"], None),
    ("marker.detect", ["chartcot.pipeline:detect_markers"],
     lambda args, r: {"marker.raster_decisions": int(r.method == "raster")}),
    ("marker.structural", ["chartcot.marker:structural_hits"], None),
    ("marker.raster_components", ["chartcot.marker:raster_components"], None),
    ("instruction.build", ["chartcot.pipeline:build_instructions"],
     lambda args, r: {
         "instruction.records": len(r),
         "instruction.overlays": sum(rec.image.variant == "overlay" for rec in r),
     }),
    ("util.write", [
        "chartcot.pipeline:atomic_write_text", "chartcot.pipeline:atomic_write_bytes",
        "chartcot.cli:atomic_write_text",
    ], _write_bytes),
    ("util.read_jsonl", ["chartcot.cli:read_jsonl"], lambda args, r: {"util.jsonl_records": len(r)}),
    ("pipeline.run", ["chartcot.pipeline:run"], None),
    ("pipeline.chart", ["chartcot.pipeline:_ChartTask.run_stages"], None),
    ("pipeline.manifest_save", ["chartcot.pipeline:DatasetManifest.save"], None),
    ("pipeline.manifest_load", ["chartcot.pipeline:DatasetManifest.load"], None),
    ("pipeline.emit", ["chartcot.pipeline:emit_dataset"], None),
    ("evaluate.evaluate", ["chartcot.cli:evaluate"], None),
    ("evaluate.extract", ["chartcot.evaluate:extract_answer"], None),
    ("evaluate.match", ["chartcot.evaluate:relaxed_match"], None),
]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, charts: int, preds: int, run_bytes: int,
                  traced_s: float, untraced_s: float, items: int) -> dict:
    """Per-layer metrics from summed trace summaries.

    ``s`` is ``spantrace.summarize`` output summed over the traced reps;
    ``charts``/``preds`` the items those reps processed; ``run_bytes`` the
    bytes left under their run directories; ``traced_s``/``untraced_s`` the
    wall times of the traced reps and of the same inputs untraced.
    Time metrics use self time (the layer minus wrapped callees and the
    calibrated wrapper cost of each) unless the README marks them total. A
    layer that did not run reads 0.
    """
    calls, total, own, failed, count, wrapper = (
        Counter(s.get(part, {})) for part in ("calls", "total", "self", "failed", "counts", "wrapper"))

    def per_call(key: str, scale: float, times: Counter = own) -> float:
        return _per(times[key] * scale, calls[key])

    kpreds = preds / 1000
    m = {
        "spec.synth_us_per_chart": (_per(total["spec.generate_corpus"] * 1e6, charts), "us"),
        "cot.generate_ms_per_chart": (per_call("cot.generate", 1e3, total), "ms"),
        "client.chat_calls_per_chart": (_per(calls["client.chat"], calls["cot.generate"]), "count"),
        "client.review_us_per_chart": (per_call("client.review", 1e6), "us"),
        "marker.apply_us_per_edit": (per_call("marker.apply", 1e6), "us"),
        "marker.edits_per_chart": (_per(calls["marker.apply"], charts), "count"),
        "layout.calls_per_chart": (_per(calls["layout.chart_layout"], charts), "count"),
        "layout.ms_per_call": (per_call("layout.chart_layout", 1e3), "ms"),
        "render.images_per_chart": (_per(calls["render.rasterize"], charts), "count"),
        "render.svg_ms_per_image": (per_call("render.svg", 1e3), "ms"),
    }
    for ctype in ("bar", "line", "pie"):
        m[f"render.raster_ms_per_image.{ctype}"] = (per_call(f"render.rasterize@{ctype}", 1e3), "ms")
    m.update({
        "render.ppm_encode_ms_per_image": (per_call("render.ppm_encode", 1e3), "ms"),
        "render.ppm_decode_ms_per_image": (per_call("render.ppm_decode", 1e3), "ms"),
        "marker.detect_calls_per_chart": (_per(calls["marker.detect"], charts), "count"),
        "marker.structural_us_per_call": (per_call("marker.structural", 1e6), "us"),
        "marker.raster_components_ms_per_call": (per_call("marker.raster_components", 1e3), "ms"),
        "marker.raster_share": (_per(count["marker.raster_decisions"], calls["marker.detect"]), "share"),
        "instruction.build_us_per_chart": (_per(own["instruction.build"] * 1e6, charts), "us"),
        "instruction.records_per_chart": (_per(count["instruction.records"], charts), "count"),
        "instruction.overlays_per_chart": (_per(count["instruction.overlays"], charts), "count"),
        "util.files_per_chart": (_per(calls["util.write"], charts), "count"),
        "util.write_ms_per_file": (per_call("util.write", 1e3), "ms"),
        "util.write_mb_per_s": (_per(count["util.write_bytes"] / 1e6, own["util.write"]), "MB/s"),
        "util.read_jsonl_ms_per_1k": (_per(own["util.read_jsonl"] * 1e3, count["util.jsonl_records"] / 1000), "ms"),
        "util.bytes_per_chart": (_per(run_bytes, charts), "bytes"),
        "pipeline.self_ms_per_chart": (_per((own["pipeline.run"] + own["pipeline.chart"]) * 1e3, charts), "ms"),
        "pipeline.manifest_save_ms": (per_call("pipeline.manifest_save", 1e3, total), "ms"),
        "pipeline.manifest_load_ms": (per_call("pipeline.manifest_load", 1e3, total), "ms"),
        "pipeline.emit_ms_per_chart": (_per(total["pipeline.emit"] * 1e3, charts), "ms"),
        "evaluate.score_ms_per_1k": (_per(total["evaluate.evaluate"] * 1e3, kpreds), "ms"),
        "evaluate.extract_us_per_pred": (per_call("evaluate.extract", 1e6), "us"),
        "evaluate.match_us_per_call": (per_call("evaluate.match", 1e6), "us"),
        "evaluate.self_ms_per_1k": (_per(own["evaluate.evaluate"] * 1e3, kpreds), "ms"),
        "evaluate.extraction_failure_share": (_per(failed["evaluate.extract"], calls["evaluate.extract"]), "share"),
        "trace.overhead_pct": (_per((traced_s - untraced_s) * 100, untraced_s), "%"),
        "trace.untraced_w1_items_per_s": (_per(items, untraced_s), "items/s"),
        "trace.wrapper_us_per_call": (_per(wrapper["seconds"] * 1e6, wrapper["calls"]), "us"),
    })
    return m
