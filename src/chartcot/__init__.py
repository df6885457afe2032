"""chartcot: grounded chart CoT instruction datasets plus the relaxed-accuracy harness."""

__version__ = "0.1.0"

from .bbox import NormBBox, denormalize, normalize, parse, serialize
from .cot import Answer, CotSample, Step, generate_cot_llm, generate_cot_rule_based, validate_cot
from .errors import ChartCotError
from .evaluate import EvalReport, evaluate, extract_answer, relaxed_match
from .geometry import ElementRef, PixelBBox
from .instruction import ImageRef, InstructionSample, build_instructions
from .layout import layout
from .marker import (
    DetectionResult,
    EditedSpec,
    apply_marker,
    detect_markers,
    finalize_bbox,
    verify_marker,
)
from .pipeline import DatasetManifest, PipelineConfig, compute_stats, emit_dataset, run
from .render import Bitmap, rasterize, render_svg
from .spec import ChartSpec, Series, generate_corpus, parse_spec, serialize_spec

__all__ = [
    "Answer",
    "Bitmap",
    "ChartCotError",
    "ChartSpec",
    "CotSample",
    "DatasetManifest",
    "DetectionResult",
    "EditedSpec",
    "ElementRef",
    "EvalReport",
    "ImageRef",
    "InstructionSample",
    "NormBBox",
    "PipelineConfig",
    "PixelBBox",
    "Series",
    "Step",
    "apply_marker",
    "build_instructions",
    "compute_stats",
    "denormalize",
    "detect_markers",
    "emit_dataset",
    "evaluate",
    "extract_answer",
    "finalize_bbox",
    "generate_corpus",
    "generate_cot_llm",
    "generate_cot_rule_based",
    "layout",
    "normalize",
    "parse",
    "parse_spec",
    "rasterize",
    "relaxed_match",
    "render_svg",
    "run",
    "serialize",
    "serialize_spec",
    "validate_cot",
    "verify_marker",
]
