"""chartcot: grounded chart CoT instruction datasets plus the relaxed-accuracy harness.

The public names load their submodule on first use (PEP 562), so that
``import chartcot``, config loading and ``chartcot eval`` import no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, listed once, under the submodule it comes from.
_EXPORTS = {
    "bbox": ("NormBBox", "denormalize", "normalize", "parse", "serialize"),
    "config": ("PipelineConfig",),
    "cot": ("Answer", "CotSample", "Step", "generate_cot_llm", "generate_cot_rule_based", "validate_cot"),
    "errors": ("ChartCotError",),
    "evaluate": ("EvalReport", "evaluate", "extract_answer", "relaxed_match"),
    "geometry": ("ElementRef", "PixelBBox"),
    "instruction": ("ImageRef", "InstructionSample", "build_instructions"),
    "layout": ("layout",),
    "marker": ("DetectionResult", "EditedSpec", "apply_marker", "detect_markers", "finalize_bbox", "verify_marker"),
    "pipeline": ("DatasetManifest", "compute_stats", "emit_dataset", "run"),
    "render": ("Bitmap", "rasterize", "render_svg"),
    "spec": ("ChartSpec", "Series", "generate_corpus", "parse_spec", "serialize_spec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


# Importing a submodule binds it as a package attribute, and a bound name
# never reaches __getattr__. So the functions named like their submodule are
# bound now, as they were when every name was imported eagerly.
for _name in _HOME.keys() & _EXPORTS.keys():  # evaluate, layout
    __getattr__(_name)
del _name
