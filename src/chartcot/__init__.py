"""chartcot: grounded chart CoT instruction datasets plus the relaxed-accuracy harness.

The public names load their submodule on first use (PEP 562), so that
``import chartcot``, config loading and ``chartcot eval`` import no numpy.
"""

import sys
from importlib import import_module
from types import ModuleType

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


class _Package(ModuleType):
    """The package module. The import system binds each submodule it loads as a
    package attribute; a submodule named like one of its public functions
    (``evaluate``, ``layout``) binds that function instead, so that the name
    stays the function whenever its module loads."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in _EXPORTS.get(name, ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
