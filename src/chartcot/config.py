"""The pipeline's stage names and run configuration.

Kept apart from ``pipeline`` so that loading a config, and every command
that touches no pixels, imports no numpy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from .bbox import FORMATS
from .client import ClientConfig
from .errors import ConfigError
from .util import canonical_json, read_document

STAGES = ("meta", "cot", "code", "render", "detect", "qa")

# Chart type shares of the target corpus (bar / line / pie).
DEFAULT_TYPE_MIX = {"bar": 0.571, "line": 0.336, "pie": 0.093}

PASS = "pass"


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    n_charts: int = 10
    type_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TYPE_MIX))
    bbox_format: str = "C"
    min_marker_px: float = 12.0
    cap: Optional[float] = None
    client: ClientConfig = field(default_factory=ClientConfig)
    fault_injection: dict[str, float] = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_charts < 1:
            raise ConfigError("n_charts must be >= 1")
        if self.bbox_format not in FORMATS:
            raise ConfigError(f"bbox_format must be one of {FORMATS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for key in ("min_marker_px", "cap"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value < math.inf:
                raise ConfigError(f"{key} must be a finite number >= 0, not {value!r}")
        for chart_type, weight in self.type_mix.items():
            if not 0.0 <= weight < math.inf:
                raise ConfigError(f"type_mix weight of {chart_type!r} must be a finite number >= 0, not {weight!r}")
        for stage, p in self.fault_injection.items():
            if stage not in STAGES:
                raise ConfigError(f"unknown fault injection stage {stage!r}")
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"fault probability of {stage!r} must be a number in [0, 1], not {p!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        """A config document, each key optional; ConfigError naming a key's path."""
        return read_document(cls, obj, ConfigError, "config", partial=True)

    def to_json(self) -> dict:
        # Worker count affects scheduling only, never output bytes, so it is
        # not part of the persisted config.
        obj = dataclasses.asdict(self)
        del obj["workers"]
        return obj

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_json()).encode("utf-8")).hexdigest()[:16]
