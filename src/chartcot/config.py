"""The pipeline's stage names, run configuration and teacher client configuration.

Kept apart from ``pipeline`` and ``client`` so that loading a config, and
every command that touches no pixels, imports no numpy and no more of the
package than these documents need.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ConfigError
from .documents import read_document

STAGES = ("meta", "cot", "code", "render", "detect", "qa")

CHART_TYPES = ("bar", "line", "pie")

# Chart type shares of the target corpus (bar / line / pie).
DEFAULT_TYPE_MIX = {"bar": 0.571, "line": 0.336, "pie": 0.093}

# Bounding box number formats; ``bbox`` says what each letter writes.
BBOX_FORMATS = ("A", "B", "C")

PASS = "pass"


def type_mix_weights(type_mix: Mapping[str, float]) -> list[float]:
    """The weight of each of CHART_TYPES in ``type_mix``, in that order.

    ConfigError unless ``type_mix`` names only known chart types, each with a
    finite weight >= 0, and the weights have a finite sum > 0.
    """
    if not type_mix:
        raise ConfigError("type_mix must name at least one chart type")
    for chart_type, weight in type_mix.items():
        if chart_type not in CHART_TYPES:
            raise ConfigError(f"type_mix names unknown chart type {chart_type!r}; the types are {CHART_TYPES}")
        if not 0.0 <= weight < math.inf:
            raise ConfigError(f"type_mix weight of {chart_type!r} must be a finite number >= 0, not {weight!r}")
    weights = [float(type_mix.get(t, 0.0)) for t in CHART_TYPES]
    total = sum(weights)  # as largest_remainder sums them: two huge weights overflow to inf
    if not 0.0 < total < math.inf:
        raise ConfigError(f"type_mix weights must have a finite sum > 0, not {total!r}")
    return weights


@dataclass(frozen=True)
class ClientConfig:
    """How the teacher model is reached: the offline stub or an HTTP endpoint."""

    mode: str = "stub"
    endpoint: str = ""
    model: str = "stub"
    temperature: float = 0.0
    max_retries: int = 2
    max_concurrency: int = 4
    timeout: float = 30.0
    backoff: float = 0.5
    stub_seed: int = 0
    stub_fault_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("stub", "http"):
            raise ConfigError(f"unknown client mode {self.mode!r}")
        if self.mode == "http" and not self.endpoint:
            raise ConfigError("http mode requires an endpoint")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        if not 0.0 <= self.backoff < math.inf:
            raise ConfigError(f"backoff must be a finite number >= 0, not {self.backoff!r}")
        if not 0.0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be a finite number > 0, not {self.timeout!r}")
        if not 0.0 <= self.stub_fault_rate <= 1.0:
            raise ConfigError(f"stub_fault_rate must be a number in [0, 1], not {self.stub_fault_rate!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "ClientConfig":
        return read_document(cls, obj, ConfigError, "client", partial=True)


@dataclass(frozen=True)
class PipelineConfig:
    """What a run builds: its seed, chart count and mix, bbox format, teacher client and workers."""

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
        if self.bbox_format not in BBOX_FORMATS:
            raise ConfigError(f"bbox_format must be one of {BBOX_FORMATS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for key in ("min_marker_px", "cap"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value < math.inf:
                raise ConfigError(f"{key} must be a finite number >= 0, not {value!r}")
        type_mix_weights(self.type_mix)
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
        import hashlib  # only hashing needs these; config loading does not
        from .util import canonical_json

        return hashlib.sha256(canonical_json(self.to_json()).encode("utf-8")).hexdigest()[:16]
