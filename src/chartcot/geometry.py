"""Pixel geometry primitives: bounding boxes, element references, glyph metrics.

The renderer draws text as fixed-advance glyph blocks, so every text extent is
computable from the metric constants here. Both the layout engine and the
structural marker detector rely on the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# Element roles a chart exposes for grounding.
ROLES = frozenset({"title", "legend_entry", "x_tick", "y_tick", "datapoint", "plot_area"})

# Fixed-advance "font": advance and ascent as fractions of the font size.
ADVANCE_RATIO = 0.6
ASCENT_RATIO = 0.8

TITLE_FONT_PX = 16
LABEL_FONT_PX = 12


def glyph_advance(font_px: int) -> int:
    return int(round(font_px * ADVANCE_RATIO))


def glyph_ascent(font_px: int) -> int:
    return int(round(font_px * ASCENT_RATIO))


def text_width(text: str, font_px: int) -> int:
    return len(text) * glyph_advance(font_px)


def text_pad(font_px: int) -> int:
    """Padding applied around stored text bboxes.

    Covers one appended marker glyph: its center lands at most half an
    advance beyond the original text extent.
    """
    return glyph_advance(font_px) // 2 + 1


@dataclass(frozen=True)
class PixelBBox:
    """Axis-aligned box in pixel space, origin top-left; x0 < x1, y0 < y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate bbox {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def intersects(self, other: "PixelBBox") -> bool:
        return not (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        )

    def expand(self, pad: float) -> "PixelBBox":
        return PixelBBox(self.x0 - pad, self.y0 - pad, self.x1 + pad, self.y1 + pad)

    def clamp(self, width: float, height: float) -> "PixelBBox":
        return PixelBBox(
            max(0.0, self.x0),
            max(0.0, self.y0),
            min(float(width), self.x1),
            min(float(height), self.y1),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)


def text_bbox(x_left: float, baseline: float, text: str, font_px: int) -> PixelBBox:
    """Extent of a rendered string: full advance slots, ascent above baseline."""
    asc = glyph_ascent(font_px)
    top = baseline - asc
    return PixelBBox(x_left, top, x_left + text_width(text, font_px), top + font_px)


def glyph_bbox(x_left: float, baseline: float, index: int, font_px: int) -> PixelBBox:
    """Extent of the glyph at `index` within a string laid out at (x_left, baseline)."""
    adv = glyph_advance(font_px)
    asc = glyph_ascent(font_px)
    top = baseline - asc
    return PixelBBox(x_left + index * adv, top, x_left + (index + 1) * adv, top + font_px)


@dataclass(frozen=True)
class ElementRef:
    """Identifies one visible chart element.

    datapoint needs series and category; legend_entry needs series;
    x_tick needs category.
    """

    role: str
    series: Optional[str] = None
    category: Optional[str] = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.role in ("datapoint", "legend_entry") and not self.series:
            raise ValueError(f"{self.role} requires a series name")
        if self.role in ("datapoint", "x_tick") and not self.category:
            raise ValueError(f"{self.role} requires a category name")

    def to_json(self) -> dict:
        out: dict = {"role": self.role}
        if self.series is not None:
            out["series"] = self.series
        if self.category is not None:
            out["category"] = self.category
        return out

    @classmethod
    def from_json(cls, obj) -> "ElementRef":
        """ValueError unless ``obj`` is an object whose role, series and
        category are strings or missing, and name an element."""
        if not isinstance(obj, dict):
            raise ValueError(f"target must be an object, not {obj!r}")
        for key in ("role", "series", "category"):
            if obj.get(key) is not None and not isinstance(obj[key], str):
                raise ValueError(f"target {key} must be a string, not {obj[key]!r}")
        return cls(obj.get("role", ""), obj.get("series"), obj.get("category"))


def nice_ticks(vmax: float, max_intervals: int = 6) -> tuple[float, list[float]]:
    """Pick a 1/2/5x10^k step so [0, vmax] splits into <= max_intervals steps.

    Returns (step, tick values including 0 and the top tick >= vmax).
    """
    if vmax <= 0:
        vmax = 1.0
    exp = math.floor(math.log10(vmax / max_intervals))
    # 10 ** (exp + 1) > vmax / max_intervals, so a step is found by k = exp + 1.
    steps = (base * 10.0 ** k for k in range(exp, exp + 2) for base in (1.0, 2.0, 5.0))
    step = next(s for s in steps if math.ceil(vmax / s) <= max_intervals)
    n = max(1, math.ceil(vmax / step - 1e-9))
    return step, [i * step for i in range(n + 1)]
