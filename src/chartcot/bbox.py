"""Bounding box normalization and exact serialization.

Three ground-truth number formats:
  A - fractions of the canvas, 4 decimals
  B - fractions of the canvas, 3 decimals
  C - integers on a 0-999 grid (the default; tokenizer-friendly)
All rounding is half away from zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .config import BBOX_FORMATS
from .errors import ParseError
from .geometry import PixelBBox
from .util import round_half_up

DEFAULT_FORMAT = "C"

GRID_MAX = 999

_DECIMALS = {"A": 4, "B": 3}


@dataclass(frozen=True)
class NormBBox:
    format: str
    coords: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.format not in BBOX_FORMATS:
            raise ValueError(f"unknown bbox format {self.format!r}")
        lo, hi = (0, GRID_MAX) if self.format == "C" else (0.0, 1.0)
        for c in self.coords:
            if not (lo <= c <= hi):
                raise ValueError(f"coordinate {c} outside [{lo}, {hi}] for format {self.format}")
            if self.format == "C" and c != int(c):
                raise ValueError(f"format C coordinates must be integers, got {c}")


def _norm_coord(px: float, size: int, fmt: str) -> float:
    if fmt == "C":
        return float(round_half_up(px * GRID_MAX / size))
    return round_half_up(px / size, _DECIMALS[fmt])


def normalize(p: PixelBBox, canvas: tuple[int, int], fmt: str = DEFAULT_FORMAT) -> NormBBox:
    w, h = canvas
    return NormBBox(
        format=fmt,
        coords=(
            _norm_coord(p.x0, w, fmt),
            _norm_coord(p.y0, h, fmt),
            _norm_coord(p.x1, w, fmt),
            _norm_coord(p.y1, h, fmt),
        ),
    )


def denormalize(n: NormBBox, canvas: tuple[int, int]) -> PixelBBox:
    w, h = canvas
    if n.format == "C":
        sx, sy = w / GRID_MAX, h / GRID_MAX
    else:
        sx, sy = float(w), float(h)
    x0, y0, x1, y1 = n.coords
    # Quantization can collapse a thin box; keep the result a valid bbox.
    px0, py0, px1, py1 = x0 * sx, y0 * sy, x1 * sx, y1 * sy
    if px1 <= px0:
        px1 = px0 + 1e-6
    if py1 <= py0:
        py1 = py0 + 1e-6
    return PixelBBox(px0, py0, px1, py1)


def _coord_text(value: float, fmt: str) -> str:
    if fmt == "C":
        return str(int(value))
    return f"{value:.{_DECIMALS[fmt]}f}"


def serialize(n: NormBBox) -> str:
    x0, y0, x1, y1 = (_coord_text(c, n.format) for c in n.coords)
    return f"({x0},{y0}),({x1},{y1})"


_BOX_TEXT_RE = re.compile(
    r"^\((-?\d+(?:\.\d+)?),(-?\d+(?:\.\d+)?)\),\((-?\d+(?:\.\d+)?),(-?\d+(?:\.\d+)?)\)$"
)

# Any serialized box, for leak scans inside free text.
BOX_PATTERN = re.compile(r"\(\d+(?:\.\d+)?,\d+(?:\.\d+)?\),\(\d+(?:\.\d+)?,\d+(?:\.\d+)?\)")


def parse(text: str, fmt: str = DEFAULT_FORMAT) -> NormBBox:
    """The box that ``serialize`` wrote as ``text`` in format ``fmt``; ParseError
    for anything else, a coordinate with more decimals than ``fmt`` writes included."""
    if not isinstance(text, str):
        raise ParseError(f"a serialized bbox is a string, not {type(text).__name__}")
    m = _BOX_TEXT_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a serialized bbox: {text!r}")
    places = _DECIMALS.get(fmt)
    if places is not None and any(len(g.partition(".")[2]) > places for g in m.groups()):
        raise ParseError(f"format {fmt} writes at most {places} decimals: {text!r}")
    try:
        coords = tuple(float(g) for g in m.groups())
        return NormBBox(format=fmt, coords=coords)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
