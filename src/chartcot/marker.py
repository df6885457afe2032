"""Marker insertion and detection.

A grounding step is materialized by editing the chart spec: text elements get
the marker character appended; datapoints get an anchor that renders as a
cross in the reserved color; an edit is laid out from the vanilla layout. An
exact structural pass over an edit's vector document finds a text marker; a
connected component scan of marker-colored pixels in its raster finds a cross.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cot import KIND_GROUNDING, Step
from .errors import (
    AmbiguousError,
    CollisionError,
    NotFoundError,
    TargetError,
)
from .geometry import ElementRef, PixelBBox, glyph_bbox
from .layout import ChartLayout, chart_layout, mark_text
from .render import MARKER_COLOR, Bitmap, MarkerAnchor, unescape_text
from .spec import MARKER_CHAR, ChartSpec, Series

TEXT_ROLES = frozenset({"title", "legend_entry", "x_tick", "y_tick"})

# Minimum detection box edge at the reference canvas width.
MIN_MARKER_PX = 12
REFERENCE_CANVAS_W = 1000


def marker_min_size(canvas_w: int, base: float = MIN_MARKER_PX) -> float:
    return base * canvas_w / REFERENCE_CANVAS_W


@dataclass(frozen=True)
class DetectionResult:
    bbox: PixelBBox
    method: str  # "structural" | "raster"


@dataclass(frozen=True)
class EditedSpec:
    """A spec carrying exactly one marker for one grounding step."""

    spec: ChartSpec
    markers: tuple[MarkerAnchor, ...]
    step_index: int
    vanilla: ChartLayout = field(compare=False, repr=False)
    marked: Optional[ElementRef] = None

    @property
    def layout(self) -> ChartLayout:
        """The edit's layout, made from the vanilla layout when used (in detect)."""
        return mark_text(self.vanilla, self.spec, self.marked) if self.marked else self.vanilla


def _spec_text_fields(spec: ChartSpec) -> list[str]:
    return [spec.title, *[s.name for s in spec.series], *spec.x_labels]


def apply_marker(spec: ChartSpec, step: Step, full_layout: ChartLayout | None = None) -> EditedSpec:
    """Insert the marker for one grounding step; everything else is unchanged.

    The vanilla layout decides the target: a text it placed gets the marker
    character appended, a datapoint the cross on its anchor. TargetError for
    a y tick, whose text is derived from the data, for a cross that would not
    land on its datapoint, and for any other target."""
    if step.kind != KIND_GROUNDING or step.target is None:
        raise TargetError(f"step {step.index} is not a grounding step")
    if any(MARKER_CHAR in text for text in _spec_text_fields(spec)):
        raise CollisionError(f"spec text already contains {MARKER_CHAR!r}")
    target = step.target
    lay = full_layout if full_layout is not None else chart_layout(spec)

    if target.role == "y_tick":
        raise TargetError("y tick labels are derived values; target a spec text element")
    if target in lay.texts:
        # Appending the marker keeps the spec valid: no text held it, so texts stay unique.
        key = (target.role, target.series, target.category)
        edited = replace(
            spec,
            title=spec.title + MARKER_CHAR if key == ("title", None, None) else spec.title,
            series=tuple(Series(s.name + MARKER_CHAR, s.values) if key == ("legend_entry", s.name, None) else s
                         for s in spec.series),
            x_labels=tuple(x + MARKER_CHAR if key == ("x_tick", None, x) else x for x in spec.x_labels),
        )
        return EditedSpec(spec=edited, markers=(), step_index=step.index, vanilla=lay, marked=target)
    anchor = lay.anchors.get(target)
    if anchor is None:
        raise TargetError(f"{target} is not a text or datapoint of the chart")
    x, y = anchor
    # The painted cross's centre: its 9x9 block starts 4 px left of and above the rounded anchor.
    if not lay.geometry[target].contains(round(x) + 0.5, round(y) + 0.5):
        raise TargetError(f"the marker cross for {target} would lie outside it")
    return EditedSpec(spec=spec, markers=(anchor,), step_index=step.index, vanilla=lay)


def verify_marker(edited: EditedSpec) -> bool:
    """Pass iff exactly one marker exists across text and anchors."""
    count = sum(text.count(MARKER_CHAR) for text in _spec_text_fields(edited.spec))
    count += len(edited.markers)
    return count == 1


# ---------------------------------------------------------------------------
# Detection

_TEXT_NODE_RE = re.compile(
    r'<text x="([-0-9.]+)" y="([-0-9.]+)" font-size="(\d+)"[^>]*>([^<]*)</text>'
)


def structural_hits(vector_doc: str) -> list[PixelBBox]:
    """Marker glyph boxes computed from text nodes and the layout metric table.

    Only the text nodes holding a marker character are parsed: the scan jumps
    from each marker character back to the start of its node.
    """
    hits = []
    pos = vector_doc.find(MARKER_CHAR)
    while pos >= 0:
        node = _TEXT_NODE_RE.match(vector_doc, max(0, vector_doc.rfind("<text ", 0, pos)))
        if node is None or node.end() <= pos:
            pos = vector_doc.find(MARKER_CHAR, pos + 1)
            continue
        x, baseline, font_px = float(node.group(1)), float(node.group(2)), int(node.group(3))
        content = unescape_text(node.group(4))
        for idx, ch in enumerate(content):
            if ch == MARKER_CHAR:
                hits.append(glyph_bbox(x, baseline, idx, font_px))
        pos = vector_doc.find(MARKER_CHAR, node.end())
    return hits


def raster_components(bitmap: Bitmap) -> list[PixelBBox]:
    """Bounding boxes of 8-connected components of marker-colored pixels,
    ordered by (y0, x0)."""
    a = bitmap.array
    # Only rows holding a byte as low as the marker's lowest channel (0) can
    # hold a marker pixel, and few rows do. A contiguous per-row minimum finds
    # them ~10x faster than any strided per-pixel compare over the canvas.
    rows = np.flatnonzero(a.reshape(a.shape[0], -1).min(axis=1) <= min(MARKER_COLOR))
    sub = a[rows]
    mask = (sub[..., 1] == MARKER_COLOR[1]) & (sub[..., 0] == MARKER_COLOR[0]) & (sub[..., 2] == MARKER_COLOR[2])
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return []
    remaining = {(y, x) for y, x in zip(rows[ys].tolist(), xs.tolist())}
    boxes = []
    while remaining:
        seed_px = next(iter(remaining))
        stack = [seed_px]
        remaining.discard(seed_px)
        ys = [seed_px[0]]
        xs = [seed_px[1]]
        while stack:
            cy, cx = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nb = (cy + dy, cx + dx)
                    if nb in remaining:
                        remaining.discard(nb)
                        stack.append(nb)
                        ys.append(nb[0])
                        xs.append(nb[1])
        boxes.append(PixelBBox(min(xs), min(ys), max(xs) + 1, max(ys) + 1))
    boxes.sort(key=lambda b: (b.y0, b.x0))
    return boxes


def detect_markers(vector_doc: Optional[str], bitmap: Optional[Bitmap]) -> DetectionResult:
    """Sequential detection over what is given (None: nothing to scan): the
    exact structural pass over ``vector_doc`` decides alone when it finds one
    marker glyph, else the raster pass over ``bitmap``. NotFoundError when
    neither pass sees a marker, AmbiguousError when the deciding one sees more."""
    structural = structural_hits(vector_doc) if vector_doc is not None else []
    if len(structural) == 1:
        return DetectionResult(bbox=structural[0], method="structural")
    raster = raster_components(bitmap) if bitmap is not None else []
    if len(raster) == 1:
        return DetectionResult(bbox=raster[0], method="raster")
    if not structural and not raster:
        raise NotFoundError("no marker found by either pass")
    raise AmbiguousError(
        f"marker detection is ambiguous ({len(structural)} structural, {len(raster)} raster)"
    )


def finalize_bbox(raw: PixelBBox, canvas: tuple[int, int], min_w: float, min_h: float) -> PixelBBox:
    """Grow a detection box to the minimum size around its center, then shift
    it inside the canvas (size preserved; center preserved unless shifted)."""
    w, h = canvas
    cx, cy = raw.center
    bw = max(raw.width, min_w)
    bh = max(raw.height, min_h)
    x0, x1 = cx - bw / 2, cx + bw / 2
    y0, y1 = cy - bh / 2, cy + bh / 2
    if x0 < 0:
        x0, x1 = 0.0, min(bw, w)
    elif x1 > w:
        x0, x1 = max(0.0, w - bw), float(w)
    if y0 < 0:
        y0, y1 = 0.0, min(bh, h)
    elif y1 > h:
        y0, y1 = max(0.0, h - bh), float(h)
    return PixelBBox(x0, y0, x1, y1)
