"""Expand one annotated chart into the instruction record formats.

Per (chart, CoT, per-step boxes) triple:
  T1a      direct question -> answer
  T1b      question -> full reasoning text + answer (no box strings)
  T2       question + steps so far -> next grounding box
  T3       overlay image of boxes found so far -> following grounding box
           (only when two grounding steps are adjacent)
  T4_final question + full trace -> answer
Reasoning steps never become records of their own; they ride along inside
the prompts in step order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import prompts
from .bbox import NormBBox, denormalize, serialize
from .cot import KIND_GROUNDING, CotSample
from .errors import CoverageError
from .geometry import PixelBBox
from .spec import ChartSpec
from .util import rng_for


@dataclass(frozen=True)
class ImageRef:
    chart_id: str
    overlay_boxes: tuple[PixelBBox, ...] = ()
    overlay_upto: int = -1  # highest step index whose box is drawn

    @property
    def variant(self) -> str:
        return "overlay" if self.overlay_boxes else "vanilla"

    def file_name(self) -> str:
        if not self.overlay_boxes:
            return f"{self.chart_id}.ppm"
        return f"{self.chart_id}__ov{self.overlay_upto}.ppm"


@dataclass(frozen=True)
class InstructionSample:
    kind: str
    chart_id: str
    image: ImageRef
    prompt: tuple[str, ...]
    ground_truth: str
    step_index: int = -1  # grounding step a T2/T3 record supervises

    def sort_key(self) -> tuple:
        return (self.chart_id, self.kind, self.step_index)

    def to_record(self, image_file: str) -> dict:
        return {
            "kind": self.kind,
            "chart_id": self.chart_id,
            "image": {"variant": self.image.variant, "file": image_file},
            "prompt": list(self.prompt),
            "ground_truth": self.ground_truth,
        }


def _long_text(sample: CotSample) -> str:
    lines = [f"{i + 1}. {s.text}" for i, s in enumerate(sample.steps)]
    lines.append(f"Answer: {sample.answer.to_text()}")
    return "\n".join(lines)


def _per_step_budget(cap, pool_size: int, seed: int, chart_id: str) -> int:
    """Per-step records kept under a cap; fractional caps round stochastically
    so a corpus can hit a non-integer mean records/chart."""
    if cap is None:
        return pool_size
    budget = float(cap) - 3.0  # T1a, T1b, T4_final are always kept
    if budget <= 0:
        return 0
    whole = int(math.floor(budget))
    frac = budget - whole
    if frac > 0 and rng_for(seed, "cap", chart_id).random() < frac:
        whole += 1
    return min(whole, pool_size)


def build_instructions(
    spec: ChartSpec,
    sample: CotSample,
    boxes: dict[int, NormBBox],
    cap: float | None = None,
    seed: int = 0,
) -> list[InstructionSample]:
    """Emit the record set for one chart, sorted by (chart_id, kind, step index)."""
    grounding = [s for s in sample.steps if s.kind == KIND_GROUNDING]
    needed = {s.index for s in grounding}
    if set(boxes) != needed:
        raise CoverageError(
            f"boxes cover steps {sorted(boxes)} but grounding steps are {sorted(needed)}"
        )
    q = sample.question
    vanilla = ImageRef(chart_id=sample.chart_id)

    always = [
        InstructionSample("T1a", sample.chart_id, vanilla,
                          tuple(prompts.t1a_parts(q)), sample.answer.to_text()),
        InstructionSample("T1b", sample.chart_id, vanilla,
                          tuple(prompts.t1b_parts(q)), _long_text(sample)),
        InstructionSample("T4_final", sample.chart_id, vanilla,
                          tuple(prompts.t4_final_parts(q, [s.text for s in sample.steps])),
                          sample.answer.to_text()),
    ]

    per_step: list[InstructionSample] = []
    for step in grounding:
        prior = [s.text for s in sample.steps[: step.index]]
        per_step.append(InstructionSample(
            "T2", sample.chart_id, vanilla,
            tuple(prompts.t2_parts(q, prior)), serialize(boxes[step.index]),
            step_index=step.index,
        ))
    for g, g_next in zip(sample.steps, sample.steps[1:]):
        if g.kind == KIND_GROUNDING and g_next.kind == KIND_GROUNDING:
            drawn = tuple(
                denormalize(boxes[s.index], spec.canvas)
                for s in grounding
                if s.index <= g.index
            )
            image = ImageRef(chart_id=sample.chart_id, overlay_boxes=drawn, overlay_upto=g.index)
            prior = [s.text for s in sample.steps[: g.index + 1]]
            per_step.append(InstructionSample(
                "T3", sample.chart_id, image,
                tuple(prompts.t3_parts(q, prior)), serialize(boxes[g_next.index]),
                step_index=g_next.index,
            ))

    budget = _per_step_budget(cap, len(per_step), seed, sample.chart_id)
    if budget < len(per_step):
        rng = rng_for(seed, "cap-pick", sample.chart_id)
        keep = sorted(rng.sample(range(len(per_step)), budget))
        per_step = [per_step[i] for i in keep]

    return sorted(always + per_step, key=InstructionSample.sort_key)

