"""Chain-of-thought samples: schema, validation, and the rule-based generator.

Each step is either Grounding (locates a chart element and carries a target
reference) or Reasoning (deduces from what earlier steps grounded). Questions
stay close to datapoint lookup on purpose: per-datapoint grounding is the
training signal, not arithmetic depth.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .documents import read_document
from .errors import FormatError, IntegrityError
from .geometry import ElementRef
from .spec import ChartSpec
from .util import rng_for, round_half_up

KIND_GROUNDING = "Grounding"
KIND_REASONING = "Reasoning"
STEP_KINDS = (KIND_GROUNDING, KIND_REASONING)


def parse_number(text: str) -> Optional[float]:
    """``text`` read as a number, thousands commas dropped and blanks trimmed;
    None when it is not one."""
    try:
        return float(text.replace(",", "").strip())
    except ValueError:
        return None


@dataclass(frozen=True, slots=True)
class Answer:
    """Unit-free answer value; percent answers carry a flag instead of a sign."""

    value: Union[float, str]
    percent: bool = False

    JSON_SHAPE = "a number or text"

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, float)

    def to_json(self):
        if self.percent:
            return {"value": self.value, "percent": True}
        return self.value

    def to_text(self) -> str:
        if isinstance(self.value, float):
            if float(self.value).is_integer():
                return str(int(self.value))
            return f"{self.value:g}"
        return str(self.value)

    @classmethod
    def from_json(cls, obj) -> "Answer":
        """FormatError unless ``obj`` is a number, text, or {value, percent?}
        holding one and, if given, a boolean percent. A number must be finite,
        and so must text that reads as one ("NaN", "1e400"): Python's json
        reads NaN and Infinity, and a NaN or infinite gold answer would score
        every prediction wrong. Text ending in ``%`` sets the percent flag, as
        in a reply: "42%" reads as Answer("42", percent=True)."""
        if type(obj) is float and math.isfinite(obj):
            return cls(obj)  # the common case: a bare finite number
        if isinstance(obj, dict):
            if "value" not in obj or set(obj) - {"value", "percent"}:
                raise FormatError("answer object needs {value, percent?}")
            raw, percent = obj["value"], obj.get("percent", False)
            if type(percent) is not bool:
                raise FormatError(f"answer percent must be true or false, not {reprlib.repr(percent)}")
        else:
            raw, percent = obj, False
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise FormatError("answer must be a number or short text")
        if isinstance(raw, (int, float)):
            try:
                value = float(raw)
            except OverflowError:
                raise FormatError("answer is too large for a float") from None
            if not math.isfinite(value):
                raise FormatError(f"answer must be a finite number, not {raw!r}")
            return cls(value, percent)
        text = raw
        if text.rstrip().endswith("%"):
            text, percent = text.rstrip()[:-1].rstrip(), True
        number = parse_number(text)
        if number is not None and not math.isfinite(number):
            raise FormatError(f"answer must be a finite number, not {raw!r}")
        return cls(text, percent)


@dataclass(frozen=True)
class Step:
    index: int
    kind: str
    text: str
    target: Optional[ElementRef] = None

    def to_json(self) -> dict:
        out = {"index": self.index, "kind": self.kind, "text": self.text}
        if self.target is not None:
            out["target"] = self.target.to_json()
        return out


@dataclass(frozen=True)
class CotSample:
    chart_id: str
    question: str
    answer: Answer
    steps: tuple[Step, ...]

    def grounding_steps(self) -> list[Step]:
        return [s for s in self.steps if s.kind == KIND_GROUNDING]

    def to_json(self) -> dict:
        return {
            "chart_id": self.chart_id,
            "question": self.question,
            "answer": self.answer.to_json(),
            "steps": [s.to_json() for s in self.steps],
        }

    def to_text(self) -> str:
        return json.dumps(self.to_json(), ensure_ascii=False, sort_keys=True)


def _check_steps(steps: tuple[Step, ...]) -> None:
    if not steps:
        raise IntegrityError("steps must be non-empty")
    for pos, step in enumerate(steps):
        if step.index != pos:
            raise IntegrityError(f"non-contiguous step index (expected {pos}, got {step.index})")
        if step.kind not in STEP_KINDS:
            raise IntegrityError(f"unknown step kind {step.kind!r}")
        if not step.text:
            raise IntegrityError(f"step {pos} has empty text")
        if step.kind == KIND_GROUNDING and step.target is None:
            raise IntegrityError(f"Grounding step {pos} is missing its target")
        if step.kind == KIND_REASONING and step.target is not None:
            raise IntegrityError(f"Reasoning step {pos} must not carry a target")


def check_sample(sample: CotSample) -> CotSample:
    _check_steps(sample.steps)
    if not sample.question:
        raise IntegrityError("question must be non-empty")
    return sample


def validate_cot(document: str) -> CotSample:
    """Parse and validate a CoT document: FormatError for JSON that does not
    decode, see ``cot_from_json`` for the rest."""
    try:
        obj = json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return cot_from_json(obj)


def cot_from_json(obj: object) -> CotSample:
    """Build and validate a CotSample from a decoded document: FormatError for
    an unknown or missing key or a value of the wrong type; IntegrityError for
    bad step kinds, missing targets, index gaps, or a target naming no element."""
    try:
        sample = read_document(CotSample, obj, FormatError, "cot", partial=True)
    except ValueError as exc:  # ElementRef's rules
        raise IntegrityError(f"bad step target: {exc}") from None
    return check_sample(sample)


# ---------------------------------------------------------------------------
# Rule-based generation

_POINT_STEP = {
    "bar": "Locate the top of the {series} bar at {category}.",
    "line": "Locate the {series} point at {category}.",
    "pie": "Locate the {category} wedge in the pie.",
}


def generate_cot_rule_based(spec: ChartSpec, seed: int) -> CotSample:
    """Deterministic CoT for a valid spec; its answer is ``recompute_true_answer``'s.

    Step template: legend entry (multi-series only) -> x tick -> datapoint,
    then one or two reasoning steps. Totals land in [3, 5].
    """
    rng = rng_for(seed, "cot", spec.id)
    series = spec.series[rng.randrange(len(spec.series))]
    steps: list[Step] = []
    extra_reason: str | None = None

    if spec.chart_type == "pie":
        category = spec.x_labels[rng.randrange(len(spec.x_labels))]
        question = f"What percentage share does {category} hold in the pie chart?"
        final_reason = "Divide the wedge value by the total and convert it to a percentage."
    else:
        qtype = rng.choices(("point", "max", "min"), weights=(3, 1, 1))[0]
        if qtype == "point":
            category = spec.x_labels[rng.randrange(len(spec.x_labels))]
            if len(spec.series) > 1:
                question = f"What is the value of {series.name} at {category}?"
            else:
                question = f"What is the value at {category}?"
            final_reason = "Read the value from the bar height against the y-axis." \
                if spec.chart_type == "bar" else "Read the value of the point against the y-axis."
        else:
            pick = max if qtype == "max" else min
            value = pick(series.values)
            category = spec.x_labels[series.values.index(value)]
            word = "highest" if qtype == "max" else "lowest"
            if len(spec.series) > 1:
                question = f"What is the {word} value in the {series.name} series?"
            else:
                question = f"What is the {word} value in the chart?"
            extra_reason = f"Compare the {series.name} values across all categories."
            final_reason = f"The {word} value occurs at {category}; read it off the y-axis."

    if spec.legend and len(spec.series) > 1:
        steps.append(Step(0, KIND_GROUNDING, f"Locate the legend entry for {series.name}.",
                          ElementRef("legend_entry", series=series.name)))
    tick_text = (
        f"Find the {category} entry in the category key."
        if spec.chart_type == "pie"
        else f"Find the {category} label on the x-axis."
    )
    steps.append(Step(len(steps), KIND_GROUNDING, tick_text, ElementRef("x_tick", category=category)))
    steps.append(Step(
        len(steps), KIND_GROUNDING,
        _POINT_STEP[spec.chart_type].format(series=series.name, category=category),
        ElementRef("datapoint", series=series.name, category=category),
    ))
    if extra_reason is not None:
        steps.append(Step(len(steps), KIND_REASONING, extra_reason))
    steps.append(Step(len(steps), KIND_REASONING, final_reason))

    answer = recompute_true_answer(spec, steps)
    return check_sample(CotSample(chart_id=spec.id, question=question, answer=answer, steps=tuple(steps)))


def generate_cot_llm(spec: ChartSpec, client) -> CotSample:
    """Ask the teacher client for a CoT sample over the spec document.

    The reply is validated like any untrusted document; one retry on a
    malformed reply, then the failure propagates and the sample is discarded
    by the stage gate.
    """
    from . import prompts
    from .spec import serialize_spec

    messages = prompts.cot_generation_messages(serialize_spec(spec))
    last: Exception | None = None
    for _ in range(2):
        reply = client.chat(messages)
        try:
            sample = validate_cot(reply)
            if sample.chart_id != spec.id:
                raise IntegrityError(
                    f"reply chart_id {sample.chart_id!r} does not match {spec.id!r}"
                )
            return sample
        except (FormatError, IntegrityError) as exc:
            last = exc
    assert last is not None
    raise last


def recompute_true_answer(spec: ChartSpec, steps: Sequence[Step]) -> Optional[Answer]:
    """The true answer to a CoT with these steps, read from spec data at the
    last grounded datapoint: its value, or on a pie its percentage share.

    Returns None when the steps ground no datapoint.
    """
    point = None
    for step in steps:
        if step.target is not None and step.target.role == "datapoint":
            point = step.target
    if point is None:
        return None
    for s in spec.series:
        if s.name == point.series and point.category in spec.x_labels:
            value = s.values[spec.x_labels.index(point.category)]
            if spec.chart_type == "pie":
                share = value / sum(s.values) * 100.0
                return Answer(value=round_half_up(share, 1), percent=True)
            return Answer(value=float(value))
    return None

