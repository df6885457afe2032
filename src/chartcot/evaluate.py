"""Relaxed-accuracy scoring for chart QA predictions.

A numeric prediction is correct at margin m when its relative error to the
gold value is at most m; text answers need lenient exact equality. Replies
are reduced to answers either by taking the last \\box{...} occurrence
(match mode) or the whole trimmed reply (direct mode).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .cot import Answer, parse_number
from .errors import ExtractionError, FormatError, MissingGoldError, ValidationError

DEFAULT_MARGINS = (0.05, 0.10, 0.20)
MODES = ("match", "direct")
GROUP_BY = ("group", "none")

_BOX_RE = re.compile(r"\\box\{([^{}]*)\}")
_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?%?")


def _token_to_answer(token: str) -> Answer:
    token = token.strip()
    percent = token.endswith("%")
    if percent:
        token = token[:-1].strip()
    cleaned = token.replace(",", "")
    try:
        return Answer(value=float(cleaned), percent=percent)
    except ValueError:
        return Answer(value=token, percent=False)


def extract_answer(raw_text: str, mode: str = "match") -> Answer:
    """Pull the final answer out of a model reply.

    match: content of the last \\box{...}; falls back to the last numeric
    token in the reply. direct: the whole reply, trimmed. Raises
    ExtractionError when no candidate exists (callers score it incorrect).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown extraction mode {mode!r}")
    text = raw_text.strip()
    if mode == "direct":
        if not text:
            raise ExtractionError("empty reply")
        return _token_to_answer(text)
    boxes = _BOX_RE.findall(raw_text)
    if boxes:
        content = boxes[-1].strip()
        if not content:
            raise ExtractionError("empty \\box{} content")
        return _token_to_answer(content)
    numbers = _NUMBER_RE.findall(raw_text)
    if not numbers:
        raise ExtractionError("no boxed answer and no numeric token")
    return _token_to_answer(numbers[-1])


def _as_float(answer: Answer) -> Optional[float]:
    value = answer.value
    if type(value) is float:
        return value  # the common case: no property lookup, no conversion
    if answer.is_numeric:
        return float(value)
    return parse_number(str(value))


_ARTICLE_RE = re.compile(r"^(the|a|an)\s+", re.IGNORECASE)


def _norm_text(value: str) -> str:
    out = value.strip().lower().rstrip(".")
    return _ARTICLE_RE.sub("", out).strip()


def check_margin(margin: float) -> None:
    """ValidationError unless ``margin`` is a finite number >= 0: a NaN margin
    would fail every numeric answer and an infinite one pass every one."""
    if not 0.0 <= margin < math.inf:
        raise ValidationError(f"margin must be a finite number >= 0, not {margin!r}")


def relaxed_match(pred: Answer, gt: Answer, margin: float) -> bool:
    """Correctness at one margin; text gold needs lenient exact equality."""
    check_margin(margin)
    p = _as_float(pred)
    g = _as_float(gt)
    if p is not None and g is not None:
        if g == 0:
            return p == 0
        return abs(p - g) / abs(g) <= margin
    if p is None and g is None:
        return _norm_text(str(pred.value)) == _norm_text(str(gt.value))
    return False  # a number against text


# ---------------------------------------------------------------------------
# Corpus evaluation

# The records are NamedTuples, not frozen dataclasses: an eval builds one per
# input line, and a NamedTuple is built in ~0.47 us against ~0.73 us. Like
# any tuple, one compares equal to a plain tuple of the same fields; nothing
# here compares records.


def _group(obj: dict) -> Optional[str]:
    """The record's group: None when missing or null, else its name,
    interned: a file names a handful of groups across tens of thousands of
    lines, and an interned name is freed once no record holds it. FormatError
    for a group that is not a string, which could neither be tallied nor
    sorted among the others."""
    group = obj.get("group")
    if group is None:
        return None
    if type(group) is not str:
        raise FormatError(f"group must be a string, not {group!r}")
    return sys.intern(group)


class Prediction(NamedTuple):
    sample_id: str
    raw_text: str
    group: Optional[str] = None

    @classmethod
    def from_json(cls, obj: dict) -> "Prediction":
        return cls(str(obj["sample_id"]), str(obj["raw_text"]), _group(obj))


class GoldEntry(NamedTuple):
    sample_id: str
    answer: Answer
    group: Optional[str] = None

    @classmethod
    def from_json(cls, obj: dict) -> "GoldEntry":
        return cls(str(obj["sample_id"]), Answer.from_json(obj["answer"]), _group(obj))


@dataclass
class EvalReport:
    margins: tuple
    groups: list
    cells: dict          # margin -> group -> {"correct", "total", "accuracy"}
    averages: dict       # margin -> {"avg": unweighted mean, "all": pooled}
    n_predictions: int
    extraction_failures: int

    def accuracy(self, margin: float, group: str) -> float:
        return self.cells[margin][group]["accuracy"]

    def to_json(self) -> dict:
        return {
            "margins": list(self.margins),
            "groups": list(self.groups),
            "cells": {str(m): self.cells[m] for m in self.margins},
            "averages": {str(m): self.averages[m] for m in self.margins},
            "n_predictions": self.n_predictions,
            "extraction_failures": self.extraction_failures,
        }

    def to_table(self) -> str:
        headers = ["margin", *self.groups, "Avg.", "ALL"]
        rows = []
        for m in self.margins:
            row = [f"@{m:g}"]
            for g in self.groups:
                row.append(f"{self.cells[m][g]['accuracy'] * 100:.2f}")
            row.append(f"{self.averages[m]['avg'] * 100:.2f}")
            row.append(f"{self.averages[m]['all'] * 100:.2f}")
            rows.append(row)
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def evaluate(
    predictions: Iterable[Prediction],
    gold: Iterable[GoldEntry],
    margins: tuple = DEFAULT_MARGINS,
    mode: str = "match",
    group_by: str = "group",
) -> EvalReport:
    """Score predictions against gold answers at each margin.

    "Avg." is the unweighted mean over group accuracies; "ALL" pools every
    sample. With group_by="none" all samples land in one group. ``mode`` and
    ``group_by`` are checked, and so is every margin (``check_margin``),
    before any prediction is read: ValidationError for an unknown value.
    There must be one margin at least, and no sample id twice among the gold
    or the predictions.

    One pass: each prediction is extracted once and matched once per margin,
    and its verdicts go into its group's tally, so the cost does not grow
    with the group count.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown extraction mode {mode!r}")
    if group_by not in GROUP_BY:
        raise ValidationError(f"unknown group_by {group_by!r}; expected one of {', '.join(GROUP_BY)}")
    margins = tuple(margins)
    if not margins:
        raise ValidationError("no margin to score at")
    for m in margins:
        check_margin(m)
    gold_by_id = {}
    for entry in gold:
        if entry.sample_id in gold_by_id:
            raise ValidationError(f"duplicate gold entry for sample {entry.sample_id!r}")
        gold_by_id[entry.sample_id] = entry
    seen: set[str] = set()
    tallies: dict[str, list[int]] = {}  # group -> [total, correct at margins[0], ...]
    failures = 0
    for pred in predictions:
        if pred.sample_id in seen:
            raise ValidationError(f"duplicate prediction for sample {pred.sample_id!r}")
        seen.add(pred.sample_id)
        entry = gold_by_id.get(pred.sample_id)
        if entry is None:
            raise MissingGoldError(f"no gold entry for sample {pred.sample_id!r}")
        group = "all"
        if group_by != "none":
            group = entry.group or pred.group or "all"
        tally = tallies.get(group)
        if tally is None:
            tally = tallies[group] = [0] * (len(margins) + 1)
        tally[0] += 1
        try:
            answer = extract_answer(pred.raw_text, mode=mode)
        except ExtractionError:
            failures += 1
            continue
        for k, m in enumerate(margins, 1):
            if relaxed_match(answer, entry.answer, m):
                tally[k] += 1

    groups = sorted(tallies)
    n_predictions = sum(tally[0] for tally in tallies.values())
    cells = {}
    averages = {}
    for k, m in enumerate(margins, 1):
        per_group = {}
        for g in groups:
            total, correct = tallies[g][0], tallies[g][k]
            per_group[g] = {"correct": correct, "total": total, "accuracy": correct / total}
        cells[m] = per_group
        averages[m] = {
            "avg": (
                sum(per_group[g]["accuracy"] for g in groups) / len(groups) if groups else 0.0
            ),
            "all": sum(tallies[g][k] for g in groups) / n_predictions if n_predictions else 0.0,
        }
    return EvalReport(
        margins=margins,
        groups=groups,
        cells=cells,
        averages=averages,
        n_predictions=n_predictions,
        extraction_failures=failures,
    )
