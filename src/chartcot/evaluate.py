"""Relaxed-accuracy scoring for chart QA predictions.

A numeric prediction is correct at margin m when its relative error to the
gold value is at most m; text answers need lenient exact equality. Replies
are reduced to answers either by taking the last \\box{...} occurrence
(match mode) or the whole trimmed reply (direct mode).
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

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
    if mode == "direct":
        text = raw_text.strip()
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


_ARTICLE_RE = re.compile(r"^(the|a|an)\s+", re.IGNORECASE)


@functools.lru_cache(maxsize=4096)
def _read_text(text: str) -> Union[float, str]:
    """An answer value that is not a float, by its text: the number it reads
    as, else the form texts are compared in (trimmed, lower-cased, a trailing
    period and a leading article dropped). The type tells the two apart.
    Cached by the text, since an eval's text answers repeat a handful of
    names and labels."""
    number = parse_number(text)
    if number is not None:
        return number
    out = text.strip().lower().rstrip(".")
    return _ARTICLE_RE.sub("", out).strip()


def check_margin(margin: float) -> None:
    """ValidationError unless ``margin`` is a finite number >= 0: a NaN margin
    would fail every numeric answer and an infinite one pass every one."""
    if not 0.0 <= margin < math.inf:
        raise ValidationError(f"margin must be a finite number >= 0, not {margin!r}")


def check_margins(margins: tuple) -> None:
    """ValidationError unless ``margins`` names one margin at least, each
    passes ``check_margin`` and none is given twice: a report holds one row
    per margin, keyed by it."""
    if not margins:
        raise ValidationError("no margin to score at")
    seen = set()
    for m in margins:
        check_margin(m)
        if m in seen:
            raise ValidationError(f"margin {m:g} is given twice")
        seen.add(m)


def relaxed_match(pred: Answer, gt: Answer, margin: Union[float, tuple]) -> Union[bool, list]:
    """Correctness at one margin, or with a tuple of margins a list of
    verdicts, one per margin in order. A number is correct when its relative
    error to the gold number is at most the margin; zero gold needs an exact
    zero, and text gold lenient exact equality (``_read_text``). The pair's
    error is computed once, whatever the margin count."""
    p, g = pred.value, gt.value
    if type(p) is not float:  # a float is read as it is, with no call
        p = _read_text(str(p))
    if type(g) is not float:
        g = _read_text(str(g))
    if type(p) is not type(g):
        err = math.inf  # a number against text
    elif type(g) is str or g == 0:
        err = 0.0 if p == g else math.inf
    else:
        err = abs(p - g) / abs(g)
    if not isinstance(margin, tuple):
        check_margin(margin)
        return err <= margin
    verdicts = []
    for m in margin:  # not a list comprehension, which in CPython 3.11 costs a frame a call
        check_margin(m)
        verdicts.append(err <= m)
    return verdicts


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
            row = [f"@{m}"]  # the margin's key in to_json, so two margins never share a label
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
    ``group_by`` are checked, and so are the margins (``check_margins``),
    before any prediction is read: ValidationError for an unknown value, a
    margin that is not a finite number >= 0, no margin or a margin given
    twice. No sample id may appear twice among the gold or the predictions.

    One pass: each prediction is extracted once and scored at every margin
    by one ``relaxed_match`` call, and its verdicts go into its group's
    tally, so the cost does not grow with the group count.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown extraction mode {mode!r}")
    if group_by not in GROUP_BY:
        raise ValidationError(f"unknown group_by {group_by!r}; expected one of {', '.join(GROUP_BY)}")
    margins = tuple(margins)
    check_margins(margins)
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
        for k, correct in enumerate(relaxed_match(answer, entry.answer, margins), 1):
            if correct:
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
