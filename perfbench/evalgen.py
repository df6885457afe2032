"""Seeded gold/prediction corpus for the eval workload, with its own tally.

Replies mix the forms real model output takes: boxed answers, unboxed
replies that need the trailing-number fallback, comma thousands, percents,
text answers, and unextractable replies (an empty ``\\box{}`` or no number at
all). Each numeric relative error is measured on the number as printed and
drawn clear of every margin edge, so the verdict at each margin is known here
without calling ``chartcot.evaluate``.

The proportions are an unverified assumption. Neither the paper's abstract
nor this repository reports how often each reply form occurs, and the stub
teacher writes JSON, not free-text replies. The same holds for the share of
correct text answers and the uniform pick among the error bands. The mix
decides which extraction path dominates eval throughput, so the benchmark
prints the per-form counts of every run next to its result.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

MARGINS = (0.05, 0.1, 0.2)
# Named input property: evaluate() rescans every scored prediction once per
# (margin, group) pair, so its cost grows with the group count.
GROUPS = ("bar", "line", "pie", "human", "augmented", "synthetic")
# Assumed weights of the reply forms (see the module docstring).
FORMS = (
    ("boxed", 40), ("fallback", 15), ("thousands", 15), ("percent", 10),
    ("text", 12), ("empty_box", 4), ("no_number", 4),
)
# Assumed: a numeric reply's relative error falls in each band equally often.
ERROR_BANDS = ((0.0, 0.045), (0.055, 0.095), (0.105, 0.195), (0.205, 0.6))
TEXT_CORRECT = 0.7  # assumed share of text answers that name the gold answer
CLEARANCE = 0.002  # minimum distance of a printed relative error from a margin
TEXT_ANSWERS = ("Germany", "France", "Retail", "Q3", "Q1", "Online Sales", "Solar", "Tuesday")
NO_NUMBER_REPLIES = (
    "The chart does not show that value.",
    "I cannot read the answer from this chart.",
)


def _numeric(rng: random.Random, form: str) -> tuple:
    """(gold JSON, reply text, relative error of the printed number)."""
    if form == "thousands":
        gold = round(rng.uniform(1000.0, 500000.0), 1)
    elif form == "percent":
        gold = round(rng.uniform(1.0, 99.0), 1)
    else:
        gold = round(rng.uniform(1.0, 1000.0), 1)
    while True:
        lo, hi = rng.choice(ERROR_BANDS)
        value = gold * (1 + rng.choice((-1, 1)) * rng.uniform(lo, hi))
        if form == "thousands":
            printed = f"{value:,.1f}"
        elif form == "percent":
            printed = f"{value:.1f}%"
        else:
            printed = f"{value:.2f}"
        err = abs(float(printed.replace(",", "").rstrip("%")) - gold) / gold
        if all(abs(err - m) >= CLEARANCE for m in MARGINS):
            break
    if form == "fallback":
        reply = f"Step 1: the 2019 bar is the tallest. Reading it against the axis gives {printed}."
    else:
        reply = f"Step 1: compare the bars for 2019.\nAnswer: \\box{{{printed}}}"
    gold_json = {"value": gold, "percent": True} if form == "percent" else gold
    return gold_json, reply, err


def generate(seed: int, n: int) -> tuple[list[dict], list[dict], dict]:
    """Return (gold rows, prediction rows, expected tally) for ``n`` predictions.
    The tally also holds the count of each reply form under ``forms``."""
    rng = random.Random(f"perfbench-eval-{seed}")
    forms = [f for f, _ in FORMS]
    weights = [w for _, w in FORMS]
    gold_rows, pred_rows, items, drawn = [], [], [], Counter()
    for i in range(n):
        sid = f"s{i:07d}"
        group = GROUPS[i % len(GROUPS)]
        form = rng.choices(forms, weights)[0]
        drawn[form] += 1
        if form == "text":
            gold = rng.choice(TEXT_ANSWERS)
            if rng.random() < TEXT_CORRECT:
                said = rng.choice((gold, gold.lower(), f"the {gold}", f"{gold}."))
                correct = True
            else:
                said = rng.choice([t for t in TEXT_ANSWERS if t != gold])
                correct = False
            reply = f"Step 1: find the largest wedge.\nAnswer: \\box{{{said}}}"
            verdicts, extractable = [correct] * len(MARGINS), True
        elif form in ("empty_box", "no_number"):
            gold = round(rng.uniform(1.0, 1000.0), 1)
            reply = "Answer: \\box{}" if form == "empty_box" else rng.choice(NO_NUMBER_REPLIES)
            verdicts, extractable = [False] * len(MARGINS), False
        else:
            gold, reply, err = _numeric(rng, form)
            verdicts, extractable = [err <= m for m in MARGINS], True
        gold_rows.append({"sample_id": sid, "answer": gold, "group": group})
        pred_rows.append({"sample_id": sid, "raw_text": reply})
        items.append((group, verdicts, extractable))
    return gold_rows, pred_rows, dict(tally(items), forms={f: drawn[f] for f in forms})


def tally(items: list[tuple]) -> dict:
    """Expected report counts from (group, per-margin verdicts, extractable)."""
    cells = {str(m): {} for m in MARGINS}
    failures = 0
    for group, verdicts, extractable in items:
        failures += not extractable
        for m, ok in zip(MARGINS, verdicts):
            cell = cells[str(m)].setdefault(group, {"correct": 0, "total": 0})
            cell["correct"] += ok
            cell["total"] += 1
    return {"n_predictions": len(items), "extraction_failures": failures, "cells": cells}


def write_inputs(seed: int, n: int, gold_path: Path, pred_path: Path) -> dict:
    """Write the gold and prediction JSONL files; return the expected tally."""
    gold_rows, pred_rows, expected = generate(seed, n)
    for path, rows in ((gold_path, gold_rows), (pred_path, pred_rows)):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return expected
