"""Byte-identity gate for ``chartcot eval``.

Pins sha256 digests of the ``eval_report.json`` bytes and of the printed
table for a seeded corpus generated here. The corpus mixes every reply form
(boxed, trailing-number fallback, comma thousands, percent, text, an empty
``\\box{}``, no number at all, a bare number), zero gold, numeric-string gold,
and gold without a group (the prediction's group is used, then ``"all"``).
It is scored in match mode by group, with ``--group-by none``, with
``--mode direct`` and with no predictions at all.
A faster scorer must reproduce these exactly. Re-record
(``python tests/test_eval_golden.py``) only for a deliberate output change
that is named as such.

A property test also holds ``evaluate()`` to a plain reference scorer kept
here: it rescans the scored predictions once per (margin, group) pair, the
way the report's numbers are defined. Last, a small corpus from the
benchmark's own eval generator must pass the benchmark's own report check;
both files are loaded by path and only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartcot.cli import main
from chartcot.cot import Answer
from chartcot.errors import ExtractionError
from chartcot.evaluate import EvalReport, GoldEntry, Prediction, evaluate, extract_answer, relaxed_match

GROUPS = ("bar", "line", "pie", "human", "augmented")
TEXT_ANSWERS = ("Germany", "France", "Q3", "Online Sales")
FORMS = ("boxed", "fallback", "thousands", "percent", "text", "empty_box", "no_number", "zero", "bare")

CASES = {
    "match-group": [],
    "match-none": ["--group-by", "none"],
    "direct-group": ["--mode", "direct"],
    "empty": [],
}

GOLDEN = {
    "direct-group": (
        "22d2e73e6712a26e0c13efb8ff9bed1f901519bf3ef5accc931ca94b9e1178ea",
        "8c7b6d89fd1df73e46ff7a6d0fd7fa25247eb3343e7409d6072f002c584b8110",
    ),
    "empty": (
        "9f606fb133d781c85efbd34287078190f97853748a9a55e8350cc8ed1e2f6186",
        "dc7c3b776f8c91aec4cd30c8d9d54a959bcf39ec30f171d8d151ade686ea34c2",
    ),
    "match-group": (
        "f07bd09b30a0a46bc9cbc665d53cd4fd58612a50d465ede7272b7603ce1aa217",
        "387943b8f398ed38833f22ec95699ad30fa292c2487457dd895788f4c33abec7",
    ),
    "match-none": (
        "f3d1c8e238c6703733bb021f93b5adf526a4f7e342e9fcc97a19eeef68eb606d",
        "b752c0aaa61419586c765d121b2ca1995a2befe29ad1a8e0b89ce91007666248",
    ),
}


def _corpus(seed: int, n: int) -> tuple[list[dict], list[dict]]:
    """(gold rows, prediction rows) with every reply form, in a seeded mix."""
    rng = random.Random(f"eval-golden-{seed}")
    gold_rows, pred_rows = [], []
    for i in range(n):
        sid = f"s{i:04d}"
        form = FORMS[i % len(FORMS)] if i < len(FORMS) else rng.choice(FORMS)
        value = round(rng.uniform(1.0, 1000.0), 1)
        printed = value * (1 + rng.uniform(-0.3, 0.3))
        gold = value
        if form == "boxed":
            reply = f"Step 1: compare the bars.\nAnswer: \\box{{{printed:.2f}}}"
        elif form == "fallback":
            reply = f"Reading it against the axis gives {printed:.2f}."
        elif form == "thousands":
            gold = value * 1000
            reply = f"\\box{{{printed * 1000:,.1f}}}"
        elif form == "percent":
            gold = {"value": value / 10, "percent": True}
            reply = f"The share is \\box{{{printed / 10:.1f}%}}"
        elif form == "text":
            gold = rng.choice(TEXT_ANSWERS)
            reply = f"\\box{{the {rng.choice(TEXT_ANSWERS).lower()}.}}"
        elif form == "empty_box":
            reply = "I am not sure. \\box{}"
        elif form == "no_number":
            reply = "The chart does not show that value."
        elif form == "zero":
            gold = 0.0
            reply = rng.choice(("\\box{0}", "\\box{0.001}", "about 0"))
        else:
            gold = str(value) if rng.random() < 0.3 else value
            reply = f"  {printed:.1f}\n"
        gold_row = {"sample_id": sid, "answer": gold}
        pred_row = {"sample_id": sid, "raw_text": reply}
        gold_group = rng.choice((*GROUPS, None))
        if gold_group is not None:
            gold_row["group"] = gold_group
        pred_group = rng.choice((*GROUPS, None))
        if pred_group is not None:
            pred_row["group"] = pred_group
        gold_rows.append(gold_row)
        pred_rows.append(pred_row)
    rng.shuffle(pred_rows)
    return gold_rows, pred_rows


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _run_case(name: str, tmp: Path) -> tuple[str, str]:
    """sha256 of the report bytes and of the printed table for one case."""
    gold_rows, pred_rows = _corpus(seed=10, n=0 if name == "empty" else 600)
    gold, pred = tmp / "gold.jsonl", tmp / "pred.jsonl"
    _write_jsonl(gold, gold_rows)
    _write_jsonl(pred, pred_rows)
    out = StringIO()
    with redirect_stdout(out):
        code = main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp), *CASES[name]])
    assert code == 0
    table, report_line = out.getvalue().rstrip("\n").rsplit("\n", 1)
    assert report_line == f"report: {tmp / 'eval_report.json'}"
    report = (tmp / "eval_report.json").read_bytes()
    return hashlib.sha256(report).hexdigest(), hashlib.sha256(table.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_eval(name, tmp_path):
    report_digest, table_digest = _run_case(name, tmp_path)
    want_report, want_table = GOLDEN[name]
    assert report_digest == want_report, f"{name}: eval_report.json bytes changed"
    assert table_digest == want_table, f"{name}: printed table changed"


# ---------------------------------------------------------------------------
# Reference scorer: every (margin, group) cell rescans the scored predictions.

def _reference(predictions, gold, margins, mode, group_by) -> EvalReport:
    gold_by_id = {entry.sample_id: entry for entry in gold}
    scored, failures = [], 0
    for pred in predictions:
        entry = gold_by_id[pred.sample_id]
        group = "all" if group_by == "none" else (entry.group or pred.group or "all")
        try:
            answer = extract_answer(pred.raw_text, mode=mode)
            verdicts = {m: relaxed_match(answer, entry.answer, m) for m in margins}
        except ExtractionError:
            failures += 1
            verdicts = {m: False for m in margins}
        scored.append((group, verdicts))
    groups = sorted({g for g, _ in scored})
    cells, averages = {}, {}
    for m in margins:
        per_group = {}
        for g in groups:
            totals = [v[m] for grp, v in scored if grp == g]
            correct = sum(totals)
            per_group[g] = {"correct": int(correct), "total": len(totals), "accuracy": correct / len(totals)}
        cells[m] = per_group
        all_verdicts = [v[m] for _, v in scored]
        averages[m] = {
            "avg": sum(per_group[g]["accuracy"] for g in groups) / len(groups) if groups else 0.0,
            "all": sum(all_verdicts) / len(all_verdicts) if all_verdicts else 0.0,
        }
    return EvalReport(
        margins=tuple(margins), groups=groups, cells=cells, averages=averages,
        n_predictions=len(scored), extraction_failures=failures,
    )


_numbers = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_subnormal=False)
_gold_answers = st.one_of(
    _numbers.map(Answer),
    st.sampled_from((0.0, 100.0, -52.0)).map(Answer),
    _numbers.map(lambda v: Answer(v, percent=True)),
    st.sampled_from(("North", "south.", "The East", "42")).map(Answer),
)
_replies = st.one_of(
    _numbers.map(lambda v: f"\\box{{{v:g}}}"),
    _numbers.map(lambda v: f"about {v:,.2f} units"),
    _numbers.map(lambda v: f"{v:.1f}%"),
    st.sampled_from(("\\box{north}", "\\box{}", "no digits here", "", "  100 ", "\\box{1,234}")),
    st.text(alphabet="0123456789.,%- \\box{}Nrth", max_size=16),
)
_groups = st.one_of(st.none(), st.sampled_from(("bar", "line", "pie", "human")))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_gold_answers, _replies, _groups, _groups), max_size=40),
    margins=st.lists(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.5)), min_size=1, max_size=4, unique=True),
    mode=st.sampled_from(("match", "direct")),
    group_by=st.sampled_from(("group", "none")),
)
def test_evaluate_equals_per_cell_rescan(rows, margins, mode, group_by):
    gold = [GoldEntry(f"s{i}", answer, group=g) for i, (answer, _, g, _) in enumerate(rows)]
    preds = [Prediction(f"s{i}", reply, group=g) for i, (_, reply, _, g) in enumerate(rows)]
    margins = tuple(margins)
    got = evaluate(preds, gold, margins=margins, mode=mode, group_by=group_by)
    want = _reference(preds, gold, margins, mode, group_by)
    assert got == want
    assert got.to_json() == want.to_json() and got.to_table() == want.to_table()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_eval_corpus_passes_its_check(tmp_path):
    # What the eval workload times, on a smaller corpus: chartcot eval over
    # the generator's inputs must reproduce the generator's own tally.
    evalgen, checks = _perfbench_module("evalgen"), _perfbench_module("checks")
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    expected = evalgen.write_inputs(7, 2000, gold, pred)
    with redirect_stdout(StringIO()):
        code = main(["eval", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path),
                     "--margins", ",".join(str(m) for m in evalgen.MARGINS)])
    assert code == 0
    assert checks.check_eval(tmp_path / "eval_report.json", expected) == []


if __name__ == "__main__":  # re-record: a deliberate, named output change only
    print("GOLDEN = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {_run_case(name, Path(tmp))!r},")
    print("}")
