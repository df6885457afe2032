import json
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chartcot.cot import Answer
from chartcot.errors import ExtractionError, FormatError, MissingGoldError, ValidationError
from chartcot.evaluate import (
    GoldEntry,
    Prediction,
    evaluate,
    extract_answer,
    relaxed_match,
)

MARGINS = (0.05, 0.10, 0.20)


class TestExtract:
    def test_boxed_number(self):
        ans = extract_answer("First, we look at the bar... \\box{42}")
        assert ans == Answer(42.0)

    def test_last_box_wins(self):
        assert extract_answer("\\box{10} ... later \\box{12}") == Answer(12.0)

    def test_percent_fallback(self):
        # no box; the last numeric token is "37.5%"
        ans = extract_answer("The share is 37.5%")
        assert ans == Answer(37.5, percent=True)

    def test_thousands_separators(self):
        assert extract_answer("\\box{1,234}") == Answer(1234.0)

    def test_direct_mode_trims(self):
        assert extract_answer("  42.5\n", mode="direct") == Answer(42.5)

    def test_direct_mode_text(self):
        assert extract_answer("North", mode="direct") == Answer("North")

    def test_no_candidate(self):
        with pytest.raises(ExtractionError):
            extract_answer("no digits anywhere", mode="match")
        with pytest.raises(ExtractionError):
            extract_answer("", mode="direct")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            extract_answer("x", mode="fancy")

    def test_idempotent(self):
        for reply in ("\\box{42}", "\\box{37.5%}", "\\box{North}"):
            first = extract_answer(reply)
            suffix = "%" if first.percent else ""
            again = extract_answer(f"\\box{{{first.to_text()}{suffix}}}")
            assert again == first


class TestRelaxedMatch:
    def test_within_five_percent(self):
        # |100 - 104| / 104 = 0.03846
        assert relaxed_match(Answer(100.0), Answer(104.0), 0.05)

    def test_outside_three_percent(self):
        assert not relaxed_match(Answer(100.0), Answer(104.0), 0.03)

    def test_identity_at_zero_margin(self):
        assert relaxed_match(Answer(7.25), Answer(7.25), 0.0)

    def test_zero_gold_exact_only(self):
        assert relaxed_match(Answer(0.0), Answer(0.0), 0.05)
        assert not relaxed_match(Answer(0.001), Answer(0.0), 0.20)

    def test_text_rules(self):
        assert relaxed_match(Answer("north."), Answer("North"), 0.05)
        assert relaxed_match(Answer("the North"), Answer("North"), 0.05)
        assert not relaxed_match(Answer("South"), Answer("North"), 0.20)

    def test_numeric_text_mismatch_incorrect(self):
        assert not relaxed_match(Answer(42.0), Answer("North"), 0.20)
        assert not relaxed_match(Answer("forty-two"), Answer(42.0), 0.20)

    def test_numeric_string_coerced(self):
        assert relaxed_match(Answer("104"), Answer(100.0), 0.05)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValidationError):
            relaxed_match(Answer(1.0), Answer(1.0), -0.1)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_margin_that_is_not_finite_and_non_negative_rejected(self, margin):
        # NaN would score an exact answer wrong, inf any answer right.
        with pytest.raises(ValidationError, match=r"^margin must be a finite number >= 0, not "):
            relaxed_match(Answer(100.0), Answer(100.0), margin)
        with pytest.raises(ValidationError, match=r"^margin must be a finite number >= 0, not "):
            evaluate([Prediction("s", "\\box{100}")], [GoldEntry("s", Answer(100.0))], margins=(0.05, margin))


# ---------------------------------------------------------------------------
# Reference matcher: every answer parsed afresh on every call, with no float
# fast path and no cache.

def _reference_as_float(answer):
    if answer.is_numeric:
        return float(answer.value)
    try:
        return float(str(answer.value).replace(",", "").strip())
    except ValueError:
        return None


def _reference_norm_text(value):
    out = value.strip().lower().rstrip(".")
    return re.sub(r"^(the|a|an)\s+", "", out, flags=re.IGNORECASE).strip()


def _reference_match(pred, gt, margin):
    p, g = _reference_as_float(pred), _reference_as_float(gt)
    if p is not None and g is not None:
        if g == 0:
            return p == 0
        return abs(p - g) / abs(g) <= margin
    if p is None and g is None:
        return _reference_norm_text(str(pred.value)) == _reference_norm_text(str(gt.value))
    return False


_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_ints = st.integers(min_value=-10**6, max_value=10**6)
_values = st.one_of(
    _floats,
    st.sampled_from((0.0, -0.0, 1.0, 100.0, 1000.0, 42.0)),
    _ints,
    _ints.map(lambda v: f"{v:,}"),                       # "1,000"
    _floats.map(lambda v: f" {v:g} "),                   # " 42 "
    _floats.map(lambda v: f"{v:,.2f}"),
    st.sampled_from(("North", "north.", "the North", "An apple", "apple", "42", "1,000", " 42 ", "nan", "inf")),
    st.text(alphabet="0123456789,.-e% Northa", max_size=8),
)
_answers = st.builds(Answer, _values, st.booleans())


@settings(max_examples=500, deadline=None)
@given(pred=_answers, gold=_answers, margin=st.one_of(st.just(0.0), st.sampled_from(MARGINS),
                                                      st.floats(min_value=0.0, max_value=1.0)))
def test_relaxed_match_equals_reference(pred, gold, margin):
    assert relaxed_match(pred, gold, margin) == _reference_match(pred, gold, margin)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(
    _floats,
    st.sampled_from((repr, " {!r} ".format, "{:,}".format)),  # each prints a float that reads back exactly
    st.booleans(),
    st.one_of(_floats.map(lambda v: f"\\box{{{v:g}}}"), st.just("\\box{North}")),
), max_size=20))
def test_numeric_string_gold_scores_as_its_float(rows):
    # A gold answer written as a numeric string scores as the float it reads
    # as: the report must equal the one for the same gold written as a float.
    as_float = [GoldEntry(f"s{i}", Answer(v, pct)) for i, (v, _, pct, _) in enumerate(rows)]
    as_text = [GoldEntry(f"s{i}", Answer(show(v), pct)) for i, (v, show, pct, _) in enumerate(rows)]
    preds = [Prediction(f"s{i}", reply) for i, (*_, reply) in enumerate(rows)]
    assert evaluate(preds, as_text, margins=MARGINS) == evaluate(preds, as_float, margins=MARGINS)


@settings(max_examples=300, deadline=None)
@given(
    pred=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
    gold=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
    exp=st.integers(min_value=-3, max_value=6),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_scale_invariance(pred, gold, exp, sign):
    # A power-of-two factor scales every float64 step exactly as long as no
    # value falls into the subnormal range, so the relative error, and the
    # verdict even at the margin itself, cannot change. Any other factor
    # rounds, and flips pairs that sit exactly on the margin.
    k = sign * 2.0 ** exp
    assume(all(x == 0 or abs(x * k) >= sys.float_info.min for x in (pred, gold)))
    base = relaxed_match(Answer(pred), Answer(gold), 0.1)
    scaled = relaxed_match(Answer(pred * k), Answer(gold * k), 0.1)
    assert base == scaled


@settings(max_examples=300, deadline=None)
@given(
    pred=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    gold=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    m1=st.floats(min_value=0.0, max_value=0.5),
    m2=st.floats(min_value=0.0, max_value=0.5),
)
def test_margin_monotonicity(pred, gold, m1, m2):
    lo, hi = sorted((m1, m2))
    if relaxed_match(Answer(pred), Answer(gold), lo):
        assert relaxed_match(Answer(pred), Answer(gold), hi)


# ---------------------------------------------------------------------------
# 30-case fixture; verdict triples below are hand-computed at margins
# 0.05 / 0.10 / 0.20.

FIXTURE = [
    # (id, group, gold, reply, verdicts)
    ("h01", "human", 42.0, "steps... \\box{42}", (1, 1, 1)),          # exact
    ("h02", "human", 104.0, "\\box{100}", (1, 1, 1)),                 # 4/104 = .0385
    ("h03", "human", 104.0, "\\box{92}", (0, 0, 1)),                  # 12/104 = .1154
    ("h04", "human", 104.0, "\\box{82}", (0, 0, 0)),                  # 22/104 = .2115
    ("h05", "human", 100.0, "\\box{95}", (1, 1, 1)),                  # .05 inclusive
    ("h06", "human", 100.0, "\\box{94.9}", (0, 1, 1)),                # .051
    ("h07", "human", 100.0, "\\box{110}", (0, 1, 1)),                 # .10 inclusive
    ("h08", "human", 100.0, "\\box{120}", (0, 0, 1)),                 # .20 inclusive
    ("h09", "human", 100.0, "\\box{121}", (0, 0, 0)),                 # .21
    ("h10", "human", {"value": 37.5, "percent": True}, "The share is 37.5%", (1, 1, 1)),
    ("h11", "human", {"value": 37.5, "percent": True}, "\\box{38%}", (1, 1, 1)),   # .0133
    ("h12", "human", {"value": 37.5, "percent": True}, "\\box{34%}", (0, 1, 1)),   # .0933
    ("h13", "human", 1234.0, "\\box{1,234}", (1, 1, 1)),
    ("h14", "human", 1234.0, "about 1,200 units", (1, 1, 1)),         # 34/1234 = .0276
    ("h15", "human", 0.0, "\\box{0}", (1, 1, 1)),
    ("a01", "aug", 0.0, "\\box{0.001}", (0, 0, 0)),                   # zero gold: exact only
    ("a02", "aug", -52.0, "\\box{-50}", (1, 1, 1)),                   # 2/52 = .0385
    ("a03", "aug", -52.0, "\\box{50}", (0, 0, 0)),                    # 102/52
    ("a04", "aug", "North", "\\box{North}", (1, 1, 1)),
    ("a05", "aug", "North", "\\box{north.}", (1, 1, 1)),              # case + period
    ("a06", "aug", "North", "\\box{the North}", (1, 1, 1)),           # article
    ("a07", "aug", "North", "\\box{South}", (0, 0, 0)),
    ("a08", "aug", "North", "\\box{42}", (0, 0, 0)),                  # type mismatch
    ("a09", "aug", 42.0, "\\box{forty-two}", (0, 0, 0)),              # type mismatch
    ("a10", "aug", 42.0, "", (0, 0, 0)),                              # extraction failure
    ("a11", "aug", 42.0, "no digits anywhere at all", (0, 0, 0)),     # extraction failure
    ("a12", "aug", 500.0, "first \\box{450} then \\box{500}", (1, 1, 1)),
    ("a13", "aug", 500.0, "answer 450 ... final 475", (1, 1, 1)),     # 25/500 = .05
    ("a14", "aug", 2.5, "\\box{2.4}", (1, 1, 1)),                     # .04
    ("a15", "aug", 2.5, "\\box{2.2}", (0, 0, 1)),                     # .12
]

# hand tallies over the fixture above
EXPECTED_CORRECT = {
    "human": {0.05: 8, 0.10: 11, 0.20: 13},
    "aug": {0.05: 7, 0.10: 7, 0.20: 8},
}


def _fixture_io():
    gold = [GoldEntry(sample_id=c[0], answer=Answer.from_json(c[2]), group=c[1]) for c in FIXTURE]
    preds = [Prediction(sample_id=c[0], raw_text=c[3]) for c in FIXTURE]
    return preds, gold


class TestEvaluate:
    def test_thirty_case_fixture_exact(self):
        preds, gold = _fixture_io()
        report = evaluate(preds, gold, margins=MARGINS, mode="match")
        for group in ("human", "aug"):
            for margin in MARGINS:
                cell = report.cells[margin][group]
                assert cell["total"] == 15
                assert cell["correct"] == EXPECTED_CORRECT[group][margin], (group, margin)
        assert report.averages[0.05]["avg"] == pytest.approx(0.5)
        assert report.averages[0.05]["all"] == pytest.approx(0.5)
        assert report.averages[0.10]["all"] == pytest.approx(0.6)
        assert report.averages[0.20]["all"] == pytest.approx(0.7)
        assert report.extraction_failures == 2

    def test_per_case_verdicts(self):
        for sid, _, gold_raw, reply, verdicts in FIXTURE:
            gt = Answer.from_json(gold_raw)
            for margin, expected in zip(MARGINS, verdicts):
                try:
                    ans = extract_answer(reply, mode="match")
                    got = relaxed_match(ans, gt, margin)
                except ExtractionError:
                    got = False
                assert got == bool(expected), (sid, margin)

    def test_margin_monotone_on_fixture(self):
        preds, gold = _fixture_io()
        report = evaluate(preds, gold, margins=MARGINS)
        for group in report.groups:
            accs = [report.accuracy(m, group) for m in MARGINS]
            assert accs == sorted(accs)

    def test_unbalanced_groups_avg_vs_all(self):
        # groups of size 4 and 6 with 2 and 3 correct: Avg = mean(.5, .5) = .5
        # and ALL = 5/10 = .5
        gold, preds = [], []
        for i in range(4):
            gold.append(GoldEntry(f"g{i}", Answer(100.0), group="small"))
            preds.append(Prediction(f"g{i}", "\\box{100}" if i < 2 else "\\box{999}"))
        for i in range(6):
            gold.append(GoldEntry(f"b{i}", Answer(100.0), group="big"))
            preds.append(Prediction(f"b{i}", "\\box{100}" if i < 3 else "\\box{999}"))
        report = evaluate(preds, gold, margins=(0.05,))
        assert report.cells[0.05]["small"]["correct"] == 2
        assert report.cells[0.05]["big"]["correct"] == 3
        assert report.averages[0.05]["avg"] == pytest.approx(0.5)
        assert report.averages[0.05]["all"] == pytest.approx(0.5)

    def test_avg_differs_from_all_when_group_rates_differ(self):
        gold, preds = [], []
        for i in range(2):
            gold.append(GoldEntry(f"g{i}", Answer(100.0), group="small"))
            preds.append(Prediction(f"g{i}", "\\box{100}"))  # 2/2
        for i in range(8):
            gold.append(GoldEntry(f"b{i}", Answer(100.0), group="big"))
            preds.append(Prediction(f"b{i}", "\\box{100}" if i < 2 else "\\box{999}"))  # 2/8
        report = evaluate(preds, gold, margins=(0.05,))
        assert report.averages[0.05]["avg"] == pytest.approx((1.0 + 0.25) / 2)
        assert report.averages[0.05]["all"] == pytest.approx(0.4)

    def test_all_correct(self):
        gold = [GoldEntry(f"s{i}", Answer(10.0), group="g") for i in range(5)]
        preds = [Prediction(f"s{i}", "\\box{10}") for i in range(5)]
        report = evaluate(preds, gold, margins=MARGINS)
        for m in MARGINS:
            assert report.accuracy(m, "g") == 1.0

    def test_missing_gold(self):
        with pytest.raises(MissingGoldError):
            evaluate([Prediction("x", "\\box{1}")], [], margins=(0.05,))

    def test_duplicate_prediction(self):
        gold = [GoldEntry("x", Answer(1.0))]
        preds = [Prediction("x", "\\box{1}"), Prediction("x", "\\box{2}")]
        with pytest.raises(ValidationError, match="duplicate"):
            evaluate(preds, gold, margins=(0.05,))

    def test_duplicate_gold(self):
        # The second entry would silently replace the first and score \box{10} wrong.
        gold = [GoldEntry("a", Answer(10.0)), GoldEntry("a", Answer(99.0))]
        with pytest.raises(ValidationError, match=r"^duplicate gold entry for sample 'a'$"):
            evaluate([Prediction("a", "\\box{10}")], gold, margins=(0.05,))

    @pytest.mark.parametrize("options, message", [
        ({"mode": "fancy"}, r"^unknown extraction mode 'fancy'$"),
        ({"group_by": "chart"}, r"^unknown group_by 'chart'; expected one of group, none$"),
    ])
    def test_unknown_mode_or_group_by_rejected_before_any_prediction(self, options, message):
        # No prediction at all still fails, and none is read first.
        def unread():
            raise AssertionError("a prediction was read")
            yield
        with pytest.raises(ValidationError, match=message):
            evaluate([], [], margins=MARGINS, **options)
        with pytest.raises(ValidationError, match=message):
            evaluate(unread(), [GoldEntry("s", Answer(1.0))], margins=MARGINS, **options)

    def test_no_margins(self):
        with pytest.raises(ValidationError, match=r"^no margin to score at$"):
            evaluate([Prediction("s", "\\box{100}")], [GoldEntry("s", Answer(100.0))], margins=())

    def test_group_by_none_pools(self):
        preds, gold = _fixture_io()
        report = evaluate(preds, gold, margins=(0.05,), group_by="none")
        assert report.groups == ["all"]
        assert report.cells[0.05]["all"]["total"] == 30

    def test_report_serializes(self):
        preds, gold = _fixture_io()
        report = evaluate(preds, gold, margins=MARGINS)
        blob = json.dumps(report.to_json())
        assert "0.05" in blob
        table = report.to_table()
        assert "human" in table and "Avg." in table and "ALL" in table


class TestGoldAnswer:
    @pytest.mark.parametrize("obj", [float("nan"), float("inf"), -float("inf"), {"value": float("nan")},
                                     {"value": float("inf"), "percent": True}, 10**400,
                                     "NaN", "inf", " -Infinity ", "1e400", {"value": "1,000e400"}])
    def test_non_finite_number_rejected(self, obj):
        with pytest.raises(FormatError, match=r"^answer "):
            Answer.from_json(obj)

    @pytest.mark.parametrize("obj, want", [
        (12.5, Answer(12.5)), (3, Answer(3.0)), ("North", Answer("North")), ("Nancy", Answer("Nancy")),
        ("1,000", Answer("1,000")),
        ({"value": 37.5, "percent": True}, Answer(37.5, percent=True)),
    ])
    def test_finite_numbers_and_text_read(self, obj, want):
        got = Answer.from_json(obj)
        assert got == want and type(got.value) is type(want.value)

    def test_records_from_json(self):
        gold = GoldEntry.from_json({"sample_id": 7, "answer": 1.5, "group": "bar"})
        assert gold == GoldEntry("7", Answer(1.5), "bar")
        assert Prediction.from_json({"sample_id": "s", "raw_text": 42}) == Prediction("s", "42")

    @pytest.mark.parametrize("group", [["x"], 3, 2.5, True, {"name": "x"}])
    def test_group_that_is_not_a_string_rejected(self, group):
        for record in ({"sample_id": "s", "answer": 1.0, "group": group},
                       {"sample_id": "s", "raw_text": "1", "group": group}):
            parse = GoldEntry.from_json if "answer" in record else Prediction.from_json
            with pytest.raises(FormatError, match=rf"^group must be a string, not {re.escape(repr(group))}$"):
                parse(record)

    def test_group_names_are_shared_up_to_the_cap(self, monkeypatch):
        module = sys.modules["chartcot.evaluate"]  # the package attribute is the function
        monkeypatch.setattr(module, "_GROUPS", {})
        monkeypatch.setattr(module, "_MAX_GROUPS", 2)
        # Built strings, so that equal names are distinct objects as json gives them.
        a, b, c = ("".join(["gro", "up", str(i)]) for i in (1, 2, 3))
        first = [GoldEntry.from_json({"sample_id": "s", "answer": 1.0, "group": name}).group for name in (a, b, c)]
        again = [Prediction.from_json({"sample_id": "s", "raw_text": "1", "group": "".join(name)}).group
                 for name in (a, b, c)]
        assert first == again == [a, b, c]
        assert again[0] is a and again[1] is b
        assert again[2] is not c  # past the cap a name is kept as read
        assert Prediction.from_json({"sample_id": "s", "raw_text": "1", "group": None}).group is None
