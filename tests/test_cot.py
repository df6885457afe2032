import json
import re

import pytest

from chartcot.client import ClientConfig, LlmClient
from chartcot.cot import (
    Answer,
    generate_cot_llm,
    generate_cot_rule_based,
    recompute_true_answer,
    validate_cot,
)
from chartcot.errors import FormatError, IntegrityError
from chartcot.layout import layout
from chartcot.spec import generate_corpus
from chartcot.util import round_half_up

from conftest import make_spec

VALID_DOC = json.dumps({
    "chart_id": "t0001",
    "question": "What is the value of Alpha at Q2?",
    "answer": 20.0,
    "steps": [
        {"index": 0, "kind": "Grounding", "text": "Locate the legend entry for Alpha.",
         "target": {"role": "legend_entry", "series": "Alpha"}},
        {"index": 1, "kind": "Grounding", "text": "Find the Q2 label on the x-axis.",
         "target": {"role": "x_tick", "category": "Q2"}},
        {"index": 2, "kind": "Grounding", "text": "Locate the top of the Alpha bar at Q2.",
         "target": {"role": "datapoint", "series": "Alpha", "category": "Q2"}},
        {"index": 3, "kind": "Reasoning", "text": "Read the value from the y-axis."},
    ],
})


def doc_with(**overrides) -> str:
    obj = json.loads(VALID_DOC)
    obj.update(overrides)
    return json.dumps(obj)


class TestValidate:
    def test_valid_four_step_document(self):
        sample = validate_cot(VALID_DOC)
        assert len(sample.steps) == 4
        assert [s.kind for s in sample.steps] == ["Grounding"] * 3 + ["Reasoning"]
        assert sample.answer == Answer(20.0)

    def test_grounding_without_target(self):
        obj = json.loads(VALID_DOC)
        del obj["steps"][0]["target"]
        with pytest.raises(IntegrityError, match="missing its target"):
            validate_cot(json.dumps(obj))

    def test_non_contiguous_indices(self):
        obj = json.loads(VALID_DOC)
        obj["steps"][3]["index"] = 4
        with pytest.raises(IntegrityError, match="non-contiguous"):
            validate_cot(json.dumps(obj))

    def test_malformed_json(self):
        with pytest.raises(FormatError, match="not valid JSON"):
            validate_cot("{oops")

    def test_wrong_shape(self):
        with pytest.raises(FormatError):
            validate_cot('["a", "b"]')
        with pytest.raises(FormatError, match="steps must be a list"):
            validate_cot(doc_with(steps={"0": {}}))

    def test_missing_required_key(self):
        obj = json.loads(VALID_DOC)
        del obj["answer"]
        with pytest.raises(IntegrityError, match="answer"):
            validate_cot(json.dumps(obj))

    def test_unknown_step_kind(self):
        obj = json.loads(VALID_DOC)
        obj["steps"][3]["kind"] = "Thinking"
        with pytest.raises(IntegrityError, match="unknown step kind"):
            validate_cot(json.dumps(obj))

    def test_reasoning_with_target(self):
        obj = json.loads(VALID_DOC)
        obj["steps"][3]["target"] = {"role": "x_tick", "category": "Q2"}
        with pytest.raises(IntegrityError, match="must not carry a target"):
            validate_cot(json.dumps(obj))

    @pytest.mark.parametrize("target,message", [
        ("x_tick", "target must be an object, not 'x_tick'"),
        (5, "target must be an object, not 5"),
        ([1], "target must be an object, not [1]"),
        ({"role": ["x_tick"], "category": "Q2"}, "target role must be a string, not ['x_tick']"),
        ({"role": "datapoint", "series": ["Alpha"], "category": "Q2"}, "target series must be a string, not ['Alpha']"),
        ({"role": "x_tick", "category": {"Q2": 1}}, "target category must be a string, not {'Q2': 1}"),
    ])
    def test_target_must_be_an_object_of_strings(self, target, message):
        # Before the check, a target that is not an object raised
        # AttributeError, and a list series or category built an unhashable
        # ElementRef that raised TypeError once its edit was made.
        obj = json.loads(VALID_DOC)
        obj["steps"][1]["target"] = target
        with pytest.raises(IntegrityError, match=re.escape(f"bad step target: {message}")):
            validate_cot(json.dumps(obj))

    def test_empty_steps(self):
        with pytest.raises(IntegrityError, match="non-empty"):
            validate_cot(doc_with(steps=[]))

    def test_percent_answer_roundtrip(self):
        sample = validate_cot(doc_with(answer={"value": 37.5, "percent": True}))
        assert sample.answer == Answer(37.5, percent=True)
        assert validate_cot(sample.to_text()) == sample


class TestRuleBased:
    def test_single_series_bar_no_legend_step(self, bar_spec):
        sample = generate_cot_rule_based(bar_spec, seed=1)
        kinds = [s.kind for s in sample.steps]
        assert kinds.count("Grounding") == 2  # x tick + datapoint, no legend
        assert sample.steps[0].target.role == "x_tick"
        # answer always equals the value recomputed from the spec data
        point = sample.steps[1].target
        value = bar_spec.series[0].values[bar_spec.x_labels.index(point.category)]
        if "highest" in sample.question or "lowest" in sample.question:
            pick = max if "highest" in sample.question else min
            assert value == pick(bar_spec.series[0].values)
        assert sample.answer.value == pytest.approx(value)

    def test_multi_series_first_step_is_legend(self, multi_line_spec):
        sample = generate_cot_rule_based(multi_line_spec, seed=2)
        assert sample.steps[0].kind == "Grounding"
        assert sample.steps[0].target.role == "legend_entry"

    def test_pie_share_answer(self, pie_spec):
        sample = generate_cot_rule_based(pie_spec, seed=3)
        point = [s for s in sample.steps if s.target and s.target.role == "datapoint"][0]
        values = pie_spec.series[0].values
        value = values[pie_spec.x_labels.index(point.target.category)]
        expected = round_half_up(value / sum(values) * 100.0, 1)
        assert sample.answer.value == pytest.approx(expected)
        assert sample.answer.percent

    def test_deterministic(self, multi_line_spec):
        a = generate_cot_rule_based(multi_line_spec, seed=9)
        b = generate_cot_rule_based(multi_line_spec, seed=9)
        assert a == b and a.to_text() == b.to_text()

    def test_step_count_bounds_and_targets_resolve(self):
        specs = generate_corpus(seed=21, n=80, type_mix={"bar": 0.5, "line": 0.3, "pie": 0.2})
        for spec in specs:
            sample = generate_cot_rule_based(spec, seed=21)
            assert 3 <= len(sample.steps) <= 5
            assert sample.steps[-1].kind == "Reasoning"
            geo = layout(spec)
            for step in sample.grounding_steps():
                assert step.target in geo, f"dangling target {step.target}"

    def test_recompute_matches_answer(self):
        for spec in generate_corpus(seed=4, n=40, type_mix={"bar": 0.6, "line": 0.2, "pie": 0.2}):
            sample = generate_cot_rule_based(spec, seed=4)
            true = recompute_true_answer(spec, sample)
            assert true is not None
            assert true.value == pytest.approx(sample.answer.value)


class _ScriptedClient:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def chat(self, messages):
        self.calls += 1
        return self.replies.pop(0)


class TestLlmGeneration:
    def test_stub_round_trip(self, bar_spec):
        client = LlmClient(ClientConfig(mode="stub", stub_seed=5))
        sample = generate_cot_llm(bar_spec, client)
        assert sample.chart_id == bar_spec.id
        assert sample == generate_cot_llm(bar_spec, client)

    def test_malformed_twice_raises(self, bar_spec):
        client = _ScriptedClient(["{bad", "{worse"])
        with pytest.raises(FormatError):
            generate_cot_llm(bar_spec, client)
        assert client.calls == 2

    def test_retry_recovers(self, bar_spec):
        good = generate_cot_rule_based(bar_spec, seed=1).to_text()
        client = _ScriptedClient(["{bad", good])
        sample = generate_cot_llm(bar_spec, client)
        assert client.calls == 2
        assert sample.chart_id == bar_spec.id

    def test_chart_id_mismatch_rejected(self, bar_spec):
        wrong = generate_cot_rule_based(make_spec(id="zz999"), seed=1).to_text()
        client = _ScriptedClient([wrong, wrong])
        with pytest.raises(IntegrityError, match="chart_id"):
            generate_cot_llm(bar_spec, client)

    def test_injected_malformation_rate(self):
        # 3.83% of stub replies are truncated; the survival rate over 1000
        # charts must land on 96.17% within +-1.5 points.
        specs = generate_corpus(seed=9, n=1000, type_mix={"bar": 0.6, "line": 0.3, "pie": 0.1})
        client = LlmClient(ClientConfig(mode="stub", stub_seed=4, stub_fault_rate=0.0383))
        passed = 0
        for spec in specs:
            try:
                generate_cot_llm(spec, client)
                passed += 1
            except (FormatError, IntegrityError):
                pass
        assert abs(passed / 10.0 - 96.17) <= 1.5
