"""Versioned prompt assets.

Template ids are part of the wire contract: the stub client dispatches on
them, and bumping a template means bumping its id.
"""

from __future__ import annotations

PROMPT_VERSION = "v1"

COT_TEMPLATE_ID = f"chart-cot/{PROMPT_VERSION}"
REVIEW_TEMPLATE_ID = f"chart-review/{PROMPT_VERSION}"

_COT_SYSTEM = "You write chart-reading training data. Follow the task header exactly."

_COT_USER = """## task: {template_id}
Write one numeric question about the chart described below, answer it, and list the reading steps that lead to the answer.

Rules for the question:
- Ask about a concrete element: a datapoint value, a peak or minimum, or a wedge share.
- Do not ask summary or trend questions.
- Do not ask about styling details a reader cannot measure.

Rules for the steps:
- Tag every step either Grounding or Reasoning.
- A Grounding step locates one element (legend entry, axis label, datapoint) and names it in a "target" object.
- A Reasoning step draws a conclusion from earlier grounded information and carries no target.
- Index the steps 0, 1, 2, ... in order.

Reply with a single JSON object shaped like:
{{"chart_id": "...", "question": "...", "answer": 0, "steps": [{{"index": 0, "kind": "Grounding", "text": "...", "target": {{"role": "x_tick", "category": "..."}}}}]}}
Give the answer without units. Reply with JSON only, no surrounding prose.

## chart document
```json
{spec_json}
```"""

_REVIEW_USER = """## task: {template_id}
Check the question and answer below against the chart document. Reply with exactly "yes" when the answer is correct for the data, otherwise reply with exactly "no".

## chart document
```json
{spec_json}
```

## sample
```json
{sample_json}
```"""


def cot_generation_messages(spec_json: str) -> list[dict]:
    return [
        {"role": "system", "content": _COT_SYSTEM},
        {"role": "user", "content": _COT_USER.format(template_id=COT_TEMPLATE_ID, spec_json=spec_json)},
    ]


def review_messages(spec_json: str, sample_json: str) -> list[dict]:
    return [
        {
            "role": "user",
            "content": _REVIEW_USER.format(
                template_id=REVIEW_TEMPLATE_ID, spec_json=spec_json, sample_json=sample_json
            ),
        }
    ]


# ---------------------------------------------------------------------------
# Instruction record prompt parts

BBOX_FORMAT_HINT = "Give the bounding box of the next element to locate, formatted (x0,y0),(x1,y1)."


def _numbered(texts: list[str]) -> list[str]:
    return [f"{i + 1}. {t}" for i, t in enumerate(texts)]


def t1a_parts(question: str) -> list[str]:
    return [
        f"Question: {question}",
        "The chart carries no printed datapoint values; read them from the drawn elements.",
        "Answer with a single unit-free number or a short phrase.",
    ]


def t1b_parts(question: str) -> list[str]:
    return [
        f"Question: {question}",
        "Reason step by step, then give the final answer on its own line.",
    ]


def t2_parts(question: str, prior_steps: list[str]) -> list[str]:
    parts = [f"Question: {question}"]
    if prior_steps:
        parts.append("Steps so far:")
        parts.extend(_numbered(prior_steps))
    parts.append(BBOX_FORMAT_HINT)
    return parts


def t3_parts(question: str, prior_steps: list[str]) -> list[str]:
    parts = [
        f"Question: {question}",
        "The chart image shows the boxes already located for the earlier steps.",
    ]
    if prior_steps:
        parts.append("Steps so far:")
        parts.extend(_numbered(prior_steps))
    parts.append(BBOX_FORMAT_HINT)
    return parts


def t4_final_parts(question: str, all_steps: list[str]) -> list[str]:
    parts = [f"Question: {question}", "Steps:"]
    parts.extend(_numbered(all_steps))
    parts.append("Give the final answer as a single unit-free number or a short phrase.")
    return parts
