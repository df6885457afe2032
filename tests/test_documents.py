"""One property over the four kinds of JSON document the package reads back:
a spec, a CoT, a config (with its client config) and a manifest chart entry.

A valid document is mutated once, at one place: a value of another JSON type,
null, an int no float can hold, NaN or an infinity, a list nested ~2000 deep,
an extra key or a missing key. Reading the result either gives a value that
writes back an equivalent document, or raises a ChartCotError whose message
names the mutated path. Any other exception fails the property.
"""

import functools
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chartcot.config import PipelineConfig
from chartcot.cot import cot_from_json, generate_cot_rule_based
from chartcot.errors import ChartCotError
from chartcot.pipeline import ChartOutcome, run
from chartcot.spec import generate_corpus, spec_from_json, spec_to_json

# Keys whose objects map free-form keys to values; the reader writes them as ['key'].
MAPS = {"type_mix", "fault_injection", "stages", "detections", "files"}
EXTRA = "extra_key"
SWAPS = (0, 1.5, "x", True, None, [], {})
DEFAULT_CONFIG = PipelineConfig().to_json()


def _deep(depth: int = 2000) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


def _config_written_back(doc):
    """The config document that a config read from ``doc`` writes: its
    missing keys, and those of its client, filled with their defaults."""
    if not isinstance(doc, dict):
        return doc
    doc = {**DEFAULT_CONFIG, **doc}
    if isinstance(doc["client"], dict):
        doc["client"] = {**DEFAULT_CONFIG["client"], **doc["client"]}
    return doc


def _cot_written_back(doc):
    """The CoT document that a CoT read from ``doc`` writes: an answer object
    that is no percent answer writes its bare value."""
    answer = doc["answer"]
    if isinstance(answer, dict) and not answer.get("percent", False):
        doc = {**doc, "answer": answer["value"]}
    return doc


@functools.cache
def _kinds() -> dict:
    """kind -> (reader, writer, expected written document, root, valid documents)."""
    specs = generate_corpus(5, 6, {"bar": 1.0, "line": 1.0, "pie": 1.0})
    charts = run(PipelineConfig(seed=2, n_charts=4, fault_injection={"detect": 0.4})).charts
    configs = [PipelineConfig(seed=3, cap=2.5, fault_injection={"render": 0.1}), PipelineConfig()]
    same = lambda doc: doc
    return {
        "spec": (spec_from_json, spec_to_json, same, "spec", [spec_to_json(s) for s in specs]),
        "cot": (cot_from_json, lambda c: c.to_json(), _cot_written_back, "cot",
                [generate_cot_rule_based(s, 5).to_json() for s in specs]),
        "config": (PipelineConfig.from_json, lambda c: c.to_json(), _config_written_back, "config",
                   [c.to_json() for c in configs]),
        "chart": (ChartOutcome.from_json, lambda c: c.to_json(), same, "chart", [c.to_json() for c in charts]),
    }


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _path_text(root: str, path: tuple) -> str:
    text = root
    for parent, key in zip((None,) + path, path):
        text += f"[{key!r}]" if isinstance(key, int) or parent in MAPS else f".{key}"
    return text


def _same(a, b) -> bool:
    """JSON equality where an int and a float of one value match and NaN matches NaN."""
    if isinstance(a, dict) or isinstance(b, dict):
        return isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(map(_same, a, b)))
    numbers = (int, float)
    if type(a) in numbers and type(b) in numbers:
        return a == b or a != a and b != b
    return type(a) is type(b) and a == b


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mutated_document_reads_back_or_names_the_mutated_path(data):
    kind = data.draw(st.sampled_from(sorted(_kinds())))
    doc = data.draw(st.sampled_from(_kinds()[kind][-1]))
    _mutate_and_read(data, kind, doc, list(_paths(doc)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_mutated_answer_object_reads_back_or_names_the_answer(data):
    # Answer.from_json reads an answer object, {value, percent}, as one value.
    # Its two paths are few among a CoT's, so they also get a property of their own.
    doc = data.draw(st.sampled_from([d for d in _kinds()["cot"][-1] if isinstance(d["answer"], dict)]))
    _mutate_and_read(data, "cot", doc, [p for p in _paths(doc) if p[:1] == ("answer",)])


def _mutate_and_read(data, kind: str, doc, paths: list) -> None:
    """Mutate a copy of ``doc`` once, at one of ``paths``, and read it back."""
    read, write, written_back, root, _ = _kinds()[kind]
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(paths))
    how = data.draw(st.sampled_from(["swap", "null", "huge", "nan", "deep", "extra", "missing"]))
    node = _at(doc, path)
    if how == "extra":
        assume(isinstance(node, dict))
        node[EXTRA] = "x"
        path += (EXTRA,)
    elif how == "missing":
        assume(path and isinstance(_at(doc, path[:-1]), dict))
        del _at(doc, path[:-1])[path[-1]]
    else:
        value = data.draw({
            "swap": st.sampled_from([v for v in SWAPS if type(v) is not type(node)]),
            "null": st.none(),
            "huge": st.sampled_from([10 ** 400, -10 ** 400]),
            "nan": st.sampled_from([float("nan"), float("inf"), -float("inf")]),
            "deep": st.builds(_deep),
        }[how])
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    try:
        value = read(doc)
    except ChartCotError as exc:
        message = str(exc)
        if message.startswith(root):
            # The reader names the mutated value or, in a list put in place of
            # a list, a value in it; a rule over a list (a detection's box)
            # names the list.
            parent = _path_text(root, path[:-1])
            assert message.startswith(_path_text(root, path)) or message.startswith(f"{parent} must be "), \
                (path, message)
        else:
            # A content rule names a key on the path.
            assert any(key in message for key in path if isinstance(key, str)), (path, message)
    else:
        assert _same(write(value), written_back(doc)), (path, write(value), doc)
