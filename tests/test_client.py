import json
import pathlib
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from chartcot import prompts
from chartcot.client import ClientConfig, LlmClient
from chartcot.cot import Answer, generate_cot_rule_based, validate_cot
from chartcot.errors import ClientError, ConfigError
from chartcot.pipeline import PipelineConfig, run
from chartcot.spec import generate_corpus, parse_spec, serialize_spec


class _Recorder:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.headers = []
        self.script = []          # queued status codes; empty -> 200
        self.faults = []          # queued transport faults (see _FAULT_BODIES, "drop", "short")
        self.fault_for = lambda messages: None  # fault for a request once the queue is empty
        self.reply = "stub reply"  # None: answer as the stub client would
        self.delay = 0.0


# Bodies served with status 200 that are not a completion payload.
_FAULT_BODIES = {
    "garbage": b"<html>upstream error</html>",
    "binary": b"\xff\xfe{\x00",
    "no_text": b'{"choices": [{"message": {"content": null}}]}',
}


def _teacher_reply(messages: list) -> str:
    """The served teacher: the stub's reply to a CoT prompt, and to a review
    prompt the verdict of the stub's local review."""
    content = "\n".join(m["content"] for m in messages)
    if f"## task: {prompts.REVIEW_TEMPLATE_ID}\n" not in content:
        return LlmClient(ClientConfig()).chat(messages)
    spec_json, sample_json = re.findall(r"```json\n(.*?)\n```", content, re.DOTALL)
    verdict = LlmClient(ClientConfig()).review_qa(validate_cot(sample_json), parse_spec(spec_json))
    return "yes" if verdict else "no"


def _make_server(rec: _Recorder):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            messages = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["messages"]
            with rec.lock:
                rec.requests += 1
                rec.in_flight += 1
                rec.max_in_flight = max(rec.max_in_flight, rec.in_flight)
                rec.headers.append(dict(self.headers))
                status = rec.script.pop(0) if rec.script else 200
                fault = rec.faults.pop(0) if rec.faults else rec.fault_for(messages)
            left = False

            def leave():
                # A request stops counting as in flight just before the last
                # bytes of its reply go out: once the client holds the whole
                # reply it may release its gate and send the next request
                # before this handler thread runs again.
                nonlocal left
                if not left:
                    left = True
                    with rec.lock:
                        rec.in_flight -= 1

            try:
                if rec.delay:
                    time.sleep(rec.delay)
                if status != 200:
                    self.send_response(status)
                    leave()
                    self.end_headers()
                    return
                if fault == "drop":
                    return  # the connection closes without a response
                reply = rec.reply if rec.reply is not None else _teacher_reply(messages)
                body = _FAULT_BODIES.get(fault) or json.dumps(
                    {"choices": [{"message": {"content": reply}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                # "short" promises more bytes than it sends, then closes.
                self.send_header("Content-Length", str(len(body) + 100 * (fault == "short")))
                self.end_headers()
                leave()
                self.wfile.write(body)
            finally:
                leave()  # dropped: the connection closes after the handler returns

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture
def http_server():
    rec = _Recorder()
    server = _make_server(rec)
    yield rec, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def http_config(url: str, **overrides) -> ClientConfig:
    base = ClientConfig(mode="http", endpoint=url, max_retries=3, backoff=0.01, timeout=5.0)
    return replace(base, **overrides) if overrides else base


class TestConfig:
    def test_http_requires_endpoint(self):
        with pytest.raises(ConfigError):
            ClientConfig(mode="http")

    def test_negative_retries(self):
        with pytest.raises(ConfigError):
            ClientConfig(max_retries=-1)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ClientConfig(mode="grpc")

    def test_unknown_keys(self):
        with pytest.raises(ConfigError):
            ClientConfig.from_json({"mode": "stub", "api_key": "nope"})

    @pytest.mark.parametrize("key,value", [
        ("backoff", -1.0), ("backoff", float("nan")), ("backoff", float("inf")),
        ("timeout", -1.0), ("timeout", 0.0), ("timeout", float("nan")), ("timeout", float("inf")),
        ("stub_fault_rate", -0.5), ("stub_fault_rate", 1.5), ("stub_fault_rate", float("nan")),
    ])
    def test_bad_timing_or_fault_rate(self, key, value):
        # Before the check, a bad backoff or timeout raised a builtin
        # ValueError from time.sleep or the socket on the first retry.
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ClientConfig(mode="http", endpoint="http://127.0.0.1:9/v1", max_retries=1, **{key: value})

    def test_edge_timing_and_fault_rate_pass(self):
        ClientConfig(backoff=0, timeout=0.001, stub_fault_rate=0)
        ClientConfig(stub_fault_rate=1)


class TestStub:
    def test_deterministic_reply(self, bar_spec):
        config = ClientConfig(mode="stub", stub_seed=5)
        messages = prompts.cot_generation_messages(serialize_spec(bar_spec))
        assert LlmClient(config).chat(messages) == LlmClient(config).chat(messages)

    def test_unknown_prompt_rejected(self):
        with pytest.raises(ClientError):
            LlmClient(ClientConfig()).chat([{"role": "user", "content": "tell me a story"}])

    def test_empty_messages(self):
        with pytest.raises(ClientError):
            LlmClient(ClientConfig()).chat([])


class TestHttp:
    def test_retries_after_429(self, http_server):
        rec, url = http_server
        rec.script = [429, 429]
        rec.reply = "recovered"
        client = LlmClient(http_config(url))
        assert client.chat([{"role": "user", "content": "hi"}]) == "recovered"
        assert rec.requests == 3

    def test_persistent_500_exhausts_retries(self, http_server):
        rec, url = http_server
        rec.script = [500] * 10
        client = LlmClient(http_config(url, max_retries=2))
        with pytest.raises(ClientError, match="exhausted"):
            client.chat([{"role": "user", "content": "hi"}])
        assert rec.requests == 3  # initial try + 2 retries

    def test_non_retryable_4xx_fails_fast(self, http_server):
        rec, url = http_server
        rec.script = [404]
        client = LlmClient(http_config(url))
        with pytest.raises(ClientError, match="non-retryable"):
            client.chat([{"role": "user", "content": "hi"}])
        assert rec.requests == 1

    def test_api_key_header(self, http_server, monkeypatch):
        rec, url = http_server
        monkeypatch.setenv("CHARTPOINT_API_KEY", "sk-test-123")
        LlmClient(http_config(url)).chat([{"role": "user", "content": "hi"}])
        assert rec.headers[-1].get("Authorization") == "Bearer sk-test-123"

    def test_no_header_without_key(self, http_server, monkeypatch):
        rec, url = http_server
        monkeypatch.delenv("CHARTPOINT_API_KEY", raising=False)
        LlmClient(http_config(url)).chat([{"role": "user", "content": "hi"}])
        assert "Authorization" not in rec.headers[-1]

    def test_concurrency_bound(self, http_server):
        rec, url = http_server
        rec.delay = 0.05
        client = LlmClient(http_config(url, max_concurrency=2))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(
                lambda _: client.chat([{"role": "user", "content": "hi"}]),
                range(8),
            ))
        assert rec.requests == 8
        assert rec.max_in_flight <= 2

    def test_concurrency_bound_holds_across_forked_workers(self, http_server):
        # Forked workers share the client's gate: max_concurrency bounds the
        # whole run, not each worker process.
        rec, url = http_server
        rec.reply = None
        rec.delay = 0.05
        config = PipelineConfig(seed=8, n_charts=8, workers=4, client=http_config(url, max_concurrency=2))
        manifest = run(config)
        # Every chart makes one cot and one review request.
        assert rec.requests == 2 * 8
        assert all(c.passed("cot") for c in manifest.charts)
        assert rec.max_in_flight <= 2


class TestTransportFailures:
    @pytest.mark.parametrize("fault", sorted(_FAULT_BODIES))
    def test_undecodable_body_is_malformed_payload(self, http_server, fault):
        rec, url = http_server
        rec.faults = [fault]
        with pytest.raises(ClientError, match="^malformed completion payload: "):
            LlmClient(http_config(url)).chat([{"role": "user", "content": "hi"}])
        assert rec.requests == 1

    @pytest.mark.parametrize("fault", ["drop", "short"])
    def test_broken_connection_is_retried(self, http_server, fault):
        rec, url = http_server
        rec.faults = [fault, fault]
        rec.reply = "recovered"
        assert LlmClient(http_config(url)).chat([{"role": "user", "content": "hi"}]) == "recovered"
        assert rec.requests == 3

    @pytest.mark.parametrize("fault, error", [("drop", "RemoteDisconnected"), ("short", "IncompleteRead")])
    def test_persistent_broken_connection_exhausts_retries(self, http_server, fault, error):
        rec, url = http_server
        rec.faults = [fault] * 3
        with pytest.raises(ClientError, match=f"^exhausted 2 retries: {error}"):
            LlmClient(http_config(url, max_retries=2)).chat([{"role": "user", "content": "hi"}])
        assert rec.requests == 3

    def test_run_contains_faults_to_affected_charts(self, http_server):
        rec, url = http_server
        rec.reply = None
        stub_cfg = PipelineConfig(seed=8, n_charts=8, workers=2)
        ids = [spec.id for spec in generate_corpus(8, 8, stub_cfg.type_mix)]
        plan = {ids[1]: "garbage", ids[2]: "no_text", ids[3]: "drop", ids[4]: "short"}
        dropped_once, seen = ids[5], set()

        def fault_for(messages):
            content = "\n".join(m["content"] for m in messages)
            chart = json.loads(re.search(r"```json\n(.*?)\n```", content, re.DOTALL).group(1))["id"]
            if chart == dropped_once and chart not in seen:
                seen.add(chart)
                return "drop"
            return plan.get(chart)

        rec.fault_for = fault_for
        http_cfg = replace(stub_cfg, client=http_config(url, max_retries=1))
        manifest = run(http_cfg)  # must complete
        stubbed = {c.id: c.stages for c in run(stub_cfg).charts}
        for c in manifest.charts:
            if c.id in (ids[1], ids[2]):
                assert c.stages["cot"].startswith("fail:client: malformed completion payload: ")
            elif c.id == ids[3]:
                assert c.stages["cot"].startswith("fail:client: exhausted 1 retries: RemoteDisconnected")
            elif c.id == ids[4]:
                assert c.stages["cot"].startswith("fail:client: exhausted 1 retries: IncompleteRead")
            else:
                assert c.stages == stubbed[c.id]
        assert dropped_once in seen and stubbed[dropped_once]["qa"] == "pass"


class TestReview:
    def test_rule_based_sample_passes(self, multi_line_spec):
        sample = generate_cot_rule_based(multi_line_spec, seed=5)
        assert LlmClient(ClientConfig()).review_qa(sample, multi_line_spec)

    def test_perturbed_answer_fails(self, multi_line_spec):
        sample = generate_cot_rule_based(multi_line_spec, seed=5)
        wrong = replace(sample, answer=Answer(float(sample.answer.value) * 1.1))
        assert not LlmClient(ClientConfig()).review_qa(wrong, multi_line_spec)

    def test_within_two_percent_passes(self, multi_line_spec):
        sample = generate_cot_rule_based(multi_line_spec, seed=5)
        close = replace(sample, answer=Answer(float(sample.answer.value) * 1.019))
        assert LlmClient(ClientConfig()).review_qa(close, multi_line_spec)

    def test_percent_text_answer_passes(self, pie_spec):
        # A teacher may write a pie share as text with its sign: "45%".
        sample = generate_cot_rule_based(pie_spec, seed=5)
        doc = json.loads(sample.to_text())
        doc["answer"] = f"{sample.answer.to_text()}%"
        teacher = validate_cot(json.dumps(doc))
        assert teacher.answer == Answer(sample.answer.to_text(), percent=True)
        assert LlmClient(ClientConfig()).review_qa(teacher, pie_spec)
        assert teacher.answer.to_text() == sample.answer.to_text()

    def test_http_review_parses_verdict(self, http_server, bar_spec):
        rec, url = http_server
        sample = generate_cot_rule_based(bar_spec, seed=1)
        client = LlmClient(http_config(url))
        rec.reply = "yes"
        assert client.review_qa(sample, bar_spec)
        rec.reply = "no, the value is wrong"
        assert not client.review_qa(sample, bar_spec)

    def test_only_teacher_stages_import_the_client(self):
        # the client must stay confined to CoT generation and QA review
        import chartcot

        pkg = pathlib.Path(chartcot.__file__).parent
        for name in ("render", "layout", "marker", "bbox", "instruction", "evaluate"):
            source = (pkg / f"{name}.py").read_text(encoding="utf-8")
            assert "from .client" not in source and "import client" not in source, name

    def test_import_chartcot_loads_no_http_stack_or_sax(self):
        # The HTTP modules are imported when the http mode first sends a
        # request, and SVG text is escaped without xml.sax, so a cold start
        # pays for neither. Checked in a fresh interpreter: this one has them.
        import chartcot

        code = ("import sys, chartcot\n"
                "print(sorted(m for m in ('http.client', 'urllib.request', 'urllib.error', 'xml.sax')"
                " if m in sys.modules))\n")
        src = pathlib.Path(chartcot.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_injected_perturbation_rate(self):
        # perturb 3.83% of samples by +10%: the review gate must pass the
        # complement, 96.17% within +-1.5 points
        from chartcot.util import rng_for

        specs = generate_corpus(seed=31, n=2000, type_mix={"bar": 0.6, "line": 0.3, "pie": 0.1})
        client = LlmClient(ClientConfig())
        passed = 0
        for spec in specs:
            sample = generate_cot_rule_based(spec, seed=31)
            if rng_for(31, "perturb", spec.id).random() < 0.0383:
                sample = replace(sample, answer=Answer(float(sample.answer.value) * 1.1))
            if client.review_qa(sample, spec):
                passed += 1
        assert abs(passed / 20.0 - 96.17) <= 1.5
