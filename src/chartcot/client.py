"""Teacher-model client: OpenAI-compatible chat completions plus a stub.

The stub is fully deterministic: it recognizes the prompt template id,
re-parses the chart document embedded in the prompt, and answers from the
data. Nothing outside the CoT/review stages ever touches a client.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

from . import prompts
from .config import ClientConfig  # re-exported: it lives with PipelineConfig, which holds one
from .cot import CotSample, generate_cot_rule_based, recompute_true_answer
from .errors import ClientError
from .evaluate import relaxed_match
from .spec import ChartSpec, parse_spec, serialize_spec
from .util import rng_for

API_KEY_ENV = "CHARTPOINT_API_KEY"

# Stub review tolerance: strictly tighter than the smallest evaluation margin,
# so reviewed data can never pass evaluation by accident.
REVIEW_REL_TOL = 0.02

_FENCE_RE = re.compile(r"```json\n(.*?)\n```", re.DOTALL)
_TASK_RE = re.compile(r"^## task: (\S+)$", re.MULTILINE)


class LlmClient:
    """Shareable across workers; a gate bounds in-flight requests.

    The gate is any context manager that holds a request slot while entered.
    The default, a semaphore, bounds the threads of one process. Workers
    forked from one client share its gate only if the gate lives outside
    their memory: the forked runner passes a pipe holding one token byte per
    slot, which entering reads and leaving writes back.
    """

    def __init__(self, config: ClientConfig, gate=None):
        self.config = config
        self._gate = gate if gate is not None else threading.BoundedSemaphore(config.max_concurrency)

    # -- chat ---------------------------------------------------------------

    def chat(self, messages: list[dict]) -> str:
        if not messages:
            raise ClientError("messages must be non-empty")
        with self._gate:
            if self.config.mode == "stub":
                return self._stub_reply(messages)
            return self._http_chat(messages)

    def _http_chat(self, messages: list[dict]) -> str:
        # Imported here, not at the top: only the http mode uses the HTTP
        # stack, and loading it would slow every start of the package.
        import http.client
        import urllib.error
        import urllib.request

        payload = json.dumps({
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error = "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff * 2 ** (attempt - 1))
            try:
                req = urllib.request.Request(self.config.endpoint, data=payload, headers=headers)
                with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                    raw = resp.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 429 or 500 <= exc.code < 600:
                    last_error = f"HTTP {exc.code}"
                    continue
                raise ClientError(f"non-retryable HTTP {exc.code}") from exc
            except urllib.error.URLError as exc:
                last_error = str(exc.reason)
                continue
            except TimeoutError:
                last_error = "timed out"
                continue
            except (ConnectionError, http.client.HTTPException) as exc:
                # A dropped connection (ConnectionResetError, RemoteDisconnected),
                # a short body (IncompleteRead) or a garbled status line.
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            return _completion_content(raw)
        raise ClientError(f"exhausted {self.config.max_retries} retries: {last_error}")

    # -- stub ---------------------------------------------------------------

    def _stub_reply(self, messages: list[dict]) -> str:
        content = "\n".join(str(m.get("content", "")) for m in messages)
        task = _TASK_RE.search(content)
        blocks = _FENCE_RE.findall(content)
        if not task or not blocks:
            raise ClientError("stub cannot interpret this prompt")
        template = task.group(1)
        if template == prompts.COT_TEMPLATE_ID:
            spec = parse_spec(blocks[0])
            fault = rng_for(self.config.stub_seed, "stub-cot-fault", spec.id).random()
            sample = generate_cot_rule_based(spec, seed=self.config.stub_seed)
            reply = sample.to_text()
            if fault < self.config.stub_fault_rate:
                return reply[: max(10, len(reply) // 3)]  # truncated, never valid JSON
            return reply
        raise ClientError(f"stub has no handler for template {template!r}")

    # -- review -------------------------------------------------------------

    def review_qa(self, sample: CotSample, spec: ChartSpec) -> bool:
        """Quality gate: does the sample's answer match the chart data?"""
        if self.config.mode == "stub":
            return _review_locally(sample, spec)
        reply = self.chat(prompts.review_messages(serialize_spec(spec), sample.to_text()))
        return reply.strip().lower().startswith("yes")


def _completion_content(raw: bytes) -> str:
    try:
        content = json.loads(raw.decode("utf-8"))["choices"][0]["message"]["content"]
    except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ClientError(f"malformed completion payload: {exc}") from exc
    if not isinstance(content, str):
        raise ClientError(f"malformed completion payload: content is {type(content).__name__}, not text")
    return content


def _review_locally(sample: CotSample, spec: ChartSpec) -> bool:
    true_answer = recompute_true_answer(spec, sample)
    if true_answer is None:
        return False
    return relaxed_match(sample.answer, true_answer, REVIEW_REL_TOL)

