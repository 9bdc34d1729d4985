"""Gateway contracts: caching, replay, persisted cache as fixture, batching, HTTP client."""

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import kgforge.gateway
from kgforge.gateway import (
    Backend,
    GatewayError,
    GenerationParams,
    HttpBackend,
    HttpBackendError,
    LlmGateway,
    MalformedResponseError,
    ReplayBackend,
    ReplayMissError,
    prompt_key,
    read_fixture,
    write_fixture,
)
from kgforge.synth import toy_fixture_records


class ScriptedBackend:
    """Test backend that answers from a prompt -> response dict."""

    name = "scripted"
    concurrency = 1

    def __init__(self, responses):
        self.responses = responses
        self.calls = 0

    def generate(self, prompt_text, params):
        self.calls += 1
        return self.responses[prompt_text]


def test_generation_params_defaults_and_validation():
    params = GenerationParams()
    assert params.temperature == 0.2
    assert params.max_new_tokens == 256
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationParams(max_new_tokens=0)


def test_prompt_key_is_content_addressed():
    p = GenerationParams()
    base = prompt_key("hello", p)
    assert base == prompt_key("hello", GenerationParams())
    assert base != prompt_key("hello!", p)
    assert base != prompt_key("hello", GenerationParams(temperature=0.3))
    assert base != prompt_key("hello", GenerationParams(model_id="other"))
    assert base != prompt_key("hello", GenerationParams(max_new_tokens=128))


def test_replay_returns_fixture_verbatim(tmp_path):
    params = GenerationParams()
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("who is Michael Bay?", params, "Michael Bay is a director...")])
    backend = ReplayBackend(path)
    gateway = LlmGateway(backend, params=params)
    [exchange] = gateway.batch_query(["who is Michael Bay?"])
    assert exchange.response == "Michael Bay is a director..."
    assert exchange.key == prompt_key("who is Michael Bay?", params)
    assert backend.calls == 1


def test_cache_idempotence_skips_backend(tmp_path):
    params = GenerationParams()
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("p", params, "r")])
    backend = ReplayBackend(path)
    gateway = LlmGateway(backend, params=params)
    [first] = gateway.batch_query(["p"])
    calls_after_first = backend.calls
    [second] = gateway.batch_query(["p"])
    assert backend.calls == calls_after_first
    assert second == first


def test_replay_miss_names_the_hash(tmp_path):
    params = GenerationParams()
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("known", params, "ok")])
    gateway = LlmGateway(ReplayBackend(path), params=params)
    missing_key = prompt_key("unknown", params)
    [result] = gateway.batch_query(["unknown"])
    assert isinstance(result, ReplayMissError)
    assert missing_key in str(result)


@pytest.mark.parametrize(
    "record",
    [
        {"hash": "k", "prompt": "p", "response": None},
        {"hash": "k", "prompt": "p", "response": 3},
        {"hash": None, "prompt": "p", "response": "r"},
    ],
    ids=["null-response", "int-response", "null-hash"],
)
def test_fixture_record_needs_string_hash_and_response(tmp_path, record):
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("good", GenerationParams(), "ok")])
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(GatewayError, match=r"fx\.jsonl:2: bad fixture record"):
        ReplayBackend(path)
    with pytest.raises(GatewayError, match=r"fx\.jsonl:2: bad fixture record"):
        LlmGateway(ScriptedBackend({}), cache_path=path)


def test_batch_preserves_order_and_reports_partial_failures(tmp_path):
    params = GenerationParams()
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("a", params, "ra"), ("c", params, "rc")])
    gateway = LlmGateway(ReplayBackend(path), params=params)
    results = gateway.batch_query(["a", "b", "c"])
    assert results[0].response == "ra"
    assert isinstance(results[1], ReplayMissError)
    assert results[2].response == "rc"


def test_batch_deduplicates_backend_calls():
    backend = ScriptedBackend({"q": "ans"})
    gateway = LlmGateway(backend)
    results = gateway.batch_query(["q", "q", "q"])
    assert backend.calls == 1
    assert [r.response for r in results] == ["ans", "ans", "ans"]


def test_batch_matches_sequential_queries(toy_fixture_path):
    records = toy_fixture_records()
    prompts = [prompt for prompt, _, _ in records[:6]]
    batch_gateway = LlmGateway(ReplayBackend(toy_fixture_path))
    batched = batch_gateway.batch_query(prompts)
    single_gateway = LlmGateway(ReplayBackend(toy_fixture_path))
    singles = [single_gateway.batch_query([p])[0] for p in prompts]
    assert [b.response for b in batched] == [s.response for s in singles]


def test_persistent_cache_doubles_as_fixture(tmp_path):
    params = GenerationParams()
    cache_path = tmp_path / "cache.jsonl"
    backend = ScriptedBackend({"p1": "r1", "p2": "r2"})
    gateway = LlmGateway(backend, params=params, cache_path=cache_path)
    gateway.batch_query(["p1"])
    gateway.batch_query(["p2"])
    # Cache lines are byte-identical to a fixture written from the same records.
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, [("p1", params, "r1"), ("p2", params, "r2")])
    assert cache_path.read_bytes() == fixture_path.read_bytes()
    # A fresh gateway over a dead backend serves from the persisted cache.
    dead = ScriptedBackend({})
    warmed = LlmGateway(dead, params=params, cache_path=cache_path)
    assert warmed.batch_query(["p1"])[0].response == "r1"
    assert dead.calls == 0
    replayed = LlmGateway(ReplayBackend(cache_path), params=params)
    assert [r.response for r in replayed.batch_query(["p1", "p2"])] == ["r1", "r2"]


def test_cache_is_opened_once_per_batch_with_misses(tmp_path, monkeypatch):
    appends = []
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(self)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    params = GenerationParams()
    prompts = [f"p{i}" for i in range(5)]
    cache_path = tmp_path / "cache.jsonl"
    backend = ScriptedBackend({p: f"r-{p}" for p in prompts})
    gateway = LlmGateway(backend, params=params, cache_path=cache_path)
    gateway.batch_query(prompts[:3])
    assert appends == [cache_path]
    gateway.batch_query(prompts[:3])
    assert appends == [cache_path]
    gateway.batch_query(prompts)
    assert appends == [cache_path, cache_path]
    assert backend.calls == len(prompts)
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, [(p, params, f"r-{p}") for p in prompts])
    assert cache_path.read_bytes() == fixture_path.read_bytes()


class FailingBackend(ScriptedBackend):
    """Scripted backend that raises ``error`` for one prompt."""

    def __init__(self, responses, failing_prompt, error):
        super().__init__(responses)
        self.failing_prompt = failing_prompt
        self.error = error

    def generate(self, prompt_text, params):
        if prompt_text == self.failing_prompt:
            raise self.error
        return super().generate(prompt_text, params)


def test_gateway_error_mid_batch_keeps_every_other_cache_line(tmp_path):
    params = GenerationParams()
    prompts = [f"p{i}" for i in range(5)]
    cache_path = tmp_path / "cache.jsonl"
    backend = FailingBackend({p: f"r-{p}" for p in prompts}, "p2", HttpBackendError("down"))
    results = LlmGateway(backend, params=params, cache_path=cache_path).batch_query(prompts)
    assert isinstance(results[2], HttpBackendError)
    kept = [p for p in prompts if p != "p2"]
    assert read_fixture(cache_path) == {prompt_key(p, params): f"r-{p}" for p in kept}
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, [(p, params, f"r-{p}") for p in kept])
    assert cache_path.read_bytes() == fixture_path.read_bytes()


def test_crash_mid_batch_leaves_complete_replayable_cache_lines(tmp_path):
    params = GenerationParams()
    prompts = [f"p{i}" for i in range(5)]
    responses = {p: f"r-{p}" for p in prompts}
    cache_path = tmp_path / "cache.jsonl"
    crashing = FailingBackend(responses, "p2", RuntimeError("backend crashed"))
    with pytest.raises(RuntimeError, match="backend crashed"):
        LlmGateway(crashing, params=params, cache_path=cache_path).batch_query(prompts)
    assert cache_path.read_text(encoding="utf-8").endswith("\n")
    assert read_fixture(cache_path) == {prompt_key(p, params): f"r-{p}" for p in prompts[:2]}
    # A re-run resumes from the cache and fetches only what the crash lost.
    resumed = ScriptedBackend(responses)
    results = LlmGateway(resumed, params=params, cache_path=cache_path).batch_query(prompts)
    assert [r.response for r in results] == [f"r-{p}" for p in prompts]
    assert resumed.calls == 3


def test_batch_hashes_each_prompt_once(tmp_path, monkeypatch):
    calls = 0
    real_prompt_key = kgforge.gateway.prompt_key

    def counting_prompt_key(text, params):
        nonlocal calls
        calls += 1
        return real_prompt_key(text, params)

    monkeypatch.setattr(kgforge.gateway, "prompt_key", counting_prompt_key)
    prompts = [f"p{i}" for i in range(5)]
    backend = ScriptedBackend({p: f"r-{p}" for p in prompts})
    gateway = LlmGateway(backend, cache_path=tmp_path / "cache.jsonl")
    gateway.batch_query(prompts)
    assert (calls, backend.calls) == (len(prompts), len(prompts))
    calls = 0
    gateway.batch_query(prompts)
    assert (calls, backend.calls) == (len(prompts), len(prompts))


class EchoBackend(Backend):
    name = "echo"
    concurrency = 4

    def generate(self, prompt_text, params):
        self._count()
        return f"r-{prompt_text}"


def test_threaded_batch_fetches_and_stores_each_miss_once(tmp_path):
    prompts = [f"p{i}" for i in range(200)]
    backend = EchoBackend()
    cache_path = tmp_path / "cache.jsonl"
    gateway = LlmGateway(backend, cache_path=cache_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = gateway.batch_query(prompts + prompts)
    finally:
        sys.setswitchinterval(interval)
    assert [r.response for r in results] == [f"r-{p}" for p in prompts + prompts]
    assert backend.calls == len(prompts)
    assert cache_path.read_text(encoding="utf-8").count("\n") == len(prompts)
    assert read_fixture(cache_path) == {prompt_key(p, gateway.params): f"r-{p}" for p in prompts}


def test_unicode_line_separators_round_trip(tmp_path):
    """U+2028, U+2029 and U+0085 stay unescaped in JSON but do not end a record."""
    params = GenerationParams()
    records = [
        (f"prompt {sep} {i}", params, f"line one{sep}line two")
        for i, sep in enumerate(("\u2028", "\u2029", "\u0085"))
    ]
    prompts = [prompt for prompt, _, _ in records]
    responses = [response for _, _, response in records]
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, records)
    assert list(read_fixture(fixture_path).values()) == responses
    replayed = LlmGateway(ReplayBackend(fixture_path), params=params).batch_query(prompts)
    assert [r.response for r in replayed] == responses

    cache_path = tmp_path / "cache.jsonl"
    live = ScriptedBackend(dict(zip(prompts, responses)))
    LlmGateway(live, params=params, cache_path=cache_path).batch_query(prompts)
    dead = ScriptedBackend({})
    resumed = LlmGateway(dead, params=params, cache_path=cache_path).batch_query(prompts)
    assert [r.response for r in resumed] == responses
    assert dead.calls == 0


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    malformed = False
    seen_payloads = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen_payloads.append(body)
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(503)
            self.end_headers()
            return
        if type(self).malformed:
            payload = {"nope": True}
        else:
            content = f"echo: {body['messages'][0]['content']}"
            payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.fail_times = 0
    _ChatHandler.malformed = False
    _ChatHandler.seen_payloads = []
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()


def test_http_backend_speaks_chat_protocol(chat_server):
    backend = HttpBackend(chat_server, api_key="secret", backoff_base=0.01)
    params = GenerationParams(model_id="test-model")
    assert backend.generate("hi there", params) == "echo: hi there"
    payload = _ChatHandler.seen_payloads[0]
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.2
    assert payload["max_tokens"] == 256
    assert payload["messages"] == [{"role": "user", "content": "hi there"}]


def test_http_backend_retries_transient_failures(chat_server):
    _ChatHandler.fail_times = 2
    backend = HttpBackend(chat_server, max_retries=3, backoff_base=0.01)
    assert backend.generate("retry me", GenerationParams()) == "echo: retry me"
    assert backend.calls == 1  # one logical call, retries internal


def test_http_backend_gives_up_after_retries(chat_server):
    _ChatHandler.fail_times = 99
    backend = HttpBackend(chat_server, max_retries=1, backoff_base=0.01)
    with pytest.raises(HttpBackendError, match="gave up after 2 attempts"):
        backend.generate("never", GenerationParams())


def test_http_backend_rejects_malformed_body(chat_server):
    _ChatHandler.malformed = True
    backend = HttpBackend(chat_server, backoff_base=0.01)
    with pytest.raises(MalformedResponseError):
        backend.generate("broken", GenerationParams())
