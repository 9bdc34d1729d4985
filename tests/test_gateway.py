"""Gateway contracts: caching, replay, persisted cache as fixture, batching, HTTP client."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from kgforge.gateway import (
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
    gateway = LlmGateway(ReplayBackend(path), params=params)
    exchange = gateway.query("who is Michael Bay?")
    assert exchange.response == "Michael Bay is a director..."
    assert exchange.backend == "replay"


def test_cache_idempotence_skips_backend(tmp_path):
    params = GenerationParams()
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("p", params, "r")])
    backend = ReplayBackend(path)
    gateway = LlmGateway(backend, params=params)
    first = gateway.query("p")
    calls_after_first = backend.calls
    second = gateway.query("p")
    assert backend.calls == calls_after_first
    assert second == first


def test_replay_miss_names_the_hash(tmp_path):
    params = GenerationParams()
    path = tmp_path / "fx.jsonl"
    write_fixture(path, [("known", params, "ok")])
    gateway = LlmGateway(ReplayBackend(path), params=params)
    missing_key = prompt_key("unknown", params)
    with pytest.raises(ReplayMissError) as err:
        gateway.query("unknown")
    assert missing_key in str(err.value)


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
    singles = [single_gateway.query(p) for p in prompts]
    assert [b.response for b in batched] == [s.response for s in singles]


def test_persistent_cache_doubles_as_fixture(tmp_path):
    params = GenerationParams()
    cache_path = tmp_path / "cache.jsonl"
    backend = ScriptedBackend({"p1": "r1", "p2": "r2"})
    gateway = LlmGateway(backend, params=params, cache_path=cache_path)
    gateway.query("p1")
    gateway.query("p2")
    assert len(read_fixture(cache_path)) == 2
    # A fresh gateway over a dead backend serves from the persisted cache.
    warmed = LlmGateway(ScriptedBackend({}), params=params, cache_path=cache_path)
    assert warmed.query("p1").response == "r1"
    replayed = LlmGateway(ReplayBackend(cache_path), params=params)
    assert [replayed.query(p).response for p in ("p1", "p2")] == ["r1", "r2"]


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
