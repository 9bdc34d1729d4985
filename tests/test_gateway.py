"""Gateway contracts: caching, replay, persisted cache as fixture, batching, HTTP client."""

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgforge.bundle
import kgforge.gateway
from kgforge.bundle import query_audited
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
from kgforge.templates import RenderedPrompt


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
    for temperature in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="temperature"):
            GenerationParams(temperature=temperature)
    with pytest.raises(ValueError):
        GenerationParams(max_new_tokens=0)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"temperature": True}, "temperature must be a finite number"),
        ({"temperature": "0.2"}, "temperature must be a finite number"),
        ({"max_new_tokens": 1.5}, "max_new_tokens must be an integer"),
        ({"max_new_tokens": True}, "max_new_tokens must be an integer"),
        ({"model_id": 3}, "model_id must be a string"),
        ({"model_id": None}, "model_id must be a string"),
    ],
)
def test_generation_params_reject_wrong_types(changes, message):
    # Every field goes into each prompt hash, so a wrong type must not get that far.
    with pytest.raises(ValueError, match=message):
        GenerationParams(**changes)


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
        {"hash": "k", "prompt": "p", "response": "x\ud800"},
    ],
    ids=["null-response", "int-response", "null-hash", "lone-surrogate-response"],
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


def test_cache_in_a_missing_directory_is_created_at_the_first_miss(tmp_path):
    params = GenerationParams()
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, [("p", params, "r")])
    cache_path = tmp_path / "nodir" / "deeper" / "cache.jsonl"
    gateway = LlmGateway(ReplayBackend(fixture_path), params=params, cache_path=cache_path)
    assert not cache_path.parent.exists()
    [result] = gateway.batch_query(["p"])
    assert result.response == "r"
    assert cache_path.read_bytes() == fixture_path.read_bytes()


def test_write_fixture_returns_its_record_count_and_reads_back(tmp_path):
    params = GenerationParams()
    records = [("a", params, "ra"), ("b", params, "rb\u2028"), ("a", params, "ra again")]
    path = tmp_path / "sub" / "fx.jsonl"
    assert write_fixture(path, records) == 3
    assert len(path.read_bytes().splitlines()) == 3
    assert read_fixture(path) == {prompt_key("a", params): "ra again", prompt_key("b", params): "rb\u2028"}


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
    """Scripted backend that raises ``error`` for one prompt, after ``delay`` seconds; it records every prompt asked."""

    def __init__(self, responses, failing_prompt, error, delay=0.0):
        super().__init__(responses)
        self.failing_prompt = failing_prompt
        self.error = error
        self.delay = delay
        self.asked = []

    def generate(self, prompt_text, params):
        self.asked.append(prompt_text)
        if prompt_text == self.failing_prompt:
            time.sleep(self.delay)
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


def test_audited_failure_keeps_its_prompt_hash_and_hashes_once(monkeypatch):
    params = GenerationParams()
    prompts = ["p0", "p1", "p2", "p3", "p2"]
    expected = [prompt_key(p, params) for p in prompts]
    calls = 0
    real_prompt_key = kgforge.gateway.prompt_key

    def counting_prompt_key(text, params):
        nonlocal calls
        calls += 1
        return real_prompt_key(text, params)

    monkeypatch.setattr(kgforge.gateway, "prompt_key", counting_prompt_key)
    monkeypatch.setattr(kgforge.bundle, "prompt_key", counting_prompt_key, raising=False)
    backend = FailingBackend({p: f"r-{p}" for p in prompts}, "p2", HttpBackendError("down"))
    rendered = [RenderedPrompt(subject_id=f"s{i}", text=p) for i, p in enumerate(prompts)]
    items = query_audited(LlmGateway(backend, params=params), rendered)
    assert calls == len(prompts)
    assert [item.prompt_hash for item in items] == expected
    assert [(item.response, item.error) for item in items] == [
        (None, "down") if p == "p2" else (f"r-{p}", None) for p in prompts
    ]


def test_crash_mid_batch_leaves_complete_replayable_cache_lines(tmp_path):
    params = GenerationParams()
    prompts = [f"p{i}" for i in range(40)]
    responses = {p: f"r-{p}" for p in prompts}
    for concurrency in (1, 4):
        cache_path = tmp_path / f"cache-{concurrency}.jsonl"
        # While p2 fails slowly, the other workers run at most two calls each past it.
        crashing = FailingBackend(responses, "p2", RuntimeError("backend crashed"), delay=0.05)
        crashing.concurrency = concurrency
        with pytest.raises(RuntimeError, match="backend crashed"):
            LlmGateway(crashing, params=params, cache_path=cache_path).batch_query(prompts)
        assert set(crashing.asked) <= set(prompts[: 3 + 2 * concurrency])
        assert cache_path.read_text(encoding="utf-8").endswith("\n")
        # Responses are stored in prompt order, so only those before the crash are kept.
        assert read_fixture(cache_path) == {prompt_key(p, params): f"r-{p}" for p in prompts[:2]}
        # A re-run resumes from the cache and fetches only what the crash lost.
        resumed = ScriptedBackend(responses)
        results = LlmGateway(resumed, params=params, cache_path=cache_path).batch_query(prompts)
        assert [r.response for r in results] == [f"r-{p}" for p in prompts]
        assert resumed.calls == len(prompts) - 2


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


class DelayedEchoBackend(EchoBackend):
    """Echo backend that sleeps ``delays[prompt]`` seconds before answering."""

    def __init__(self, delays, concurrency):
        super().__init__()
        self.delays = delays
        self.concurrency = concurrency

    def generate(self, prompt_text, params):
        time.sleep(self.delays[prompt_text])
        return super().generate(prompt_text, params)


def test_concurrent_batches_send_each_prompt_once(tmp_path):
    prompts = ["p0", "p1"]
    backend = DelayedEchoBackend(dict.fromkeys(prompts, 0.1), concurrency=1)
    cache_path = tmp_path / "cache.jsonl"
    gateway = LlmGateway(backend, cache_path=cache_path)
    start = threading.Barrier(2)
    results = []

    def run():
        start.wait(timeout=10)
        results.append(gateway.batch_query(prompts))

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert [[r.response for r in batch] for batch in results] == [["r-p0", "r-p1"]] * 2
    assert backend.calls == len(prompts)
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, [(p, gateway.params, f"r-{p}") for p in prompts])
    assert cache_path.read_bytes() == fixture_path.read_bytes()


def test_threaded_cache_file_is_in_prompt_order(tmp_path):
    prompts = [f"p{i}" for i in range(4)]
    # Later prompts answer sooner, so the backend finishes in reverse prompt order.
    backend = DelayedEchoBackend({p: 0.05 * (len(prompts) - i) for i, p in enumerate(prompts)}, concurrency=4)
    cache_path = tmp_path / "cache.jsonl"
    gateway = LlmGateway(backend, cache_path=cache_path)
    results = gateway.batch_query(prompts)
    assert [r.response for r in results] == [f"r-{p}" for p in prompts]
    fixture_path = tmp_path / "fx.jsonl"
    write_fixture(fixture_path, [(p, gateway.params, f"r-{p}") for p in prompts])
    assert cache_path.read_bytes() == fixture_path.read_bytes()


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


def whole_text_fixture(path):
    """A fixture map parsed from the whole decoded text split on "\\n", or the GatewayError message."""
    responses = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, response = record["hash"], record["response"]
            if not (isinstance(key, str) and isinstance(response, str)):
                raise TypeError("hash and response must be strings")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"{path.name}:{lineno}: bad fixture record ({exc})"
        responses[key] = response
    return responses


RECORD_LINE = st.one_of(
    st.tuples(st.sampled_from("ab"), st.text(alphabet="x \u2028\u2029\u0085\r\né", max_size=4)).map(
        lambda record: json.dumps({"hash": record[0], "response": record[1]}, ensure_ascii=False)
    ),
    st.sampled_from(("", " ", "\u2028", "\u0085", "{", '{"hash": "a"}', '{"hash": 1, "response": "r"}', "[]", '"s"')),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(RECORD_LINE, st.sampled_from(("\n", "\r\n", "\r"))), max_size=6), st.booleans())
@example([('{"hash": "a", "response": "x\u2028y\u0085z"}', "\r\n"), ("", "\r"), ("{", "\n")], False)
def test_read_fixture_streams_lines_like_the_whole_text_split(lines, last_line_ended):
    text = "".join(line + end for line, end in lines)
    if lines and not last_line_ended:
        text = text[: -len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fx.jsonl"
        path.write_bytes(text.encode("utf-8"))
        expected = whole_text_fixture(path)
        try:
            got = read_fixture(path)
        except GatewayError as exc:
            got = str(exc)
    assert got == expected


def test_replay_runs_never_load_requests(tmp_path, toy_root):
    fixture = tmp_path / "fx.jsonl"
    write_fixture(fixture, [("p", GenerationParams(), "r")])
    script = f"""
import sys
import kgforge

kg = kgforge.load_dataset({str(toy_root)!r})
gateway = kgforge.LlmGateway(kgforge.ReplayBackend({str(fixture)!r}))
assert gateway.batch_query(["p"])[0].response == "r"
print("requests" in sys.modules)
backend = kgforge.HttpBackend("http://127.0.0.1:9/v1/chat")
print(type(backend._session).__module__, "requests" in sys.modules)
"""
    src = Path(kgforge.gateway.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "requests.sessions", "True"]


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"concurrency": 0}, "concurrency must be >= 1, got 0"),
        ({"max_retries": -1}, "max_retries must be >= 0, got -1"),
        ({"concurrency": 1.5}, "concurrency must be an integer, got 1.5"),
        ({"backoff_base": -1}, "backoff_base must be a finite number >= 0, got -1"),
        ({"backoff_base": math.nan}, "backoff_base must be a finite number >= 0, got nan"),
        ({"backoff_base": "0.5"}, "backoff_base must be a finite number >= 0, got '0.5'"),
        ({"timeout": 0}, "timeout must be a finite number > 0, got 0"),
        ({"timeout": -1}, "timeout must be a finite number > 0, got -1"),
        ({"timeout": math.inf}, "timeout must be a finite number > 0, got inf"),
    ],
    ids=[
        "concurrency-0",
        "max-retries-negative",
        "concurrency-float",
        "backoff-negative",
        "backoff-nan",
        "backoff-string",
        "timeout-0",
        "timeout-negative",
        "timeout-inf",
    ],
)
def test_http_backend_rejects_bad_arguments_before_any_request(chat_server, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HttpBackend(chat_server, **{"backoff_base": 0.01, **kwargs}).generate("never", GenerationParams())
    assert _ChatHandler.seen_payloads == []


class _Response:
    status_code = 200

    def __init__(self, text):
        self.text = text

    def json(self):
        return json.loads(self.text)


class _EchoSession:
    """A duck-typed ``requests.Session`` whose replies hold the prompt's JSON-escaped content."""

    def __init__(self, contents):
        self.contents = contents
        self.sent = []

    def post(self, endpoint, json, headers, timeout):
        prompt = json["messages"][0]["content"]
        self.sent.append(prompt)
        return _Response(f'{{"choices": [{{"message": {{"content": "{self.contents[prompt]}"}}}}]}}')


def test_a_lone_surrogate_in_a_response_fails_one_item_not_the_batch(tmp_path):
    session = _EchoSession({"a": "ra", "b": "r\\ud800b", "c": "rc"})
    backend = HttpBackend("http://unused.invalid", concurrency=1, session=session)
    cache_path = tmp_path / "cache.jsonl"
    params = GenerationParams()
    results = LlmGateway(backend, params=params, cache_path=cache_path).batch_query(["a", "b", "c"])
    assert [getattr(result, "response", None) for result in results] == ["ra", None, "rc"]
    assert isinstance(results[1], MalformedResponseError)
    assert "surrogates not allowed" in str(results[1])
    assert session.sent == ["a", "b", "c"]
    assert read_fixture(cache_path) == {prompt_key("a", params): "ra", prompt_key("c", params): "rc"}


def test_http_backend_rejects_malformed_body(chat_server):
    _ChatHandler.malformed = True
    backend = HttpBackend(chat_server, backoff_base=0.01)
    with pytest.raises(MalformedResponseError):
        backend.generate("broken", GenerationParams())
