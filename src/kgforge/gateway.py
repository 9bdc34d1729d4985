"""LLM access with content-addressed caching and record/replay fixtures.

Fixture files are JSON Lines, one object per exchange:

    {"hash": ..., "prompt": ..., "params": {...}, "response": ...}

The hash is a SHA-256 over the prompt text plus generation parameters, so a
fixture (or persisted cache, same format) is keyed purely by content; both
load into the same hash -> response map. ``LlmGateway.batch_query`` is the one
way to query: it hashes each prompt once, sends each distinct miss to the
backend, and returns an ``LlmExchange(key, response)`` or an in-place
``GatewayError`` with the same ``key`` per prompt. A batch owns the gateway's
cache and cache file from lookup to result, so concurrent batches run in turn
and the file is in prompt order at any backend concurrency. Replay backends
never touch the network and make whole pipeline runs bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .kg import require_finite, require_int, write_text

if TYPE_CHECKING:
    import requests

ENDPOINT_ENV = "LLM_ENDPOINT"
API_KEY_ENV = "LLM_API_KEY"
MODEL_ENV = "LLM_MODEL"

TRANSIENT_STATUS = (429, 500, 502, 503, 504)
#: Backend calls a threaded batch submits per worker ahead of the response being stored.
_AHEAD_PER_WORKER = 2


class GatewayError(Exception):
    """Base class for backend and replay failures.

    ``key`` is the hash of the failed prompt, set by ``LlmGateway`` on each
    failure that ``batch_query`` returns.
    """

    key: str | None = None


class ReplayMissError(GatewayError):
    """A prompt hash is absent from the replay fixture."""

    def __init__(self, key: str, prompt: str):
        preview = prompt if len(prompt) <= 80 else prompt[:77] + "..."
        super().__init__(f"replay fixture has no record for hash {key} (prompt: {preview!r})")
        self.key = key


class HttpBackendError(GatewayError):
    """HTTP request failed after exhausting retries."""


class MalformedResponseError(GatewayError):
    """Response body did not match the chat-completion shape."""


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.2
    max_new_tokens: int = 256
    model_id: str = "default"

    def __post_init__(self):
        require_finite("temperature", self.temperature)
        require_int("max_new_tokens", self.max_new_tokens, 1)
        if not isinstance(self.model_id, str):
            raise ValueError(f"model_id must be a string, got {self.model_id!r}")


def prompt_key(prompt_text: str, params: GenerationParams) -> str:
    """Content hash identifying one (prompt, params) exchange."""
    payload = json.dumps(
        {"prompt": prompt_text, **vars(params)}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LlmExchange:
    key: str
    response: str


def _record_line(key: str, prompt: str, params: GenerationParams, response: str) -> str:
    """One fixture line; fixtures and the persisted cache share this serializer.

    ``vars`` of a dataclass lists its fields in declaration order, as
    ``dataclasses.asdict`` does, at a fraction of the cost per prompt.
    """
    record = {"hash": key, "prompt": prompt, "params": vars(params), "response": response}
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_fixture(path: str | Path, records: Sequence[tuple[str, GenerationParams, str]]) -> int:
    """Write (prompt, params, response) triples as a replay fixture; returns count."""
    write_text(
        path,
        (_record_line(prompt_key(prompt, params), prompt, params, response) for prompt, params, response in records),
    )
    return len(records)


def read_fixture(path: str | Path) -> dict[str, str]:
    """Load a fixture file into a hash -> response map (later records win).

    The file is read line by line, never whole. LF, CRLF and a lone CR end
    a record, but U+2028, U+2029 and U+0085 do not: responses may hold them,
    as ``json.dumps(ensure_ascii=False)`` leaves them unescaped. A response
    that is not UTF-8 text, such as an escaped lone surrogate, is a bad record.
    """
    responses: dict[str, str] = {}
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"fixture file does not exist: {path}")
    with path.open(encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.removesuffix("\n"))
                key, response = record["hash"], record["response"]
                if not (isinstance(key, str) and isinstance(response, str)):
                    raise TypeError("hash and response must be strings")
                response.encode("utf-8")
            except (json.JSONDecodeError, KeyError, TypeError, UnicodeEncodeError) as exc:
                raise GatewayError(f"{path.name}:{lineno}: bad fixture record ({exc})")
            responses[key] = response
    return responses


class Backend:
    """Produces a raw response string for a prompt. Subclasses set ``name``."""

    name = "backend"
    concurrency = 1

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def _count(self):
        with self._lock:
            self.calls += 1

    def generate(self, prompt_text: str, params: GenerationParams) -> str:
        raise NotImplementedError


class HttpBackend(Backend):
    """Chat-completion-style HTTP client with bounded retries.

    Request body: {"model", "messages": [{"role": "user", "content": ...}],
    "temperature", "max_tokens"}; the response is read from the first
    choice's message content, which must be a string of UTF-8 text.
    Transient failures (connection errors, 429, 5xx) retry with exponential
    backoff up to ``max_retries``. Construction checks that ``concurrency``
    >= 1 and ``max_retries`` >= 0 are integers and ``backoff_base`` >= 0 and
    ``timeout`` > 0 finite numbers.

    ``requests`` is imported only here, so runs that never build an
    ``HttpBackend`` never load it.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        concurrency: int = 4,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        require_int("concurrency", concurrency, 1)
        require_int("max_retries", max_retries, 0)
        require_finite("backoff_base", backoff_base)
        require_finite("timeout", timeout, positive=True)
        import requests

        super().__init__()
        self.endpoint = endpoint
        self.api_key = api_key
        self.concurrency = concurrency
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._session = session or requests.Session()
        self._semaphore = threading.Semaphore(self.concurrency)

    def generate(self, prompt_text: str, params: GenerationParams) -> str:
        import requests

        self._count()
        payload = {
            "model": params.model_id,
            "messages": [{"role": "user", "content": prompt_text}],
            "temperature": params.temperature,
            "max_tokens": params.max_new_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                with self._semaphore:
                    resp = self._session.post(
                        self.endpoint, json=payload, headers=headers, timeout=self.timeout
                    )
            except requests.RequestException as exc:
                last_error = f"connection failure: {exc}"
                continue
            if resp.status_code in TRANSIENT_STATUS:
                last_error = f"transient HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise HttpBackendError(f"HTTP {resp.status_code} from {self.endpoint}: {resp.text[:200]}")
            return self._extract_content(resp)
        raise HttpBackendError(
            f"gave up after {self.max_retries + 1} attempts against {self.endpoint}: {last_error}"
        )

    @staticmethod
    def _extract_content(resp: requests.Response) -> str:
        try:
            content = resp.json()["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise MalformedResponseError(f"message content is {type(content).__name__}, not str")
            # JSON may escape a lone surrogate, which no UTF-8 file can hold.
            content.encode("utf-8")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"cannot read chat-completion body: {exc}")
        return content


class ReplayBackend(Backend):
    """Serves responses from a fixture file; never performs network I/O."""

    name = "replay"

    def __init__(self, fixture_path: str | Path):
        super().__init__()
        self.fixture_path = Path(fixture_path)
        self._responses = read_fixture(self.fixture_path)

    def generate(self, prompt_text: str, params: GenerationParams) -> str:
        self._count()
        key = prompt_key(prompt_text, params)
        response = self._responses.get(key)
        if response is None:
            raise ReplayMissError(key, prompt_text)
        return response


class LlmGateway:
    """Caching front door over a backend.

    Responses are stored raw and keyed by content hash, so re-querying the
    same prompt with the same parameters never re-contacts the backend. An
    optional ``cache_path`` persists the cache in fixture format.
    """

    def __init__(
        self,
        backend: Backend,
        params: GenerationParams | None = None,
        cache_path: str | Path | None = None,
    ):
        self.backend = backend
        self.params = params or GenerationParams()
        self._lock = threading.Lock()
        self._cache_path = Path(cache_path) if cache_path else None
        self._cache: dict[str, str] = {}
        if self._cache_path and self._cache_path.is_file():
            self._cache = read_fixture(self._cache_path)

    def batch_query(self, texts: Sequence[str]) -> list[LlmExchange | GatewayError]:
        """Query many prompt texts; output order matches input order.

        Each text is hashed once, and each distinct miss costs one backend
        call. Failures come back in-place as :class:`GatewayError` values
        instead of raising, so one bad prompt never sinks the batch. A batch
        holds the gateway from lookup to result, so concurrent batches run in turn.
        """
        keys = [prompt_key(text, self.params) for text in texts]
        with self._lock:
            misses = {key: text for key, text in zip(keys, texts) if key not in self._cache}
            failures = self._fetch(misses) if misses else {}
            return [
                failures[key] if key in failures else LlmExchange(key, self._cache[key])
                for key in keys
            ]

    def _fetch(self, misses: dict[str, str]) -> dict[str, GatewayError]:
        """Send each key -> text miss to the backend; return the failures by key.

        Pool workers only call the backend, at most ``_AHEAD_PER_WORKER``
        calls per worker ahead of the response being stored. This thread
        stores the responses in miss order and appends each to the persisted
        cache as one flushed line, so the file is in prompt order and a crash
        leaves only complete, replayable lines; calls not yet started when an
        exception leaves are cancelled. The file is opened once, after its
        directory is made.
        """

        def generate(item: tuple[str, str]) -> str | GatewayError:
            key, text = item
            try:
                return self.backend.generate(text, self.params)
            except GatewayError as exc:
                exc.key = key
                return exc

        failures: dict[str, GatewayError] = {}
        with ExitStack() as stack:
            sink = None
            if self._cache_path:
                self._cache_path.parent.mkdir(parents=True, exist_ok=True)
                sink = stack.enter_context(self._cache_path.open("a", encoding="utf-8", newline="\n"))
            if self.backend.concurrency == 1:
                outcomes = map(generate, misses.items())
            else:
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(max_workers=self.backend.concurrency)
                stack.callback(pool.shutdown, cancel_futures=True)
                outcomes = _map_ahead(pool, generate, misses.items(), _AHEAD_PER_WORKER * self.backend.concurrency)
            for (key, text), outcome in zip(misses.items(), outcomes):
                if isinstance(outcome, GatewayError):
                    failures[key] = outcome
                    continue
                self._cache[key] = outcome
                if sink is not None:
                    sink.write(_record_line(key, text, self.params, outcome))
                    sink.flush()
        return failures


def _map_ahead(pool, fn, items, ahead: int):
    """``pool.map(fn, items)`` with at most ``ahead`` calls submitted past the result being read."""
    items = iter(items)
    futures = deque(pool.submit(fn, item) for item in islice(items, ahead))
    while futures:
        future = futures.popleft()
        futures.extend(pool.submit(fn, item) for item in islice(items, 1))
        yield future.result()
