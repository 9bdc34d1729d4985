"""LLM access with content-addressed caching and record/replay fixtures.

Fixture files are JSON Lines, one object per exchange:

    {"hash": ..., "prompt": ..., "params": {...}, "response": ...}

The hash is a SHA-256 over the prompt text plus generation parameters, so a
fixture (or persisted cache, same format) is keyed purely by content; both
load into the same hash -> response map. ``LlmGateway.batch_query`` is the one
way to query: it hashes each prompt once, sends each distinct miss to the
backend, and returns an ``LlmExchange(key, response)`` or an in-place
``GatewayError`` per prompt. Replay backends never touch the network and make
whole pipeline runs bit-for-bit reproducible.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import requests

DEFAULT_TEMPERATURE = 0.2
DEFAULT_MAX_NEW_TOKENS = 256

ENDPOINT_ENV = "LLM_ENDPOINT"
API_KEY_ENV = "LLM_API_KEY"
MODEL_ENV = "LLM_MODEL"

TRANSIENT_STATUS = (429, 500, 502, 503, 504)


class GatewayError(Exception):
    """Base class for backend and replay failures."""


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
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    model_id: str = "default"

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")

    def to_dict(self) -> dict:
        return {
            "temperature": self.temperature,
            "max_new_tokens": self.max_new_tokens,
            "model_id": self.model_id,
        }


def prompt_key(prompt_text: str, params: GenerationParams) -> str:
    """Content hash identifying one (prompt, params) exchange."""
    import hashlib

    payload = json.dumps(
        {"prompt": prompt_text, **params.to_dict()}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LlmExchange:
    key: str
    response: str


def _record_line(key: str, prompt: str, params: GenerationParams, response: str) -> str:
    """One fixture line; fixtures and the persisted cache share this serializer."""
    record = {"hash": key, "prompt": prompt, "params": params.to_dict(), "response": response}
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_fixture(
    path: str | Path, records: Iterable[tuple[str, GenerationParams, str]]
) -> int:
    """Write (prompt, params, response) triples as a replay fixture; returns count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for prompt, params, response in records:
            fh.write(_record_line(prompt_key(prompt, params), prompt, params, response))
            n += 1
    return n


def read_fixture(path: str | Path) -> dict[str, str]:
    """Load a fixture file into a hash -> response map (later records win).

    Records are split on "\\n" only: responses may hold U+2028, U+2029 or
    U+0085, which ``json.dumps(ensure_ascii=False)`` leaves unescaped.
    """
    responses: dict[str, str] = {}
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"fixture file does not exist: {path}")
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, response = record["hash"], record["response"]
            if not (isinstance(key, str) and isinstance(response, str)):
                raise TypeError("hash and response must be strings")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
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
    choice's message content. Transient failures (connection errors, 429,
    5xx) retry with exponential backoff up to ``max_retries``.
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
        super().__init__()
        self.endpoint = endpoint
        self.api_key = api_key
        self.concurrency = max(1, concurrency)
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._session = session or requests.Session()
        self._semaphore = threading.Semaphore(self.concurrency)

    def generate(self, prompt_text: str, params: GenerationParams) -> str:
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
            body = resp.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"cannot read chat-completion body: {exc}")
        if not isinstance(content, str):
            raise MalformedResponseError(f"message content is {type(content).__name__}, not str")
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

        Each text is hashed once. Failures come back in-place as
        :class:`GatewayError` values instead of raising, so one bad prompt
        never sinks the batch. Duplicate prompts cost a single backend call.
        """
        keys = [prompt_key(text, self.params) for text in texts]
        with self._lock:
            misses = {key: text for key, text in zip(keys, texts) if key not in self._cache}
        failures = self._fetch(misses)

        with self._lock:
            return [
                failures[key] if key in failures else LlmExchange(key, self._cache[key])
                for key in keys
            ]

    def _fetch(self, misses: dict[str, str]) -> dict[str, GatewayError]:
        """Send each key -> text miss to the backend and cache its response.

        A persisted cache is opened once per call that has misses; each line
        is flushed as it is written, so a crash mid-batch leaves only
        complete, replayable lines. Returns the failures by key.
        """
        if not misses:
            return {}
        with (
            self._cache_path.open("a", encoding="utf-8", newline="\n")
            if self._cache_path
            else nullcontext()
        ) as sink:

            def fetch(item: tuple[str, str]) -> GatewayError | None:
                key, text = item
                try:
                    response = self.backend.generate(text, self.params)
                except GatewayError as exc:
                    return exc
                with self._lock:
                    self._cache[key] = response
                    if sink is not None:
                        sink.write(_record_line(key, text, self.params, response))
                        sink.flush()
                return None

            workers = max(1, self.backend.concurrency)
            if workers == 1:
                outcomes = [fetch(item) for item in misses.items()]
            else:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(fetch, misses.items()))
        return {key: exc for key, exc in zip(misses, outcomes) if exc is not None}
