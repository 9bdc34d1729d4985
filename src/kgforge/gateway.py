"""LLM access with content-addressed caching and record/replay fixtures.

Fixture files are JSON Lines, one object per exchange:

    {"hash": ..., "prompt": ..., "params": {...}, "response": ...}

The hash is a SHA-256 over the prompt text plus generation parameters, so a
fixture (or persisted cache, same format) is keyed purely by content. Replay
backends never touch the network and make whole pipeline runs bit-for-bit
reproducible.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import requests

from .templates import RenderedPrompt

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


@dataclass
class LlmExchange:
    prompt: str
    params: GenerationParams
    response: str
    latency: float
    backend: str
    timestamp: float

    @property
    def key(self) -> str:
        return prompt_key(self.prompt, self.params)


def _fixture_record(prompt: str, params: GenerationParams, response: str) -> dict:
    return {
        "hash": prompt_key(prompt, params),
        "prompt": prompt,
        "params": params.to_dict(),
        "response": response,
    }


def write_fixture(
    path: str | Path, records: Iterable[tuple[str, GenerationParams, str]]
) -> int:
    """Write (prompt, params, response) triples as a replay fixture; returns count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for prompt, params, response in records:
            fh.write(json.dumps(_fixture_record(prompt, params, response), ensure_ascii=False))
            fh.write("\n")
            n += 1
    return n


def read_fixture(path: str | Path) -> dict[str, dict]:
    """Load a fixture file into a hash -> record map (later records win)."""
    records: dict[str, dict] = {}
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"fixture file does not exist: {path}")
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            records[record["hash"]] = record
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise GatewayError(f"{path.name}:{lineno}: bad fixture record ({exc})")
    return records


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
        self._records = read_fixture(self.fixture_path)

    def generate(self, prompt_text: str, params: GenerationParams) -> str:
        self._count()
        key = prompt_key(prompt_text, params)
        record = self._records.get(key)
        if record is None:
            raise ReplayMissError(key, prompt_text)
        return record["response"]


def _prompt_text(prompt: RenderedPrompt | str) -> str:
    return prompt.text if isinstance(prompt, RenderedPrompt) else prompt


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
        self._cache: dict[str, LlmExchange] = {}
        self._lock = threading.Lock()
        self._cache_path = Path(cache_path) if cache_path else None
        if self._cache_path and self._cache_path.is_file():
            for key, record in read_fixture(self._cache_path).items():
                self._cache[key] = LlmExchange(
                    prompt=record["prompt"],
                    params=GenerationParams(**record["params"]),
                    response=record["response"],
                    latency=0.0,
                    backend="cache",
                    timestamp=0.0,
                )

    def query(self, prompt: RenderedPrompt | str, params: GenerationParams | None = None) -> LlmExchange:
        """Return the cached exchange or fetch, cache, and return a new one."""
        p = params or self.params
        text = _prompt_text(prompt)
        key = prompt_key(text, p)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        start = time.perf_counter()
        response = self.backend.generate(text, p)
        exchange = LlmExchange(
            prompt=text,
            params=p,
            response=response,
            latency=time.perf_counter() - start,
            backend=self.backend.name,
            timestamp=time.time(),
        )
        self._store(key, exchange)
        return exchange

    def _store(self, key: str, exchange: LlmExchange) -> None:
        with self._lock:
            self._cache[key] = exchange
            if self._cache_path:
                line = json.dumps(
                    _fixture_record(exchange.prompt, exchange.params, exchange.response),
                    ensure_ascii=False,
                )
                with self._cache_path.open("a", encoding="utf-8", newline="\n") as fh:
                    fh.write(line)
                    fh.write("\n")

    def batch_query(
        self,
        prompts: Sequence[RenderedPrompt | str],
        params: GenerationParams | None = None,
    ) -> list[LlmExchange | GatewayError]:
        """Query many prompts; output order matches input order.

        Failures come back in-place as :class:`GatewayError` values instead of
        raising, so one bad prompt never sinks the batch. Duplicate prompts
        cost a single backend call.
        """
        p = params or self.params
        texts = [_prompt_text(prompt) for prompt in prompts]
        keys = [prompt_key(text, p) for text in texts]

        pending: dict[str, str] = {}
        for key, text in zip(keys, texts):
            with self._lock:
                hit = key in self._cache
            if not hit and key not in pending:
                pending[key] = text

        def fetch(item: tuple[str, str]) -> tuple[str, LlmExchange | GatewayError]:
            key, text = item
            try:
                return key, self.query(text, p)
            except GatewayError as exc:
                return key, exc

        results: dict[str, LlmExchange | GatewayError] = {}
        if pending:
            workers = max(1, self.backend.concurrency)
            if workers == 1:
                for item in pending.items():
                    key, outcome = fetch(item)
                    results[key] = outcome
            else:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    for key, outcome in pool.map(fetch, pending.items()):
                        results[key] = outcome

        out: list[LlmExchange | GatewayError] = []
        for key in keys:
            if key in results:
                out.append(results[key])
            else:
                with self._lock:
                    out.append(self._cache[key])
        return out
