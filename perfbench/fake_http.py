"""In-process stand-in for ``requests.Session`` serving chat completions from a fixture.

``HttpBackend`` only calls ``session.post`` and reads ``status_code``, ``text``
and ``json()`` from the result, so a duck-typed session exercises its real
request, retry and thread paths without a socket.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path


class FakeResponse:
    def __init__(self, status_code: int, body: dict):
        self.status_code = status_code
        self._body = body

    @property
    def text(self) -> str:
        return json.dumps(self._body)

    def json(self) -> dict:
        return self._body


def rejected_first(prompt: str, per_mille: int) -> bool:
    """Whether the first attempt for ``prompt`` gets a 429, decided by the prompt's hash."""
    digest = hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % 1000 < per_mille


class FakeChatSession:
    """Answers each prompt from the fixture after ``service_s`` of sleep.

    The first attempt for about ``reject_per_mille`` / 1000 of prompts is
    answered 429; which prompts is fixed by their hash, so the retry count of
    a run does not depend on thread timing. Counters are lock-protected
    because ``HttpBackend`` posts from several threads.
    """

    def __init__(self, responses: dict[str, str], service_s: float, reject_per_mille: int = 10):
        self.responses = responses
        self.service_s = service_s
        self.reject_per_mille = reject_per_mille
        self.posts = 0
        self.rejections = 0
        self._rejected: set[str] = set()
        self._lock = threading.Lock()

    @classmethod
    def from_fixture(cls, path: Path, **kwargs) -> "FakeChatSession":
        responses = {}
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                responses[record["prompt"]] = record["response"]
        return cls(responses, **kwargs)

    def post(self, url, json=None, headers=None, timeout=None) -> FakeResponse:
        prompt = json["messages"][0]["content"]
        time.sleep(self.service_s)
        with self._lock:
            self.posts += 1
            reject = prompt not in self._rejected and rejected_first(prompt, self.reject_per_mille)
            if reject:
                self._rejected.add(prompt)
                self.rejections += 1
        if reject:
            return FakeResponse(429, {"error": "rate limited"})
        if prompt not in self.responses:
            return FakeResponse(404, {"error": "prompt not in fixture"})
        return FakeResponse(200, {"choices": [{"message": {"content": self.responses[prompt]}}]})
