"""Span tracer that instruments kgforge from the outside.

Spans are recorded around the library's public functions by rebinding them in
every ``kgforge`` module namespace where callers look them up, and around the
LLM backend by a proxy object. Spans stay in memory; the layer metrics are
computed once the run is over. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    run: str


class NullTracer:
    """Stand-in used by untraced runs: every hook is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def proxy_backend(self, backend):
        return backend


class Tracer(NullTracer):
    """Records spans (name, start, end, parent, run id) and named counts.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the main thread as parent: the gateway's pool
    threads run while the main thread waits inside ``batch_query``.
    """

    enabled = True

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, start) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.run))

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, name, start)

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- instrumentation -------------------------------------------------

    def traced(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``on_return(args, kwargs, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, name, start)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to count its calls under ``name``, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def rebind(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` by ``wrapper`` in every loaded kgforge module that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "kgforge" or mod_name.startswith("kgforge.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def proxy_backend(self, backend):
        return TracedBackend(backend, self)


class TracedBackend:
    """Forwards to a kgforge backend, recording a ``gateway.backend`` span per call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.concurrency = inner.concurrency
        self._tracer = tracer

    def generate(self, prompt_text, params):
        with self._tracer.span("gateway.backend"):
            return self.inner.generate(prompt_text, params)


def install(tracer: Tracer) -> None:
    """Instrument every layer the benchmark reports on."""
    import kgforge.bundle as bundle
    import kgforge.gateway as gateway
    import kgforge.harness as harness
    import kgforge.kg as kg
    import kgforge.templates as templates
    from kgforge import entity, relation, structure

    def on_batch(args, kwargs, result):
        tracer.add("gateway.prompts", len(result))
        tracer.add("gateway.errors", sum(isinstance(r, gateway.GatewayError) for r in result))

    def on_train(args, kwargs, result):
        kg_, cfg = args[0], args[1]
        tracer.add("harness.epochs", cfg.epochs)
        tracer.add("harness.train_triples", len(kg_.train) * cfg.epochs)

    def on_rank(args, kwargs, result):
        tracer.add("harness.queries", result.n_queries)

    def on_match(args, kwargs, result):
        n = len(args[0])
        tracer.add("structure.keyword_sets", n)
        tracer.add("structure.entity_pairs", n * (n - 1))

    def on_synth(args, kwargs, result):
        tracer.add("structure.extra_triples", len(result))

    for fn, name, hook in (
        (kg.load_dataset, "kg.load", None),
        (kg.write_dataset, "kg.write", None),
        (kg.kg_fingerprint, "kg.fingerprint", None),
        (templates.render_entity_prompt, "templates.render", None),
        (templates.render_relation_prompt, "templates.render", None),
        (templates.render_keyword_prompt, "templates.render", None),
        (entity.expand_descriptions, "entity.expand", None),
        (relation.describe_relations, "relation.describe", None),
        (structure.extract_structure, "structure.extract", None),
        (structure.parse_keywords, "structure.parse", None),
        (structure.top_k_pairs, "structure.match", on_match),
        (structure.synthesize_triples, "structure.synth", on_synth),
        (bundle.apply_bundles, "bundle.apply", None),
        (harness.train, "harness.train", on_train),
        (harness.link_prediction, "harness.rank", on_rank),
        (harness.triplet_classification, "harness.classify", None),
        (harness.ab_compare, "harness.ab_compare", None),
    ):
        tracer.rebind(fn, tracer.traced(fn, name, hook))
    tracer.rebind(gateway.prompt_key, tracer.counted(gateway.prompt_key, "gateway.key_calls"))
    tracer.rebind(harness.score_triple, tracer.counted(harness.score_triple, "harness.score_calls"))

    def method(cls, attr, name, hook=None):
        original = cls.__dict__[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        traced = tracer.traced(fn, name, hook)
        setattr(cls, attr, classmethod(traced) if isinstance(original, classmethod) else traced)

    method(gateway.LlmGateway, "batch_query", "gateway.batch", on_batch)
    method(gateway.LlmGateway, "__init__", "gateway.cache_load")
    method(gateway.ReplayBackend, "__init__", "gateway.fixture_load")
    method(bundle.AugmentationBundle, "save", "bundle.save")
    method(bundle.AugmentationBundle, "load", "bundle.load")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer, concurrency: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run; ``extra`` carries counts measured outside spans."""
    selfs = self_times(tracer.spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        calls[s.name] += 1
    c = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    prompts = c["gateway.prompts"]
    backend_calls = calls["gateway.backend"]
    hits = prompts - backend_calls
    rank_s = total["harness.rank"]
    return {
        "kg.load_s": total["kg.load"],
        "kg.write_s": total["kg.write"],
        "kg.fingerprint_s": total["kg.fingerprint"],
        "kg.fingerprint_calls": calls["kg.fingerprint"],
        "templates.render_s": total["templates.render"],
        "templates.prompts": calls["templates.render"],
        "gateway.fixture_load_s": total["gateway.fixture_load"],
        "gateway.cache_load_s": total["gateway.cache_load"],
        "gateway.batch_self_s": own["gateway.batch"],
        "gateway.backend_s": total["gateway.backend"],
        "gateway.backend_calls": backend_calls,
        "gateway.hits": hits,
        "gateway.hit_ratio": ratio(hits, prompts),
        "gateway.retries": extra.get("gateway.retries", 0),
        "gateway.errors": c["gateway.errors"],
        "gateway.key_calls_per_prompt": ratio(c["gateway.key_calls"], prompts),
        "gateway.backend_busy_ratio": ratio(total["gateway.backend"], total["gateway.batch"] * concurrency),
        "gateway.cache_bytes": extra.get("gateway.cache_bytes", 0),
        "entity.expand_self_s": own["entity.expand"],
        "relation.describe_self_s": own["relation.describe"],
        "structure.parse_s": total["structure.parse"],
        "structure.match_s": total["structure.match"],
        "structure.synth_s": total["structure.synth"],
        "structure.keyword_sets": c["structure.keyword_sets"],
        "structure.entity_pairs": c["structure.entity_pairs"],
        "structure.overlapping_pairs": extra.get("structure.overlapping_pairs", 0),
        "structure.extra_triples": c["structure.extra_triples"],
        "bundle.save_s": total["bundle.save"],
        "bundle.load_s": total["bundle.load"],
        "bundle.apply_s": total["bundle.apply"],
        "bundle.bytes": extra.get("bundle.bytes", 0),
        "harness.train_s": total["harness.train"],
        "harness.epoch_s": ratio(total["harness.train"], c["harness.epochs"]),
        "harness.train_triples_per_s": ratio(c["harness.train_triples"], total["harness.train"]),
        "harness.rank_s": rank_s,
        "harness.rank_ms_per_query": 1000.0 * ratio(rank_s, c["harness.queries"]),
        "harness.queries": c["harness.queries"],
        "harness.classify_s": total["harness.classify"],
        "harness.score_calls": c["harness.score_calls"],
        "trace.spans": len(tracer.spans),
    }
