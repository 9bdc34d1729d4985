"""One benchmark iteration in a fresh interpreter: ``enrich -> compose -> eval`` via the library.

Run as a script by ``run.py``; prints one JSON object on its last stdout line
with step times, peak memory, per-item failures and, when traced, the layer
metrics. Import cost is part of set-up, so nothing from kgforge or numpy is
imported at module level.

    python3 perfbench/pipeline.py --workload structure-4k --inputs DIR --out DIR [--trace]

With ``--compose-only BUNDLES`` it runs set-up and then composes the bundles
already in BUNDLES, as ``kgforge compose`` would: a cheap extra sample of
both set-up and compose time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
from fake_http import FakeChatSession  # noqa: E402

SERVICE_S = 0.0002          # fake LLM service time per request
BACKOFF_BASE_S = 0.001      # HttpBackend backoff after a 429
CONCURRENCY = 2
STRUCTURE_K = 3
TEXT_COLD_BUDGET = 50       # WordNet-style merge budget for the cold pass
TEXT_WARM_BUDGET = 70       # the warm re-run asks for another budget over the same cache
TRAIN = dict(kind="transe", dim=16, epochs=1, batch_size=256, learning_rate=0.05, seed=7)
FAKE_URL = "http://fake-llm/v1/chat"


class Step:
    """Wall-clock times of the pipeline steps, mirrored as ``step.*`` trace spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        with self.tracer.span("step." + name):
            start = time.perf_counter()
            yield
            self.times[name + "_s"] = time.perf_counter() - start

    def setup_done(self, excluded_s: float = 0.0) -> None:
        self.times["setup_s"] = time.perf_counter() - _T0 - excluded_s


def _kgforge(tracer):
    import kgforge

    if tracer.enabled:
        tracing.install(tracer)
    return kgforge


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``VmHWM`` is read rather than ``ru_maxrss``, which after exec still holds
    the high-water mark of the parent that spawned this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _bytes(*dirs: Path) -> int:
    return sum(f.stat().st_size for d in dirs for f in d.rglob("*") if f.is_file())


def _compose(kf, kg, step: Step, bundle_dirs: list[Path], dest: Path) -> None:
    with step("compose"):
        bundles = [kf.AugmentationBundle.load(d) for d in bundle_dirs]
        kf.write_dataset(kf.apply_bundles(kg, bundles), dest)


def run_text(inputs: Path, out: Path, tracer, step: Step, compose_only: Path | None) -> dict:
    """Cold E+R through HttpBackend (cache write path), warm re-run (read path), compose E+R."""
    with tracer.span("step.setup"):
        kf = _kgforge(tracer)
        kg = kf.load_dataset(inputs / "dataset")
        fake_start = time.perf_counter()
        with tracer.span("gateway.fixture_load"):
            session = FakeChatSession.from_fixture(inputs / "responses.jsonl", service_s=SERVICE_S)
        fake_load_s = time.perf_counter() - fake_start
        backend = kf.HttpBackend(FAKE_URL, concurrency=CONCURRENCY, backoff_base=BACKOFF_BASE_S, session=session)
        cache = out / "cache.jsonl"
        gateway = kf.LlmGateway(tracer.proxy_backend(backend), cache_path=cache)
    # The fake server's fixture load stands in for a remote service, not kgforge set-up.
    step.setup_done(excluded_s=fake_load_s)
    bundles = compose_only or out / "cold"
    if compose_only:
        _compose(kf, kg, step, [bundles / "bundle_E", bundles / "bundle_R"], out / "composed")
        return {}
    modes = list(kf.RelationMode)
    items = errors = 0

    def enrich(gw, budget, dest):
        nonlocal items, errors
        for tag, bundle in (
            ("E", kf.expand_descriptions(kg, gw, budget_tokens=budget)),
            ("R", kf.describe_relations(kg, gw, modes=modes)),
        ):
            bundle.save(out / dest / f"bundle_{tag}", base_kg=kg)
            items += len(bundle.items)
            errors += len(bundle.errors)

    with step("enrich"):
        enrich(gateway, TEXT_COLD_BUDGET, "cold")
    cache_bytes = cache.stat().st_size
    with step("reenrich"):
        warm_session = FakeChatSession({}, service_s=SERVICE_S)
        warm_backend = kf.HttpBackend(
            FAKE_URL, concurrency=CONCURRENCY, backoff_base=BACKOFF_BASE_S, session=warm_session
        )
        warm = kf.LlmGateway(tracer.proxy_backend(warm_backend), cache_path=cache)
        enrich(warm, TEXT_WARM_BUDGET, "warm")
    _compose(kf, kg, step, [bundles / "bundle_E", bundles / "bundle_R"], out / "composed")
    failures = [f"warm re-run made {warm_session.posts} backend requests"] if warm_session.posts else []
    return dict(
        items=items, errors=errors, failures=failures, concurrency=CONCURRENCY,
        extra={
            "gateway.retries": session.posts - backend.calls,
            "gateway.cache_bytes": cache_bytes,
            "bundle.bytes": _bytes(out / "cold", out / "warm"),
        },
    )


def _overlapping_pairs(keyword_sets: dict[str, tuple[str, ...]]) -> int:
    """Ordered entity pairs sharing at least one keyword, counted from postings."""
    import numpy as np

    postings: dict[str, list[int]] = {}
    for i, words in enumerate(keyword_sets.values()):
        for w in set(words):
            postings.setdefault(w, []).append(i)
    arrays = {w: np.array(members) for w, members in postings.items()}
    return sum(
        np.unique(np.concatenate([arrays[w] for w in set(words)])).size - 1
        for words in keyword_sets.values()
    )


def run_structure(inputs: Path, out: Path, tracer, step: Step, compose_only: Path | None) -> dict:
    """Strategy S (k=3, self-loops) through ReplayBackend, then compose."""
    with tracer.span("step.setup"):
        kf = _kgforge(tracer)
        kg = kf.load_dataset(inputs / "dataset")
        backend = kf.ReplayBackend(inputs / "responses.jsonl")
        gateway = kf.LlmGateway(tracer.proxy_backend(backend))
    step.setup_done()
    bundles = compose_only or out
    if compose_only:
        _compose(kf, kg, step, [bundles / "bundle_S"], out / "composed")
        return {}
    with step("enrich"):
        bundle = kf.extract_structure(kg, gateway, kf.StructureConfig(k=STRUCTURE_K, self_loop=True))
        bundle.save(out / "bundle_S", base_kg=kg)
    _compose(kf, kg, step, [bundles / "bundle_S"], out / "composed")
    extra = {"bundle.bytes": _bytes(out / "bundle_S")}
    if tracer.enabled:
        extra["structure.overlapping_pairs"] = _overlapping_pairs(bundle.keyword_sets)
    return dict(items=len(bundle.items), errors=len(bundle.errors), failures=[], concurrency=1, extra=extra)


def run_eval(inputs: Path, out: Path, tracer, step: Step, compose_only: Path | None) -> dict:
    """Compose the seeded SameAs bundle, A/B compare one seed, classify with one model."""
    with tracer.span("step.setup"):
        kf = _kgforge(tracer)
        kg = kf.load_dataset(inputs / "dataset")
    step.setup_done()
    _compose(kf, kg, step, [inputs / "bundle_S"], out / "composed")
    if compose_only:
        return {}
    cfg = kf.TrainConfig(**TRAIN)
    with step("eval"):
        augmented = kf.load_dataset(out / "composed")
        report = kf.ab_compare(kg, augmented, cfg, n_seeds=1)
    (out / "comparison.json").write_text(report.to_json(), encoding="utf-8", newline="\n")
    model = kf.train(augmented, cfg)
    with step("classify"):
        accuracy = kf.triplet_classification(model, augmented)
    (out / "classification.txt").write_text(f"{accuracy!r}\n", encoding="utf-8", newline="\n")
    return dict(items=0, errors=0, failures=[], concurrency=1, extra={})


WORKLOADS = {"text-wn18rr": run_text, "structure-4k": run_structure, "eval-fb237": run_eval}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compose-only", type=Path, metavar="BUNDLES")
    args = parser.parse_args()

    tracer = tracing.Tracer(run=args.out.name) if args.trace else tracing.NullTracer()
    step = Step(tracer)
    args.out.mkdir(parents=True, exist_ok=True)
    result = WORKLOADS[args.workload](args.inputs, args.out, tracer, step, args.compose_only)
    step.times["total_s"] = time.perf_counter() - _T0
    import kgforge

    record = {
        "steps": step.times,
        "peak_rss_mb": peak_rss_mb(),
        "kgforge": kgforge.__file__,
        **{k: v for k, v in result.items() if k != "extra"},
    }
    if tracer.enabled:
        record["layers"] = tracing.layer_metrics(tracer, result["concurrency"], result["extra"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
