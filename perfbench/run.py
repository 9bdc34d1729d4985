"""kgforge benchmark: seeded workloads timed end to end, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload structure-4k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced, as a table

Each iteration runs in a fresh interpreter (``pipeline.py``) against the
library under ``src/``; iterations repeat while the next one fits in ``--seconds``.
Every iteration's outputs are checked against independent oracles, against
the other iterations, and, at the default seed, against the reference digests
in ``reference.json``. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
of ``BENCHMARK.json`` when ``--trace 0`` and its per-layer metrics when
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
PROBE_SAMPLES = 5           # set-up and compose are sampled at least this often per run
BUNDLE_SUBDIR = {"text-wn18rr": "cold"}   # where an iteration leaves the bundles it composes
DEADLINE_S = 170            # a run never takes longer than this
BLAS_THREADS = "1"          # the harness is single-threaded; pin BLAS for steady timings
# Ratios of counts that, like every count, must repeat exactly for one seed.
EXACT_RATIOS = {"gateway.hit_ratio", "gateway.key_calls_per_prompt"}


def _exact(metric: dict) -> bool:
    return metric["unit"] in ("count", "B") or metric["name"] in EXACT_RATIOS


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a timeout, no iteration completed)."""


class Crash(BenchError):
    """A pipeline process exited with an error; inside a run it counts as a failed operation."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def _import_program():
    """Put ``src/`` first on the path and check that kgforge really comes from there."""
    if not (SRC / "kgforge" / "__init__.py").is_file():
        raise BenchError(f"kgforge sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import kgforge

    if Path(kgforge.__file__).resolve().parent != (SRC / "kgforge").resolve():
        raise BenchError(f"kgforge imported from {kgforge.__file__}, not from {SRC}")
    return kgforge


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Runner:
    """Runs iterations of one workload for one seed and accumulates results."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, deadline: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.deadline = work, deadline
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.first_digests: dict[str, str] | None = None
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        import gen

        self.inputs = gen.generate(workload, seed, work / "inputs")
        self.reference = None
        if seed == DEFAULT_SEED:
            recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
            self.reference = recorded.get(workload, {})

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)

    def worker(self, name: str, *flags: str) -> dict:
        out = self.work / name
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the next iteration")
        cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", self.workload,
               "--inputs", str(self.inputs.root), "--out", str(out), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"iteration {name} exceeded the run deadline")
        if proc.returncode != 0:
            print(proc.stderr[-3000:], file=sys.stderr)
            raise Crash(f"{name} exited with code {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(record["kgforge"]).resolve().parent != (SRC / "kgforge").resolve():
            raise BenchError(f"worker imported kgforge from {record['kgforge']}")
        return record

    def iteration(self, name: str, traced: bool) -> dict | None:
        """One full pipeline run plus every check of its outputs; None if it crashed."""
        import checks

        self.attempted += 1
        try:
            record = self.worker(name, *(["--trace"] if traced else []))
            found = checks.digests(self.workload, self.work / name)
        except (Crash, OSError) as exc:
            self.fail(f"{name}: {exc}")
            return None
        out = self.work / name
        self.attempted += record["items"]
        self.failed += record["errors"]
        for failure in record["failures"]:
            self.fail(failure)
        self.attempted += len(found)
        if self.first_digests is None:
            self.first_digests = found
            try:
                results = checks.oracle(self.inputs, out)
            except (OSError, ValueError, KeyError) as exc:
                results = [(f"outputs unreadable ({exc})", False)]
            for what, ok in results:
                self.attempted += 1
                if not ok:
                    self.fail(f"oracle: {what}")
            if self.reference is not None:
                for path in sorted(set(found) | set(self.reference)):
                    if found.get(path) != self.reference.get(path):
                        self.fail(f"digest differs from reference: {path}")
            print(f"digest {self.workload} seed {self.seed} {checks.combined(found)}")
            for path, sha in found.items():
                print(f"  {sha[:16]}  {path}")
        else:
            for path in sorted(set(found) | set(self.first_digests)):
                if found.get(path) != self.first_digests.get(path):
                    self.fail(f"iteration {name} output differs from the first: {path}")
        if name != "iter0":     # the first iteration's bundles feed the compose-only probes
            shutil.rmtree(out, ignore_errors=True)
        steps = " ".join(f"{k}={v:.3f}" for k, v in record["steps"].items())
        print(f"{name} {'traced' if traced else 'untraced'}: {steps} peak_rss_mb={record['peak_rss_mb']:.1f}")
        return record

    def probe_samples(self, records: list[dict]) -> tuple[list[float], list[float]]:
        """Set-up and compose times of the iterations, topped up by compose-only runs."""
        setup = [r["steps"]["setup_s"] for r in records]
        compose = [r["steps"]["compose_s"] for r in records]
        bundles = self.work / "iter0" / BUNDLE_SUBDIR.get(self.workload, "")
        for i in range(PROBE_SAMPLES - len(records)):
            self.attempted += 1
            try:
                probe = self.worker(f"probe{i}", "--compose-only", str(bundles))
            except Crash as exc:
                self.fail(str(exc))
                continue
            shutil.rmtree(self.work / f"probe{i}", ignore_errors=True)
            setup.append(probe["steps"]["setup_s"])
            compose.append(probe["steps"]["compose_s"])
        return setup, compose

    def timed_loop(self, traced: bool, first: int = 0) -> list[dict]:
        """Iterations until the next one would end after ``seconds``; at least one."""
        start, records, last, n = time.monotonic(), [], 0.0, first
        while n == first or time.monotonic() - start + last <= self.seconds:
            began = time.monotonic()
            record = self.iteration(f"iter{n}", traced)
            records += [record] if record else []
            last, n = time.monotonic() - began, n + 1
        if not records:
            raise BenchError("no iteration completed: " + "; ".join(self.notes))
        return records


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[Runner, dict]:
    """One run: ``{name: value}`` of every step time and peak memory, or of every layer metric."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, seed, seconds, work, time.monotonic() + DEADLINE_S)
        if not trace:
            records = runner.timed_loop(traced=False)
            samples = {key: [r["steps"][key] for r in records] for key in records[0]["steps"]}
            samples["setup_s"], samples["compose_s"] = runner.probe_samples(records)
            values = {key: statistics.median(v) for key, v in samples.items()}
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in records)
            print(f"medians over {len(records)} iterations, set-up and compose over {len(samples['setup_s'])} "
                  "samples: " + " ".join(f"{k}={v:.4f}" for k, v in values.items()))
            return runner, values
        baseline = runner.iteration("iter0", traced=False)
        if baseline is None:
            raise BenchError("the untraced iteration crashed: " + "; ".join(runner.notes))
        records = runner.timed_loop(traced=True, first=1)
        counts = [m["name"] for m in spec["per_layer"] if _exact(m)]
        for r in records[1:]:
            for name in counts:
                if r["layers"][name] != records[0]["layers"][name]:
                    runner.fail(f"count {name} differs between traced iterations")
        values = {name: statistics.median(r["layers"][name] for r in records) for name in records[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["steps"]["total_s"] for r in records) - baseline["steps"]["total_s"]
        )
        return runner, values
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def run_all(seed: int, seconds: float, spec: dict) -> int:
    """Every workload untraced, then traced twice: one table, and counts must repeat exactly."""
    ok = True
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = []
    for w in spec["workloads"]:
        runner, steps = measure(w["name"], seed, seconds, False, spec)
        steps["failed_ratio"] = runner.failed / runner.attempted
        ok &= runner.failed == 0
        traced = []
        for _ in range(2):
            t_runner, layers = measure(w["name"], seed, seconds, True, spec)
            ok &= t_runner.failed == 0
            traced.append(layers)
        for m in spec["per_layer"]:
            if _exact(m) and traced[0][m["name"]] != traced[1][m["name"]]:
                print(f"count {m['name']} differs between traced runs of {w['name']}")
                ok = False
        table.append((w["name"], {**steps, **traced[0]}))
    for name, rows in table:
        print(f"\n== {name} (seed {seed})")
        for metric, value in rows.items():
            unit = units.get(metric, "MB" if metric.endswith("_mb") else "ratio" if metric.endswith("ratio") else "s")
            print(f"  {metric:<34} {value:>14.6g} {unit}")
    print(json.dumps({"env": environment()}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the digests of this seed's outputs to reference.json")
    args = parser.parse_args()
    try:
        spec = _spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        _import_program()
        if args.all:
            return run_all(args.seed, seconds, spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.record_reference:
            return record_reference(args.workload, args.seed)
        runner, values = measure(args.workload, args.seed, seconds, bool(args.trace), spec)
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for note in runner.notes:
        print(f"FAILED: {note}")
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def record_reference(workload: str, seed: int) -> int:
    import checks

    work = ROOT / ".bench_work" / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, seed, 0, work, time.monotonic() + DEADLINE_S)
        runner.worker("out")
        found = checks.digests(workload, work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference[workload] = found
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(found)} digests for {workload} at seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
