"""The package's public names, and the ones the benchmark's hooks use."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import kgforge

ROOT = Path(__file__).resolve().parents[1]

# Installs the benchmark's tracer, then runs S over the toy graph and saves and loads its bundle.
TRACED_RUN = """
import sys, tracer
from pathlib import Path
tracer_ = tracer.Tracer(run="t")
tracer.install(tracer_)
import kgforge as kf
from kgforge.synth import toy_graph, write_toy_fixture
out = Path(sys.argv[1])
write_toy_fixture(out / "replay.jsonl")
kg = toy_graph()
bundle = kf.extract_structure(kg, kf.LlmGateway(kf.ReplayBackend(out / "replay.jsonl")), kf.StructureConfig(k=1))
kf.AugmentationBundle.load(bundle.save(out / "S", base_kg=kg))
print(" ".join(sorted({span.name for span in tracer_.spans})))
"""


def test_every_exported_name_resolves():
    missing = [name for name in kgforge.__all__ if not hasattr(kgforge, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace = {}
    exec("from kgforge import *", namespace)
    assert set(kgforge.__all__) <= set(namespace)


def test_the_benchmark_hooks_fit_the_library(tmp_path):
    # The tracer rebinds module globals and wraps methods taken from class dicts, so it runs in its own interpreter.
    pipeline = (ROOT / "perfbench" / "pipeline.py").read_text(encoding="utf-8")
    used = sorted(set(re.findall(r"\bkf\.(\w+(?:\.\w+)*)", pipeline)))
    assert "load_dataset" in used
    for name in used:
        functools.reduce(getattr, name.split("."), kgforge)  # an AttributeError names what is gone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / part) for part in ("src", "perfbench")))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "bundle.load", "bundle.save", "gateway.batch", "gateway.cache_load", "gateway.fixture_load", "kg.fingerprint",
        "structure.extract", "structure.match", "structure.parse", "structure.synth", "templates.render",
    ]
