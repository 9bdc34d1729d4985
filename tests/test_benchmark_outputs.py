"""The benchmark's structure workload reproduces every reference digest of its outputs.

One short run of ``perfbench/run.py`` checks the bytes of the S bundle
(``audit.json``, extra triples, keywords, augmented train) and of the composed
dataset against ``perfbench/reference.json``, so a change to any output byte
fails here, not only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_structure_workload_outputs_match_their_reference_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "structure-4k", "--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
