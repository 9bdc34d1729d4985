"""The whole pipeline through the CLI: fixtures -> enrich -> compose -> eval.

Equivalent shell session:

    kgforge fixtures toy --out data/toy --replay data/toy_replay.jsonl
    kgforge enrich  --config run.json --strategy E --strategy R --strategy S --out out/bundles
    kgforge compose --config run.json --bundle out/bundles/bundle_E ... --out out/composed
    kgforge eval    --config run.json --base data/toy --augmented out/composed

Run twice against the same replay fixture, the output tree is byte-identical.
"""

import json
import tempfile
from pathlib import Path

from kgforge.cli import main

with tempfile.TemporaryDirectory(prefix="kgforge_demo_") as tmp:
    scratch = Path(tmp)
    toy_root = scratch / "data" / "toy"
    fixture = scratch / "data" / "toy_replay.jsonl"
    assert main(["fixtures", "toy", "--out", str(toy_root), "--replay", str(fixture)]) == 0

    config = {
        "dataset": {"root": str(toy_root)},
        "output_dir": str(scratch / "out"),
        "seed": 7,
        "structure": {"k": 1, "self_loop": True},
        "gateway": {"backend": "replay", "fixture": str(fixture)},
        "train": {"dim": 16, "epochs": 100},
        "eval": {"n_seeds": 3, "split": "test"},
    }
    config_path = scratch / "run.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    print("\n-- enrich --")
    assert main([
        "enrich", "--config", str(config_path),
        "--strategy", "E", "--strategy", "R", "--strategy", "S",
    ]) == 0

    print("\n-- compose --")
    bundles = [str(scratch / "out" / f"bundle_{s}") for s in "ERS"]
    composed = scratch / "out" / "composed"
    args = ["compose", "--config", str(config_path), "--out", str(composed)]
    for bundle in bundles:
        args += ["--bundle", bundle]
    assert main(args) == 0

    print("\n-- stats of the composed dataset --")
    assert main(["stats", str(composed)]) == 0

    print("\n-- eval: base vs composed --")
    assert main([
        "eval", "--config", str(config_path),
        "--base", str(toy_root), "--augmented", str(composed),
    ]) == 0
