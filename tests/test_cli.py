"""Command-line behaviors: exit codes, outputs, count laws."""

import json
import math
import os

import pytest

from kgforge.cli import main
from kgforge.gateway import ReplayBackend
from kgforge.kg import load_dataset


@pytest.fixture
def run_config(tmp_path, toy_root, toy_fixture_path):
    def write(**overrides):
        cfg = {
            "dataset": {"root": str(toy_root), "mode": "strict"},
            "output_dir": str(tmp_path / "out"),
            "seed": 7,
            "gateway": {"backend": "replay", "fixture": str(toy_fixture_path)},
            "train": {"dim": 8, "epochs": 20},
            "eval": {"n_seeds": 1, "split": "test"},
        }
        for key, value in overrides.items():
            # A section override sets only the keys it names.
            cfg[key] = {**cfg[key], **value} if isinstance(cfg.get(key), dict) else value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    return write


def read_tree(root):
    tree = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, root)] = handle.read()
    return tree


def test_stats_json(toy_root, capsys):
    assert main(["stats", str(toy_root), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n_entities": 8, "n_relations": 3, "n_train": 12, "n_valid": 2, "n_test": 2}


def test_stats_plain(toy_root, capsys):
    assert main(["stats", str(toy_root)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split() == ["n_entities", "8"] for line in lines)


def test_stats_missing_root_fails(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing")]) == 1
    assert "missing" in capsys.readouterr().err


def test_unknown_strategy_is_usage_error(run_config, capsys):
    config = run_config()
    assert main(["enrich", "--config", str(config), "--strategy", "X"]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_enrich_entity_strategy(run_config, tmp_path, capsys):
    config = run_config()
    assert main(["enrich", "--config", str(config), "--strategy", "E"]) == 0
    bundle_dir = tmp_path / "out" / "bundle_E"
    assert (bundle_dir / "entity_text.tsv").is_file()
    audit = json.loads((bundle_dir / "audit.json").read_text(encoding="utf-8"))
    assert audit["kind"] == "entity" and audit["n_errors"] == 0


def test_enrich_structure_count_law(run_config, tmp_path):
    config = run_config()
    rc = main(
        ["enrich", "--config", str(config), "--strategy", "S", "--k", "3", "--self-loop"]
    )
    assert rc == 0
    bundle_dir = tmp_path / "out" / "bundle_S"
    triples = (bundle_dir / "extra_triples.tsv").read_text(encoding="utf-8").splitlines()
    keywords = json.loads((bundle_dir / "keywords.json").read_text(encoding="utf-8"))
    self_loops = [line for line in triples if line.split("\t")[0] == line.split("\t")[2]]
    assert len(self_loops) == len(keywords)
    merged = (bundle_dir / "train_augmented.txt").read_text(encoding="utf-8").splitlines()
    assert len(merged) == 12 + len(triples)


def test_enrich_partial_failure_exit_codes(run_config, tmp_path, toy_fixture_path):
    # Drop one record so exactly one entity misses.
    lines = toy_fixture_path.read_text(encoding="utf-8").splitlines()
    partial = tmp_path / "partial.jsonl"
    partial.write_text(
        "\n".join(line for line in lines if "Ian Bryce is a producer" not in line and "about Ian Bryce" not in line)
        + "\n",
        encoding="utf-8",
    )
    config = run_config(gateway={"backend": "replay", "fixture": str(partial)})
    assert main(["enrich", "--config", str(config), "--strategy", "E"]) == 1
    assert (
        main(["enrich", "--config", str(config), "--strategy", "E", "--allow-partial"]) == 0
    )


def test_compose_without_bundles_copies_base(run_config, tmp_path, toy_root):
    config = run_config()
    out = tmp_path / "copy"
    assert main(["compose", "--config", str(config), "--out", str(out)]) == 0
    assert read_tree(out) == read_tree(toy_root)


def test_compose_applies_bundles(run_config, tmp_path):
    config = run_config()
    assert main(["enrich", "--config", str(config), "--strategy", "E", "--strategy", "S", "--self-loop"]) == 0
    out = tmp_path / "composed"
    rc = main(
        [
            "compose",
            "--config",
            str(config),
            "--bundle",
            str(tmp_path / "out" / "bundle_E"),
            "--bundle",
            str(tmp_path / "out" / "bundle_S"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    kg = load_dataset(out)
    extra = (tmp_path / "out" / "bundle_S" / "extra_triples.tsv").read_text(encoding="utf-8")
    assert len(kg.train) == 12 + len(extra.splitlines())
    assert "SameAs" in kg.relations


def test_compose_rejects_stale_bundle(run_config, tmp_path, toy_fixture_path, capsys):
    config = run_config()
    assert main(["enrich", "--config", str(config), "--strategy", "E"]) == 0
    audit_path = tmp_path / "out" / "bundle_E" / "audit.json"
    audit = json.loads(audit_path.read_text(encoding="utf-8"))
    audit["fingerprint"] = "f" * 64
    audit_path.write_text(json.dumps(audit), encoding="utf-8")
    rc = main(
        [
            "compose",
            "--config",
            str(config),
            "--bundle",
            str(tmp_path / "out" / "bundle_E"),
            "--out",
            str(tmp_path / "never"),
        ]
    )
    assert rc == 1
    assert "fingerprint" in capsys.readouterr().err


def test_eval_identical_datasets_zero_delta(run_config, tmp_path, toy_root, capsys):
    config = run_config()
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "eval",
            "--config",
            str(config),
            "--base",
            str(toy_root),
            "--augmented",
            str(toy_root),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert all(value == 0.0 for value in report["median_delta"].values())
    assert "delta med" in capsys.readouterr().out


def test_eval_missing_augmented_dir(run_config, toy_root, tmp_path, capsys):
    config = run_config()
    missing = tmp_path / "not_there"
    rc = main(
        ["eval", "--config", str(config), "--base", str(toy_root), "--augmented", str(missing)]
    )
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


def test_config_validation_failures(tmp_path, toy_root, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"root": str(toy_root)}, "bogus": 1}), encoding="utf-8")
    assert main(["enrich", "--config", str(bad), "--strategy", "E"]) == 2
    missing_fixture = tmp_path / "missing_fixture.json"
    missing_fixture.write_text(
        json.dumps(
            {
                "dataset": {"root": str(toy_root)},
                "gateway": {"backend": "replay", "fixture": str(tmp_path / "nope.jsonl")},
            }
        ),
        encoding="utf-8",
    )
    assert main(["enrich", "--config", str(missing_fixture), "--strategy", "E"]) == 2


@pytest.mark.parametrize(
    "flags",
    [["--budget-tokens", "0"], ["--k", "-1"], ["--modes", "global,bogus"]],
    ids=["budget-tokens", "k", "modes"],
)
def test_invalid_flag_is_config_error_before_any_query(run_config, monkeypatch, capsys, flags):
    prompts = []

    def generate(self, prompt_text, params):
        prompts.append(prompt_text)
        return "unused"

    monkeypatch.setattr(ReplayBackend, "generate", generate)
    config = run_config()
    argv = ["enrich", "--config", str(config), "--strategy", "E", "--strategy", "R", "--strategy", "S"]
    assert main(argv + flags) == 2
    assert prompts == []
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"structure": {"k": 1.5}},
        {"train": {"dim": 4.5}},
        {"train": {"seed": "x"}},
        {"train": {"seed": -1}},
        {"relation": {"modes": []}},
        {"seed": None},
        {"seed": "x"},
        {"entity": {"budget_tokens": None}},
        {"gateway": {"max_new_tokens": "x"}},
        {"gateway": {"fixture": 5}},
        {"gateway": {"concurrency": 1.5}},
        {"gateway": {"temperature": "x"}},
        {"gateway": {"temperature": None}},
        {"gateway": {"temperature": -1}},
        {"gateway": {"temperature": 1e999}},
        {"train": {"margin": math.nan}},
        {"train": {"margin": 1e999}},
        {"train": {"learning_rate": math.nan}},
    ],
    ids=["k-float", "dim-float", "train-seed-str", "train-seed-negative", "modes-empty",
         "seed-null", "seed-str", "budget-null", "max-new-tokens-str", "fixture-int",
         "concurrency-float", "temperature-str", "temperature-null", "temperature-negative",
         "temperature-inf", "margin-nan", "margin-inf", "learning-rate-nan"],
)
def test_malformed_config_value_is_config_error_before_any_query(
    run_config, monkeypatch, capsys, overrides
):
    prompts = []

    def generate(self, prompt_text, params):
        prompts.append(prompt_text)
        return "unused"

    monkeypatch.setattr(ReplayBackend, "generate", generate)
    config = run_config(**overrides)
    argv = ["enrich", "--config", str(config), "--strategy", "E", "--strategy", "R", "--strategy", "S"]
    assert main(argv) == 2
    assert prompts == []
    assert "config error" in capsys.readouterr().err


def test_compose_and_eval_need_no_fixture(run_config, tmp_path, toy_root):
    config = run_config(gateway={"backend": "replay", "fixture": str(tmp_path / "nope.jsonl")})
    assert main(["compose", "--config", str(config), "--out", str(tmp_path / "copy")]) == 0
    assert main(["eval", "--config", str(config), "--base", str(toy_root), "--augmented", str(toy_root)]) == 0


def test_fixtures_toy_and_planted(tmp_path, capsys):
    toy_out = tmp_path / "toy"
    replay = tmp_path / "replay.jsonl"
    assert main(["fixtures", "toy", "--out", str(toy_out), "--replay", str(replay)]) == 0
    assert load_dataset(toy_out).train
    assert replay.is_file()

    planted_out = tmp_path / "planted"
    assert main(["fixtures", "planted", "--out", str(planted_out)]) == 0
    kg = load_dataset(planted_out)
    assert len(kg.entities) == 60
    assert (planted_out / "keywords.json").is_file()
