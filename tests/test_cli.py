"""Command-line behaviors: exit codes, outputs, count laws."""

import json
import math
import os
from dataclasses import replace

import pytest

from kgforge.bundle import AugmentationBundle
from kgforge.cli import main
from kgforge.gateway import ReplayBackend
from kgforge.kg import kg_fingerprint, load_dataset, write_dataset
from kgforge.synth import planted_alias_graph


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
    config = run_config(structure={"k": 1, "self_loop": False})
    rc = main(
        ["enrich", "--config", str(config), "--strategy", "S", "--k", "3", "--self-loop"]
    )
    assert rc == 0
    bundle_dir = tmp_path / "out" / "bundle_S"
    # The flags win over the file's values: the bundle is the one the same keys in the file give.
    config = run_config(structure={"k": 3, "self_loop": True})
    assert main(["enrich", "--config", str(config), "--strategy", "S", "--out", str(tmp_path / "file")]) == 0
    assert read_tree(tmp_path / "file" / "bundle_S") == read_tree(bundle_dir)
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


def test_enrich_empty_relation_name_is_a_per_item_error(run_config, tmp_path, toy_kg, capsys):
    root = tmp_path / "blank"
    write_dataset(replace(toy_kg, relation_name={**toy_kg.relation_name, "/film/release_region": ""}), root)
    config = run_config(dataset={"root": str(root)})
    args = ["enrich", "--config", str(config), "--strategy", "E", "--strategy", "R"]
    assert main([*args, "--allow-partial"]) == 0
    written = read_tree(tmp_path / "out")
    assert {name.split(os.sep)[0] for name in written} == {"bundle_E", "bundle_R"}
    audit = json.loads(written[os.path.join("bundle_R", "audit.json")])
    assert audit["n_errors"] == 3
    failed = [(item["subject"], item["mode"], item["prompt_hash"], item["error"]) for item in audit["items"] if item["error"]]
    assert failed == [
        ("/film/release_region", mode, None, "cannot fill {Relation Name} with an empty string")
        for mode in ("global", "local", "reverse")
    ]
    capsys.readouterr()
    # Without --allow-partial the same bundles are written and the run exits 1.
    assert main(args) == 1
    assert read_tree(tmp_path / "out") == written
    assert capsys.readouterr().err == "enrichment finished with 3 per-item errors\n"


def test_eval_rejects_datasets_over_different_entities(run_config, tmp_path, toy_root, toy_kg, capsys):
    padded = tmp_path / "padded"
    write_dataset(replace(toy_kg, entity_name={**toy_kg.entity_name, "/m/isolated": "Isolated"}), padded)
    config = run_config()
    out = tmp_path / "report.json"
    args = ["eval", "--config", str(config), "--base", str(padded), "--augmented", str(toy_root), "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: base and augmented graphs must rank over the same entities\n"
    )
    assert not out.exists()


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


def test_compose_rejects_two_bundles_of_one_kind_in_either_order(run_config, tmp_path, toy_root, capsys):
    config = run_config()
    fingerprint = kg_fingerprint(load_dataset(toy_root))
    paths = [
        AugmentationBundle("entity", fingerprint, entity_text={"/m/bay": text}).save(tmp_path / text)
        for text in ("A", "B")
    ]
    for order in (paths, paths[::-1]):
        argv = ["compose", "--config", str(config), "--out", str(tmp_path / "never")]
        for path in order:
            argv += ["--bundle", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: 2 entity bundles given; compose at most one bundle per kind\n"
    assert not (tmp_path / "never").exists()


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


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize(
    ("file_name", "corrupt", "named"),
    [
        ("audit.json", lambda audit: _without(audit, "kind"), "'kind'"),
        ("audit.json", lambda audit: [audit], "not list"),
        ("audit.json", lambda audit: {**audit, "items": [_without(audit["items"][0], "subject")]}, "'subject'"),
        ("audit.json", lambda audit: {**audit, "items": ["an item"]}, "items[0]"),
        ("audit.json", lambda audit: {**audit, "items": [{**audit["items"][0], "flags": 3}]}, "'flags'"),
        ("audit.json", lambda audit: {**audit, "items": [{**audit["items"][0], "flags": ["ok", None]}]}, "'flags'"),
        ("audit.json", lambda audit: {**audit, "items": [{**audit["items"][0], "error": 5}]}, "'error'"),
        ("audit.json", lambda audit: {**audit, "items": [{**audit["items"][0], "mode": ["m"]}]}, "'mode'"),
        ("audit.json", lambda audit: {**audit, "items": [{**audit["items"][0], "prompt_hash": 7}]}, "'prompt_hash'"),
        ("audit.json", lambda audit: {**audit, "items": [{**audit["items"][0], "response": {}}]}, "'response'"),
        ("audit.json", lambda audit: {**audit, "fingerprint": 7}, "'fingerprint'"),
        ("keywords.json", lambda keywords: list(keywords), "not list"),
        ("keywords.json", lambda keywords: dict.fromkeys(keywords, 5), "must be a JSON array"),
        ("keywords.json", lambda keywords: {**keywords, min(keywords): ["ok", 1]}, "must hold only JSON strings"),
    ],
    ids=[
        "no-kind",
        "audit-list",
        "no-subject",
        "item-not-object",
        "flags-not-list",
        "flag-not-string",
        "error-not-string",
        "mode-not-string",
        "prompt-hash-not-string",
        "response-not-string",
        "fingerprint-not-string",
        "keywords-list",
        "keyword-set-not-list",
        "keyword-not-string",
    ],
)
def test_compose_rejects_malformed_bundle_in_one_line(run_config, tmp_path, capsys, file_name, corrupt, named):
    config = run_config()
    assert main(["enrich", "--config", str(config), "--strategy", "S"]) == 0
    path = tmp_path / "out" / "bundle_S" / file_name
    path.write_text(json.dumps(corrupt(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "never"
    assert main(["compose", "--config", str(config), "--bundle", str(path.parent), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert file_name in err and named in err, err
    assert not out.exists()


def test_compose_rejects_a_stray_payload_file_in_one_line(run_config, tmp_path, capsys):
    config = run_config()
    assert main(["enrich", "--config", str(config), "--strategy", "E"]) == 0
    bundle_dir = tmp_path / "out" / "bundle_E"
    (bundle_dir / "extra_triples.tsv").write_text("/m/bay\tSameAs\t/m/la\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "never"
    assert main(["compose", "--config", str(config), "--bundle", str(bundle_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: entity bundle carries extra_triples; only structure bundles carry it\n"
    assert not out.exists()


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


def test_enrich_help_names_each_flag_key(capsys):
    assert main(["enrich", "--help"]) == 0
    help_text = capsys.readouterr().out
    for key in ("structure.k", "structure.self_loop", "entity.budget_tokens", "relation.modes"):
        assert key in help_text


@pytest.mark.parametrize(
    "flags, same_in_file",
    [
        (["--budget-tokens", "0"], {"entity": {"budget_tokens": 0}}),
        (["--k", "-1"], {"structure": {"k": -1}}),
        (["--modes", "global,bogus"], {"relation": {"modes": ["global", "bogus"]}}),
        (["--modes", ""], {"relation": {"modes": [""]}}),
    ],
    ids=["budget-tokens", "k", "modes", "modes-empty"],
)
def test_invalid_flag_is_config_error_before_any_query(run_config, monkeypatch, capsys, flags, same_in_file):
    prompts = []

    def generate(self, prompt_text, params):
        prompts.append(prompt_text)
        return "unused"

    monkeypatch.setattr(ReplayBackend, "generate", generate)
    argv = ["enrich", "--strategy", "E", "--strategy", "R", "--strategy", "S", "--config"]
    # The file's own values are valid, so the flag's value is the one reported.
    assert main(argv + [str(run_config(structure={"k": 1}, entity={"budget_tokens": 70}))] + flags) == 2
    flag_error = capsys.readouterr().err
    assert main(argv + [str(run_config(**same_in_file))]) == 2
    assert capsys.readouterr().err == flag_error
    assert flag_error.startswith("config error: ") and flag_error.count("\n") == 1
    assert prompts == []


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
        {"train": {"margin": True}},
        {"train": {"learning_rate": True}},
        {"train": {"dim": True}},
        {"train": {"norm": True}},
        {"eval": {"n_seeds": True}},
        {"structure": {"k": True}},
        {"structure": {"self_loop": "false"}},
        {"structure": {"same_as_relation": 5}},
    ],
    ids=["k-float", "dim-float", "train-seed-str", "train-seed-negative", "modes-empty",
         "seed-null", "seed-str", "budget-null", "max-new-tokens-str", "fixture-int",
         "concurrency-float", "temperature-str", "temperature-null", "temperature-negative",
         "temperature-inf", "margin-nan", "margin-inf", "learning-rate-nan", "margin-bool",
         "learning-rate-bool", "dim-bool", "norm-bool", "n-seeds-bool", "k-bool", "self-loop-str",
         "same-as-int"],
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
    _, keyword_sets = planted_alias_graph(seed=13)
    expected = json.dumps(keyword_sets, indent=2, sort_keys=True) + "\n"
    assert (planted_out / "keywords.json").read_bytes() == expected.encode("utf-8")
