"""Run configuration: file loading, gateway settings and the gateway build path."""

import json
from pathlib import Path

import pytest

from kgforge.cli import main
from kgforge.config import (
    GATEWAY_BACKENDS,
    ConfigError,
    GatewaySettings,
    RunConfig,
    build_gateway,
    load_config,
)
from kgforge.gateway import (
    ENDPOINT_ENV,
    MODEL_ENV,
    GenerationParams,
    HttpBackend,
    LlmGateway,
    ReplayBackend,
    read_fixture,
)
from kgforge.harness import TrainConfig
from kgforge.structure import StructureConfig
from kgforge.templates import RelationMode

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "run.example.json"


def test_example_and_minimal_configs_load_to_the_dataclass_defaults(tmp_path, toy_root, toy_fixture_path):
    example = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
    example["dataset"]["root"] = str(toy_root)
    example["gateway"]["fixture"] = str(toy_fixture_path)

    def load(data):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_config(path)

    assert load(example) == RunConfig(
        dataset_root=toy_root,
        structure=StructureConfig(self_loop=True),
        gateway=GatewaySettings(fixture=str(toy_fixture_path)),
    )
    minimal = {"dataset": {"root": str(toy_root)}}
    assert load(minimal) == RunConfig(dataset_root=toy_root)
    assert load(dict(minimal, seed=3)) == RunConfig(dataset_root=toy_root, train=TrainConfig(seed=3))
    assert load(dict(minimal, seed=3, train={"seed": 4})).train.seed == 4


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"bogus": 1}, "unknown config keys"),
        ({"structure": {"bogus": 1}}, r"unknown config keys: \['structure.bogus'\]"),
        ({"dataset.mode": "lenient"}, "unknown config keys"),
        ({"train": 5}, "section 'train' must be an object"),
        ({"dataset": {"mode": "lenient"}}, "must set dataset.root"),
    ],
    ids=["top-level", "in-section", "dotted-top-level", "section-not-object", "no-root"],
)
def test_config_file_shape_errors(tmp_path, toy_root, extra, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"dataset": {"root": str(toy_root)}, **extra}), encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_unknown_backend_names_the_valid_ones(tmp_path, toy_root, capsys):
    with pytest.raises(ConfigError, match="replay.*http"):
        GatewaySettings(backend="record")
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"dataset": {"root": str(toy_root)}, "gateway": {"backend": "record"}}),
        encoding="utf-8",
    )
    assert main(["enrich", "--config", str(config), "--strategy", "E"]) == 2
    assert str(GATEWAY_BACKENDS) in capsys.readouterr().err


def test_http_without_endpoint_is_config_error(monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    with pytest.raises(ConfigError, match=ENDPOINT_ENV):
        build_gateway(GatewaySettings(backend="http"))


def test_http_with_cache_builds_a_persisting_gateway(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    settings = GatewaySettings(
        backend="http",
        endpoint="http://127.0.0.1:9/v1/chat/completions",
        concurrency=3,
        max_retries=5,
        cache=str(cache),
    )
    gateway = build_gateway(settings)
    assert isinstance(gateway.backend, HttpBackend)
    assert gateway.backend.endpoint == settings.endpoint
    assert (gateway.backend.concurrency, gateway.backend.max_retries) == (3, 5)
    monkeypatch.setattr(gateway.backend, "generate", lambda text, params: f"echo: {text}")
    gateway.batch_query(["p"])
    assert list(read_fixture(cache).values()) == ["echo: p"]
    # The cache file doubles as a replay fixture for the same generation params.
    replayed = LlmGateway(ReplayBackend(cache), params=gateway.params)
    assert replayed.batch_query(["p"])[0].response == "echo: p"


def test_settings_defaults_match_generation_params(monkeypatch, toy_fixture_path):
    monkeypatch.delenv(MODEL_ENV, raising=False)
    assert build_gateway(GatewaySettings(fixture=str(toy_fixture_path))).params == GenerationParams()


def test_run_config_built_directly_parses_its_modes(tmp_path):
    assert RunConfig(dataset_root=tmp_path, relation_modes=["reverse", "global", "reverse"]).relation_modes == (
        RelationMode.GLOBAL,
        RelationMode.REVERSE,
    )
    for modes in ([], ["global", "bogus"]):
        with pytest.raises(ConfigError, match=r"^relation\.modes must be a non-empty subset of \['global'"):
            RunConfig(dataset_root=tmp_path, relation_modes=modes)
