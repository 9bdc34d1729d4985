"""Gateway settings: backend validation and the HTTP gateway build path."""

import json

import pytest

from kgforge.cli import main
from kgforge.config import (
    GATEWAY_BACKENDS,
    ConfigError,
    GatewaySettings,
    build_gateway,
    generation_params,
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


def test_settings_defaults_match_generation_params(monkeypatch):
    monkeypatch.delenv(MODEL_ENV, raising=False)
    assert generation_params(GatewaySettings()) == GenerationParams()
