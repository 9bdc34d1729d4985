"""Run configuration: one JSON file drives enrich, compose, and eval runs.

Schema (all sections optional unless noted):

    {
      "dataset":   {"root": "path", "mode": "strict"},      # root required
      "output_dir": "out",
      "seed": 7,
      "entity":    {"budget_tokens": 70},
      "relation":  {"modes": ["global", "local", "reverse"]},
      "structure": {"k": 1, "self_loop": false, "same_as_relation": "SameAs"},
      "gateway":   {"backend": "replay", "fixture": "path", ...},
      "train":     {"kind": "transe", "dim": 16, ...},
      "eval":      {"n_seeds": 5, "split": "test"}
    }

Gateway endpoint, API key and model fall back to the LLM_ENDPOINT,
LLM_API_KEY, and LLM_MODEL environment variables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .gateway import (
    API_KEY_ENV,
    DEFAULT_MAX_NEW_TOKENS,
    DEFAULT_TEMPERATURE,
    ENDPOINT_ENV,
    MODEL_ENV,
    GenerationParams,
    HttpBackend,
    LlmGateway,
    ReplayBackend,
)
from .harness import TrainConfig
from .structure import StructureConfig
from .templates import RelationMode


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


GATEWAY_BACKENDS = ("replay", "http")


@dataclass(frozen=True)
class GatewaySettings:
    backend: str = "replay"
    fixture: str | None = None
    endpoint: str | None = None
    api_key: str | None = None
    model: str | None = None
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    concurrency: int = 4
    max_retries: int = 3
    cache: str | None = None

    def __post_init__(self):
        if self.backend not in GATEWAY_BACKENDS:
            raise ConfigError(f"gateway.backend must be one of {GATEWAY_BACKENDS}, got {self.backend!r}")


@dataclass(frozen=True)
class RunConfig:
    dataset_root: Path
    dataset_mode: str = "strict"
    output_dir: Path = Path("out")
    seed: int = 7
    budget_tokens: int = 70
    relation_modes: tuple[RelationMode, ...] = (
        RelationMode.GLOBAL,
        RelationMode.LOCAL,
        RelationMode.REVERSE,
    )
    structure: StructureConfig = field(default_factory=StructureConfig)
    gateway: GatewaySettings = field(default_factory=GatewaySettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    n_seeds: int = 5
    eval_split: str = "test"

    def __post_init__(self):
        if self.dataset_mode not in ("strict", "lenient"):
            raise ConfigError(f"dataset.mode must be strict or lenient, got {self.dataset_mode!r}")
        if self.eval_split not in ("valid", "test"):
            raise ConfigError(f"eval.split must be valid or test, got {self.eval_split!r}")
        if self.n_seeds < 1:
            raise ConfigError(f"eval.n_seeds must be >= 1, got {self.n_seeds}")
        if self.budget_tokens < 1:
            raise ConfigError(f"entity.budget_tokens must be >= 1, got {self.budget_tokens}")


def _section(data: dict, key: str, allowed: set[str]) -> dict:
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {key!r} must be an object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
    return raw


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")

    known_sections = {"dataset", "output_dir", "seed", "entity", "relation", "structure", "gateway", "train", "eval"}
    unknown = set(data) - known_sections
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    dataset = _section(data, "dataset", {"root", "mode"})
    if "root" not in dataset:
        raise ConfigError("config must set dataset.root")
    seed = int(data.get("seed", 7))

    entity = _section(data, "entity", {"budget_tokens"})
    relation = _section(data, "relation", {"modes"})
    try:
        modes = tuple(RelationMode(m) for m in relation.get("modes", ("global", "local", "reverse")))
    except ValueError as exc:
        raise ConfigError(f"relation.modes: {exc}")

    structure_raw = _section(data, "structure", {"k", "self_loop", "same_as_relation"})
    gateway_raw = _section(
        data,
        "gateway",
        {f.name for f in fields(GatewaySettings)},
    )
    train_raw = _section(data, "train", {f.name for f in fields(TrainConfig)})
    train_raw.setdefault("seed", seed)
    eval_raw = _section(data, "eval", {"n_seeds", "split"})

    try:
        cfg = RunConfig(
            dataset_root=Path(dataset["root"]),
            dataset_mode=dataset.get("mode", "strict"),
            output_dir=Path(data.get("output_dir", "out")),
            seed=seed,
            budget_tokens=int(entity.get("budget_tokens", 70)),
            relation_modes=modes,
            structure=StructureConfig(**structure_raw),
            gateway=GatewaySettings(**gateway_raw),
            train=TrainConfig(**train_raw),
            n_seeds=int(eval_raw.get("n_seeds", 5)),
            eval_split=eval_raw.get("split", "test"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc))

    if not cfg.dataset_root.is_dir():
        raise ConfigError(f"dataset.root does not exist: {cfg.dataset_root}")
    if cfg.gateway.backend == "replay":
        if not cfg.gateway.fixture:
            raise ConfigError("gateway.backend=replay requires gateway.fixture")
        if not Path(cfg.gateway.fixture).is_file():
            raise ConfigError(f"gateway.fixture does not exist: {cfg.gateway.fixture}")
    return cfg


def generation_params(settings: GatewaySettings) -> GenerationParams:
    model = settings.model or os.environ.get(MODEL_ENV) or "default"
    return GenerationParams(
        temperature=settings.temperature,
        max_new_tokens=settings.max_new_tokens,
        model_id=model,
    )


def build_gateway(settings: GatewaySettings) -> LlmGateway:
    """Construct the configured gateway (replay or live HTTP).

    With ``cache`` set, every live response is appended to that file in
    fixture format, so the file replays as a fixture and a re-run over it
    resumes without repeating finished calls.
    """
    if settings.backend == "replay":
        if not settings.fixture:
            raise ConfigError("gateway.backend=replay requires gateway.fixture")
        backend = ReplayBackend(settings.fixture)
    else:
        endpoint = settings.endpoint or os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise ConfigError(
                f"gateway.backend={settings.backend} needs gateway.endpoint or {ENDPOINT_ENV}"
            )
        backend = HttpBackend(
            endpoint=endpoint,
            api_key=settings.api_key or os.environ.get(API_KEY_ENV),
            concurrency=settings.concurrency,
            max_retries=settings.max_retries,
        )
    return LlmGateway(backend, params=generation_params(settings), cache_path=settings.cache)


def with_overrides(cfg: RunConfig, **updates) -> RunConfig:
    """Apply flag overrides on top of a loaded config; a bad value raises ConfigError."""
    structure_updates = {
        k: updates.pop(k) for k in ("k", "self_loop", "same_as_relation") if k in updates
    }
    try:
        if structure_updates:
            updates["structure"] = replace(cfg.structure, **structure_updates)
        return replace(cfg, **updates)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))
