"""Run configuration: one JSON file drives enrich, compose, and eval runs.

Schema (every key optional except dataset.root):

    {
      "dataset":   {"root": "path", "mode": <one of kg.MODES>},
      "output_dir": "out",
      "seed": 7,
      "entity":    {"budget_tokens": 70},
      "relation":  {"modes": ["global", "local", "reverse"]},
      "structure": {"k": 1, "self_loop": false, "same_as_relation": "SameAs"},
      "gateway":   {"backend": "replay", "fixture": "path", ...},
      "train":     {"kind": "transe", "dim": 16, ...},
      "eval":      {"n_seeds": 5, "split": "test"}
    }

A key the file omits takes its default from the dataclass it sets:
RunConfig, StructureConfig, GatewaySettings or TrainConfig. The top-level
"seed" is the default for train.seed. Values are taken as typed; a wrong
type or an out-of-range value is a ConfigError. Each dataclass checks its
own values, so a RunConfig built directly is checked as ``load_config``'s
are; relation.modes keeps each mode once, in canonical order. The replay
fixture is checked only when ``enrich`` builds the gateway, so compose and
eval run without one.

``load_config`` builds a RunConfig from a file. Its ``flags`` set dotted
file keys over the file's values: the ``enrich`` flags --k, --self-loop,
--budget-tokens and --modes set structure.k, structure.self_loop,
entity.budget_tokens and relation.modes, and each is parsed, checked and
reported exactly like the same key in the file.

Gateway endpoint, API key and model fall back to the LLM_ENDPOINT,
LLM_API_KEY, and LLM_MODEL environment variables, and the model then to
``GenerationParams``' default.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path

from .entity import DEFAULT_BUDGET_TOKENS
from .gateway import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    MODEL_ENV,
    GenerationParams,
    HttpBackend,
    LlmGateway,
    ReplayBackend,
)
from .harness import TrainConfig
from .kg import MODES, require_int
from .structure import StructureConfig
from .templates import MODE_ORDER, RelationMode, parse_modes


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
    temperature: float = GenerationParams.temperature
    max_new_tokens: int = GenerationParams.max_new_tokens
    concurrency: int = 4
    max_retries: int = 3
    cache: str | None = None

    def __post_init__(self):
        if self.backend not in GATEWAY_BACKENDS:
            raise ConfigError(f"gateway.backend must be one of {GATEWAY_BACKENDS}, got {self.backend!r}")
        for name in ("fixture", "cache", "endpoint", "api_key", "model"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"gateway.{name} must be a string, got {value!r}")
        try:
            GenerationParams(temperature=self.temperature, max_new_tokens=self.max_new_tokens)
        except ValueError as exc:
            raise ConfigError(f"gateway.{exc}") from None
        require_int("gateway.concurrency", self.concurrency, 1)
        require_int("gateway.max_retries", self.max_retries, 0)


def _file_key(key: str, parse=None, **kwargs):
    """A RunConfig field that the file sets at ``key`` ("section.name" or a top-level name)."""
    return field(metadata={"json": key, "parse": parse}, **kwargs)


@dataclass(frozen=True)
class RunConfig:
    dataset_root: Path = _file_key("dataset.root", Path)
    dataset_mode: str = _file_key("dataset.mode", default=MODES[0])
    output_dir: Path = _file_key("output_dir", Path, default=Path("out"))
    budget_tokens: int = _file_key("entity.budget_tokens", default=DEFAULT_BUDGET_TOKENS)
    relation_modes: tuple[RelationMode, ...] = _file_key("relation.modes", default=MODE_ORDER)
    structure: StructureConfig = field(default_factory=StructureConfig)
    gateway: GatewaySettings = field(default_factory=GatewaySettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    n_seeds: int = _file_key("eval.n_seeds", default=5)
    eval_split: str = _file_key("eval.split", default="test")

    def __post_init__(self):
        if self.dataset_mode not in MODES:
            raise ConfigError(f"dataset.mode must be one of {MODES}, got {self.dataset_mode!r}")
        if self.eval_split not in ("valid", "test"):
            raise ConfigError(f"eval.split must be valid or test, got {self.eval_split!r}")
        try:
            object.__setattr__(self, "relation_modes", parse_modes(self.relation_modes))
        except ValueError as exc:
            raise ConfigError(f"relation.{exc}") from None
        require_int("eval.n_seeds", self.n_seeds, 1)
        require_int("entity.budget_tokens", self.budget_tokens, 1)


#: Config file sections that each set one whole dataclass field of RunConfig.
_SECTIONS = {"structure": StructureConfig, "gateway": GatewaySettings, "train": TrainConfig}


def load_config(path: str | Path, flags: Mapping[str, object] | None = None) -> RunConfig:
    """Parse and validate a run configuration file, with ``flags`` ({"structure.k": 3}) over its keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")

    run_fields = {tuple(f.metadata["json"].split(".")): f for f in fields(RunConfig) if f.metadata}
    known = set(run_fields) | {("seed",)}
    known |= {(section, f.name) for section, cls in _SECTIONS.items() for f in fields(cls)}
    sections = {key[0] for key in known if len(key) == 2}
    given = {}
    for key, value in data.items():
        if key not in sections:
            given[(key,)] = value
        elif isinstance(value, dict):
            given.update({(key, name): item for name, item in value.items()})
        else:
            raise ConfigError(f"section {key!r} must be an object")
    given.update({tuple(key.split(".")): value for key, value in (flags or {}).items()})
    unknown = set(given) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted('.'.join(key) for key in unknown)}")
    if ("dataset", "root") not in given:
        raise ConfigError("config must set dataset.root")
    if ("seed",) in given:
        given.setdefault(("train", "seed"), given.pop(("seed",)))

    try:
        kwargs = {}
        for key, f in run_fields.items():
            if key in given:
                parse = f.metadata["parse"]
                kwargs[f.name] = parse(given[key]) if parse else given[key]
        for section, cls in _SECTIONS.items():
            kwargs[section] = cls(**{key[1]: v for key, v in given.items() if key[0] == section})
        cfg = RunConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.dataset_root.is_dir():
        raise ConfigError(f"dataset.root does not exist: {cfg.dataset_root}")
    return cfg


def build_gateway(settings: GatewaySettings) -> LlmGateway:
    """Construct the configured gateway (replay or live HTTP).

    A replay fixture that is unset or does not exist is a ConfigError. With
    ``cache`` set, every live response is appended to that file in fixture
    format, so the file replays as a fixture and a re-run over it resumes
    without repeating finished calls.
    """
    if settings.backend == "replay":
        if not settings.fixture:
            raise ConfigError("gateway.backend=replay requires gateway.fixture")
        try:
            backend = ReplayBackend(settings.fixture)
        except FileNotFoundError:
            raise ConfigError(f"gateway.fixture does not exist: {settings.fixture}") from None
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
    model = settings.model or os.environ.get(MODEL_ENV) or GenerationParams.model_id
    params = GenerationParams(temperature=settings.temperature, max_new_tokens=settings.max_new_tokens, model_id=model)
    return LlmGateway(backend, params=params, cache_path=settings.cache)
