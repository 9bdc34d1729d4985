"""Prompt construction for the five enrichment query strategies.

Templates live in ``templates.json`` (shipped as package data). Each template
carries exactly one placeholder; rendering is a pure string substitution,
byte-for-byte.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from importlib import resources


class Strategy(str, enum.Enum):
    ENTITY_EXPAND = "entity_expand"
    RELATION_GLOBAL = "relation_global"
    RELATION_LOCAL = "relation_local"
    RELATION_REVERSE = "relation_reverse"
    STRUCTURE_KEYWORDS = "structure_keywords"


class RelationMode(str, enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    REVERSE = "reverse"


#: Canonical order relation texts are composed in, whatever order they were generated.
MODE_ORDER: tuple[RelationMode, ...] = (
    RelationMode.GLOBAL,
    RelationMode.LOCAL,
    RelationMode.REVERSE,
)

_MODE_STRATEGY = {
    RelationMode.GLOBAL: Strategy.RELATION_GLOBAL,
    RelationMode.LOCAL: Strategy.RELATION_LOCAL,
    RelationMode.REVERSE: Strategy.RELATION_REVERSE,
}

_PLACEHOLDER = {
    Strategy.ENTITY_EXPAND: "{Entity Name}",
    Strategy.RELATION_GLOBAL: "{Relation Name}",
    Strategy.RELATION_LOCAL: "{Relation Name}",
    Strategy.RELATION_REVERSE: "{Relation Name}",
    Strategy.STRUCTURE_KEYWORDS: "{Entity Description}",
}

_ALL_PLACEHOLDERS = ("{Entity Name}", "{Relation Name}", "{Entity Description}")


class TemplateError(ValueError):
    """A template file is malformed or a template misses its placeholder."""


@dataclass(frozen=True)
class RenderedPrompt:
    strategy: Strategy
    subject_id: str
    text: str


class TemplateSet:
    """One template string per strategy, validated at construction."""

    def __init__(self, templates: dict[Strategy, str]):
        for strategy in Strategy:
            if strategy not in templates:
                raise TemplateError(f"missing template for strategy {strategy.value!r}")
            placeholder = _PLACEHOLDER[strategy]
            if templates[strategy].count(placeholder) != 1:
                raise TemplateError(
                    f"template {strategy.value!r} must contain {placeholder!r} exactly once"
                )
        self.templates = dict(templates)

    @classmethod
    def from_mapping(cls, data: dict) -> "TemplateSet":
        try:
            raw = data["templates"]
        except (KeyError, TypeError):
            raise TemplateError("template data must have a 'templates' mapping")
        templates = {}
        for key, value in raw.items():
            try:
                templates[Strategy(key)] = str(value)
            except ValueError:
                raise TemplateError(f"unknown strategy key {key!r}")
        return cls(templates)

    @classmethod
    def default(cls) -> "TemplateSet":
        data = resources.files("kgforge").joinpath("templates.json").read_text(encoding="utf-8")
        return cls.from_mapping(json.loads(data))

    def _render(self, strategy: Strategy, value: str, subject_id: str | None) -> RenderedPrompt:
        if not value:
            raise ValueError(f"cannot render {strategy.value!r} prompt from an empty string")
        text = self.templates[strategy].replace(_PLACEHOLDER[strategy], value)
        for leftover in _ALL_PLACEHOLDERS:
            if leftover in text:
                raise TemplateError(f"rendered prompt still contains placeholder {leftover!r}")
        return RenderedPrompt(strategy=strategy, subject_id=subject_id or value, text=text)

    def render_entity_prompt(self, name: str, subject_id: str | None = None) -> RenderedPrompt:
        """Expansion query for one entity name."""
        return self._render(Strategy.ENTITY_EXPAND, name, subject_id)

    def render_relation_prompt(
        self, name: str, mode: RelationMode, subject_id: str | None = None
    ) -> RenderedPrompt:
        """Explanation query for one relation name in the given mode."""
        return self._render(_MODE_STRATEGY[RelationMode(mode)], name, subject_id)

    def render_keyword_prompt(self, description: str, subject_id: str | None = None) -> RenderedPrompt:
        """Keyword-extraction query over an entity description.

        Callers must substitute the entity name when the description is empty;
        an empty description is an error here.
        """
        return self._render(Strategy.STRUCTURE_KEYWORDS, description, subject_id)


DEFAULT_TEMPLATES = TemplateSet.default()


def render_entity_prompt(name: str, subject_id: str | None = None) -> RenderedPrompt:
    return DEFAULT_TEMPLATES.render_entity_prompt(name, subject_id)


def render_relation_prompt(
    name: str, mode: RelationMode, subject_id: str | None = None
) -> RenderedPrompt:
    return DEFAULT_TEMPLATES.render_relation_prompt(name, mode, subject_id)


def render_keyword_prompt(description: str, subject_id: str | None = None) -> RenderedPrompt:
    return DEFAULT_TEMPLATES.render_keyword_prompt(description, subject_id)
