"""Prompt construction for the five enrichment query strategies.

The templates are the module constants below: one entity-expansion template,
one per relation mode and one keyword template. Each carries exactly one
placeholder, and rendering is a pure string substitution. Their bytes go into
every replay-fixture and cache hash; the golden tests pin them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RelationMode(str, enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    REVERSE = "reverse"


#: Canonical order relation texts are composed in, whatever order they were generated.
MODE_ORDER: tuple[RelationMode, ...] = tuple(RelationMode)


def parse_modes(names) -> tuple[RelationMode, ...]:
    """Each mode ``names`` holds, once, in ``MODE_ORDER``; empty or unknown ``names`` is a ``ValueError``."""
    try:
        modes = {RelationMode(name) for name in names}
    except (TypeError, ValueError):
        modes = set()
    if not modes:
        raise ValueError(f"modes must be a non-empty subset of {[m.value for m in MODE_ORDER]}, got {names!r}")
    return tuple(m for m in MODE_ORDER if m in modes)


_ENTITY_TEMPLATE = (
    "Please provide all information about {Entity Name}. Give the rationale before answering:"
)
_RELATION_TEMPLATES: dict[RelationMode, str] = {
    RelationMode.GLOBAL: "Please provide an explanation of the significance of the relation "
    "{Relation Name} in a knowledge graph with one sentence:",
    RelationMode.LOCAL: "Please provide an explanation of the meaning of the triplet "
    "(head entity, {Relation Name}, tail entity) and rephrase it into a sentence:",
    RelationMode.REVERSE: "Please convert the relation {Relation Name} into a verb form and "
    "provide a statement in the passive voice:",
}
_KEYWORD_TEMPLATE = (
    "Please extract the five most representative keywords from the following text: "
    "{Entity Description}. Keywords:"
)

_SLOTS = ("{Entity Name}", "{Relation Name}", "{Entity Description}")


class TemplateError(ValueError):
    """A rendered prompt still contains a template placeholder."""


@dataclass(frozen=True)
class RenderedPrompt:
    subject_id: str
    text: str


def _render(template: str, placeholder: str, value: str, subject_id: str | None) -> RenderedPrompt:
    if not value:
        raise ValueError(f"cannot fill {placeholder} with an empty string")
    text = template.replace(placeholder, value)
    for leftover in _SLOTS:
        if leftover in text:
            raise TemplateError(f"rendered prompt still contains placeholder {leftover!r}")
    return RenderedPrompt(subject_id=subject_id or value, text=text)


def render_entity_prompt(name: str, subject_id: str | None = None) -> RenderedPrompt:
    """Expansion query for one entity name."""
    return _render(_ENTITY_TEMPLATE, "{Entity Name}", name, subject_id)


def render_relation_prompt(
    name: str, mode: RelationMode, subject_id: str | None = None
) -> RenderedPrompt:
    """Explanation query for one relation name in the given mode."""
    return _render(_RELATION_TEMPLATES[RelationMode(mode)], "{Relation Name}", name, subject_id)


def render_keyword_prompt(description: str, subject_id: str | None = None) -> RenderedPrompt:
    """Keyword-extraction query over an entity description.

    Callers must substitute the entity name when the description is empty;
    an empty description is an error here.
    """
    return _render(_KEYWORD_TEMPLATE, "{Entity Description}", description, subject_id)
