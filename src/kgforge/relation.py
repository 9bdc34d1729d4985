"""Relation text enrichment: global/local/reverse explanations composed onto names.

Each requested mode yields one generated explanation per relation. Composition
appends the texts to the relation name in the canonical order global, local,
reverse, joined by the literal separator token ``[SEP]``.
"""

from __future__ import annotations

from typing import Iterable

from .bundle import AugmentationBundle, query_audited, render_or_fail
from .gateway import LlmGateway
from .kg import KnowledgeGraph, kg_fingerprint
from .templates import MODE_ORDER, RelationMode, parse_modes, render_relation_prompt

SEPARATOR = "[SEP]"
_ESCAPED = "[SEP ]"


def escape_separator(text: str) -> str:
    """Neutralize literal separator tokens inside generated text.

    Keeps the composed export unambiguous: splitting on `` [SEP] `` always
    recovers the original parts.
    """
    return text.replace(SEPARATOR, _ESCAPED)


def compose_relation_text(name: str, texts: Iterable[tuple[RelationMode, str]]) -> str:
    """Relation name followed by its mode texts, ``[SEP]``-joined in canonical order.

    Mode texts are whitespace-normalized to a single line; empty texts and
    absent modes are skipped. With no texts the name is returned unchanged.
    """
    by_mode: dict[RelationMode, str] = {}
    for mode, text in texts:
        mode = RelationMode(mode)
        if mode in by_mode:
            raise ValueError(f"duplicate text for mode {mode.value!r}")
        by_mode[mode] = text
    parts = []
    for mode in MODE_ORDER:
        if mode not in by_mode:
            continue
        normalized = " ".join(escape_separator(by_mode[mode]).split())
        if normalized:
            parts.append(normalized)
    if not parts:
        return name
    return name + " " + f" {SEPARATOR} ".join(parts)


def describe_relations(kg: KnowledgeGraph, gateway: LlmGateway, modes: Iterable[RelationMode | str]) -> AugmentationBundle:
    """Generate explanations for every relation in every requested mode.

    ``parse_modes`` checks ``modes`` first, even on a graph with no relations.
    Failures are captured per (relation, mode) item, labelled with the mode;
    a relation with partial failures is still composed from whichever mode
    texts succeeded. An empty name fails every mode: each item's error names
    ``{Relation Name}``, with no prompt hash and no backend call.
    """
    modes = parse_modes(modes)
    jobs = [(relation, mode) for relation in kg.relation_name for mode in modes]
    prompts = [render_or_fail(render_relation_prompt, kg.relation_name[r], m, subject_id=r) for r, m in jobs]
    items = query_audited(gateway, prompts)
    texts_by_relation: dict[str, list[tuple[RelationMode, str]]] = {r: [] for r in kg.relation_name}
    for item, (_, mode) in zip(items, jobs):
        item.mode = mode.value
        if item.error is None:
            texts_by_relation[item.subject].append((mode, item.response))
    relation_text = {
        relation: compose_relation_text(kg.relation_name[relation], texts)
        for relation, texts in texts_by_relation.items()
        if texts
    }
    return AugmentationBundle("relation", kg_fingerprint(kg), relation_text=relation_text, items=items)
