"""Entity description expansion: fetch richer text and merge it under a token budget.

The generated text is appended after the original description (never replaces
it) and the result is cut to a whitespace-token budget. The budget is an
approximation of downstream encoder limits, configurable per dataset: 70
tokens suits Freebase-style graphs, 50 WordNet-style ones.
"""

from __future__ import annotations

from .bundle import AugmentationBundle, query_audited, render_or_fail
from .gateway import LlmGateway
from .kg import KnowledgeGraph, kg_fingerprint, require_int
from .templates import render_entity_prompt

DEFAULT_BUDGET_TOKENS = 70

EMPTY_GENERATION_FLAG = "empty generation"


def merge_entity_text(original: str, generated: str, budget_tokens: int) -> str:
    """Append generated text to the original, truncated to ``budget_tokens`` tokens.

    The original is preserved byte-for-byte whenever it fits the budget; only
    the appended portion is whitespace-normalized (it must stay single-line
    for the tab-separated export). When the original alone exceeds the budget
    it is cut to the first ``budget_tokens`` tokens.
    """
    require_int("budget_tokens", budget_tokens, 1)
    original_tokens = original.split()
    if len(original_tokens) >= budget_tokens:
        return " ".join(original_tokens[:budget_tokens])
    appended = " ".join(generated.split()[: budget_tokens - len(original_tokens)])
    if not original:
        return appended
    if not appended:
        return original
    return original + " " + appended


def expand_descriptions(
    kg: KnowledgeGraph,
    gateway: LlmGateway,
    budget_tokens: int = DEFAULT_BUDGET_TOKENS,
) -> AugmentationBundle:
    """Expand every entity's description through the gateway.

    Failures are recorded per entity in the bundle's audit items and never
    abort the run. An empty name is one: its item's error names
    ``{Entity Name}``, with no prompt hash and no backend call. Entities whose
    generation failed keep no replacement text, so composition leaves their
    original description untouched. Raw responses are preserved verbatim in
    the audit trail. ``budget_tokens`` is checked before any query.
    """
    require_int("budget_tokens", budget_tokens, 1)
    prompts = [render_or_fail(render_entity_prompt, name, subject_id=e) for e, name in kg.entity_name.items()]
    items = query_audited(gateway, prompts)
    entity_text = {}
    for item in items:
        if item.error is not None:
            continue
        original = kg.desc_of(item.subject)
        if not item.response.strip():
            merged = original
            item.flags = (EMPTY_GENERATION_FLAG,)
        else:
            merged = merge_entity_text(original, item.response, budget_tokens)
        entity_text[item.subject] = merged
    return AugmentationBundle("entity", kg_fingerprint(kg), entity_text=entity_text, items=items)
