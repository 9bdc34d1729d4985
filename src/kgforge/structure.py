"""Structure extraction: keyword matching that synthesizes SameAs training triples.

Keywords summarize each entity's description as a tuple of strings, and one
mapping, entity id -> keywords, goes from parser to matcher to bundle. Two
entities whose keyword sets overlap strongly get a directed SameAs edge. The
matching score is

    score = |k_head & k_tail| / min(|k_head|, |k_tail|)

over sets that must be non-empty and free of repeats, as ``parse_keywords``
guarantees and ``top_k_pairs``, the one place that computes it, checks.
Top-k selection is per head entity, and optional self-loop triples reinforce
the SameAs relation itself. All synthesized triples are appended to the
training split only.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bundle import AugmentationBundle, query_audited, render_or_fail
from .gateway import LlmGateway
from .kg import KnowledgeGraph, Triple, kg_fingerprint, require_int
from .templates import render_keyword_prompt

NO_KEYWORDS_FLAG = "no keywords"
NAME_FALLBACK_FLAG = "name fallback"


class KeywordParseError(ValueError):
    """No keywords could be recovered from a response."""


class RelationCollisionError(ValueError):
    """The synthesized relation id already exists in the graph."""


@dataclass(frozen=True)
class MatchScore:
    head: str
    tail: str
    score: float
    n_matched: int


@dataclass(frozen=True)
class StructureConfig:
    k: int = 1
    self_loop: bool = False
    same_as_relation: str = "SameAs"

    def __post_init__(self):
        require_int("k", self.k, 0)
        if not isinstance(self.self_loop, bool):
            raise ValueError(f"self_loop must be true or false, got {self.self_loop!r}")
        relation = self.same_as_relation
        if not isinstance(relation, str) or not relation:
            raise ValueError(f"same_as_relation must be a non-empty string, got {relation!r}")


_SPLIT_RE = re.compile(r"[,\n;]+")
_ENUM_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*•]\s*)+")
_STRIP_CHARS = string.punctuation + string.whitespace


def parse_keywords(raw: str) -> tuple[str, ...]:
    """Parse an LLM keyword response into a normalized, non-empty keyword tuple.

    Splits on commas, newlines and semicolons; strips leading enumeration
    markers ("1.", "-", "*") and surrounding punctuation; lowercases and
    deduplicates keeping first occurrence.
    """
    parts = (_ENUM_RE.sub("", part.strip()).strip(_STRIP_CHARS) for part in _SPLIT_RE.split(raw or ""))
    keywords = dict.fromkeys(" ".join(part.split()).lower() for part in parts)
    keywords.pop("", None)
    if not keywords:
        raise KeywordParseError(f"no keywords recoverable from {raw!r}")
    return tuple(keywords)


def top_k_pairs(keyword_sets: Mapping[str, tuple[str, ...]], cfg: StructureConfig) -> list[MatchScore]:
    """Best-matched partners per entity of ``keyword_sets`` (entity id -> keywords), with their scores.

    A pair's score is the matched keyword count over the smaller set's size.
    For every entity the k highest-scoring partners are selected; ties break
    by (score descending, partner id ascending) and zero-score partners are
    never selected. Heads are processed in sorted id order, so the output is
    a pure function of the mapping contents. Candidates come from a keyword
    -> entity postings index, so the cost scales with the number of pairs
    that share a keyword, not with the square of the entity count. An empty
    or repeating keyword set raises ``ValueError`` naming its entity, at any k.
    """
    heads = sorted(keyword_sets)
    postings: dict[str, list[int]] = {}
    for i, head in enumerate(heads):
        words = keyword_sets[head]
        if not words or len(set(words)) != len(words):
            raise ValueError(f"keyword set for {head!r} must be non-empty with no repeats, got {words!r}")
        for word in words:
            postings.setdefault(word, []).append(i)
    if cfg.k == 0:
        return []
    index = {word: np.array(ids) for word, ids in postings.items()}
    sizes = np.array([len(keyword_sets[head]) for head in heads])
    selected: list[MatchScore] = []
    for i, head in enumerate(heads):
        shared = np.concatenate([index[word] for word in keyword_sets[head]])
        tails, matched = np.unique(shared, return_counts=True)
        other = tails != i
        tails, matched = tails[other], matched[other]
        # Heads are sorted, so tail index order is id order; the int / int
        # division is the same correctly rounded float64 as Python's.
        scores = matched / np.minimum(sizes[i], sizes[tails])
        best = np.lexsort((tails, -scores))[: cfg.k]
        selected.extend(
            MatchScore(head=head, tail=heads[tail], score=score, n_matched=n_matched)
            for tail, score, n_matched in zip(
                tails[best].tolist(), scores[best].tolist(), matched[best].tolist()
            )
        )
    return selected


def synthesize_triples(
    pairs: Sequence[MatchScore],
    kg: KnowledgeGraph,
    cfg: StructureConfig,
    self_loop_entities: Iterable[str],
) -> list[Triple]:
    """Turn matched pairs into SameAs triples, optionally adding self-loops.

    Self-loops cover ``self_loop_entities`` in the given order and are
    appended after the pair triples. Exact duplicates are removed, keeping
    first occurrence.
    """
    relation = cfg.same_as_relation
    if relation in kg.relations:
        raise RelationCollisionError(
            f"relation id {relation!r} already exists in the graph; pick another"
        )
    triples = [Triple(pair.head, relation, pair.tail) for pair in pairs]
    if cfg.self_loop:
        triples.extend(Triple(entity, relation, entity) for entity in self_loop_entities)
    return list(dict.fromkeys(triples))


def extract_structure(
    kg: KnowledgeGraph, gateway: LlmGateway, cfg: StructureConfig
) -> AugmentationBundle:
    """Full structure pipeline: keywords, matching, triple synthesis.

    Entities with empty descriptions fall back to keyword-extracting their
    name; if that is empty too, the entity's item fails with an error naming
    ``{Entity Description}``, with no prompt hash and no backend call.
    Entities whose response yields no keywords are flagged and excluded from
    matching. ``keyword_sets`` holds the entities that ended up with
    keywords, in graph order; self-loops (when enabled) cover exactly those.
    """
    prompts = []
    fallback: set[str] = set()
    for entity in kg.entity_name:
        source = kg.desc_of(entity)
        if not source.strip():
            source = kg.entity_name[entity]
            fallback.add(entity)
        prompts.append(render_or_fail(render_keyword_prompt, source, subject_id=entity))
    items = query_audited(gateway, prompts)
    keyword_sets: dict[str, tuple[str, ...]] = {}
    for item in items:
        if item.subject in fallback:
            item.flags = (NAME_FALLBACK_FLAG,)
        if item.error is not None:
            continue
        try:
            keyword_sets[item.subject] = parse_keywords(item.response)
        except KeywordParseError:
            item.flags += (NO_KEYWORDS_FLAG,)
    extra_triples = tuple(synthesize_triples(top_k_pairs(keyword_sets, cfg), kg, cfg, keyword_sets))
    return AugmentationBundle(
        "structure", kg_fingerprint(kg), extra_triples=extra_triples, keyword_sets=keyword_sets, items=items
    )
