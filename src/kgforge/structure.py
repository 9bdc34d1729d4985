"""Structure extraction: keyword matching that synthesizes SameAs training triples.

Keywords summarize each entity's description; two entities whose keyword sets
overlap strongly get a directed SameAs edge. The matching score is

    score = |k_head & k_tail| / min(|k_head|, |k_tail|)

Top-k selection is per head entity, and optional self-loop triples reinforce
the SameAs relation itself. All synthesized triples are appended to the
training split only.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bundle import AugmentationBundle, query_audited
from .gateway import LlmGateway
from .kg import DanglingReferenceError, KnowledgeGraph, Triple, kg_fingerprint, require_int
from .templates import render_keyword_prompt

NO_KEYWORDS_FLAG = "no keywords"
NAME_FALLBACK_FLAG = "name fallback"


class KeywordParseError(ValueError):
    """No keywords could be recovered from a response."""


class RelationCollisionError(ValueError):
    """The synthesized relation id already exists in the graph."""


@dataclass(frozen=True)
class KeywordSet:
    entity: str
    keywords: tuple[str, ...]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError(f"keyword set for {self.entity!r} is empty")
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError(f"keyword set for {self.entity!r} has duplicates")

    def __len__(self) -> int:
        return len(self.keywords)

    def as_set(self) -> frozenset[str]:
        return frozenset(self.keywords)


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
        if not self.same_as_relation:
            raise ValueError("same_as_relation must be non-empty")


_SPLIT_RE = re.compile(r"[,\n;]+")
_ENUM_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*•]\s*)+")
_STRIP_CHARS = string.punctuation + string.whitespace


def parse_keywords(raw: str, entity: str = "") -> KeywordSet:
    """Parse an LLM keyword response into a normalized keyword set.

    Splits on commas, newlines and semicolons; strips leading enumeration
    markers ("1.", "-", "*") and surrounding punctuation; lowercases and
    deduplicates keeping first occurrence.
    """
    keywords: list[str] = []
    seen: set[str] = set()
    for part in _SPLIT_RE.split(raw or ""):
        part = _ENUM_RE.sub("", part.strip())
        part = part.strip(_STRIP_CHARS)
        keyword = " ".join(part.split()).lower()
        if keyword and keyword not in seen:
            seen.add(keyword)
            keywords.append(keyword)
    if not keywords:
        raise KeywordParseError(f"no keywords recoverable from {raw!r}")
    return KeywordSet(entity=entity, keywords=tuple(keywords))


def match_score(kh: KeywordSet, kt: KeywordSet) -> MatchScore:
    """Similarity of two keyword sets: matched count over the smaller set size."""
    if kh.entity and kh.entity == kt.entity:
        raise ValueError(f"match_score requires distinct entities, got {kh.entity!r} twice")
    if not kh.keywords or not kt.keywords:
        raise ValueError("match_score requires non-empty keyword sets")
    matched = len(kh.as_set() & kt.as_set())
    return MatchScore(
        head=kh.entity,
        tail=kt.entity,
        score=matched / min(len(kh), len(kt)),
        n_matched=matched,
    )


def top_k_pairs(
    keyword_sets: Mapping[str, KeywordSet], cfg: StructureConfig
) -> list[MatchScore]:
    """Best-matched partners per entity.

    For every entity the k highest-scoring partners are selected; ties break
    by (score descending, partner id ascending) and zero-score partners are
    never selected. Heads are processed in sorted id order, so the output is
    a pure function of the mapping contents. Candidates come from a keyword
    -> entity postings index, so the cost scales with the number of pairs
    that share a keyword, not with the square of the entity count.
    """
    if cfg.k == 0:
        return []
    heads = sorted(keyword_sets)
    postings: dict[str, list[int]] = {}
    for i, head in enumerate(heads):
        for word in keyword_sets[head].keywords:
            postings.setdefault(word, []).append(i)
    index = {word: np.array(ids) for word, ids in postings.items()}
    sizes = np.array([len(keyword_sets[head]) for head in heads])
    selected: list[MatchScore] = []
    for i, head in enumerate(heads):
        shared = np.concatenate([index[word] for word in keyword_sets[head].keywords])
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
    self_loop_entities: Iterable[str] | None = None,
) -> list[Triple]:
    """Turn matched pairs into SameAs triples, optionally adding self-loops.

    Self-loops cover ``self_loop_entities`` in the given order (defaults to
    every graph entity in load order) and are appended after the pair triples.
    Exact duplicates are removed, keeping first occurrence.
    """
    relation = cfg.same_as_relation
    if relation in kg.relations:
        raise RelationCollisionError(
            f"relation id {relation!r} already exists in the graph; pick another"
        )
    triples = [Triple(pair.head, relation, pair.tail) for pair in pairs]
    if cfg.self_loop:
        loop_over = (
            list(self_loop_entities)
            if self_loop_entities is not None
            else list(kg.texts.entity_name)
        )
        triples.extend(Triple(entity, relation, entity) for entity in loop_over)
    deduped: list[Triple] = []
    seen: set[Triple] = set()
    for triple in triples:
        if triple not in seen:
            seen.add(triple)
            deduped.append(triple)
    return deduped


def augment_training_set(kg: KnowledgeGraph, triples: Sequence[Triple]) -> KnowledgeGraph:
    """New graph with the triples appended to train; valid/test untouched.

    Relations introduced by the new triples are registered with their id as
    display text. Triples referencing unknown entities are an error.
    """
    for triple in triples:
        for entity in (triple.head, triple.tail):
            if entity not in kg.entities:
                raise DanglingReferenceError(
                    f"augmentation triple {tuple(triple)} references unknown entity {entity!r}"
                )
    if not triples:
        return kg
    new_relations = [t.relation for t in triples if t.relation not in kg.relations]
    relation_name = dict(kg.texts.relation_name)
    for relation in new_relations:
        if relation not in relation_name:
            relation_name[relation] = relation
    return replace(
        kg,
        relations=kg.relations | frozenset(new_relations),
        train=kg.train + tuple(triples),
        texts=replace(kg.texts, relation_name=relation_name),
        load_warnings=(),
    )


def extract_structure(
    kg: KnowledgeGraph, gateway: LlmGateway, cfg: StructureConfig
) -> AugmentationBundle:
    """Full structure pipeline: keywords, matching, triple synthesis.

    Entities with empty descriptions fall back to keyword-extracting their
    name; entities whose response yields no keywords are flagged and excluded
    from matching. Self-loops (when enabled) cover exactly the entities that
    ended up with keywords.
    """
    entities = list(kg.texts.entity_name)
    prompts = []
    fallback: set[str] = set()
    for entity in entities:
        source = kg.texts.desc_of(entity)
        if not source.strip():
            source = kg.texts.name_of(entity)
            fallback.add(entity)
        prompts.append(render_keyword_prompt(source, subject_id=entity))
    bundle = AugmentationBundle(kind="structure", fingerprint=kg_fingerprint(kg))
    keyword_sets: dict[str, KeywordSet] = {}
    for item in query_audited(bundle, gateway, prompts):
        if item.subject in fallback:
            item.flags = (NAME_FALLBACK_FLAG,)
        if item.error is not None:
            continue
        try:
            keyword_sets[item.subject] = parse_keywords(item.response, entity=item.subject)
        except KeywordParseError:
            item.flags += (NO_KEYWORDS_FLAG,)

    pairs = top_k_pairs(keyword_sets, cfg)
    triples = synthesize_triples(
        pairs, kg, cfg, self_loop_entities=[e for e in entities if e in keyword_sets]
    )
    bundle.extra_triples = tuple(triples)
    bundle.keyword_sets = {e: keyword_sets[e].keywords for e in entities if e in keyword_sets}
    return bundle
