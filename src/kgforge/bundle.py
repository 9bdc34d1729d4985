"""Augmentation bundles: the serializable output of one enrichment run.

A bundle holds replacement texts (entity descriptions, relation texts) and/or
extra training triples, plus an audit trail of every LLM exchange behind them.
Bundles embed a fingerprint of the base dataset so stale bundles cannot be
composed onto a different graph.

On-disk layout (one directory per bundle):

    entity_text.tsv     entity id<TAB>merged description        (entity kind)
    relation_text.tsv   relation id<TAB>composed text           (relation kind)
    extra_triples.tsv   head<TAB>relation<TAB>tail              (structure kind)
    train_augmented.txt base train plus extras, in order        (structure kind)
    keywords.json       entity id -> keyword list               (structure kind)
    audit.json          kind, fingerprint, per-item records
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .gateway import GatewayError, LlmGateway, prompt_key
from .kg import (
    KnowledgeGraph,
    Triple,
    _pair_lines,
    _read_pairs,
    _read_triples,
    _triple_lines,
    kg_fingerprint,
)
from .templates import RenderedPrompt

ENTITY_TEXT_FILE = "entity_text.tsv"
RELATION_TEXT_FILE = "relation_text.tsv"
TRIPLES_FILE = "extra_triples.tsv"
TRAIN_AUGMENTED_FILE = "train_augmented.txt"
KEYWORDS_FILE = "keywords.json"
AUDIT_FILE = "audit.json"
SCHEMA_VERSION = 1

KINDS = ("entity", "relation", "structure")


class FingerprintMismatchError(ValueError):
    """A bundle was built from a different base dataset than the one given."""


@dataclass
class AuditItem:
    """One enrichment attempt: which subject, which prompt, what came back."""

    subject: str
    prompt_hash: str | None = None
    response: str | None = None
    error: str | None = None
    mode: str | None = None
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "prompt_hash": self.prompt_hash,
            "response": self.response,
            "error": self.error,
            "mode": self.mode,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditItem":
        return cls(
            subject=data["subject"],
            prompt_hash=data.get("prompt_hash"),
            response=data.get("response"),
            error=data.get("error"),
            mode=data.get("mode"),
            flags=tuple(data.get("flags", ())),
        )


@dataclass
class AugmentationBundle:
    kind: str
    fingerprint: str
    entity_text: dict[str, str] = field(default_factory=dict)
    relation_text: dict[str, str] = field(default_factory=dict)
    extra_triples: tuple[Triple, ...] = ()
    keyword_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    items: list[AuditItem] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"bundle kind must be one of {KINDS}, got {self.kind!r}")

    @property
    def errors(self) -> list[AuditItem]:
        return [item for item in self.items if item.error]

    def save(self, out_dir: str | Path, base_kg: KnowledgeGraph | None = None) -> Path:
        """Write the bundle directory; pass ``base_kg`` to also emit the merged train file."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if self.entity_text:
            (out / ENTITY_TEXT_FILE).write_text(
                _pair_lines(self.entity_text.items()), encoding="utf-8", newline="\n"
            )
        if self.relation_text:
            (out / RELATION_TEXT_FILE).write_text(
                _pair_lines(self.relation_text.items()), encoding="utf-8", newline="\n"
            )
        if self.kind == "structure":
            (out / TRIPLES_FILE).write_text(
                _triple_lines(self.extra_triples), encoding="utf-8", newline="\n"
            )
            if base_kg is not None:
                merged = tuple(base_kg.train) + tuple(self.extra_triples)
                (out / TRAIN_AUGMENTED_FILE).write_text(
                    _triple_lines(merged), encoding="utf-8", newline="\n"
                )
        if self.keyword_sets:
            payload = {entity: list(words) for entity, words in self.keyword_sets.items()}
            (out / KEYWORDS_FILE).write_text(
                json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
                encoding="utf-8",
                newline="\n",
            )
        audit = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "n_errors": len(self.errors),
            "items": [item.to_dict() for item in self.items],
        }
        (out / AUDIT_FILE).write_text(
            json.dumps(audit, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
            newline="\n",
        )
        return out

    @classmethod
    def load(cls, bundle_dir: str | Path) -> "AugmentationBundle":
        root = Path(bundle_dir)
        audit_path = root / AUDIT_FILE
        if not audit_path.is_file():
            raise FileNotFoundError(f"not a bundle directory (no {AUDIT_FILE}): {root}")
        audit = json.loads(audit_path.read_text(encoding="utf-8"))
        version = audit.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bundle schema_version {version!r} in {audit_path} "
                f"(expected {SCHEMA_VERSION})"
            )
        bundle = cls(
            kind=audit["kind"],
            fingerprint=audit["fingerprint"],
            items=[AuditItem.from_dict(item) for item in audit.get("items", ())],
        )
        if (root / ENTITY_TEXT_FILE).is_file():
            bundle.entity_text = dict(_read_pairs(root / ENTITY_TEXT_FILE))
        if (root / RELATION_TEXT_FILE).is_file():
            bundle.relation_text = dict(_read_pairs(root / RELATION_TEXT_FILE))
        if (root / TRIPLES_FILE).is_file():
            bundle.extra_triples = tuple(_read_triples(root / TRIPLES_FILE))
        if (root / KEYWORDS_FILE).is_file():
            raw = json.loads((root / KEYWORDS_FILE).read_text(encoding="utf-8"))
            bundle.keyword_sets = {entity: tuple(words) for entity, words in raw.items()}
        return bundle


def query_audited(
    bundle: AugmentationBundle,
    gateway: LlmGateway,
    prompts: Sequence[RenderedPrompt],
    modes: Sequence[str] | None = None,
) -> list[AuditItem]:
    """Send ``prompts`` through the gateway in one batch and audit every exchange.

    Appends one item per prompt to ``bundle.items``, in prompt order, and
    returns those items. Each item's subject is the prompt's subject id and
    its mode is the matching entry of ``modes``, if given. A failed exchange
    keeps the error and the hash its prompt would have had; it never aborts
    the batch.
    """
    results = gateway.batch_query(prompts)
    if modes is None:
        modes = [None] * len(prompts)
    items = []
    for prompt, result, mode in zip(prompts, results, modes):
        if isinstance(result, GatewayError):
            item = AuditItem(
                subject=prompt.subject_id,
                prompt_hash=prompt_key(prompt.text, gateway.params),
                error=str(result),
                mode=mode,
            )
        else:
            item = AuditItem(
                subject=prompt.subject_id,
                prompt_hash=result.key,
                response=result.response,
                mode=mode,
            )
        items.append(item)
    bundle.items.extend(items)
    return items


def apply_bundles(
    kg: KnowledgeGraph, bundles: Sequence[AugmentationBundle]
) -> KnowledgeGraph:
    """Compose bundles onto a base graph.

    Application order is fixed (entity texts, then relation texts, then extra
    train triples) so composing the same set of bundles in any argument order
    yields an identical graph. Every bundle must carry the base graph's
    fingerprint.
    """
    base_fp = kg_fingerprint(kg)
    for bundle in bundles:
        if bundle.fingerprint != base_fp:
            raise FingerprintMismatchError(
                f"{bundle.kind} bundle was built from fingerprint {bundle.fingerprint[:12]}..., "
                f"base dataset has {base_fp[:12]}..."
            )

    from .structure import augment_training_set

    ordered = sorted(bundles, key=lambda b: KINDS.index(b.kind))
    result = kg
    for bundle in ordered:
        if bundle.entity_text:
            desc = dict(result.texts.entity_desc)
            for entity, text in bundle.entity_text.items():
                if entity not in result.entities:
                    raise FingerprintMismatchError(f"bundle text for unknown entity {entity!r}")
                if text:
                    desc[entity] = text
                else:
                    desc.pop(entity, None)
            result = replace(result, texts=replace(result.texts, entity_desc=desc))
        if bundle.relation_text:
            names = dict(result.texts.relation_name)
            for relation, text in bundle.relation_text.items():
                if relation not in result.relations:
                    raise FingerprintMismatchError(f"bundle text for unknown relation {relation!r}")
                names[relation] = text
            result = replace(result, texts=replace(result.texts, relation_name=names))
        if bundle.extra_triples:
            result = augment_training_set(result, bundle.extra_triples)
    return result
