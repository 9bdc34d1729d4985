"""Augmentation bundles: the serializable output of one enrichment run.

A bundle's kind says what it changes, and it carries only that payload: an
entity bundle replacement descriptions, a relation bundle relation texts, a
structure bundle extra training triples and the keyword sets behind them.
Every bundle also holds an audit trail of every LLM exchange behind it and a
fingerprint of the base dataset, so stale bundles cannot be composed onto a
different graph. A bundle built or loaded with another kind's non-empty
payload, such as a stray payload file, is a ``ValueError``.

On-disk layout (one directory per bundle):

    entity_text.tsv     entity id<TAB>merged description        (entity kind)
    relation_text.tsv   relation id<TAB>composed text           (relation kind)
    extra_triples.tsv   head<TAB>relation<TAB>tail              (structure kind)
    train_augmented.txt base train plus extras, in order        (structure kind)
    keywords.json       entity id -> keyword list               (structure kind)
    audit.json          kind, fingerprint, per-item records

Each strategy builds its bundle in one construction, payload and audit items
together. ``save`` checks the payload rule again, for a bundle filled after
construction, then writes every payload file of its kind, even an empty one,
and removes every other kind's, so a reused directory never loads an old
payload. ``train_augmented.txt`` is written only for a structure bundle saved
with a base graph, and removed otherwise. Every file goes through
``kg.write_text`` and none is held whole: ``kg._tsv_blocks`` renders the
tab-separated files, a base train in row blocks, and ``write_json`` the JSON
files in encoder chunks (``kgforge fixtures planted`` writes its keyword sets
with it too). ``load`` rejects a malformed ``audit.json`` or ``keywords.json``
with a ``ValueError`` naming the file and the key. Keyword lists and an item's
``flags`` hold only strings; its ``prompt_hash``, ``response``, ``error`` and
``mode`` are each a string or null.

``load`` reads ``audit.json`` line by line in the layout ``save`` writes:
under the line ``  "items": [``, each run of lines from ``    {`` to ``    }``
or ``    },`` is one audit item, decoded with ``json.loads``, checked, and
dropped. So it holds neither the file's text nor its items: composing never
reads them. A file in another layout, such as compact JSON, is read as
``json.loads`` reads it. A loaded bundle reads its ``items`` from the file,
through the same reader, when they are first read, and a file replaced since
``load`` is then a ``ValueError``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path

from .gateway import GatewayError, LlmGateway
from .kg import (
    KnowledgeGraph,
    Triple,
    _derived,
    _tsv_blocks,
    kg_fingerprint,
    read_pairs,
    read_triples,
    write_text,
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
#: The kind whose bundles alone may carry each payload field.
_PAYLOAD_KIND = {"entity_text": "entity", "relation_text": "relation", "extra_triples": "structure", "keyword_sets": "structure"}
#: The kind whose bundles alone write each payload file.
_FILE_KIND = {ENTITY_TEXT_FILE: "entity", RELATION_TEXT_FILE: "relation", **dict.fromkeys((TRIPLES_FILE, KEYWORDS_FILE, TRAIN_AUGMENTED_FILE), "structure")}

_JSON_TYPES = {dict: "object", list: "array", str: "string"}
_MISSING = object()


class FingerprintMismatchError(ValueError):
    """A bundle was built from a different base dataset than the one given."""


def write_json(path: Path, payload) -> None:
    """Write ``payload`` through ``write_text`` as indented, key-sorted JSON and a final newline.

    Non-ASCII text is kept as is. The JSON is streamed in the encoder's
    chunks, as ``json.dump`` does, never held whole.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False).iterencode(payload)
    write_text(path, chain(chunks, ("\n",)))


def _json_object(value, where: str) -> dict:
    """``value`` if it is a JSON object, else a ``ValueError`` naming ``where``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must hold a JSON object, not {type(value).__name__}")
    return value


def _json_field(data: dict, key: str, kind: type, where: str, default=_MISSING):
    """``data[key]`` (or ``default``) if it is a ``kind``, else a ``ValueError`` naming ``where`` and the key.

    A key whose ``default`` is None may also hold null.
    """
    value = data.get(key, default)
    if value is _MISSING:
        raise ValueError(f"{where}: missing key {key!r}")
    if not isinstance(value, kind) and not (value is None and default is None):
        expected = _JSON_TYPES[kind] + (" or null" if default is None else "")
        raise ValueError(f"{where}: key {key!r} must be a JSON {expected}, not {type(value).__name__}")
    return value


def _json_strings(data: dict, key: str, where: str, default=_MISSING) -> tuple[str, ...]:
    """``_json_field(data, key, list, where, default)`` as a tuple; an element that is not a string is a ``ValueError`` too."""
    values = _json_field(data, key, list, where, default)
    for value in values:
        if not isinstance(value, str):
            raise ValueError(f"{where}: key {key!r} must hold only JSON strings, not {type(value).__name__}")
    return tuple(values)


@dataclass
class AuditItem:
    """One enrichment attempt: which subject, which prompt, what came back."""

    subject: str
    prompt_hash: str | None = None
    response: str | None = None
    error: str | None = None
    mode: str | None = None
    flags: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, data, where: str) -> "AuditItem":
        """The item ``data`` holds, or a ``ValueError`` naming ``where`` and the key."""
        data = _json_object(data, where)
        return cls(
            subject=_json_field(data, "subject", str, where),
            prompt_hash=_json_field(data, "prompt_hash", str, where, default=None),
            response=_json_field(data, "response", str, where, default=None),
            error=_json_field(data, "error", str, where, default=None),
            mode=_json_field(data, "mode", str, where, default=None),
            flags=_json_strings(data, "flags", where, default=[]),
        )


def _loads(text: str, where: str, lines: Sequence[int]):
    """``json.loads(text)``; a syntax error names ``where`` and the file line that ``lines`` maps its line to."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}:{lines[exc.lineno - 1]}: invalid JSON: {exc.msg}") from exc


def _read_audit(path: Path, keep_items: bool, stamp: tuple[int, int, int] | None = None) -> tuple[str, str, list[AuditItem], tuple[int, int, int]]:
    """The kind, fingerprint, items (if ``keep_items``) and stamp (inode, size, mtime) of the ``audit.json`` at ``path``.

    One pass over the lines decodes each item block (see the module
    docstring) with ``json.loads`` and checks it with ``AuditItem.from_dict``;
    every other line is the header, decoded after the pass with each block
    standing as ``0``. A syntax error names the file's line. The checks fail
    in the order of a whole-text parse: syntax, blocks mixed with inline
    items, the top-level object, ``schema_version``, ``kind``,
    ``fingerprint``, ``items``, then the first bad item. A file whose stamp
    is not ``stamp``, when given, was replaced: a ``ValueError``.
    """
    where, index = str(path), count()
    items, error = [], None

    def check(data) -> None:
        """Check the next item; keep it if asked, or record it as the first error."""
        nonlocal error
        if error is None:
            try:
                item = AuditItem.from_dict(data, f"{where}: items[{next(index)}]")
            except ValueError as exc:
                error = exc
            else:
                if keep_items:
                    items.append(item)

    header, lines = [], []  # every line outside the item blocks, and the file line each stands for
    block, first, start, in_items, zeros, comma_at, number = None, 0, 0, False, 0, -1, 0
    with path.open(encoding="utf-8", newline="\n") as file:
        status = os.fstat(file.fileno())
        found = (status.st_ino, status.st_size, status.st_mtime_ns)
        if stamp not in (None, found):
            raise ValueError(f"{where} was replaced after its bundle was loaded")
        for number, line in enumerate(file, 1):
            if block is None:
                if in_items and line == "    {\n":
                    block, start, first = [line], number, first or number
                    continue
                in_items = line == '  "items": [\n' or in_items and not line.startswith("  ]")
                header.append(line)
                lines.append(number)
                continue
            block.append(line)
            end = line.rstrip("\n")
            if end not in ("    }", "    },"):
                continue
            block[-1] = "    }"
            check(_loads("".join(block), where, range(start, number + 1)))
            block, comma = None, end == "    },"
            if comma and comma_at == len(header):
                lines[-1] = number  # a run of blocks that end in commas stands as one "0" and one ","
                continue
            zeros += 1
            header += ["0\n", ",\n"][: 1 + comma]
            lines += [start, number][: 1 + comma]
            comma_at = len(header) if comma else -1
    if block is not None:
        raise ValueError(f"{where}:{start}: invalid JSON: item block not closed")
    lines.append(number + 1)  # the end of the file
    audit = _loads("".join(header), where, lines)
    if zeros and not (isinstance(audit, dict) and audit.get("items") == [0] * zeros):
        raise ValueError(f"{where}:{first}: items written both inline and as blocks")
    audit = _json_object(audit, where)
    version = audit.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported bundle schema_version {version!r} in {path} (expected {SCHEMA_VERSION})")
    kind = _json_field(audit, "kind", str, where)
    fingerprint = _json_field(audit, "fingerprint", str, where)
    inline = _json_field(audit, "items", list, where, default=[])
    if not zeros:
        for data in inline:
            check(data)
    if error is not None:
        raise error
    return kind, fingerprint, items, found


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
        self._check()

    def _check(self) -> None:
        """Raise ``ValueError`` for an unknown kind or another kind's non-empty payload."""
        if self.kind not in KINDS:
            raise ValueError(f"bundle kind must be one of {KINDS}, got {self.kind!r}")
        for name, kind in _PAYLOAD_KIND.items():
            if kind != self.kind and getattr(self, name):
                raise ValueError(f"{self.kind} bundle carries {name}; only {kind} bundles carry it")

    def __getattr__(self, name: str):
        """A loaded bundle's ``items``, decoded from its ``audit.json`` when first read; a replaced file is a ``ValueError``."""
        audit = self.__dict__.get("_audit")
        if name != "items" or audit is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.items = _read_audit(audit[0], keep_items=True, stamp=audit[1])[2]
        return self.items

    @property
    def errors(self) -> list[AuditItem]:
        return [item for item in self.items if item.error]

    def save(self, out_dir: str | Path, base_kg: KnowledgeGraph | None = None) -> Path:
        """Write the bundle directory; pass ``base_kg`` to also emit the merged train file.

        The bundle is checked as at construction before any file is written.
        Each payload file of the bundle's kind is written, even when empty,
        and every other kind's is removed. Only a structure bundle saved with
        ``base_kg`` has a merged train file; any other save removes one.
        """
        self._check()
        out = Path(out_dir)
        if self.kind == "entity":
            write_text(out / ENTITY_TEXT_FILE, _tsv_blocks(self.entity_text.items()))
        elif self.kind == "relation":
            write_text(out / RELATION_TEXT_FILE, _tsv_blocks(self.relation_text.items()))
        else:
            write_text(out / TRIPLES_FILE, _tsv_blocks(self.extra_triples))
            write_json(out / KEYWORDS_FILE, self.keyword_sets)
            if base_kg is not None:
                write_text(out / TRAIN_AUGMENTED_FILE, chain(_tsv_blocks(base_kg.train), _tsv_blocks(self.extra_triples)))
        for name, kind in _FILE_KIND.items():
            if kind != self.kind or name == TRAIN_AUGMENTED_FILE and base_kg is None:
                (out / name).unlink(missing_ok=True)
        write_json(out / AUDIT_FILE, {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "n_errors": len(self.errors),
            "items": [vars(item) for item in self.items],
        })
        return out

    @classmethod
    def load(cls, bundle_dir: str | Path) -> "AugmentationBundle":
        """Read a bundle directory; a malformed ``audit.json`` or ``keywords.json`` is a ``ValueError`` naming the file and key.

        Every audit item is checked, but none is kept: ``items`` is decoded
        from ``audit.json`` again when first read, unless it was replaced.
        """
        root = Path(bundle_dir)
        audit_path = root / AUDIT_FILE
        if not audit_path.is_file():
            raise FileNotFoundError(f"not a bundle directory (no {AUDIT_FILE}): {root}")
        kind, fingerprint, _, stamp = _read_audit(audit_path, keep_items=False)
        payload = {}
        if (root / ENTITY_TEXT_FILE).is_file():
            payload["entity_text"] = read_pairs(root / ENTITY_TEXT_FILE)
        if (root / RELATION_TEXT_FILE).is_file():
            payload["relation_text"] = read_pairs(root / RELATION_TEXT_FILE)
        if (root / TRIPLES_FILE).is_file():
            payload["extra_triples"] = tuple(map(Triple._make, read_triples(root / TRIPLES_FILE)))
        if (root / KEYWORDS_FILE).is_file():
            where = str(root / KEYWORDS_FILE)
            raw = _json_object(json.loads((root / KEYWORDS_FILE).read_text(encoding="utf-8")), where)
            payload["keyword_sets"] = {entity: _json_strings(raw, entity, where) for entity in raw}
        bundle = cls(kind, fingerprint, **payload)
        del bundle.items  # __getattr__ decodes them when first read
        bundle._audit = (audit_path, stamp)
        return bundle


def render_or_fail(render: Callable[..., RenderedPrompt], *args, subject_id: str) -> RenderedPrompt | AuditItem:
    """``render(*args, subject_id=...)``, or a failed item whose error names the field it could not fill."""
    try:
        return render(*args, subject_id=subject_id)
    except ValueError as exc:
        return AuditItem(subject=subject_id, error=str(exc))


def query_audited(gateway: LlmGateway, prompts: Sequence[RenderedPrompt | AuditItem]) -> list[AuditItem]:
    """Send ``prompts`` through the gateway in one batch and audit every exchange.

    Returns one item per prompt, in prompt order, with the prompt's subject
    id; a strategy labels the items (``mode``, ``flags``) and builds its
    bundle from them. A failed exchange keeps the error and the hash its
    prompt would have had; it never aborts the batch. A prompt that could not
    be rendered, an ``AuditItem`` from ``render_or_fail``, is that item, in
    its place, with no hash or backend call.
    """
    results = iter(gateway.batch_query([p.text for p in prompts if isinstance(p, RenderedPrompt)]))
    items = []
    for prompt in prompts:
        if isinstance(prompt, AuditItem):
            items.append(prompt)
            continue
        result = next(results)
        failed = isinstance(result, GatewayError)
        items.append(
            AuditItem(
                subject=prompt.subject_id,
                prompt_hash=result.key,
                response=None if failed else result.response,
                error=str(result) if failed else None,
            )
        )
    return items


def apply_bundles(kg: KnowledgeGraph, bundles: Sequence[AugmentationBundle]) -> KnowledgeGraph:
    """Compose bundles onto a base graph: all their texts and triples, in one construction.

    Each kind changes only its own payload, so with at most one bundle per
    kind the result does not depend on argument order; two bundles of one
    kind raise ``ValueError``. Every bundle must carry the base graph's
    fingerprint and name only its ids. Like ``augment_training_set``, the
    result keeps the base's ``load_warnings``.
    """
    kinds = [bundle.kind for bundle in bundles]
    for kind in KINDS:
        if kinds.count(kind) > 1:
            raise ValueError(f"{kinds.count(kind)} {kind} bundles given; compose at most one bundle per kind")
    base_fp = kg_fingerprint(kg)
    for bundle in bundles:
        if bundle.fingerprint != base_fp:
            raise FingerprintMismatchError(
                f"{bundle.kind} bundle was built from fingerprint {bundle.fingerprint[:12]}..., "
                f"base dataset has {base_fp[:12]}..."
            )
    desc, names, triples = dict(kg.entity_desc), dict(kg.relation_name), []
    for bundle in bundles:
        for entity, text in bundle.entity_text.items():
            if entity not in kg.entity_name:
                raise FingerprintMismatchError(f"bundle text for unknown entity {entity!r}")
            if text:
                desc[entity] = text
            else:
                desc.pop(entity, None)
        for relation, text in bundle.relation_text.items():
            if relation not in kg.relation_name:
                raise FingerprintMismatchError(f"bundle text for unknown relation {relation!r}")
            names[relation] = text
        triples += bundle.extra_triples
    return _derived(kg, desc, names, triples)
