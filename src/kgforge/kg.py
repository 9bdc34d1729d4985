"""Knowledge graph data model and tab-separated dataset I/O.

Dataset layout (one directory per dataset, the de-facto public layout):

    train.txt / valid.txt / test.txt    head<TAB>relation<TAB>tail
    entity2text.txt                     entity id<TAB>name
    entity2textlong.txt                 entity id<TAB>description (optional)
    relation2text.txt                   relation id<TAB>name

All files are UTF-8 with LF line endings. Line order is preserved on load and
reproduced on write, so load -> write -> load round-trips byte-identically on
canonical files.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

TRAIN_FILE = "train.txt"
VALID_FILE = "valid.txt"
TEST_FILE = "test.txt"
ENTITY_NAME_FILE = "entity2text.txt"
ENTITY_DESC_FILE = "entity2textlong.txt"
RELATION_NAME_FILE = "relation2text.txt"

MODES = ("strict", "lenient")


def require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy ints too) >= ``minimum``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


class DatasetError(Exception):
    """Malformed or inconsistent dataset files."""


class FormatError(DatasetError):
    """A line does not match the expected tab-separated layout."""


class DanglingReferenceError(DatasetError):
    """A triple or text row references an undeclared id (strict mode)."""


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


class DatasetStats(NamedTuple):
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int


@dataclass(frozen=True)
class TextStore:
    """Names and descriptions attached to graph ids.

    ``entity_name`` and ``relation_name`` cover every id in the graph and
    their insertion order is the file load order; ``entity_desc`` holds only
    non-empty descriptions.
    """

    entity_name: dict[str, str]
    entity_desc: dict[str, str]
    relation_name: dict[str, str]

    def name_of(self, entity: str) -> str:
        return self.entity_name[entity]

    def desc_of(self, entity: str) -> str:
        return self.entity_desc.get(entity, "")


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable triple store with train/valid/test splits and attached texts."""

    entities: frozenset[str]
    relations: frozenset[str]
    train: tuple[Triple, ...]
    valid: tuple[Triple, ...]
    test: tuple[Triple, ...]
    texts: TextStore
    load_warnings: tuple[str, ...] = field(default=(), compare=False)

    def split(self, name: str) -> tuple[Triple, ...]:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_triples(self) -> frozenset[Triple]:
        return frozenset(self.train) | frozenset(self.valid) | frozenset(self.test)


def dataset_stats(kg: KnowledgeGraph) -> DatasetStats:
    """Exact collection sizes of a graph."""
    return DatasetStats(
        n_entities=len(kg.entities),
        n_relations=len(kg.relations),
        n_train=len(kg.train),
        n_valid=len(kg.valid),
        n_test=len(kg.test),
    )


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    text = path.read_text(encoding="utf-8")
    return [line for line in text.split("\n") if line.strip()]


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    """Parse an id<TAB>text file, rejecting duplicate ids."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(_read_lines(path), 1):
        if "\t" not in line:
            raise FormatError(f"{path.name}:{lineno}: expected id<TAB>text, got {line!r}")
        key, text = line.split("\t", 1)
        if not key:
            raise FormatError(f"{path.name}:{lineno}: empty id")
        if key in seen:
            raise FormatError(f"{path.name}:{lineno}: duplicate id {key!r}")
        seen.add(key)
        pairs.append((key, text))
    return pairs


def _read_triples(path: Path) -> list[Triple]:
    triples: list[Triple] = []
    for lineno, line in enumerate(_read_lines(path), 1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(
                f"{path.name}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        triples.append(Triple(*fields))
    return triples


def load_dataset(root_path: str | Path, mode: str = MODES[0]) -> KnowledgeGraph:
    """Load a dataset directory into a :class:`KnowledgeGraph`.

    In strict mode any triple or description referencing an undeclared id
    aborts the load; in lenient mode offenders are dropped and reported via
    ``KnowledgeGraph.load_warnings``. Load order is preserved everywhere.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    strict = mode == MODES[0]
    root = Path(root_path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root does not exist: {root}")

    entity_name = dict(_read_pairs(root / ENTITY_NAME_FILE))
    relation_name = dict(_read_pairs(root / RELATION_NAME_FILE))
    warnings: list[str] = []

    entity_desc: dict[str, str] = {}
    desc_path = root / ENTITY_DESC_FILE
    if desc_path.is_file():
        for key, text in _read_pairs(desc_path):
            if key not in entity_name:
                msg = f"{ENTITY_DESC_FILE}: description for undeclared entity {key!r}"
                if strict:
                    raise DanglingReferenceError(msg)
                warnings.append(msg)
                continue
            if text:
                entity_desc[key] = text

    def check_split(name: str, triples: list[Triple]) -> tuple[Triple, ...]:
        kept = []
        for t in triples:
            missing = []
            if t.head not in entity_name:
                missing.append(f"entity {t.head!r}")
            if t.tail not in entity_name:
                missing.append(f"entity {t.tail!r}")
            if t.relation not in relation_name:
                missing.append(f"relation {t.relation!r}")
            if missing:
                msg = f"{name}: triple {tuple(t)} references unknown {', '.join(missing)}"
                if strict:
                    raise DanglingReferenceError(msg)
                warnings.append(msg)
                continue
            kept.append(t)
        return tuple(kept)

    train = check_split(TRAIN_FILE, _read_triples(root / TRAIN_FILE))
    valid = check_split(VALID_FILE, _read_triples(root / VALID_FILE))
    test = check_split(TEST_FILE, _read_triples(root / TEST_FILE))

    return KnowledgeGraph(
        entities=frozenset(entity_name),
        relations=frozenset(relation_name),
        train=train,
        valid=valid,
        test=test,
        texts=TextStore(entity_name=entity_name, entity_desc=entity_desc, relation_name=relation_name),
        load_warnings=tuple(warnings),
    )


def _pair_lines(pairs: Iterable[tuple[str, str]]) -> str:
    return "".join(f"{key}\t{text}\n" for key, text in pairs)


def _triple_lines(triples: Iterable[Triple]) -> str:
    return "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def _canonical_files(kg: KnowledgeGraph) -> dict[str, str]:
    """Exact file contents ``write_dataset`` emits, keyed by file name."""
    files = {
        TRAIN_FILE: _triple_lines(kg.train),
        VALID_FILE: _triple_lines(kg.valid),
        TEST_FILE: _triple_lines(kg.test),
        ENTITY_NAME_FILE: _pair_lines(kg.texts.entity_name.items()),
        RELATION_NAME_FILE: _pair_lines(kg.texts.relation_name.items()),
    }
    descs = [(e, kg.texts.entity_desc[e]) for e in kg.texts.entity_name if kg.texts.desc_of(e)]
    if descs:
        files[ENTITY_DESC_FILE] = _pair_lines(descs)
    return files


def write_dataset(kg: KnowledgeGraph, root_path: str | Path) -> None:
    """Write a graph back to the tab-separated layout (UTF-8, LF endings).

    The description file is emitted only when at least one description is
    non-empty, and lists entities in name-file order.
    """
    root = Path(root_path)
    root.mkdir(parents=True, exist_ok=True)
    for name, content in _canonical_files(kg).items():
        (root / name).write_text(content, encoding="utf-8", newline="\n")


def kg_fingerprint(kg: KnowledgeGraph) -> str:
    """Content hash of a graph's canonical serialization.

    Equal to the hash of the files ``write_dataset`` would produce, so it
    identifies a base dataset for bundle compatibility checks.
    """
    digest = hashlib.sha256()
    files = _canonical_files(kg)
    for name in sorted(files):
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(files[name].encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()
