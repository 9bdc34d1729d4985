"""Knowledge graph data model and tab-separated dataset I/O.

Dataset layout (one directory per dataset, the de-facto public layout):

    train.txt / valid.txt / test.txt    head<TAB>relation<TAB>tail
    entity2text.txt                     entity id<TAB>name
    entity2textlong.txt                 entity id<TAB>description (optional)
    relation2text.txt                   relation id<TAB>name

All files are UTF-8 with LF line endings. Line order is preserved on load and
reproduced on write, so load -> write -> load round-trips byte-identically on
canonical files.

A graph is one flat record. The keys of its ``entity_name`` and
``relation_name`` maps declare its ids, and ``entity_desc`` holds only
non-empty descriptions.

Split files are streamed line by line, never held whole. A loaded graph keeps
one string per id: every triple field is the string object that keys
``entity_name`` or ``relation_name``, so dict lookups on triple fields
compare by identity.

A graph computes what is derived from it once, on first use, and keeps it
outside its fields: the position of each id in sorted id order, each split as
int32 index rows, and its fingerprint. ``==``, ``repr``, ``asdict`` and
``replace`` see only the fields, and a replaced graph starts with nothing
cached. The cached view is never refreshed, so a graph's maps and splits must
not be mutated after construction; build a changed graph with ``replace``.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, cycle
from pathlib import Path
from typing import Iterable, Iterator, KeysView, NamedTuple, Sequence

import numpy as np

TRAIN_FILE = "train.txt"
VALID_FILE = "valid.txt"
TEST_FILE = "test.txt"
ENTITY_NAME_FILE = "entity2text.txt"
ENTITY_DESC_FILE = "entity2textlong.txt"
RELATION_NAME_FILE = "relation2text.txt"

MODES = ("strict", "lenient")


def require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy ints too, not bool) >= ``minimum``."""
    try:
        if isinstance(value, bool):
            raise TypeError
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
class KnowledgeGraph:
    """Immutable triple store with train/valid/test splits and attached texts.

    The keys of ``entity_name`` and ``relation_name`` are the graph's ids, in
    file load order; ``entities`` and ``relations`` are views of those keys.
    ``entity_desc`` holds only non-empty descriptions.

    The sorted-id positions (``_index``), a split's index rows
    (``_split_rows``) and the fingerprint are computed on first use and
    cached on the instance, outside the dataclass fields. Nothing refreshes
    them, so the maps and splits must not be mutated after construction.
    """

    entity_name: dict[str, str]
    relation_name: dict[str, str]
    entity_desc: dict[str, str]
    train: tuple[Triple, ...]
    valid: tuple[Triple, ...]
    test: tuple[Triple, ...]
    load_warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def entities(self) -> KeysView[str]:
        return self.entity_name.keys()

    @property
    def relations(self) -> KeysView[str]:
        return self.relation_name.keys()

    def desc_of(self, entity: str) -> str:
        return self.entity_desc.get(entity, "")

    def split(self, name: str) -> tuple[Triple, ...]:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    @cached_property
    def _index(self) -> tuple[dict[str, int], dict[str, int]]:
        """Position of each entity and each relation id in sorted id order."""
        return (
            {e: i for i, e in enumerate(sorted(self.entity_name))},
            {r: i for i, r in enumerate(sorted(self.relation_name))},
        )

    @cached_property
    def _rows(self) -> dict[str, np.ndarray]:
        """The index rows of each split built so far, by split name."""
        return {}

    def _split_rows(self, name: str) -> np.ndarray:
        """The split as (n, 3) int32 rows of ``_index`` positions, built on first use."""
        rows = self._rows.get(name)
        if rows is None:
            rows = self._rows[name] = _index_rows(*self._index, self.split(name))
        return rows

    @cached_property
    def _fingerprint(self) -> str:
        digest = hashlib.sha256()
        files = _canonical_files(self)
        for name in sorted(files):
            digest.update(name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(files[name].encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def _index_rows(
    entity_index: dict[str, int], relation_index: dict[str, int], triples: Sequence[Triple]
) -> np.ndarray:
    """(n, 3) int32 rows of head, relation and tail indices, in one C-level pass.

    A name missing from the index raises ``KeyError("unknown entity/relation ...")``,
    naming the first one met in row order.
    """
    lookups = cycle((entity_index, relation_index, entity_index))
    try:
        flat = np.fromiter(
            map(dict.__getitem__, lookups, chain.from_iterable(triples)),
            dtype=np.int32,
            count=3 * len(triples),
        )
    except KeyError:
        for h, r, t in triples:
            for index, name, kind in (
                (entity_index, h, "entity"),
                (relation_index, r, "relation"),
                (entity_index, t, "entity"),
            ):
                if name not in index:
                    raise KeyError(f"unknown {kind} {name!r}") from None
        raise
    return flat.reshape(-1, 3)


def dataset_stats(kg: KnowledgeGraph) -> DatasetStats:
    """Exact collection sizes of a graph."""
    return DatasetStats(
        n_entities=len(kg.entities),
        n_relations=len(kg.relations),
        n_train=len(kg.train),
        n_valid=len(kg.valid),
        n_test=len(kg.test),
    )


def _read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (number, line) for each non-blank line, numbered among non-blank lines.

    LF, CRLF and a lone CR all end a line, as in ``Path.read_text``.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    lineno = 0
    with path.open(encoding="utf-8") as lines:
        for line in lines:
            if not line.isspace():
                lineno += 1
                yield lineno, line.rstrip("\n")


def read_pairs(path: Path) -> list[tuple[str, str]]:
    """Parse an id<TAB>text file, rejecting duplicate ids."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in _read_lines(path):
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


def read_triples(path: Path) -> Iterator[list[str]]:
    """Yield the [head, relation, tail] fields of each line of a triple file, streamed."""
    for lineno, line in _read_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(
                f"{path.name}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        yield fields


def load_dataset(root_path: str | Path, mode: str = MODES[0]) -> KnowledgeGraph:
    """Load a dataset directory into a :class:`KnowledgeGraph`.

    In strict mode any triple or description referencing an undeclared id
    aborts the load; in lenient mode offenders are dropped and reported via
    ``KnowledgeGraph.load_warnings``. Load order is preserved everywhere.
    A malformed line anywhere in a split file is reported ahead of a dangling
    reference in that file.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    strict = mode == MODES[0]
    root = Path(root_path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root does not exist: {root}")

    entity_name = dict(read_pairs(root / ENTITY_NAME_FILE))
    relation_name = dict(read_pairs(root / RELATION_NAME_FILE))
    # Every triple field and description key is swapped for the name file's
    # own string, so a graph holds one string per id.
    entity_ids = dict(zip(entity_name, entity_name))
    relation_ids = dict(zip(relation_name, relation_name))
    warnings: list[str] = []

    entity_desc: dict[str, str] = {}
    desc_path = root / ENTITY_DESC_FILE
    if desc_path.is_file():
        for key, text in read_pairs(desc_path):
            entity = entity_ids.get(key)
            if entity is None:
                msg = f"{ENTITY_DESC_FILE}: description for undeclared entity {key!r}"
                if strict:
                    raise DanglingReferenceError(msg)
                warnings.append(msg)
                continue
            if text:
                entity_desc[entity] = text

    def check_split(name: str, triples: Iterable[list[str]]) -> tuple[Triple, ...]:
        # Builds a Triple without the Python-level NamedTuple constructor.
        new_triple = tuple.__new__
        kept = []
        dangling = None
        for h, r, t in triples:
            try:
                kept.append(new_triple(Triple, (entity_ids[h], relation_ids[r], entity_ids[t])))
            except KeyError:
                if dangling is not None:
                    continue
                missing = []
                if h not in entity_ids:
                    missing.append(f"entity {h!r}")
                if t not in entity_ids:
                    missing.append(f"entity {t!r}")
                if r not in relation_ids:
                    missing.append(f"relation {r!r}")
                msg = f"{name}: triple {(h, r, t)} references unknown {', '.join(missing)}"
                if strict:
                    # Raised once the file is parsed, so a later malformed line wins.
                    dangling = msg
                else:
                    warnings.append(msg)
        if dangling is not None:
            raise DanglingReferenceError(dangling)
        return tuple(kept)

    train = check_split(TRAIN_FILE, read_triples(root / TRAIN_FILE))
    valid = check_split(VALID_FILE, read_triples(root / VALID_FILE))
    test = check_split(TEST_FILE, read_triples(root / TEST_FILE))

    return KnowledgeGraph(
        entity_name=entity_name,
        relation_name=relation_name,
        entity_desc=entity_desc,
        train=train,
        valid=valid,
        test=test,
        load_warnings=tuple(warnings),
    )


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
    relation_name = dict(kg.relation_name)
    for triple in triples:
        relation_name.setdefault(triple.relation, triple.relation)
    return replace(
        kg, relation_name=relation_name, train=kg.train + tuple(triples), load_warnings=()
    )


def pair_lines(pairs: Iterable[tuple[str, str]]) -> str:
    """Serialize pairs as the id<TAB>text lines ``read_pairs`` parses."""
    return "".join(f"{key}\t{text}\n" for key, text in pairs)


def triple_lines(triples: Iterable[Triple]) -> str:
    """Serialize triples as the lines ``read_triples`` parses."""
    return "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def _canonical_files(kg: KnowledgeGraph) -> dict[str, str]:
    """Exact file contents ``write_dataset`` emits, keyed by file name."""
    files = {
        TRAIN_FILE: triple_lines(kg.train),
        VALID_FILE: triple_lines(kg.valid),
        TEST_FILE: triple_lines(kg.test),
        ENTITY_NAME_FILE: pair_lines(kg.entity_name.items()),
        RELATION_NAME_FILE: pair_lines(kg.relation_name.items()),
    }
    descs = [(e, kg.entity_desc[e]) for e in kg.entity_name if kg.desc_of(e)]
    if descs:
        files[ENTITY_DESC_FILE] = pair_lines(descs)
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
    identifies a base dataset for bundle compatibility checks. Computed once
    per graph and cached.
    """
    return kg._fingerprint
