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

An id has one integer: its position in sorted id order. Each split is a
``Split``: (n, 3) int32 rows of those positions into the graph's id tables,
``tuple(sorted(entity_name))`` and ``tuple(sorted(relation_name))``, which its
three splits share. The same rows are training rows, filter keys and model
rows in the harness. A split reads like a tuple of ``Triple``s, built on
demand from the tables' strings, so a loaded graph holds one string per id
and no Python object per triple. A graph built from any sequence of triples
converts it once; an id the maps do not declare is a
``DanglingReferenceError`` at construction.

Split files are parsed in blocks of whole lines, never held whole. A block
whose every line is three tab-separated declared ids is mapped in one pass;
any other block is checked line by line, so messages, line numbers and the
strict/lenient rules are those of a line-by-line parse.

A graph computes what is derived from it once, on first use, and keeps it
outside its fields: each id's position by name, its fingerprint, and the
sorted filter keys of the harness. ``==``, ``repr``, ``asdict`` and
``replace`` see only the fields, and a replaced graph starts with nothing
cached. The cached view is never refreshed, so a graph's maps must not be
mutated after construction; build a changed graph with ``replace``.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Iterable, Iterator, KeysView, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, cycle, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

TRAIN_FILE = "train.txt"
VALID_FILE = "valid.txt"
TEST_FILE = "test.txt"
ENTITY_NAME_FILE = "entity2text.txt"
ENTITY_DESC_FILE = "entity2textlong.txt"
RELATION_NAME_FILE = "relation2text.txt"

MODES = ("strict", "lenient")
SPLITS = ("train", "valid", "test")

#: Characters read per block of a split file, before the block is cut back to
#: its last line break.
_BLOCK_CHARS = 1 << 20


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


class Split(Sequence[Triple]):
    """A read-only sequence of triples held as (n, 3) int32 rows over two id tables.

    Row ``(h, r, t)`` is the triple ``(entities[h], relations[r],
    entities[t])``; in a graph's split the tables are its sorted ids.
    Indexing and iteration build each ``Triple`` on demand from the tables'
    strings. ``len``, indexing, ``bool`` and ``==`` (with splits and with
    tuples) behave as on the tuple of those triples; a slice is a ``Split``.
    """

    __slots__ = ("rows", "entities", "relations")

    def __init__(self, rows: np.ndarray, entities: tuple[str, ...], relations: tuple[str, ...]):
        rows = np.asarray(rows, dtype=np.int32).view()
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"split rows must have shape (n, 3), got {rows.shape}")
        rows.flags.writeable = False
        self.rows, self.entities, self.relations = rows, entities, relations

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Split(self.rows[index], self.entities, self.relations)
        h, r, t = self.rows[operator.index(index)].tolist()
        return Triple(self.entities[h], self.relations[r], self.entities[t])

    def __iter__(self) -> Iterator[Triple]:
        heads, relations, tails = self.rows.T.tolist()
        return map(
            Triple._make,
            zip(
                map(self.entities.__getitem__, heads),
                map(self.relations.__getitem__, relations),
                map(self.entities.__getitem__, tails),
            ),
        )

    def _cells(self, ends: tuple[str, str, str] = ("", "", "")) -> np.ndarray:
        """(n, 3) object array of each row's head, relation and tail, each followed by its end."""
        cells = np.empty(self.rows.shape, dtype=object)
        for column, table, end in zip(range(3), (self.entities, self.relations, self.entities), ends):
            cells[:, column] = np.array([name + end for name in table], dtype=object)[self.rows[:, column]]
        return cells

    def __eq__(self, other) -> bool:
        if isinstance(other, Split):
            return len(self) == len(other) and bool((self._cells() == other._cells()).all())
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable triple store with train/valid/test splits and attached texts.

    The keys of ``entity_name`` and ``relation_name`` are the graph's ids, in
    file load order, which writing keeps; ``entities`` and ``relations`` are
    views of those keys.
    ``entity_desc`` holds only non-empty descriptions.

    Construction turns each split, given as any sequence of triples, into a
    ``Split`` over the graph's sorted id tables, so an id's integer is its
    position in sorted id order everywhere. A split already over those tables
    keeps its rows; any other sequence is converted once, and an id the maps
    do not declare raises ``DanglingReferenceError``.

    The name-to-position maps (``_index``), the fingerprint and the harness's
    sorted filter keys are computed on first use and cached on the instance,
    outside the dataclass fields. Nothing refreshes them, so the maps must
    not be mutated after construction.
    """

    entity_name: dict[str, str]
    relation_name: dict[str, str]
    entity_desc: dict[str, str]
    train: Split
    valid: Split
    test: Split
    load_warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        tables = tuple(sorted(self.entity_name)), tuple(sorted(self.relation_name))
        index = None
        for name in SPLITS:
            triples = getattr(self, name)
            if isinstance(triples, Split) and (triples.entities, triples.relations) == tables:
                rows = triples.rows
            else:
                index = index or _positions(*tables)
                try:
                    rows = _index_rows(*index, triples)
                except KeyError as err:
                    raise DanglingReferenceError(f"{name} split references {err.args[0]}") from None
            object.__setattr__(self, name, Split(rows, *tables))

    @property
    def entities(self) -> KeysView[str]:
        return self.entity_name.keys()

    @property
    def relations(self) -> KeysView[str]:
        return self.relation_name.keys()

    def desc_of(self, entity: str) -> str:
        return self.entity_desc.get(entity, "")

    def split(self, name: str) -> Split:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    @cached_property
    def _index(self) -> tuple[dict[str, int], dict[str, int]]:
        """Position of each entity and each relation id in sorted id order."""
        return _positions(self.train.entities, self.train.relations)

    @cached_property
    def _filter_keys(self) -> dict[bool, np.ndarray]:
        """Sorted train+valid+test keys by completion direction, filled by ``harness._completions``."""
        return {}

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


def _positions(entities: Sequence[str], relations: Sequence[str]) -> tuple[dict[str, int], dict[str, int]]:
    """Each entity's and each relation's position in its table, by name."""
    return {e: i for i, e in enumerate(entities)}, {r: i for i, r in enumerate(relations)}


def _index_rows(
    entity_index: dict[str, int], relation_index: dict[str, int], triples: Sequence[Triple]
) -> np.ndarray:
    """(n, 3) int32 rows of head, relation and tail indices, without a Python pass per triple.

    A ``Split`` is mapped through its tables, one lookup per table entry and
    one take; any other sequence in one ``np.fromiter`` pass over its names.
    A name missing from the index raises ``KeyError("unknown entity/relation
    ...")``, naming the first one met in row order.
    """
    kinds = ("entity", "relation", "entity")
    if isinstance(triples, Split):
        table = np.fromiter(
            chain(
                map(entity_index.get, triples.entities, repeat(-1)),
                map(relation_index.get, triples.relations, repeat(-1)),
            ),
            dtype=np.int32,
            count=len(triples.entities) + len(triples.relations),
        )
        rows = table[triples.rows + np.array([0, len(triples.entities), 0], dtype=np.int32)]
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            row, column = divmod(int(missing[0]), 3)
            raise KeyError(f"unknown {kinds[column]} {triples[row][column]!r}")
        return rows
    lookups = cycle((entity_index, relation_index, entity_index))
    try:
        flat = np.fromiter(
            map(dict.__getitem__, lookups, chain.from_iterable(triples)),
            dtype=np.int32,
            count=3 * len(triples),
        )
    except KeyError:
        for triple in triples:
            for index, name, kind in zip((entity_index, relation_index, entity_index), triple, kinds):
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


def _blocks(path: Path) -> Iterator[str]:
    """The file's text as runs of whole lines of about ``_BLOCK_CHARS`` characters.

    LF, CRLF and a lone CR all end a line, as in ``Path.read_text``, and
    every block ends with a line break: a last line without one gets one.
    Text that is not UTF-8 is a ``FormatError`` naming its line.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    with path.open(encoding="utf-8") as text:
        rest = ""
        try:
            while chunk := text.read(_BLOCK_CHARS):
                cut = chunk.rfind("\n") + 1
                if cut:
                    yield rest + chunk[:cut]
                    rest = chunk[cut:]
                else:
                    rest += chunk
        except UnicodeDecodeError as err:
            raise FormatError(f"{path.name}:{_undecodable_line(path)}: not UTF-8 ({err.reason})") from None
        if rest:
            yield rest + "\n"


def _undecodable_line(path: Path) -> int:
    """The number of the first line of ``path`` that is not UTF-8, counting as ``_numbered_lines`` does.

    No line break byte occurs inside a UTF-8 sequence, so an undecodable
    sequence lies within one line.
    """
    lineno = 0
    with path.open("rb") as data:
        for line in chain.from_iterable(map(bytes.splitlines, data)):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                break
            if text and not text.isspace():
                lineno += 1
    return lineno + 1


def _numbered_lines(block: str, lineno: int) -> Iterator[tuple[int, str]]:
    """Yield (number, line) for each non-blank line of a block, numbering on from ``lineno``."""
    for line in block.split("\n"):
        if line and not line.isspace():
            lineno += 1
            yield lineno, line


def _read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (number, line) for each non-blank line, numbered among non-blank lines."""
    lineno = 0
    for block in _blocks(path):
        for lineno, line in _numbered_lines(block, lineno):
            yield lineno, line


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


def _triple_fields(file_name: str, lineno: int, line: str) -> list[str]:
    """The [head, relation, tail] fields of one line; any other field count is a ``FormatError``."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise FormatError(f"{file_name}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
    return fields


def read_triples(path: Path) -> Iterator[list[str]]:
    """Yield the [head, relation, tail] fields of each line of a triple file, streamed."""
    for lineno, line in _read_lines(path):
        yield _triple_fields(path.name, lineno, line)


def _three_fields_per_line(block: str) -> bool:
    """Whether the tabs and line breaks of ``block`` run tab, tab, break over and over.

    That is, every line has exactly three fields and none is empty. Tabs
    and line feeds are single bytes in UTF-8, never part of another
    character's encoding.
    """
    codes = np.frombuffer(block.encode("utf-8"), dtype=np.uint8)
    separators = codes[(codes == 9) | (codes == 10)]
    return separators.size % 3 == 0 and bool((separators.reshape(-1, 3) == (9, 9, 10)).all())


def _read_split(
    path: Path,
    entity_ids: dict[str, int],
    relation_ids: dict[str, int],
    strict: bool,
    warnings: list[str],
) -> np.ndarray:
    """A split file as (n, 3) int32 rows of table indices, parsed block by block.

    A block whose every line is three declared ids is split once and mapped
    in one ``np.fromiter`` pass. Any other block goes line by line, with the
    checks of ``read_triples``, so a line's number and message do not depend
    on the blocks. A dangling triple is warned about in lenient mode; in
    strict mode the first one is raised once the file is parsed, so a later
    malformed line wins.
    """
    lookups = (entity_ids, relation_ids, entity_ids)
    # A line of whitespace is skipped, never read as a triple. In a one-pass
    # block its head fails the lookup, unless an entity id is whitespace.
    one_pass = not any(map(str.isspace, entity_ids))
    parts = [np.empty(0, dtype=np.int32)]
    lineno, dangling = 0, None
    for block in _blocks(path):
        if one_pass and _three_fields_per_line(block):
            fields = block.replace("\n", "\t").split("\t")
            fields.pop()
            try:
                parts.append(np.fromiter(map(dict.__getitem__, cycle(lookups), fields), np.int32, len(fields)))
            except KeyError:
                pass
            else:
                lineno += len(fields) // 3
                continue
        kept: list[int] = []
        for lineno, line in _numbered_lines(block, lineno):
            h, r, t = _triple_fields(path.name, lineno, line)
            try:
                kept += entity_ids[h], relation_ids[r], entity_ids[t]
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
                msg = f"{path.name}: triple {(h, r, t)} references unknown {', '.join(missing)}"
                if strict:
                    dangling = msg
                else:
                    warnings.append(msg)
        parts.append(np.array(kept, dtype=np.int32))
    if dangling is not None:
        raise DanglingReferenceError(dangling)
    return np.concatenate(parts).reshape(-1, 3)


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
    entities, relations = tuple(sorted(entity_name)), tuple(sorted(relation_name))
    entity_ids, relation_ids = _positions(entities, relations)
    warnings: list[str] = []

    entity_desc: dict[str, str] = {}
    desc_path = root / ENTITY_DESC_FILE
    if desc_path.is_file():
        for key, text in read_pairs(desc_path):
            i = entity_ids.get(key)
            if i is None:
                msg = f"{ENTITY_DESC_FILE}: description for undeclared entity {key!r}"
                if strict:
                    raise DanglingReferenceError(msg)
                warnings.append(msg)
                continue
            if text:
                # The name file's own string, so a graph holds one string per id.
                entity_desc[entities[i]] = text

    splits = {
        name: Split(_read_split(root / file, entity_ids, relation_ids, strict, warnings), entities, relations)
        for name, file in zip(SPLITS, (TRAIN_FILE, VALID_FILE, TEST_FILE))
    }
    return KnowledgeGraph(
        entity_name=entity_name,
        relation_name=relation_name,
        entity_desc=entity_desc,
        load_warnings=tuple(warnings),
        **splits,
    )


def augment_training_set(kg: KnowledgeGraph, triples: Sequence[Triple]) -> KnowledgeGraph:
    """New graph with the triples appended to train; valid/test untouched.

    Relations introduced by the new triples are registered with their id as
    display text, after the existing ones in ``relation_name``. A triple
    referencing an unknown entity raises ``DanglingReferenceError``.
    """
    if not triples:
        return kg
    relation_name = dict(kg.relation_name)
    for triple in triples:
        relation_name.setdefault(triple.relation, triple.relation)
    relations = tuple(sorted(relation_name))
    relation_ids = {r: i for i, r in enumerate(relations)}
    try:
        extras = _index_rows(kg._index[0], relation_ids, triples)
    except KeyError as err:
        raise DanglingReferenceError(f"train split references {err.args[0]}") from None
    # Entity positions stay; a new relation may sort among the old ones and move them.
    moved = np.array([relation_ids[r] for r in kg.train.relations], dtype=np.int32)

    def grown(split: Split, appended: np.ndarray = extras[:0]) -> Split:
        rows = np.concatenate((split.rows, appended))
        rows[: len(split), 1] = moved[split.rows[:, 1]]
        return Split(rows, split.entities, relations)

    splits = dict(train=grown(kg.train, extras), valid=grown(kg.valid), test=grown(kg.test))
    return replace(kg, relation_name=relation_name, load_warnings=(), **splits)


def pair_lines(pairs: Iterable[tuple[str, str]]) -> str:
    """Serialize pairs as the id<TAB>text lines ``read_pairs`` parses."""
    return "".join(f"{key}\t{text}\n" for key, text in pairs)


def triple_lines(triples: Iterable[Triple]) -> str:
    """Serialize triples as the lines ``read_triples`` parses.

    A ``Split`` is serialized by taking each row's ``"head\\t"``,
    ``"relation\\t"`` and ``"tail\\n"`` strings from its tables and one join.
    """
    if isinstance(triples, Split):
        return "".join(triples._cells(("\t", "\t", "\n")).ravel().tolist())
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
