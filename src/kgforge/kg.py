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
and no Python object per triple.

Graph construction is the one place that sorts the id tables, and
``_index_rows`` the one way rows reach their positions. Every split is
re-keyed at construction: a ``Split`` over any tables (the loader's are the
name files' order) by mapping each table entry once and taking its rows
through the two maps; any other sequence of triples name by name. An id the
maps do not declare is a ``DanglingReferenceError``. Two splits compare
through the same mapping.

Names become positions in one place, ``_name_rows``, with -1 for an
undeclared name. Split files are parsed in blocks of whole lines, never held
whole. A block whose every line has three fields is kept as mapped if it has
no -1; any other block is split line by line, then mapped, and its -1s are
its dangling triples. So messages, line numbers and the strict/lenient rules
are those of a line-by-line parse.

Writing and fingerprinting never hold a whole file's text. ``_tsv_blocks`` is
the one renderer of tab-separated lines: a split ``_BLOCK_ROWS`` rows at a
time, any other rows, pairs or triples, one line at a time.
``write_dataset`` writes each block or line to its open file and the
fingerprint feeds each to its running hash.

``write_text`` is the one writer of text artifacts: datasets, bundle files
(``bundle.write_json`` for their JSON), A/B reports and replay fixtures all go
through it, as UTF-8 with LF endings, into a directory it creates. It writes
each file whole or not at all, through a temporary file it moves into place.

A graph caches one derived value, its fingerprint, computed on first use and
held outside its fields. ``==``, ``repr``, ``asdict`` and ``replace`` see
only the fields, and a replaced graph starts with nothing cached. The cached
fingerprint is never refreshed, so a graph's maps must not be mutated after
construction; build a changed graph with ``replace``.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from collections.abc import Iterable, Iterator, KeysView, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, cycle, repeat
from numbers import Real
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

#: Characters read per block of a text file (fewer for a smaller file), before
#: the block is cut back to its last line break.
_BLOCK_CHARS = 1 << 20
#: Rows rendered per block when a split is written or fingerprinted. A block's
#: transients (its cells, its text and that text's UTF-8 copy) grow with this,
#: not with the split.
_BLOCK_ROWS = 1 << 15


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


def require_finite(name: str, value, positive: bool = False) -> None:
    """Raise ValueError unless ``value`` is a finite real number (not bool) >= 0, or > 0 if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < math.inf or (positive and not value):
        raise ValueError(f"{name} must be a finite number {'> 0' if positive else '>= 0'}, got {value!r}")


class DatasetError(Exception):
    """Malformed or inconsistent dataset files."""


class FormatError(DatasetError):
    """A line does not match the expected tab-separated layout, or a graph holds text it cannot."""


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
    entities[t])``; each table holds distinct names, and in a graph's split
    the tables are its sorted ids.
    Indexing and iteration build each ``Triple`` on demand from the tables'
    strings. ``len``, indexing and ``bool`` behave as on the tuple of those
    triples. A split equals a split of the same triples, whatever its
    tables: the other's tables are mapped through this one's positions and
    the rows compared, building no ``Triple``. A split never equals a tuple;
    compare ``tuple(split)`` for that. A slice is a ``Split``.
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Split):
            return NotImplemented
        try:
            rows = _index_rows(*_positions(self.entities, self.relations), other)
        except KeyError:
            return False
        return np.array_equal(rows, self.rows)

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
    position in sorted id order everywhere. Every split is re-keyed by
    ``_index_rows`` into new rows, a ``Split`` table by table and any other
    sequence triple by triple, and an id the maps do not declare raises
    ``DanglingReferenceError``. Graphs compare through their splits' ``==``.
    An id that is empty or holds a TAB, CR or LF, or a name or description
    that holds CR or LF, is a ``FormatError`` naming the id: read back from
    the tab-separated files, it would be another graph, of equal fingerprint.

    Only the fingerprint is cached: computed on first use and kept on the
    instance, outside the dataclass fields. Nothing refreshes it, so the maps
    must not be mutated after construction.
    """

    entity_name: dict[str, str]
    relation_name: dict[str, str]
    entity_desc: dict[str, str]
    train: Split
    valid: Split
    test: Split
    load_warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for attr in ("entity_name", "relation_name", "entity_desc"):
            for key, text in getattr(self, attr).items():
                if not key or "\t" in key or "\n" in key or "\r" in key:
                    raise FormatError(f"{attr} id {key!r} is empty or holds a TAB, CR or LF")
                if "\n" in text or "\r" in text:
                    raise FormatError(f"{attr}[{key!r}] holds CR or LF")
        tables = tuple(sorted(self.entity_name)), tuple(sorted(self.relation_name))
        index = _positions(*tables)
        for name in SPLITS:
            try:
                rows = _index_rows(*index, getattr(self, name))
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
    def _fingerprint(self) -> str:
        digest = hashlib.sha256()
        for name, blocks in _canonical_files(self):
            digest.update(name.encode("utf-8"))
            digest.update(b"\0")
            for block in blocks:
                digest.update(block.encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def _positions(entities: Sequence[str], relations: Sequence[str]) -> tuple[dict[str, int], dict[str, int]]:
    """Each entity's and each relation's position in its table, by name."""
    return {e: i for i, e in enumerate(entities)}, {r: i for i, r in enumerate(relations)}


def _name_rows(
    entity_index: dict[str, int], relation_index: dict[str, int], names: Iterable[str], count: int
) -> np.ndarray:
    """(n, 3) int32 rows of a flat run of ``count`` head, relation and tail names; -1 for a name its map lacks."""
    lookups = cycle((entity_index, relation_index, entity_index))
    return np.fromiter(map(dict.get, lookups, names, repeat(-1)), dtype=np.int32, count=count).reshape(-1, 3)


def _index_rows(
    entity_index: dict[str, int], relation_index: dict[str, int], triples: Sequence[Triple]
) -> np.ndarray:
    """(n, 3) int32 rows of the head, relation and tail indices of any sequence of triples.

    A ``Split`` maps its two tables, one lookup per table entry, and then
    takes its rows through them, building no ``Triple``; any other sequence
    goes through its triples' names. A name missing from the index raises
    ``KeyError("unknown entity/relation ...")``, naming the first one met in
    row order.
    """
    if isinstance(triples, Split):
        entity_map, relation_map = (
            np.fromiter(map(index.get, table, repeat(-1)), dtype=np.int32, count=len(table))
            for index, table in ((entity_index, triples.entities), (relation_index, triples.relations))
        )
        heads, relations, tails = triples.rows.T
        rows = np.stack((entity_map[heads], relation_map[relations], entity_map[tails]), axis=1)
    else:
        rows = _name_rows(entity_index, relation_index, chain.from_iterable(triples), 3 * len(triples))
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        row, column = divmod(int(missing[0]), 3)
        raise KeyError(f"unknown {('entity', 'relation', 'entity')[column]} {triples[row][column]!r}")
    return rows


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

    A read allocates a buffer of the size it asks for, and a file of n bytes
    holds at most n characters, so a smaller file is read n + 1 characters
    at a time. LF, CRLF and a lone CR all end a line, as in
    ``Path.read_text``, and every block ends with a line break: a last line
    without one gets one. Text that is not UTF-8 is a ``FormatError`` naming
    its line.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    size = min(_BLOCK_CHARS, path.stat().st_size + 1)
    with path.open(encoding="utf-8") as text:
        rest = ""
        try:
            while chunk := text.read(size):
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


def read_pairs(path: Path) -> dict[str, str]:
    """Parse an id<TAB>text file into an id -> text map in file order, rejecting duplicate ids."""
    pairs: dict[str, str] = {}
    for lineno, line in _read_lines(path):
        if "\t" not in line:
            raise FormatError(f"{path.name}:{lineno}: expected id<TAB>text, got {line!r}")
        key, text = line.split("\t", 1)
        if not key:
            raise FormatError(f"{path.name}:{lineno}: empty id")
        if key in pairs:
            raise FormatError(f"{path.name}:{lineno}: duplicate id {key!r}")
        pairs[key] = text
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

    A block whose every line has three fields is split once and mapped
    through ``_name_rows``; it is kept if every name is declared. Any other
    block is split into fields line by line, with the checks of
    ``read_triples``, so a line's number and message do not depend on the
    blocks, and is then mapped; a row with a -1 is a dangling triple, dropped
    and reported. Dangling triples are warned about in lenient mode; in
    strict mode the first one is raised once the file is parsed, so a later
    malformed line wins.
    """
    # A line of whitespace is skipped, never read as a triple. In a one-pass
    # block its head is -1, unless an entity id is whitespace.
    one_pass = not any(map(str.isspace, entity_ids))
    parts = [np.empty((0, 3), dtype=np.int32)]
    lineno, reports = 0, []
    for block in _blocks(path):
        if one_pass and _three_fields_per_line(block):
            fields = block.replace("\n", "\t").split("\t")
            fields.pop()
            rows = _name_rows(entity_ids, relation_ids, fields, len(fields))
            if (rows >= 0).all():
                parts.append(rows)
                lineno += len(rows)
                continue
        fields = []
        for lineno, line in _numbered_lines(block, lineno):
            fields += _triple_fields(path.name, lineno, line)
        rows = _name_rows(entity_ids, relation_ids, fields, len(fields))
        dangling = (rows < 0).any(axis=1)
        for i in np.flatnonzero(dangling).tolist():
            h, r, t = fields[3 * i : 3 * i + 3]
            unknown = zip(("entity", "entity", "relation"), (h, t, r), rows[i, [0, 2, 1]].tolist())
            missing = ", ".join(f"{kind} {name!r}" for kind, name, position in unknown if position < 0)
            reports.append(f"{path.name}: triple {(h, r, t)} references unknown {missing}")
        parts.append(rows[~dangling])
    if strict and reports:
        raise DanglingReferenceError(reports[0])
    warnings += reports
    return np.concatenate(parts)


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

    entity_name = read_pairs(root / ENTITY_NAME_FILE)
    relation_name = read_pairs(root / RELATION_NAME_FILE)
    entities, relations = tuple(entity_name), tuple(relation_name)
    entity_ids, relation_ids = _positions(entities, relations)
    warnings: list[str] = []

    entity_desc: dict[str, str] = {}
    desc_path = root / ENTITY_DESC_FILE
    if desc_path.is_file():
        for key, text in read_pairs(desc_path).items():
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
    referencing an unknown entity raises ``DanglingReferenceError``. The
    graph is built in one construction and, like every derived graph, keeps
    the base's ``load_warnings``: it still lacks what loading the base dropped.
    """
    return _derived(kg, kg.entity_desc, kg.relation_name, triples)


def _derived(kg: KnowledgeGraph, desc: dict[str, str], names: dict[str, str], triples: Sequence[Triple]) -> KnowledgeGraph:
    """``augment_training_set(kg, triples)`` over these descriptions and relation names (the base's, in its order)."""
    names = names | {triple.relation: triple.relation for triple in triples if triple.relation not in names}
    # The new relations follow the base table; construction sorts them in.
    entities, relations = kg.train.entities, kg.train.relations + tuple(names)[len(kg.relation_name) :]
    try:
        extras = _index_rows(*_positions(entities, relations), triples)
    except KeyError as err:
        raise DanglingReferenceError(f"train split references {err.args[0]}") from None
    train = Split(np.concatenate((kg.train.rows, extras)), entities, relations)
    return replace(kg, entity_desc=desc, relation_name=names, train=train)


def _tsv_blocks(rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """Serialize rows as the tab-separated lines ``read_pairs`` or ``read_triples`` parses, in a run of strings.

    A ``Split`` comes ``_BLOCK_ROWS`` rows per string: each row's
    ``"head\\t"``, ``"relation\\t"`` and ``"tail\\n"`` strings are taken
    from its tables and joined once per block, and an empty split renders
    nothing. Any other rows come one line per string, rendered as consumed.
    """
    if not isinstance(rows, Split):
        yield from ("\t".join(row) + "\n" for row in rows)
    elif len(rows):
        ends = [
            np.array([name + end for name in table], dtype=object)
            for table, end in zip((rows.entities, rows.relations, rows.entities), "\t\t\n")
        ]
        for start in range(0, len(rows.rows), _BLOCK_ROWS):
            block = rows.rows[start : start + _BLOCK_ROWS]
            cells = np.empty(block.shape, dtype=object)
            for column, names in enumerate(ends):
                cells[:, column] = names[block[:, column]]
            yield "".join(cells.ravel().tolist())


def _canonical_files(kg: KnowledgeGraph) -> Iterator[tuple[str, Iterable[str]]]:
    """Each file ``write_dataset`` emits, in name order, with its exact content as a run of strings.

    A split's content comes in blocks of rows; a pair file's line by line.
    Each content is rendered only as it is consumed.
    """
    files = {
        TRAIN_FILE: kg.train,
        VALID_FILE: kg.valid,
        TEST_FILE: kg.test,
        ENTITY_NAME_FILE: kg.entity_name.items(),
        RELATION_NAME_FILE: kg.relation_name.items(),
    }
    if any(map(kg.desc_of, kg.entity_name)):
        files[ENTITY_DESC_FILE] = ((e, kg.entity_desc[e]) for e in kg.entity_name if kg.desc_of(e))
    for name in sorted(files):
        yield name, _tsv_blocks(files[name])


def write_dataset(kg: KnowledgeGraph, root_path: str | Path) -> None:
    """Write a graph back to the tab-separated layout (UTF-8, LF endings).

    The description file is emitted only when at least one description is
    non-empty, and lists entities in name-file order; otherwise one left in
    the directory is removed, so the written graph is the one that loads.
    Split files are written block by block and the others line by line, so
    no file is held whole.
    """
    root = Path(root_path)
    files = dict(_canonical_files(kg))
    for name, blocks in files.items():
        write_text(root / name, blocks)
    if ENTITY_DESC_FILE not in files:
        (root / ENTITY_DESC_FILE).unlink(missing_ok=True)


def write_text(path: str | Path, texts: Iterable[str]) -> None:
    """Write the strings to ``path`` as UTF-8 with LF endings, creating its directory.

    Each string is written as it comes, so a generator of blocks is never
    held whole. They go to a temporary file beside ``path`` that then
    replaces it, so a failure partway leaves the old file, or none, and no
    temporary file. A new file gets the permissions ``open(path, "w")``
    gives.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with partial.open("w", encoding="utf-8", newline="\n") as out:
            out.writelines(texts)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def kg_fingerprint(kg: KnowledgeGraph) -> str:
    """Content hash of a graph's canonical serialization.

    Equal to the hash of the files ``write_dataset`` would produce, so it
    identifies a base dataset for bundle compatibility checks. Computed once
    per graph and cached.
    """
    return kg._fingerprint
