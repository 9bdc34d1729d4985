"""Loader/writer contracts: counts, round-trips, strict vs lenient handling."""

import gc
import hashlib
import os
import re
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgforge.kg
from kgforge.bundle import AugmentationBundle, apply_bundles
from kgforge.kg import (
    DanglingReferenceError,
    DatasetStats,
    FormatError,
    KnowledgeGraph,
    Split,
    Triple,
    _index_rows,
    augment_training_set,
    dataset_stats,
    kg_fingerprint,
    load_dataset,
    read_pairs,
    write_dataset,
    write_text,
)
from kgforge.synth import planted_alias_graph, toy_graph


def read(path):
    return path.read_text(encoding="utf-8")


def test_toy_fixture_stats(toy_root):
    kg = load_dataset(toy_root)
    assert dataset_stats(kg) == DatasetStats(8, 3, 12, 2, 2)


def test_empty_dataset_has_zero_stats(tmp_path):
    for name in ("train.txt", "valid.txt", "test.txt", "entity2text.txt", "relation2text.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    kg = load_dataset(tmp_path)
    assert dataset_stats(kg) == DatasetStats(0, 0, 0, 0, 0)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")
    (tmp_path / "train.txt").write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def test_load_write_load_round_trip(toy_root, tmp_path):
    kg1 = load_dataset(toy_root)
    out1 = tmp_path / "one"
    write_dataset(kg1, out1)
    kg2 = load_dataset(out1)
    assert kg1 == kg2
    out2 = tmp_path / "two"
    write_dataset(kg2, out2)
    for name in sorted(os.listdir(out1)):
        assert read(out1 / name) == read(out2 / name), name


def test_rewriting_without_descriptions_removes_the_old_description_file(toy_kg, tmp_path):
    write_dataset(toy_kg, tmp_path)
    assert len(load_dataset(tmp_path).entity_desc) == 8
    bare = replace(toy_kg, entity_desc={})
    write_dataset(bare, tmp_path)
    assert not (tmp_path / "entity2textlong.txt").exists()
    assert load_dataset(tmp_path) == bare and load_dataset(tmp_path).entity_desc == {}


def test_writer_uses_lf_and_trailing_newline(toy_root, tmp_path):
    kg = load_dataset(toy_root)
    write_dataset(kg, tmp_path)
    raw = (tmp_path / "train.txt").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_loader_determinism(toy_root):
    assert load_dataset(toy_root) == load_dataset(toy_root)
    assert kg_fingerprint(load_dataset(toy_root)) == kg_fingerprint(load_dataset(toy_root))


def test_splits_are_disjoint(toy_kg):
    train, valid, test = set(toy_kg.train), set(toy_kg.valid), set(toy_kg.test)
    assert not (train & valid) and not (train & test) and not (valid & test)


def test_augmented_train_file_appends_after_original_lines(toy_root, tmp_path):
    kg = load_dataset(toy_root)
    extra = (Triple("/m/bay", "SameAs", "/m/spielberg"), Triple("/m/bay", "SameAs", "/m/bay"))
    augmented = augment_training_set(kg, extra)
    write_dataset(augmented, tmp_path)
    original_lines = read(toy_root / "train.txt").splitlines()
    new_lines = read(tmp_path / "train.txt").splitlines()
    assert new_lines[: len(original_lines)] == original_lines
    assert new_lines[len(original_lines) :] == ["\t".join(t) for t in extra]


def test_write_to_unwritable_path_raises(toy_kg, tmp_path):
    # A regular file where the dataset directory should go; root ignores
    # permission bits, so a permission-based variant would not fail under CI.
    target = tmp_path / "blocked"
    target.write_text("in the way", encoding="utf-8")
    with pytest.raises(OSError):
        write_dataset(toy_kg, target)


def test_write_text_creates_its_directory_and_writes_utf8_with_lf(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_text(path, (line for line in ["é\tx\n", "y\n"]))
    assert path.read_bytes() == "é\tx\ny\n".encode("utf-8")


def test_write_text_failing_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")

    def texts():
        yield "new part\n"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        write_text(path, texts())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    write_text(path, ["new\n"])
    assert path.read_text(encoding="utf-8") == "new\n" and os.listdir(tmp_path) == ["out.txt"]


def test_write_text_gives_a_new_file_the_permissions_of_open(tmp_path):
    with open(tmp_path / "plain.txt", "w"):
        pass
    write_text(tmp_path / "new.txt", ["x\n"])
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_read_pairs_maps_ids_to_texts_in_file_order(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("z\tlast letter\na\tfirst\n\nm\t\n", encoding="utf-8")
    assert list(read_pairs(path).items()) == [("z", "last letter"), ("a", "first"), ("m", "")]


def test_malformed_triple_line(tmp_path, toy_root):
    for name in os.listdir(toy_root):
        (tmp_path / name).write_text(read(toy_root / name), encoding="utf-8")
    (tmp_path / "train.txt").write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(FormatError, match="3 tab-separated fields"):
        load_dataset(tmp_path)


def test_duplicate_id_in_text_file(tmp_path, toy_root):
    for name in os.listdir(toy_root):
        (tmp_path / name).write_text(read(toy_root / name), encoding="utf-8")
    with (tmp_path / "entity2text.txt").open("a", encoding="utf-8") as fh:
        fh.write("/m/bay\tDuplicate\n")
    with pytest.raises(FormatError, match="duplicate id"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["train.txt", "entity2text.txt"])
def test_text_that_is_not_utf8_names_its_file_and_line(tmp_path, name):
    # 20,000 lines span more than one block; blank lines are not counted.
    write_files(tmp_path, train="a\tr\tb\n\n" * 20_000)
    with (tmp_path / name).open("ab") as fh:
        fh.write(b"\r\nc\tr\t\xff\nb\tr\tc\n")
    lineno = 20_001 if name == "train.txt" else 4
    with pytest.raises(FormatError, match=f"^{name}:{lineno}: not UTF-8 \\(invalid start byte\\)$"):
        load_dataset(tmp_path)


def test_dangling_reference_strict_vs_lenient(tmp_path, toy_root):
    for name in os.listdir(toy_root):
        (tmp_path / name).write_text(read(toy_root / name), encoding="utf-8")
    with (tmp_path / "train.txt").open("a", encoding="utf-8") as fh:
        fh.write("/m/ghost\t/film/directed_by\t/m/bay\n")
    with pytest.raises(DanglingReferenceError, match="/m/ghost"):
        load_dataset(tmp_path, mode="strict")
    kg = load_dataset(tmp_path, mode="lenient")
    assert len(kg.train) == 12
    assert len(kg.load_warnings) == 1 and "/m/ghost" in kg.load_warnings[0]


def test_unknown_mode_rejected(toy_root):
    with pytest.raises(ValueError, match="mode"):
        load_dataset(toy_root, mode="fuzzy")


def test_description_file_is_optional(tmp_path, toy_root):
    for name in os.listdir(toy_root):
        if name != "entity2textlong.txt":
            (tmp_path / name).write_text(read(toy_root / name), encoding="utf-8")
    kg = load_dataset(tmp_path)
    assert kg.entity_desc == {}
    assert kg.desc_of("/m/bay") == ""


def test_fingerprint_tracks_content(toy_root, tmp_path, toy_kg):
    base = kg_fingerprint(load_dataset(toy_root))
    assert base == kg_fingerprint(toy_kg)
    write_dataset(toy_kg, tmp_path)
    with (tmp_path / "train.txt").open("a", encoding="utf-8") as fh:
        fh.write("/m/bay\t/film/directed_by\t/m/bay\n")
    assert kg_fingerprint(load_dataset(tmp_path)) != base


def test_fingerprint_golden_values():
    # Pinned: a change to the canonical serialization moves these, and every
    # bundle saved against the old value stops composing.
    assert kg_fingerprint(toy_graph()) == (
        "2ab76997de23575b59bdb2f3737e69a66e2911dbde84fef7e5da14435e5a7141"
    )
    assert kg_fingerprint(planted_alias_graph(seed=13)[0]) == (
        "57b949b3791a91930eb921cd9553b67a71cc2542b1a21cd7c3f9de7d9f95e347"
    )


def test_derived_graphs_fingerprint_like_their_reloaded_files(tmp_path, toy_root):
    # The base's cache is filled first; no derived graph may inherit it.
    base = load_dataset(toy_root)
    base_fp = kg_fingerprint(base)
    base_rows = base.train.rows
    extra = [Triple("/m/bay", "SameAs", "/m/spielberg")]
    bundles = [
        AugmentationBundle(kind="entity", fingerprint=base_fp, entity_text={"/m/la": "A city on the Pacific coast."}),
        AugmentationBundle(kind="relation", fingerprint=base_fp, relation_text={"/film/directed_by": "is directed by"}),
        AugmentationBundle(kind="structure", fingerprint=base_fp, extra_triples=extra),
    ]
    derived = {
        "replace": replace(base, test=base.test[:1]),
        "augment": augment_training_set(base, extra),
        "apply": apply_bundles(base, bundles),
    }
    for name, kg in derived.items():
        write_dataset(kg, tmp_path / name)
        reloaded = load_dataset(tmp_path / name)
        assert kg_fingerprint(kg) == kg_fingerprint(reloaded) != base_fp, name
        for split in ("train", "valid", "test"):
            assert kg.split(split).rows.tolist() == reloaded.split(split).rows.tolist(), name
    assert len(derived["augment"].train.rows) == len(base_rows) + 1
    assert kg_fingerprint(base) == base_fp


def test_every_split_row_is_a_sorted_id_position(toy_root, tmp_path):
    # New relations that sort first, in the middle and last all shift the
    # base rows' relation column, or leave it.
    base = load_dataset(toy_root)
    extra = [Triple("/m/bay", "SameAs", "/m/spielberg")]
    bundles = [
        AugmentationBundle(
            kind="relation", fingerprint=kg_fingerprint(base), relation_text={"/film/directed_by": "is directed by"}
        ),
        AugmentationBundle(kind="structure", fingerprint=kg_fingerprint(base), extra_triples=extra),
    ]
    graphs = {
        "load": base,
        "reversed": replace(
            base,
            entity_name=dict(reversed(base.entity_name.items())),
            relation_name=dict(reversed(base.relation_name.items())),
        ),
        "apply": apply_bundles(base, bundles),
        # An entity that sorts first shifts every entity position, so the
        # base splits are converted from the base's tables.
        "first": replace(base, entity_name={"/a/first": "First", **base.entity_name}),
    }
    for name in ("reversed", "first"):
        assert (graphs[name].train, graphs[name].valid, graphs[name].test) == (base.train, base.valid, base.test)
    for relation in ("/a/same_as", "/film/m", "SameAs"):
        added = [Triple("/m/bay", relation, "/m/spielberg"), Triple("/m/la", relation, "/m/bay")]
        graphs[relation] = augment_training_set(base, added)
        assert tuple(graphs[relation].train[-2:]) == tuple(added) and graphs[relation].train[:-2] == base.train
        assert (graphs[relation].valid, graphs[relation].test) == (base.valid, base.test)
    for i, (name, kg) in enumerate(graphs.items()):
        entities, relations = sorted(kg.entities), sorted(kg.relations)
        write_dataset(kg, tmp_path / str(i))
        reloaded = load_dataset(tmp_path / str(i))
        for split in ("train", "valid", "test"):
            expected = [
                [entities.index(h), relations.index(r), entities.index(t)] for h, r, t in tuple(kg.split(split))
            ]
            assert kg.split(split).rows.tolist() == expected == reloaded.split(split).rows.tolist(), name
            assert (kg.split(split).entities, kg.split(split).relations) == (tuple(entities), tuple(relations))


def test_cached_view_is_outside_the_record(toy_kg):
    kg = replace(toy_kg)
    kg_fingerprint(kg)
    assert kg == toy_kg and repr(kg) == repr(toy_kg) and asdict(kg) == asdict(toy_kg)
    assert "_fingerprint" not in vars(replace(kg))


def write_files(root, train="", valid="", test=""):
    """A three-entity, one-relation dataset with the given split contents."""
    files = {
        "entity2text.txt": "a\tA\nb\tB\nc\tC\n",
        "relation2text.txt": "r\tR\n",
        "train.txt": train,
        "valid.txt": valid,
        "test.txt": test,
    }
    for name, content in files.items():
        (root / name).write_text(content, encoding="utf-8")


def test_triple_fields_are_the_name_files_strings(toy_root):
    kg = load_dataset(toy_root)
    entity_ids = {id(e) for e in kg.entity_name}
    relation_ids = {id(r) for r in kg.relation_name}
    for split in ("train", "valid", "test"):
        for head, relation, tail in kg.split(split):
            assert id(head) in entity_ids and id(tail) in entity_ids
            assert id(relation) in relation_ids
    assert all(id(e) in entity_ids for e in kg.entity_desc)


def test_strict_malformed_line_wins_over_earlier_dangling_id(tmp_path):
    write_files(tmp_path, train="a\tr\tghost\nb\tr\tc\na\tr\n")
    with pytest.raises(FormatError, match="^train.txt:3: expected 3 tab-separated fields, got 2$"):
        load_dataset(tmp_path, mode="strict")
    write_files(tmp_path, train="a\tr\tghost\nb\tr\tc\n", valid="a\tr\n")
    with pytest.raises(DanglingReferenceError, match="ghost"):
        load_dataset(tmp_path, mode="strict")


def test_lenient_warnings_follow_file_and_line_order(tmp_path):
    write_files(
        tmp_path,
        train="a\tr\tghost\nb\tr\tc\nnobody\tq\tc\n",
        valid="a\tr\tb\r\nb\tr\tc\rc\tr\tghost\n",
        test="\nc\tq\tspook\n",
    )
    kg = load_dataset(tmp_path, mode="lenient")
    assert tuple(kg.train) == (Triple("b", "r", "c"),)
    assert tuple(kg.valid) == (Triple("a", "r", "b"), Triple("b", "r", "c"))
    assert tuple(kg.test) == ()
    assert kg.load_warnings == (
        "train.txt: triple ('a', 'r', 'ghost') references unknown entity 'ghost'",
        "train.txt: triple ('nobody', 'q', 'c') references unknown entity 'nobody', relation 'q'",
        "valid.txt: triple ('c', 'r', 'ghost') references unknown entity 'ghost'",
        "test.txt: triple ('c', 'q', 'spook') references unknown entity 'spook', relation 'q'",
    )


def test_split_behaves_like_the_tuple_it_replaces(toy_root, toy_kg):
    kg = load_dataset(toy_root)
    split, triples = kg.train, tuple(kg.train)
    assert isinstance(split, Split) and split.rows.dtype == np.int32 and split.rows.shape == (12, 3)
    assert triples == tuple(toy_kg.train) and all(type(t) is Triple for t in triples)
    assert len(split) == 12 and bool(split) and not kg.valid[:0] and len(kg.valid[:0]) == 0
    assert split[-1] == triples[-1] and split[-1].head == "/m/armageddon" and split[3].tail == "/m/spielberg"
    with pytest.raises(IndexError):
        split[12]
    assert tuple(split[2:7]) == triples[2:7] and tuple(split[::-3]) == triples[::-3]
    assert isinstance(split[2:7], Split)
    assert [t.relation for t in split] == [t.relation for t in triples]
    # Equal to equal splits of other graphs.
    assert split == toy_kg.train
    assert split != kg.valid and split != list(triples)
    reordered = replace(
        kg, entity_name=dict(reversed(kg.entity_name.items())), relation_name=dict(reversed(kg.relation_name.items()))
    )
    assert reordered.train == split and reordered.train.rows.tolist() == split.rows.tolist()
    assert set(split) == set(triples) and split.index(triples[4]) == 4 and triples[4] in split
    assert repr(split) == repr(triples)
    with pytest.raises(ValueError):
        split.rows[0, 0] = 1


def test_construction_rejects_undeclared_split_ids(toy_kg):
    for field_name, bad, message in (
        ("train", Triple("/m/bay", "/film/directed_by", "/m/ghost"), "train split references unknown entity '/m/ghost'"),
        ("valid", Triple("/m/bay", "/film/spooked_by", "/m/bay"), "valid split references unknown relation '/film/spooked_by'"),
    ):
        with pytest.raises(DanglingReferenceError, match=f"^{message}$"):
            replace(toy_kg, **{field_name: (*toy_kg.train[:2], bad)})
    fewer = {e: n for e, n in toy_kg.entity_name.items() if e != "/m/spielberg"}
    with pytest.raises(DanglingReferenceError, match="^train split references unknown entity '/m/spielberg'$"):
        replace(toy_kg, entity_name=fewer)


def test_graphs_that_their_files_cannot_tell_apart_cannot_be_built(tmp_path):
    triples = [Triple("e1", "r", "e3")]
    kw = dict(relation_name={"r": "r"}, entity_desc={}, train=triples, valid=(), test=())
    b = KnowledgeGraph(entity_name={"e1": "x", "e2": "y", "e3": "z"}, **kw)
    with pytest.raises(FormatError, match=r"^entity_name\['e1'\] holds CR or LF$"):
        KnowledgeGraph(entity_name={"e1": "x\ne2\ty", "e3": "z"}, **kw)
    write_dataset(b, tmp_path)
    assert load_dataset(tmp_path) == b


@pytest.mark.parametrize(
    "field_name, bad, message",
    [
        ("entity_name", {"": "blank"}, "entity_name id '' is empty or holds a TAB, CR or LF"),
        ("entity_name", {"a\tb": "n"}, "entity_name id 'a\\tb' is empty or holds a TAB, CR or LF"),
        ("entity_name", {"a\nb": "n"}, "entity_name id 'a\\nb' is empty or holds a TAB, CR or LF"),
        ("entity_name", {"a\rb": "n"}, "entity_name id 'a\\rb' is empty or holds a TAB, CR or LF"),
        ("entity_name", {"/m/new": "two\rlines"}, "entity_name['/m/new'] holds CR or LF"),
        ("relation_name", {"": "blank"}, "relation_name id '' is empty or holds a TAB, CR or LF"),
        ("relation_name", {"r\tx": "n"}, "relation_name id 'r\\tx' is empty or holds a TAB, CR or LF"),
        ("relation_name", {"r\nx": "n"}, "relation_name id 'r\\nx' is empty or holds a TAB, CR or LF"),
        ("relation_name", {"r\rx": "n"}, "relation_name id 'r\\rx' is empty or holds a TAB, CR or LF"),
        ("relation_name", {"/r/new": "two\nlines"}, "relation_name['/r/new'] holds CR or LF"),
        ("entity_desc", {"/m/bay": "two\nlines"}, "entity_desc['/m/bay'] holds CR or LF"),
        ("entity_desc", {"/m/bay": "two\rlines"}, "entity_desc['/m/bay'] holds CR or LF"),
    ],
)
def test_construction_rejects_text_the_tab_separated_files_cannot_hold(toy_kg, field_name, bad, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        replace(toy_kg, **{field_name: getattr(toy_kg, field_name) | bad})
    # A TAB in a name or description is kept: it is the last field of its line.
    tabbed = replace(toy_kg, entity_desc=toy_kg.entity_desc | {"/m/bay": "a\tb"})
    assert tabbed.entity_desc["/m/bay"] == "a\tb"


def test_index_rows_of_a_split_equal_those_of_its_triples():
    kg = planted_alias_graph(seed=13)[0]
    entities, relations = sorted(kg.entities), sorted(kg.relations)
    rng = np.random.default_rng(0)
    for drop in (0, 1, 3):
        entity_index = {e: i for i, e in enumerate(rng.permutation(entities)[drop:])}
        relation_index = {r: i for i, r in enumerate(relations[drop % 2 :])}
        for split in (kg.train, kg.test):
            try:
                expected = _index_rows(entity_index, relation_index, tuple(split))
            except KeyError as err:
                with pytest.raises(KeyError) as caught:
                    _index_rows(entity_index, relation_index, split)
                assert caught.value.args == err.args
            else:
                assert _index_rows(entity_index, relation_index, split).tolist() == expected.tolist()


NAMES = ("a", "b", "c", "d")


@st.composite
def splits(draw):
    """A split over tables of distinct names, possibly with names no row uses."""
    entities = tuple(draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))])
    relations = tuple(draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))])
    column = lambda table: st.integers(0, len(table) - 1)
    rows = draw(st.lists(st.tuples(column(entities), column(relations), column(entities)), max_size=4))
    return Split(np.array(rows, dtype=np.int32).reshape(-1, 3), entities, relations)


@settings(max_examples=300, deadline=None)
@given(splits(), splits())
@example(
    Split(np.array([[0, 0, 1]]), ("a", "b"), ("r",)),
    Split(np.array([[1, 2, 3]]), ("x", "a", "y", "b"), ("q", "s", "r")),
)
def test_split_equality_is_that_of_its_triples(left, right):
    assert (left == right) is (right == left) is (tuple(left) == tuple(right))
    assert left == left[:] and (left == left[1:]) is (len(left) == 0)
    # Tuples never raise and never equal a split, not even the tuple of its own triples.
    others = [(("a", "r"),), (1, 2, 3), tuple(left)]
    if left:
        others += [tuple(t[:2] for t in left), tuple(range(len(left)))]
    for other in others:
        assert left != other and other != left


def test_rekeying_and_comparing_splits_build_no_triple(monkeypatch):
    kg = planted_alias_graph(seed=13)[0]
    head = kg.train[0].head
    renamed = Split(kg.train.rows, tuple("/z/ghost" if e == head else e for e in kg.train.entities), kg.train.relations)

    def no_triples(*args):
        raise AssertionError("a Triple was built")

    monkeypatch.setattr(Split, "__iter__", no_triples)
    monkeypatch.setattr(Split, "__getitem__", no_triples)
    first = replace(kg, entity_name={"/a/first": "First", **kg.entity_name})
    assert first.train.rows.tolist() != kg.train.rows.tolist()
    assert first.train == kg.train and kg == replace(kg) and first != kg
    assert first.valid != kg.test
    monkeypatch.undo()
    # A name the other tables lack takes the error path, which names its triple.
    assert renamed != kg.train and kg.train != renamed


def write_triples_dataset(root, n, n_entities=1000, n_relations=10):
    root.mkdir(parents=True, exist_ok=True)
    (root / "entity2text.txt").write_text("".join(f"e{i}\tE{i}\n" for i in range(n_entities)), encoding="utf-8")
    (root / "relation2text.txt").write_text("".join(f"r{i}\tR{i}\n" for i in range(n_relations)), encoding="utf-8")
    rng = np.random.default_rng(0)
    h, r, t = rng.integers(n_entities, size=n), rng.integers(n_relations, size=n), rng.integers(n_entities, size=n)
    lines = "".join(f"e{a}\tr{b}\te{c}\n" for a, b, c in zip(h.tolist(), r.tolist(), t.tolist()))
    (root / "train.txt").write_text(lines, encoding="utf-8")
    (root / "valid.txt").write_text(lines[: lines.index("\n") + 1], encoding="utf-8")
    (root / "test.txt").write_text("", encoding="utf-8")


def test_loading_adds_no_tracked_object_per_triple(tmp_path):
    n = 50_000
    write_triples_dataset(tmp_path / "warm", 10)
    write_triples_dataset(tmp_path / "big", n)
    load_dataset(tmp_path / "warm")
    gc.collect()
    before = len(gc.get_objects())
    kg = load_dataset(tmp_path / "big")
    gc.collect()
    assert len(gc.get_objects()) - before < n / 10
    assert len(kg.train) == n


ENTITIES = ("a", "b", "é")
LINE_ENDS = ("\n", "\r\n", "\r")
FIELD = st.sampled_from(ENTITIES + ("r", "s", "ghost", "", " "))
LINE = st.one_of(
    st.tuples(st.sampled_from(ENTITIES), st.sampled_from(("r", "s")), st.sampled_from(ENTITIES)).map("\t".join),
    st.lists(FIELD, min_size=3, max_size=3).map("\t".join),
    st.lists(FIELD, min_size=2, max_size=2).map("\t".join),
    st.lists(FIELD, min_size=4, max_size=4).map("\t".join),
    st.sampled_from(("", " ", "\t", "\t\t", " \t \t ")),
)
SPLIT_FILE = st.tuples(
    st.lists(st.tuples(LINE, st.sampled_from(LINE_ENDS)), max_size=12), st.booleans()
).map(lambda drawn: "".join(line + end for line, end in drawn[0]) + ("a\tr\tb" if drawn[1] else ""))


def load_outcome(root, mode):
    try:
        kg = load_dataset(root, mode=mode)
    except (FormatError, DanglingReferenceError) as err:
        return type(err), str(err)
    return kg, kg.load_warnings


def split_outcome(outcome):
    """A load outcome with its graph reduced to the three splits, as ``reference_outcome`` gives it."""
    kg, warnings = outcome
    if isinstance(kg, KnowledgeGraph):
        return (tuple(kg.train), tuple(kg.valid), tuple(kg.test)), warnings
    return outcome


def reference_outcome(root, mode, entities, relations):
    """What loading the split files must give, by a plain line loop that shares no code with the loader.

    Blank lines are skipped and only non-blank ones numbered; a line without
    three tab-separated fields is a FormatError at once; a triple with an
    undeclared id is dropped with a warning, or in strict mode the file's
    first one is raised once the file is read.
    """
    splits, warnings = [], []
    for name in ("train.txt", "valid.txt", "test.txt"):
        kept, dangling, lineno = [], [], 0
        with (root / name).open(encoding="utf-8") as lines:
            for line in lines:
                line = line.rstrip("\n")
                if not line or line.isspace():
                    continue
                lineno += 1
                fields = line.split("\t")
                if len(fields) != 3:
                    return FormatError, f"{name}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                h, r, t = fields
                checks = (("entity", h, entities), ("entity", t, entities), ("relation", r, relations))
                missing = [f"{kind} {id_!r}" for kind, id_, declared in checks if id_ not in declared]
                if missing:
                    dangling.append(f"{name}: triple {(h, r, t)} references unknown {', '.join(missing)}")
                else:
                    kept.append((h, r, t))
        if dangling and mode == "strict":
            return DanglingReferenceError, dangling[0]
        splits.append(tuple(kept))
        warnings += dangling
    return tuple(splits), tuple(warnings)


def file_lines(path):
    """Each line of a file as its own block, as the file object's own iteration splits them."""
    with path.open(encoding="utf-8") as lines:
        for line in lines:
            yield line if line.endswith("\n") else line + "\n"


@settings(max_examples=200, deadline=None)
@given(
    files=st.tuples(SPLIT_FILE, SPLIT_FILE, SPLIT_FILE),
    mode=st.sampled_from(("strict", "lenient")),
    block=st.integers(1, 6),
    blank_ids=st.booleans(),
)
@example(files=("a\tr\nb\ta\tr\tb\n", "", ""), mode="strict", block=4, blank_ids=False)
@example(files=("a\tr\tb\r\nb\tr\ta", " \t \t \r\r\n", "a\tr\tghost\nb\tr\n"), mode="strict", block=3, blank_ids=True)
def test_block_parser_agrees_with_the_line_loop(files, mode, block, blank_ids):
    # "s" is declared as an entity only, "r" as a relation only. A declared
    # " " id must not turn a whitespace line into a triple.
    blank = " \tBlank\n" if blank_ids else ""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        root = Path(tmp)
        (root / "entity2text.txt").write_text("a\tA\nb\tB\né\tE\ns\tS\n" + blank, encoding="utf-8")
        (root / "relation2text.txt").write_text("r\tR\n" + blank, encoding="utf-8")
        for name, content in zip(("train.txt", "valid.txt", "test.txt"), files):
            (root / name).write_bytes(content.encode("utf-8"))
        blanks = {" "} if blank_ids else set()
        expected = reference_outcome(root, mode, {"a", "b", "é", "s"} | blanks, {"r"} | blanks)
        blocks = load_outcome(root, mode)
        patch.setattr(kgforge.kg, "_BLOCK_CHARS", block)
        small_blocks = load_outcome(root, mode)
        patch.setattr(kgforge.kg, "_blocks", file_lines)
        patch.setattr(kgforge.kg, "_three_fields_per_line", lambda text: False)
        line_loop = load_outcome(root, mode)
    assert blocks == small_blocks == line_loop
    assert split_outcome(blocks) == split_outcome(small_blocks) == split_outcome(line_loop) == expected


def whole_string_files(kg):
    """The files a graph serializes to, each rendered as one string, line by line."""
    triple_text = lambda split: "".join(f"{h}\t{r}\t{t}\n" for h, r, t in split)
    pair_text = lambda pairs: "".join(f"{key}\t{text}\n" for key, text in pairs)
    files = {
        "train.txt": triple_text(kg.train),
        "valid.txt": triple_text(kg.valid),
        "test.txt": triple_text(kg.test),
        "entity2text.txt": pair_text(kg.entity_name.items()),
        "relation2text.txt": pair_text(kg.relation_name.items()),
    }
    descs = [(e, kg.entity_desc[e]) for e in kg.entity_name if kg.entity_desc.get(e)]
    if descs:
        files["entity2textlong.txt"] = pair_text(descs)
    return files


def whole_string_fingerprint(files):
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8") + b"\0" + files[name].encode("utf-8") + b"\0")
    return digest.hexdigest()


ID = st.text(alphabet="ab/_é中\u2028😀", min_size=1, max_size=3)


@st.composite
def rendered_graphs(draw):
    """A graph with non-ASCII ids, any splits (empty too), descriptions or none, maybe augmented."""
    entities = draw(st.lists(ID, min_size=1, max_size=5, unique=True))
    relations = draw(st.lists(ID, min_size=1, max_size=3, unique=True))
    descs = st.dictionaries(st.sampled_from(entities), st.text(alphabet="xé ", max_size=3))
    triple = lambda relation: st.tuples(st.sampled_from(entities), relation, st.sampled_from(entities))
    split = st.lists(triple(st.sampled_from(relations)).map(Triple._make), max_size=7).map(tuple)
    kg = KnowledgeGraph(
        entity_name={e: e.upper() for e in entities},
        relation_name={r: f"R {r}" for r in relations},
        entity_desc={e: text for e, text in draw(descs).items() if text},
        train=draw(split),
        valid=draw(split),
        test=draw(split),
    )
    # New relations among the extras are registered by the augmentation.
    extras = draw(st.lists(triple(ID).map(Triple._make), max_size=4))
    return augment_training_set(kg, extras)


@settings(max_examples=150, deadline=None)
@given(kg=rendered_graphs(), block=st.integers(1, 4))
def test_block_rendering_equals_the_whole_string_oracle(kg, block):
    expected = whole_string_files(kg)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(kgforge.kg, "_BLOCK_ROWS", block)
        blocks = list(kgforge.kg._tsv_blocks(kg.train))
        write_dataset(kg, tmp)
        written = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
        fingerprint = kg_fingerprint(kg)
    assert [block.count("\n") for block in blocks] == [block] * (len(kg.train) // block) + (
        [len(kg.train) % block] if len(kg.train) % block else []
    )
    assert written == {name: text.encode("utf-8") for name, text in expected.items()}
    assert fingerprint == whole_string_fingerprint(expected)


def test_writing_and_fingerprinting_hold_no_whole_split_file(tmp_path):
    n_entities, n_relations, n = 2000, 20, 8 * kgforge.kg._BLOCK_ROWS + 5
    entities = tuple(f"/m/e{i:05d}" for i in range(n_entities))
    relations = tuple(f"/r/relation{i:02d}" for i in range(n_relations))
    rng = np.random.default_rng(0)
    rows = np.stack([rng.integers(size, size=n) for size in (n_entities, n_relations, n_entities)], axis=1)
    kg = KnowledgeGraph(
        entity_name=dict(zip(entities, entities)),
        relation_name=dict(zip(relations, relations)),
        entity_desc={},
        train=Split(rows, entities, relations),
        valid=Split(rows[:0], entities, relations),
        test=Split(rows[:3], entities, relations),
    )
    tracemalloc.start()
    try:
        fingerprint = kg_fingerprint(kg)
        write_dataset(kg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "train.txt").stat().st_size
    assert peak < size, (peak, size)
    assert fingerprint == whole_string_fingerprint({p.name: read(p) for p in tmp_path.iterdir()})


def test_writing_fingerprinting_and_saving_hold_no_whole_pair_file(tmp_path):
    entities = tuple(f"/m/e{i:05d}" for i in range(3000))
    kg = KnowledgeGraph(
        entity_name={e: f"name of {e}" for e in entities},
        relation_name={"/r/related": "related"},
        entity_desc={e: f"{e} is described at length, é {i}. " * 30 for i, e in enumerate(entities)},
        train=(),
        valid=(),
        test=(),
    )
    merged = {e: f"{text} More from the model, ü." for e, text in kg.entity_desc.items()}
    bundle = AugmentationBundle("entity", "0" * 64, entity_text=merged)
    tracemalloc.start()
    try:
        fingerprint = kg_fingerprint(kg)
        write_dataset(kg, tmp_path / "kg")
        bundle.save(tmp_path / "E")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [(tmp_path / name).stat().st_size for name in ("kg/entity2textlong.txt", "E/entity_text.tsv")]
    # Joining a file into one string holds its text and that text's UTF-8 copy: over twice its size.
    assert peak < min(sizes) / 4, (peak, sizes)
    assert fingerprint == whole_string_fingerprint({p.name: read(p) for p in (tmp_path / "kg").iterdir()})
    assert read_pairs(tmp_path / "E" / "entity_text.tsv") == merged


def test_an_empty_split_renders_nothing(tmp_path):
    entities = tuple(f"/m/e{i:05d}" for i in range(3000))
    kg = KnowledgeGraph(
        entity_name=dict(zip(entities, entities)),
        relation_name={"/r/related": "related"},
        entity_desc={},
        train=(),
        valid=(),
        test=(),
    )
    tracemalloc.start()
    try:
        blocks = [list(kgforge.kg._tsv_blocks(kg.split(name))) for name in ("train", "valid", "test")]
        fingerprint = kg_fingerprint(kg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [[], [], []]
    # Rendering the 3,000 table entries' "id\t" and "id\n" strings alone takes over 400 KB.
    assert peak < 16 * 1024, peak
    write_dataset(kg, tmp_path)
    assert [read(tmp_path / name) for name in ("train.txt", "valid.txt", "test.txt")] == ["", "", ""]
    assert fingerprint == whole_string_fingerprint({p.name: read(p) for p in tmp_path.iterdir()})


def test_reading_a_one_line_file_reads_no_full_block(tmp_path):
    path = tmp_path / "entity_text.tsv"
    path.write_text("/m/e\t" + "A short description. " * 20 + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        pairs = read_pairs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(pairs) == ["/m/e"]
    # A read of _BLOCK_CHARS characters alone allocates a 1 MiB buffer.
    assert peak < kgforge.kg._BLOCK_CHARS / 16, peak
