"""Loader/writer contracts: counts, round-trips, strict vs lenient handling."""

import gc
import os
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgforge.kg
from kgforge.bundle import AugmentationBundle, apply_bundles
from kgforge.harness import TrainConfig, link_prediction, train
from kgforge.kg import (
    DanglingReferenceError,
    DatasetStats,
    FormatError,
    Split,
    Triple,
    _index_rows,
    augment_training_set,
    dataset_stats,
    kg_fingerprint,
    load_dataset,
    write_dataset,
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
    bundle = AugmentationBundle(
        kind="structure",
        fingerprint=base_fp,
        entity_text={"/m/la": "A city on the Pacific coast."},
        relation_text={"/film/directed_by": "is directed by"},
        extra_triples=extra,
    )
    derived = {
        "replace": replace(base, test=base.test[:1]),
        "augment": augment_training_set(base, extra),
        "apply": apply_bundles(base, [bundle]),
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
    bundle = AugmentationBundle(
        kind="structure",
        fingerprint=kg_fingerprint(base),
        relation_text={"/film/directed_by": "is directed by"},
        extra_triples=extra,
    )
    graphs = {
        "load": base,
        "reversed": replace(
            base,
            entity_name=dict(reversed(base.entity_name.items())),
            relation_name=dict(reversed(base.relation_name.items())),
        ),
        "apply": apply_bundles(base, [bundle]),
    }
    for relation in ("/a/same_as", "/film/m", "SameAs"):
        added = [Triple("/m/bay", relation, "/m/spielberg"), Triple("/m/la", relation, "/m/bay")]
        graphs[relation] = augment_training_set(base, added)
        assert graphs[relation].train[-2:] == tuple(added) and graphs[relation].train[:-2] == base.train
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
    kg._index
    assert kg == toy_kg and repr(kg) == repr(toy_kg) and asdict(kg) == asdict(toy_kg)
    assert "_fingerprint" not in vars(replace(kg)) and "_index" not in vars(replace(kg))


def test_filter_keys_are_sorted_once_per_graph_and_direction(toy_kg):
    kg = replace(toy_kg)
    model = train(kg, TrainConfig(dim=4, epochs=1))
    report = link_prediction(model, kg)
    keys = dict(kg._filter_keys)
    assert sorted(keys) == [False, True]
    assert all((np.diff(k) >= 0).all() and len(k) == 16 for k in keys.values())
    assert link_prediction(model, kg) == report
    assert all(kg._filter_keys[tail] is keys[tail] for tail in keys)
    assert "_filter_keys" not in vars(replace(kg))


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
    assert kg.train == (Triple("b", "r", "c"),)
    assert kg.valid == (Triple("a", "r", "b"), Triple("b", "r", "c"))
    assert kg.test == ()
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
    assert split[2:7] == triples[2:7] and split[::-3] == triples[::-3]
    assert isinstance(split[2:7], Split)
    assert [t.relation for t in split] == [t.relation for t in triples]
    # Equal to tuples of the same triples and to equal splits of other graphs.
    assert split == triples and triples == split and split == toy_kg.train
    assert split != triples[:-1] and split != kg.valid and split != list(triples)
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
        blocks = load_outcome(root, mode)
        patch.setattr(kgforge.kg, "_BLOCK_CHARS", block)
        small_blocks = load_outcome(root, mode)
        patch.setattr(kgforge.kg, "_blocks", file_lines)
        patch.setattr(kgforge.kg, "_three_fields_per_line", lambda text: False)
        line_loop = load_outcome(root, mode)
    assert blocks == small_blocks == line_loop
