"""Loader/writer contracts: counts, round-trips, strict vs lenient handling."""

import os
from dataclasses import asdict, replace

import pytest

from kgforge.bundle import AugmentationBundle, apply_bundles
from kgforge.kg import (
    DanglingReferenceError,
    DatasetStats,
    FormatError,
    Triple,
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
    base_rows = base._split_rows("train")
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
            assert kg._split_rows(split).tolist() == reloaded._split_rows(split).tolist(), name
    assert len(derived["augment"]._split_rows("train")) == len(base_rows) + 1
    assert kg_fingerprint(base) == base_fp


def test_cached_view_is_outside_the_record(toy_kg):
    kg = replace(toy_kg)
    kg_fingerprint(kg)
    kg._split_rows("test")
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
    assert kg.train == (Triple("b", "r", "c"),)
    assert kg.valid == (Triple("a", "r", "b"), Triple("b", "r", "c"))
    assert kg.test == ()
    assert kg.load_warnings == (
        "train.txt: triple ('a', 'r', 'ghost') references unknown entity 'ghost'",
        "train.txt: triple ('nobody', 'q', 'c') references unknown entity 'nobody', relation 'q'",
        "valid.txt: triple ('c', 'r', 'ghost') references unknown entity 'ghost'",
        "test.txt: triple ('c', 'q', 'spook') references unknown entity 'spook', relation 'q'",
    )
