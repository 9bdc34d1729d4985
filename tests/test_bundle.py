"""Bundle serialization and composition onto base graphs."""

import itertools
import json

import pytest

from kgforge.bundle import AugmentationBundle, FingerprintMismatchError, apply_bundles
from kgforge.entity import expand_descriptions
from kgforge.kg import dataset_stats, kg_fingerprint, load_dataset, write_dataset
from kgforge.relation import describe_relations
from kgforge.structure import StructureConfig, extract_structure
from kgforge.synth import toy_graph
from kgforge.templates import RelationMode


@pytest.fixture
def bundles(replay_gateway):
    kg = toy_graph()
    return {
        "E": expand_descriptions(kg, replay_gateway),
        "R": describe_relations(kg, replay_gateway, modes={RelationMode.GLOBAL}),
        "S": extract_structure(kg, replay_gateway, StructureConfig(k=1, self_loop=True)),
    }


def test_save_load_round_trip(bundles, tmp_path):
    for key, bundle in bundles.items():
        out = bundle.save(tmp_path / key, base_kg=toy_graph())
        loaded = AugmentationBundle.load(out)
        assert loaded.kind == bundle.kind
        assert loaded.fingerprint == bundle.fingerprint
        assert loaded.entity_text == bundle.entity_text
        assert loaded.relation_text == bundle.relation_text
        assert loaded.extra_triples == bundle.extra_triples
        assert loaded.keyword_sets == bundle.keyword_sets
        assert loaded.items == bundle.items


def test_load_rejects_unknown_schema_version(bundles, tmp_path):
    out = bundles["E"].save(tmp_path / "E")
    audit_path = out / "audit.json"
    audit = json.loads(audit_path.read_text(encoding="utf-8"))
    audit["schema_version"] = 2
    audit_path.write_text(json.dumps(audit), encoding="utf-8")
    with pytest.raises(ValueError, match="schema_version 2"):
        AugmentationBundle.load(out)


def test_structure_bundle_writes_merged_train(bundles, tmp_path):
    kg = toy_graph()
    out = bundles["S"].save(tmp_path / "S", base_kg=kg)
    merged_lines = (out / "train_augmented.txt").read_text(encoding="utf-8").splitlines()
    assert len(merged_lines) == len(kg.train) + len(bundles["S"].extra_triples)
    assert merged_lines[: len(kg.train)] == ["\t".join(t) for t in kg.train]


def test_apply_is_order_insensitive(bundles):
    kg = toy_graph()
    reference = apply_bundles(kg, [bundles["E"], bundles["R"], bundles["S"]])
    for order in itertools.permutations("ERS"):
        assert apply_bundles(kg, [bundles[key] for key in order]) == reference


def test_apply_effects(bundles):
    kg = toy_graph()
    composed = apply_bundles(kg, list(bundles.values()))
    stats = dataset_stats(composed)
    assert stats.n_train == len(kg.train) + len(bundles["S"].extra_triples)
    assert stats.n_entities == 8
    assert stats.n_relations == 4  # SameAs added
    assert composed.valid == kg.valid and composed.test == kg.test
    assert composed.texts.desc_of("/m/bay") == bundles["E"].entity_text["/m/bay"]
    assert composed.texts.relation_name["/film/directed_by"] == bundles["R"].relation_text["/film/directed_by"]


def test_apply_nothing_is_identity(toy_kg):
    assert apply_bundles(toy_kg, []) == toy_kg


def test_fingerprint_mismatch_rejected(bundles):
    kg = toy_graph()
    stale = bundles["E"]
    stale.fingerprint = "0" * 64
    with pytest.raises(FingerprintMismatchError):
        apply_bundles(kg, [stale])


def test_composed_dataset_round_trips_through_disk(bundles, tmp_path):
    kg = toy_graph()
    composed = apply_bundles(kg, [bundles["S"]])
    out = tmp_path / "composed"
    write_dataset(composed, out)
    reloaded = load_dataset(out)
    assert dataset_stats(reloaded) == dataset_stats(composed)
    assert kg_fingerprint(reloaded) == kg_fingerprint(composed)
