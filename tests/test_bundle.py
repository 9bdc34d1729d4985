"""Bundle serialization and composition onto base graphs."""

import itertools
import json
from dataclasses import replace

import pytest

from kgforge.bundle import AugmentationBundle, FingerprintMismatchError, apply_bundles, write_json
from kgforge.entity import expand_descriptions
from kgforge.gateway import LlmGateway, ReplayBackend
from kgforge.kg import FormatError, dataset_stats, kg_fingerprint, load_dataset, write_dataset
from kgforge.relation import describe_relations
from kgforge.structure import StructureConfig, extract_structure, synthesize_triples, top_k_pairs
from kgforge.synth import toy_graph
from kgforge.templates import MODE_ORDER, RelationMode


@pytest.fixture
def bundles(replay_gateway):
    kg = toy_graph()
    return {
        "E": expand_descriptions(kg, replay_gateway),
        "R": describe_relations(kg, replay_gateway, modes={RelationMode.GLOBAL}),
        "S": extract_structure(kg, replay_gateway, StructureConfig(k=1, self_loop=True)),
    }


def test_write_json_streams_the_text_of_json_dumps(tmp_path):
    payload = {"z": ["é", "\u2028", 1.5], "a": {"nested": None, "ünïcode": [True]}, "": []}
    path = tmp_path / "sub" / "out.json"
    write_json(path, payload)
    expected = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


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


def test_loaded_structure_bundle_rederives_its_triples(bundles, tmp_path):
    kg, cfg = toy_graph(), StructureConfig(k=1, self_loop=True)
    loaded = AugmentationBundle.load(bundles["S"].save(tmp_path / "S"))
    pairs = top_k_pairs(loaded.keyword_sets, cfg)
    # keywords.json is key-sorted, so self-loops take graph order from the graph.
    loops = [entity for entity in kg.entity_name if entity in loaded.keyword_sets]
    assert loaded.extra_triples
    assert tuple(synthesize_triples(pairs, kg, cfg, loops)) == loaded.extra_triples


def run_strategy(strategy, kg, fixture_path):
    """The bundle of one strategy over a fresh replay gateway, and the backend calls it made."""
    gateway = LlmGateway(ReplayBackend(fixture_path))
    if strategy == "E":
        bundle = expand_descriptions(kg, gateway)
    elif strategy == "R":
        bundle = describe_relations(kg, gateway, modes=MODE_ORDER)
    else:
        bundle = extract_structure(kg, gateway, StructureConfig(k=1, self_loop=True))
    return bundle, gateway.backend.calls


@pytest.mark.parametrize("strategy", ["E", "R", "S"])
def test_an_empty_name_fails_only_its_own_items(toy_fixture_path, strategy):
    kg = toy_graph()
    if strategy == "R":
        subject, field = "/film/release_region", "{Relation Name}"
        blank = replace(kg, relation_name={**kg.relation_name, subject: ""})
    else:
        subject = "/m/la"
        field = "{Entity Name}" if strategy == "E" else "{Entity Description}"
        # S falls back from an empty description to the name, so both are blanked.
        desc = {e: text for e, text in kg.entity_desc.items() if e != subject}
        blank = replace(kg, entity_name={**kg.entity_name, subject: ""}, entity_desc=desc)
    full, full_calls = run_strategy(strategy, kg, toy_fixture_path)
    bundle, calls = run_strategy(strategy, blank, toy_fixture_path)

    assert [(i.subject, i.mode) for i in bundle.items] == [(i.subject, i.mode) for i in full.items]
    failed = [item for item in bundle.items if item.subject == subject]
    assert bundle.errors == failed and len(failed) == (3 if strategy == "R" else 1)
    for item in failed:
        assert (item.prompt_hash, item.response) == (None, None)
        assert item.error == f"cannot fill {field} with an empty string"
        assert item.flags == (("name fallback",) if strategy == "S" else ())
    assert [i for i in bundle.items if i.subject != subject] == [i for i in full.items if i.subject != subject]
    assert calls == full_calls - len(failed)
    if strategy == "S":
        assert subject not in bundle.keyword_sets
        # With its description kept, an empty name changes nothing.
        named = replace(kg, entity_name={**kg.entity_name, subject: ""})
        assert run_strategy(strategy, named, toy_fixture_path)[0].items == full.items


def test_load_rejects_unknown_schema_version(bundles, tmp_path):
    out = bundles["E"].save(tmp_path / "E")
    audit_path = out / "audit.json"
    audit = json.loads(audit_path.read_text(encoding="utf-8"))
    audit["schema_version"] = 2
    audit_path.write_text(json.dumps(audit), encoding="utf-8")
    with pytest.raises(ValueError, match="schema_version 2"):
        AugmentationBundle.load(out)


def test_load_rejects_malformed_triple_line(bundles, tmp_path):
    out = bundles["S"].save(tmp_path / "S")
    (out / "extra_triples.tsv").write_text("a\tSameAs\tb\n\nnot a triple\n", encoding="utf-8")
    with pytest.raises(
        FormatError, match="^extra_triples.tsv:2: expected 3 tab-separated fields, got 1$"
    ):
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


@pytest.mark.parametrize("key", ["E", "S"])
def test_apply_rejects_two_bundles_of_one_kind_in_either_order(bundles, key):
    bundle = bundles[key]
    if key == "E":
        pair = [replace(bundle, entity_text={"/m/bay": text}) for text in ("A", "B")]
    else:
        pair = [bundle, replace(bundle, extra_triples=bundle.extra_triples[:1])]
    for order in (pair, pair[::-1]):
        with pytest.raises(ValueError, match=f"^2 {bundle.kind} bundles given"):
            apply_bundles(toy_graph(), [bundles["R"], *order])


def test_apply_effects(bundles):
    kg = toy_graph()
    composed = apply_bundles(kg, list(bundles.values()))
    stats = dataset_stats(composed)
    assert stats.n_train == len(kg.train) + len(bundles["S"].extra_triples)
    assert stats.n_entities == 8
    assert stats.n_relations == 4  # SameAs added
    assert composed.valid == kg.valid and composed.test == kg.test
    assert composed.desc_of("/m/bay") == bundles["E"].entity_text["/m/bay"]
    assert composed.relation_name["/film/directed_by"] == bundles["R"].relation_text["/film/directed_by"]


def test_composed_fingerprint_golden_value(bundles):
    composed = apply_bundles(toy_graph(), list(bundles.values()))
    assert kg_fingerprint(composed) == (
        "6af9ab54432869143ae74883141f80d14d0bc19f1092dd1f8b55b93aa4deec3b"
    )


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
