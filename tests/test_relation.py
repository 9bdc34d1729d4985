"""Relation text composition and generation fan-out."""

from dataclasses import replace

import pytest

from kgforge.gateway import GenerationParams, LlmGateway, ReplayBackend, write_fixture
from kgforge.relation import (
    compose_relation_text,
    describe_relations,
    escape_separator,
)
from kgforge.synth import toy_fixture_records, toy_graph
from kgforge.templates import RelationMode

G, L, R = RelationMode.GLOBAL, RelationMode.LOCAL, RelationMode.REVERSE


def test_compose_single_mode_has_no_separator():
    assert compose_relation_text("produced by", [(G, "G")]) == "produced by G"


def test_compose_two_modes_joined_by_separator():
    assert compose_relation_text("produced by", [(G, "G"), (L, "L")]) == "produced by G [SEP] L"


def test_compose_identity_with_no_texts():
    assert compose_relation_text("r", []) == "r"


def test_compose_order_is_canonical():
    out_of_order = [(R, "rev"), (G, "glob"), (L, "loc")]
    assert compose_relation_text("r", out_of_order) == "r glob [SEP] loc [SEP] rev"


def test_compose_skips_empty_texts():
    assert compose_relation_text("r", [(G, "   "), (L, "loc")]) == "r loc"


def test_compose_normalizes_to_single_line():
    assert compose_relation_text("r", [(G, "one\ntwo\tthree")]) == "r one two three"


def test_compose_rejects_duplicate_modes():
    with pytest.raises(ValueError, match="duplicate"):
        compose_relation_text("r", [(G, "a"), (G, "b")])


def test_separator_escaping_round_trips():
    assert escape_separator("x [SEP] y") == "x [SEP ] y"
    composed = compose_relation_text("r", [(G, "x [SEP] y"), (L, "z")])
    assert composed == "r x [SEP ] y [SEP] z"
    name, rest = composed.split(" ", 1)
    assert rest.split(" [SEP] ") == ["x [SEP ] y", "z"]


def test_describe_relations_single_mode(replay_gateway):
    kg = toy_graph()
    bundle = describe_relations(kg, replay_gateway, modes={G})
    assert bundle.kind == "relation"
    assert set(bundle.relation_text) == set(kg.relations)
    assert len(bundle.items) == 3
    for relation, composed in bundle.relation_text.items():
        name = kg.relation_name[relation]
        assert composed.startswith(name + " ")
        assert "[SEP]" not in composed
    global_items = [item for item in bundle.items if item.mode == G.value]
    assert sorted(item.subject for item in global_items) == sorted(kg.relations)
    assert all(item.response for item in global_items)


def test_describe_relations_all_modes(replay_gateway):
    kg = toy_graph()
    bundle = describe_relations(kg, replay_gateway, modes={G, L, R})
    assert len(bundle.items) == 9  # 3 relations x 3 modes
    for composed in bundle.relation_text.values():
        assert composed.count("[SEP]") == 2


def test_describe_relations_rejects_empty_modes(replay_gateway):
    with pytest.raises(ValueError, match="non-empty"):
        describe_relations(toy_graph(), replay_gateway, modes=set())


@pytest.mark.parametrize("modes", [set(), ["global", "bogus"]])
def test_describe_relations_checks_modes_on_a_graph_with_no_relations(replay_gateway, modes):
    kg = toy_graph()
    bare = replace(kg, relation_name={}, train=(), valid=(), test=())
    with pytest.raises(ValueError, match="non-empty subset"):
        describe_relations(bare, replay_gateway, modes=modes)
    assert replay_gateway.backend.calls == 0


def test_describe_relations_labels_each_item_with_its_mode_in_canonical_order(replay_gateway):
    kg = toy_graph()
    bundle = describe_relations(kg, replay_gateway, modes=["reverse", "global", "reverse"])
    assert [(item.subject, item.mode) for item in bundle.items] == [
        (relation, mode) for relation in kg.relations for mode in ("global", "reverse")
    ]


def test_partial_mode_failure_composes_the_rest(tmp_path):
    kg = toy_graph()
    params = GenerationParams()
    kept = [
        (prompt, p, response)
        for prompt, p, response in toy_fixture_records(params)
        if not ("significance of the relation directed by" in prompt)
    ]
    path = tmp_path / "fx.jsonl"
    write_fixture(path, kept)
    gateway = LlmGateway(ReplayBackend(path), params=params)
    bundle = describe_relations(kg, gateway, modes={G, L})
    assert len(bundle.errors) == 1
    assert bundle.errors[0].subject == "/film/directed_by"
    assert bundle.errors[0].mode == "global"
    # Composition for the failed relation still includes the local text.
    composed = bundle.relation_text["/film/directed_by"]
    assert composed.startswith("directed by ")
    assert "[SEP]" not in composed
