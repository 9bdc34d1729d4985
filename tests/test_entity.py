"""Description expansion: merge policy oracles and bundle assembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgforge.entity import EMPTY_GENERATION_FLAG, expand_descriptions, merge_entity_text
from kgforge.gateway import GenerationParams, LlmGateway, ReplayBackend, write_fixture
from kgforge.kg import kg_fingerprint
from kgforge.synth import toy_fixture_records, toy_graph


def test_merge_oracle_cases():
    assert merge_entity_text("", "Ian Bryce is a producer", 70) == "Ian Bryce is a producer"
    assert merge_entity_text("A film producer.", "", 70) == "A film producer."
    assert merge_entity_text("a b c", "d e f", 4) == "a b c d"


def test_merge_truncates_overlong_original():
    assert merge_entity_text("a b c d e", "x", 3) == "a b c"


def test_merge_rejects_zero_budget():
    with pytest.raises(ValueError):
        merge_entity_text("a", "b", 0)


@pytest.mark.parametrize("budget", [0, 2.5, True, "70"])
def test_a_budget_that_is_not_an_integer_of_at_least_one_is_rejected_before_any_query(replay_gateway, budget):
    with pytest.raises(ValueError, match="^budget_tokens must be"):
        merge_entity_text("a", "b", budget)
    with pytest.raises(ValueError, match="^budget_tokens must be"):
        expand_descriptions(toy_graph(), replay_gateway, budget_tokens=budget)
    assert replay_gateway.backend.calls == 0


words = st.text(alphabet="abcdef", min_size=1, max_size=6)
texts = st.lists(words, max_size=30).map(" ".join)


@given(original=texts, generated=texts, budget=st.integers(min_value=1, max_value=40))
@settings(max_examples=200)
def test_merge_respects_budget(original, generated, budget):
    merged = merge_entity_text(original, generated, budget)
    assert len(merged.split()) <= budget


@given(original=texts, generated=texts, budget=st.integers(min_value=1, max_value=40))
@settings(max_examples=200)
def test_merge_preserves_original_prefix(original, generated, budget):
    merged = merge_entity_text(original, generated, budget)
    if len(original.split()) <= budget:
        assert merged.startswith(original)


def test_expand_descriptions_covers_every_entity(replay_gateway):
    kg = toy_graph()
    bundle = expand_descriptions(kg, replay_gateway, budget_tokens=70)
    assert bundle.kind == "entity"
    assert bundle.fingerprint == kg_fingerprint(kg)
    assert set(bundle.entity_text) == set(kg.entities)
    assert not bundle.errors
    for entity, merged in bundle.entity_text.items():
        assert len(merged.split()) <= 70
        assert merged.startswith(kg.desc_of(entity))
    assert [item.subject for item in bundle.items] == list(kg.entity_name)
    assert all(item.response for item in bundle.items)  # raw response preserved verbatim


def test_expand_respects_tight_budget(replay_gateway):
    kg = toy_graph()
    bundle = expand_descriptions(kg, replay_gateway, budget_tokens=5)
    assert all(len(text.split()) <= 5 for text in bundle.entity_text.values())


def test_empty_generation_keeps_original_and_flags(tmp_path):
    kg = toy_graph()
    params = GenerationParams()
    records = []
    for prompt, p, response in toy_fixture_records(params):
        if "Michael Bay" in prompt and "all information" in prompt:
            response = ""
        records.append((prompt, p, response))
    path = tmp_path / "fx.jsonl"
    write_fixture(path, records)
    bundle = expand_descriptions(kg, LlmGateway(ReplayBackend(path), params=params))
    assert bundle.entity_text["/m/bay"] == kg.desc_of("/m/bay")
    flagged = [item for item in bundle.items if item.subject == "/m/bay"]
    assert flagged[0].flags == (EMPTY_GENERATION_FLAG,)


def test_gateway_miss_recorded_per_entity(tmp_path):
    kg = toy_graph()
    params = GenerationParams()
    kept = [
        (prompt, p, response)
        for prompt, p, response in toy_fixture_records(params)
        if "Ian Bryce" not in prompt
    ]
    path = tmp_path / "fx.jsonl"
    write_fixture(path, kept)
    bundle = expand_descriptions(kg, LlmGateway(ReplayBackend(path), params=params))
    assert len(bundle.entity_text) == 7
    assert "/m/bryce" not in bundle.entity_text
    assert len(bundle.errors) == 1
    assert bundle.errors[0].subject == "/m/bryce"
    assert "replay fixture has no record" in bundle.errors[0].error


def test_rerun_reproduces_identical_bundle(replay_gateway, toy_fixture_path, tmp_path):
    kg = toy_graph()
    first = expand_descriptions(kg, replay_gateway, budget_tokens=70)
    second = expand_descriptions(
        kg, LlmGateway(ReplayBackend(toy_fixture_path)), budget_tokens=70
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    first.save(dir_a)
    second.save(dir_b)
    for name in ("entity_text.tsv", "audit.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
