"""Rendering fidelity against frozen golden strings."""

import pytest

from kgforge.templates import (
    RelationMode,
    TemplateError,
    parse_modes,
    render_entity_prompt,
    render_keyword_prompt,
    render_relation_prompt,
)


def test_entity_prompt_golden():
    assert (
        render_entity_prompt("Michael Bay").text
        == "Please provide all information about Michael Bay. Give the rationale before answering:"
    )
    assert (
        render_entity_prompt("X").text
        == "Please provide all information about X. Give the rationale before answering:"
    )


def test_entity_prompt_keeps_punctuation_unescaped():
    rendered = render_entity_prompt("Transformers: Dark of the Moon")
    assert rendered.text == (
        "Please provide all information about Transformers: Dark of the Moon. "
        "Give the rationale before answering:"
    )


def test_relation_prompt_goldens():
    assert render_relation_prompt("produced by", RelationMode.GLOBAL).text == (
        "Please provide an explanation of the significance of the relation produced by "
        "in a knowledge graph with one sentence:"
    )
    assert render_relation_prompt("release region", RelationMode.LOCAL).text == (
        "Please provide an explanation of the meaning of the triplet "
        "(head entity, release region, tail entity) and rephrase it into a sentence:"
    )
    assert render_relation_prompt("produce", RelationMode.REVERSE).text == (
        "Please convert the relation produce into a verb form and provide a statement "
        "in the passive voice:"
    )


def test_keyword_prompt_golden_double_period():
    # "A film producer." already ends with a period; the template adds its own.
    assert render_keyword_prompt("A film producer.").text == (
        "Please extract the five most representative keywords from the following text: "
        "A film producer.. Keywords:"
    )
    assert render_keyword_prompt("d").text == (
        "Please extract the five most representative keywords from the following text: d. Keywords:"
    )


def test_rendering_is_pure():
    a = render_entity_prompt("Ian Bryce")
    b = render_entity_prompt("Ian Bryce")
    assert a == b and a.text == b.text


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        render_entity_prompt("")
    with pytest.raises(ValueError):
        render_relation_prompt("", RelationMode.GLOBAL)
    with pytest.raises(ValueError):
        render_keyword_prompt("")


def test_no_residual_placeholders():
    for rendered in (
        render_entity_prompt("A {weird} name"),
        render_relation_prompt("linked to", RelationMode.REVERSE),
        render_keyword_prompt("Some description text."),
    ):
        for placeholder in ("{Entity Name}", "{Relation Name}", "{Entity Description}"):
            assert placeholder not in rendered.text


def test_subject_id_defaults_to_value():
    assert render_entity_prompt("Michael Bay").subject_id == "Michael Bay"
    assert render_entity_prompt("Michael Bay", subject_id="/m/bay").subject_id == "/m/bay"


@pytest.mark.parametrize(
    "render",
    [
        lambda: render_entity_prompt("{Relation Name}"),
        lambda: render_relation_prompt("{Entity Description}", RelationMode.GLOBAL),
        lambda: render_keyword_prompt("see {Entity Name}"),
    ],
    ids=["entity", "relation", "keyword"],
)
def test_leftover_placeholder_rejected(render):
    with pytest.raises(TemplateError, match="still contains placeholder"):
        render()


G, L, R = RelationMode.GLOBAL, RelationMode.LOCAL, RelationMode.REVERSE


@pytest.mark.parametrize(
    "names, expected",
    [
        (["reverse", "global"], (G, R)),
        ([L, "local", L], (L,)),
        ({R, L, G}, (G, L, R)),
        (iter(["local", "global"]), (G, L)),
    ],
)
def test_parse_modes_keeps_each_mode_once_in_canonical_order(names, expected):
    assert parse_modes(names) == expected


@pytest.mark.parametrize("names", [[], set(), [""], ["global", "bogus"], "global", None, 5, [["global"]]])
def test_parse_modes_rejects_empty_or_unknown_names_listing_the_valid_ones(names):
    with pytest.raises(ValueError, match=r"non-empty subset of \['global', 'local', 'reverse'\]"):
        parse_modes(names)
