"""Rendering fidelity against frozen golden strings."""

import json
from importlib import resources

import pytest

from kgforge.templates import (
    RelationMode,
    Strategy,
    TemplateError,
    load_templates,
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
    assert render_entity_prompt("Michael Bay").strategy is Strategy.ENTITY_EXPAND


def test_template_validation_errors():
    shipped = resources.files("kgforge").joinpath("templates.json").read_text(encoding="utf-8")
    good = json.loads(shipped)["templates"]
    assert load_templates({"templates": good})[Strategy.ENTITY_EXPAND] == good["entity_expand"]
    with pytest.raises(TemplateError, match="missing template"):
        load_templates({"templates": {"entity_expand": "hi {Entity Name}"}})
    with pytest.raises(TemplateError, match="exactly once"):
        load_templates({"templates": dict(good, entity_expand="no placeholder here")})
    with pytest.raises(TemplateError, match="unknown strategy"):
        load_templates({"templates": {"bogus": "x"}})
