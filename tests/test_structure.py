"""Keyword parsing, matching score laws, top-k selection, triple synthesis."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgforge.gateway import GenerationParams, LlmGateway, ReplayBackend, write_fixture
from kgforge.kg import DanglingReferenceError, Triple, augment_training_set, dataset_stats
from kgforge.structure import (
    KeywordParseError,
    RelationCollisionError,
    StructureConfig,
    extract_structure,
    parse_keywords,
    synthesize_triples,
    top_k_pairs,
)
from kgforge.synth import toy_fixture_records, toy_graph
from kgforge.templates import render_keyword_prompt


def test_parse_enumerated_list():
    parsed = parse_keywords("1. film\n2. director\n3. action\n4. producer\n5. hollywood")
    assert parsed == ("film", "director", "action", "producer", "hollywood")


def test_parse_comma_list_lowercases():
    parsed = parse_keywords("Film, Director, Action, Producer, Hollywood")
    assert parsed == ("film", "director", "action", "producer", "hollywood")


def test_parse_blank_raises():
    with pytest.raises(KeywordParseError):
        parse_keywords("   ")


def test_parse_mixed_markers_and_dedup():
    raw = "- Film;* ACTION\n2) film\n• sci-fi."
    assert parse_keywords(raw) == ("film", "action", "sci-fi")


def test_parse_keeps_multiword_keywords():
    assert parse_keywords("north  america, west coast") == ("north america", "west coast")


def two_entity_pairs(sa, sb):
    """(head, tail, n_matched, score) of each pair ``top_k_pairs`` selects at k=1 over entities a and b."""
    pairs = top_k_pairs({"a": tuple(sa), "b": tuple(sb)}, StructureConfig(k=1))
    return [(p.head, p.tail, p.n_matched, p.score) for p in pairs]


def test_match_score_identity():
    assert two_entity_pairs(("film", "director"), ("film", "director")) == [("a", "b", 2, 1.0), ("b", "a", 2, 1.0)]


def test_match_score_three_of_five():
    pairs = two_entity_pairs(
        ("film", "director", "action", "producer", "hollywood"),
        ("film", "producer", "studio", "budget", "hollywood"),
    )
    assert pairs == [("a", "b", 3, 3 / 5), ("b", "a", 3, 3 / 5)]


def test_match_score_disjoint_and_guards():
    assert two_entity_pairs(("x",), ("y",)) == []
    for bad in ((), ("x", "x")):
        for bad_id, good_id in (("e", "f"), ("f", "e")):
            sets = {bad_id: bad, good_id: ("x",)}
            message = re.escape(f"keyword set for {bad_id!r} must be non-empty with no repeats, got {bad!r}")
            for k in (0, 1, 2):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    top_k_pairs(sets, StructureConfig(k=k))


keyword_strategy = st.frozensets(st.sampled_from("abcdefghij"), min_size=1, max_size=7)


@given(sa=keyword_strategy, sb=keyword_strategy)
@settings(max_examples=300)
def test_match_score_properties(sa, sb):
    pairs = two_entity_pairs(sorted(sa), sorted(sb))
    matched = len(sa & sb)
    if not matched:
        assert pairs == []
        return
    expected = matched / min(len(sa), len(sb))
    assert pairs == [("a", "b", matched, expected), ("b", "a", matched, expected)]
    score = pairs[0][3]
    assert 0.0 < score <= 1.0
    smaller, larger = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    assert (score == 1.0) == smaller.issubset(larger)


def brute_force_top_k(keyword_sets, k):
    """Independent oracle: exhaustive score-sort per head."""
    words = {entity: set(keywords) for entity, keywords in keyword_sets.items()}
    out = []
    for head in sorted(keyword_sets):
        rows = []
        for tail in sorted(keyword_sets):
            if tail == head:
                continue
            common = words[head] & words[tail]
            if not common:
                continue
            score = len(common) / min(len(words[head]), len(words[tail]))
            rows.append((score, tail, len(common)))
        rows.sort(key=lambda row: (-row[0], row[1]))
        out.extend((head, tail, score, m) for score, tail, m in rows[:k])
    return out


def test_top_k_two_entities_match_third_is_silent():
    sets = {
        "a": ("k1", "k2", "k3", "k4", "k5"),
        "b": ("k1", "k2", "x3", "x4", "x5"),
        "c": ("z1", "z2", "z3", "z4", "z5"),
    }
    pairs = top_k_pairs(sets, StructureConfig(k=1))
    assert [(p.head, p.tail, p.score) for p in pairs] == [("a", "b", 0.4), ("b", "a", 0.4)]


def test_top_k_zero_returns_empty():
    sets = {"a": ("x",), "b": ("x",)}
    assert top_k_pairs(sets, StructureConfig(k=0)) == []


def test_top_k_tie_breaks_by_partner_id():
    sets = {
        "x": ("k1", "k2", "k3", "k4", "k5"),
        "b": ("k1", "k2", "k3", "y4", "y5"),
        "a": ("k1", "k2", "k3", "z4", "z5"),
    }
    pairs = top_k_pairs(sets, StructureConfig(k=1))
    chosen = {p.head: p.tail for p in pairs}
    assert chosen["x"] == "a"  # tied 0.6 with both; lexicographically smaller wins


@st.composite
def keyword_mappings(draw):
    """Up to ~300 entities over an eight-word vocabulary, so score ties are dense."""
    n = draw(st.integers(0, 300))
    rng = draw(st.randoms(use_true_random=False))
    ids = rng.sample(range(10 * n + 1), n)  # sorted id order differs from insertion order
    return {
        f"e{i}": tuple(rng.sample("abcdefgh", rng.randint(1, 7))) for i in ids
    }


@given(sets=keyword_mappings(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_top_k_agrees_with_brute_force_on_random_instances(sets, data):
    k = data.draw(st.integers(0, len(sets) + 1), label="k")
    pairs = top_k_pairs(sets, StructureConfig(k=k))
    assert [(p.head, p.tail, p.score, p.n_matched) for p in pairs] == brute_force_top_k(sets, k)
    assert all(type(p.score) is float and type(p.n_matched) is int for p in pairs)


def test_top_k_empty_mapping_and_single_entity():
    for k in (0, 1, 2):
        assert top_k_pairs({}, StructureConfig(k=k)) == []
        assert top_k_pairs({"a": ("x", "y")}, StructureConfig(k=k)) == []


def test_top_k_at_fb15k237_entity_count():
    """14,541 entities, five keywords each from 2,000 words, k=3."""
    rng = random.Random(237)
    vocabulary = [f"w{i}" for i in range(2000)]
    sets = {f"/m/{i:05d}": tuple(rng.sample(vocabulary, 5)) for i in range(14541)}
    k = 3
    pairs = top_k_pairs(sets, StructureConfig(k=k))
    chosen: dict[str, list] = {}
    for p in pairs:
        chosen.setdefault(p.head, []).append((p.tail, p.score, p.n_matched))

    holders: dict[str, set[str]] = {}
    for entity, words in sets.items():
        for word in words:
            holders.setdefault(word, set()).add(entity)
    for head, words in sets.items():
        n_overlapping = len(set().union(*(holders[w] for w in words)) - {head})
        assert len(chosen.get(head, ())) == min(k, n_overlapping)

    head_words = {head: set(words) for head, words in sets.items()}
    for head in rng.sample(sorted(sets), 50):
        rows = []
        for tail, words in head_words.items():
            common = len(head_words[head] & words)
            if tail != head and common:
                rows.append((-common / 5, tail, common))
        expected = [(tail, -neg, m) for neg, tail, m in sorted(rows)[:k]]
        assert chosen.get(head, []) == expected


def test_synthesize_counts_pairs_plus_self_loops():
    kg = toy_graph()
    sets = {
        "/m/bay": ("k1", "k2"),
        "/m/bryce": ("k1", "k2"),
        "/m/dotm": ("q1", "q2"),
        "/m/armageddon": ("q1", "q2"),
    }
    cfg = StructureConfig(k=1, self_loop=True)
    pairs = top_k_pairs(sets, cfg)
    assert len(pairs) == 4  # two mutual best-match pairs, both directions
    triples = synthesize_triples(pairs, kg, cfg, self_loop_entities=sorted(sets))
    assert len(triples) == 8
    assert triples[:4] == [Triple(p.head, "SameAs", p.tail) for p in pairs]
    assert all(t.head == t.tail for t in triples[4:])


def test_synthesize_empty_pairs_no_self_loop():
    assert synthesize_triples([], toy_graph(), StructureConfig(k=1), []) == []


def test_synthesize_deduplicates_merged_runs():
    kg = toy_graph()
    from kgforge.structure import MatchScore

    pair = MatchScore(head="/m/bay", tail="/m/bryce", score=1.0, n_matched=2)
    triples = synthesize_triples([pair, pair], kg, StructureConfig(k=1), [])
    assert triples == [Triple("/m/bay", "SameAs", "/m/bryce")]


def test_synthesize_rejects_relation_collision():
    kg = toy_graph()
    cfg = StructureConfig(k=1, same_as_relation="/film/directed_by")
    with pytest.raises(RelationCollisionError):
        synthesize_triples([], kg, cfg, [])


def test_augment_training_set_appends_only_to_train():
    kg = toy_graph()
    extra = [
        Triple("/m/bay", "SameAs", "/m/spielberg"),
        Triple("/m/bay", "SameAs", "/m/bay"),
    ]
    augmented = augment_training_set(kg, extra)
    stats = dataset_stats(augmented)
    assert stats.n_train == 14
    assert augmented.valid == kg.valid and augmented.test == kg.test
    assert "SameAs" in augmented.relations
    assert augmented.relation_name["SameAs"] == "SameAs"
    assert augmented.train[:12] == kg.train


def test_augment_with_empty_list_is_identity():
    kg = toy_graph()
    assert augment_training_set(kg, []) == kg


def test_augment_rejects_unknown_entity():
    with pytest.raises(DanglingReferenceError, match="/m/ghost"):
        augment_training_set(toy_graph(), [Triple("/m/ghost", "SameAs", "/m/bay")])


def test_extract_structure_end_to_end(replay_gateway):
    kg = toy_graph()
    cfg = StructureConfig(k=1, self_loop=True)
    bundle = extract_structure(kg, replay_gateway, cfg)
    assert bundle.kind == "structure"
    # Every toy entity yields parseable keywords.
    assert set(bundle.keyword_sets) == set(kg.entities)
    assert all(len(words) == 5 for words in bundle.keyword_sets.values())

    sets = bundle.keyword_sets
    expected_pairs = brute_force_top_k(sets, cfg.k)
    n_pairs = len(expected_pairs)
    assert len(bundle.extra_triples) == n_pairs + len(sets)
    # The geography entity shares keywords with nobody: no pair has it as head.
    assert all(head != "/m/usa" for head, *_ in expected_pairs)
    pair_triples = bundle.extra_triples[:n_pairs]
    assert [(t.head, t.tail) for t in pair_triples] == [
        (head, tail) for head, tail, _, _ in expected_pairs
    ]

    augmented = augment_training_set(kg, bundle.extra_triples)
    assert len(augmented.train) == len(kg.train) + n_pairs + len(sets)


def test_extract_structure_audit_flags(tmp_path):
    # /m/usa loses its description, so its prompt falls back to the name, which
    # the fixture does not cover; /m/la gets a response with no keywords in it.
    kg = toy_graph()
    desc = {e: text for e, text in kg.entity_desc.items() if e != "/m/usa"}
    kg = replace(kg, entity_desc=desc)
    la_prompt = render_keyword_prompt(kg.desc_of("/m/la")).text
    params = GenerationParams()
    records = [
        (prompt, p, "1. ; - ,\n" if prompt == la_prompt else response)
        for prompt, p, response in toy_fixture_records(params)
    ]
    path = tmp_path / "fx.jsonl"
    write_fixture(path, records)
    gateway = LlmGateway(ReplayBackend(path), params=params)
    bundle = extract_structure(kg, gateway, StructureConfig(k=1, self_loop=True))

    items = {item.subject: item for item in bundle.items}
    assert [item.subject for item in bundle.items] == list(kg.entity_name)
    assert items["/m/usa"].flags == ("name fallback",)
    assert items["/m/usa"].error is not None
    assert items["/m/la"].flags == ("no keywords",)
    assert items["/m/la"].error is None
    assert all(not items[e].flags for e in items if e not in ("/m/usa", "/m/la"))
    assert [item.subject for item in bundle.errors] == ["/m/usa"]
    assert set(bundle.keyword_sets) == set(kg.entities) - {"/m/usa", "/m/la"}
    loops = {t.head for t in bundle.extra_triples if t.head == t.tail}
    assert loops == set(bundle.keyword_sets)
