"""Trainer, scoring, ranking, metrics, classification, and A/B comparison."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgforge.harness import (
    EmbeddingModel,
    SplitMismatchError,
    TrainConfig,
    _best_threshold,
    _triple_scores,
    ab_compare,
    format_table,
    link_prediction,
    metrics_from_ranks,
    rank_of_gold,
    rank_triples,
    score_triple,
    train,
    triplet_classification,
)
from kgforge.kg import KnowledgeGraph, TextStore, Triple
from kgforge.synth import toy_graph


def make_kg(entities, relations, train=(), valid=(), test=()):
    return KnowledgeGraph(
        entities=frozenset(entities),
        relations=frozenset(relations),
        train=tuple(train),
        valid=tuple(valid),
        test=tuple(test),
        texts=TextStore(
            entity_name={e: e for e in entities},
            entity_desc={},
            relation_name={r: r for r in relations},
        ),
    )


def make_model(kind, entity_vecs, relation_vecs, norm=2):
    entities = sorted(entity_vecs)
    relations = sorted(relation_vecs)
    return EmbeddingModel(
        kind=kind,
        dim=len(next(iter(entity_vecs.values()))),
        entity_index={e: i for i, e in enumerate(entities)},
        relation_index={r: i for i, r in enumerate(relations)},
        entity_vectors=np.array([entity_vecs[e] for e in entities], dtype=float),
        relation_vectors=np.array([relation_vecs[r] for r in relations], dtype=float),
        norm=norm,
    )


def test_transe_translation_identity_scores_zero():
    # Dyadic values keep the float arithmetic exact.
    model = make_model(
        "transe",
        {"h": [0.25, 0.5], "t": [0.5, 0.75], "x": [0.0, 0.0]},
        {"r": [0.25, 0.25]},
    )
    assert score_triple(model, "h", "r", "t") == 0.0
    assert score_triple(model, "h", "r", "x") < 0.0


def test_distmult_one_hot_algebra():
    model = make_model(
        "distmult",
        {"a": [1.0, 0.0], "b": [1.0, 0.0]},
        {"r1": [1.0, 0.0], "r2": [0.0, 1.0]},
    )
    assert score_triple(model, "a", "r1", "b") == 1.0
    assert score_triple(model, "a", "r2", "b") == 0.0


def test_scores_match_hand_arithmetic():
    vh, vr, vt = [0.1, -0.2, 0.3], [0.5, 0.4, -0.6], [-0.7, 0.8, 0.9]
    diff = [vh[i] + vr[i] - vt[i] for i in range(3)]
    model_l2 = make_model("transe", {"h": vh, "t": vt}, {"r": vr}, norm=2)
    assert score_triple(model_l2, "h", "r", "t") == pytest.approx(
        -math.sqrt(sum(d * d for d in diff))
    )
    model_l1 = make_model("transe", {"h": vh, "t": vt}, {"r": vr}, norm=1)
    assert score_triple(model_l1, "h", "r", "t") == pytest.approx(-sum(abs(d) for d in diff))
    model_dm = make_model("distmult", {"h": vh, "t": vt}, {"r": vr})
    assert score_triple(model_dm, "h", "r", "t") == pytest.approx(
        sum(vh[i] * vr[i] * vt[i] for i in range(3))
    )


def test_unknown_ids_raise():
    model = make_model("transe", {"a": [0.0]}, {"r": [0.0]})
    with pytest.raises(KeyError, match="unknown entity"):
        score_triple(model, "a", "r", "nope")
    with pytest.raises(KeyError, match="unknown relation"):
        score_triple(model, "a", "nope", "a")


def one_dim_rank_setup():
    values = {"e0": 0.9, "e1": 0.7, "e2": 0.5, "e3": 0.1, "e4": 0.2}
    model = make_model(
        "distmult", {e: [v] for e, v in values.items()}, {"r": [10.0]}
    )
    kg = make_kg(
        values,
        ["r"],
        train=[Triple("e3", "r", "e0")],
        test=[Triple("e3", "r", "e2")],
    )
    return model, kg


def tail_ranks(model, kg, triple):
    """Raw and filtered rank of the triple's tail."""
    raw_tail, _ = rank_triples(model, kg, [triple], filtered=False)
    filtered_tail, _ = rank_triples(model, kg, [triple], filtered=True)
    return raw_tail, filtered_tail


def test_rank_gold_strictly_highest_is_one():
    model, kg = one_dim_rank_setup()
    assert tail_ranks(model, kg, Triple("e3", "r", "e0")) == (1, 1)


def test_rank_filtered_removes_known_candidates():
    # Two candidates outscore the gold; one of them is a known training triple.
    model, kg = one_dim_rank_setup()
    assert tail_ranks(model, kg, Triple("e3", "r", "e2")) == (3, 2)


def test_rank_all_tied_is_entity_count():
    entities = ["e0", "e1", "e2", "e3", "e4"]
    model = make_model("distmult", {e: [0.0] for e in entities}, {"r": [1.0]})
    kg = make_kg(entities, ["r"], test=[Triple("e0", "r", "e1")])
    assert rank_triples(model, kg, kg.test, filtered=False) == [len(entities)] * 2
    # NaN counts as a tie: a NaN gold ranks last, a NaN candidate ranks above the gold.
    scores = np.array([0.5, 0.9, float("nan"), 0.1])
    assert rank_of_gold(scores, 2) == 4
    assert rank_of_gold(scores, 2, excluded=[0]) == 3
    assert rank_of_gold(scores, 1) == 2
    assert rank_of_gold(scores, 3) == 4


# Integer-valued scores keep the shifted addition exact; with arbitrary floats
# a large shift can round distinct tiny scores into ties, which is a property
# of float addition rather than of the ranking.
@given(
    scores=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=30),
    shift=st.integers(-10**6, 10**6),
    data=st.data(),
)
@settings(max_examples=200)
def test_rank_invariant_under_score_translation(scores, shift, data):
    gold = data.draw(st.integers(0, len(scores) - 1))
    arr = np.array(scores, dtype=float)
    assert rank_of_gold(arr, gold) == rank_of_gold(arr + float(shift), gold)


def test_filtered_rank_never_exceeds_raw_randomized():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(2, 40)
        scores = np.array([rng.uniform(-5, 5) for _ in range(n)])
        gold = rng.randrange(n)
        excluded = {i for i in range(n) if i != gold and rng.random() < 0.3}
        raw = rank_of_gold(scores, gold)
        filtered = rank_of_gold(scores, gold, excluded=excluded)
        assert 1 <= filtered <= raw


def oracle_ranks(model, kg, triple, direction):
    """Brute force: score every candidate triple one by one."""
    known = kg.all_triples()
    gold = triple.head if direction == "head" else triple.tail

    def completed(candidate):
        if direction == "head":
            return Triple(candidate, triple.relation, triple.tail)
        return Triple(triple.head, triple.relation, candidate)

    gold_score = score_triple(model, *completed(gold))
    raw = filtered = 1
    for candidate in kg.entities:
        if candidate == gold:
            continue
        outscores = score_triple(model, *completed(candidate)) >= gold_score
        raw += outscores
        if completed(candidate) not in known:
            filtered += outscores
    return raw, filtered


SCORERS = (("transe", 2), ("distmult", 2), ("transe", 1))


def random_model(rng, kind, norm, entities, relations, dim=4):
    return make_model(
        kind,
        {e: list(rng.normal(size=dim)) for e in entities},
        {r: list(rng.normal(size=dim)) for r in relations},
        norm=norm,
    )


def test_rank_triples_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    for kind, norm in SCORERS:
        for _ in range(20):
            n_ent = int(rng.integers(3, 50))
            entities = [f"e{i}" for i in range(n_ent)]
            relations = ["r0", "r1"]
            model = random_model(rng, kind, norm, entities, relations)
            triples = [
                Triple(
                    entities[int(rng.integers(n_ent))],
                    relations[int(rng.integers(2))],
                    entities[int(rng.integers(n_ent))],
                )
                for _ in range(15)
            ]
            kg = make_kg(entities, relations, train=triples[:10], valid=triples[10:12], test=triples[12:])
            query_triple = triples[12]
            (raw_tail, filtered_tail), (raw_head, filtered_head) = (
                oracle_ranks(model, kg, query_triple, direction) for direction in ("tail", "head")
            )
            assert rank_triples(model, kg, [query_triple], filtered=False) == [raw_tail, raw_head]
            assert rank_triples(model, kg, [query_triple]) == [filtered_tail, filtered_head]


def test_triple_scores_rows_equal_score_triple():
    rng = np.random.default_rng(5)
    for kind, norm in SCORERS:
        for _ in range(10):
            entities = [f"e{i}" for i in range(int(rng.integers(2, 30)))]
            relations = ["r0", "r1", "r2"]
            model = random_model(rng, kind, norm, entities, relations, dim=int(rng.integers(1, 40)))
            triples = [
                Triple(*(str(rng.choice(names)) for names in (entities, relations, entities)))
                for _ in range(25)
            ]
            rows = _triple_scores(model, triples)
            assert rows.tolist() == [score_triple(model, *triple) for triple in triples]


def test_metrics_oracle_1_2_4():
    report = metrics_from_ranks([1, 2, 4])
    assert report.mr == 7 / 3
    assert report.mrr == 7 / 12
    assert report.hits1 == 1 / 3
    assert report.hits3 == 2 / 3
    assert report.hits10 == 1.0
    assert report.n_queries == 3


def test_metrics_oracle_out_of_range_ranks():
    report = metrics_from_ranks([11, 12])
    assert report.hits10 == 0.0
    assert report.mr == 11.5


def test_metrics_reject_bad_input():
    with pytest.raises(ValueError):
        metrics_from_ranks([])
    with pytest.raises(ValueError):
        metrics_from_ranks([0, 1])


@given(ranks=st.lists(st.integers(1, 1000), min_size=1, max_size=200))
@settings(max_examples=200)
def test_metric_laws(ranks):
    report = metrics_from_ranks(ranks)
    assert report.mr >= 1.0
    assert 0.0 < report.mrr <= 1.0
    assert report.hits1 <= report.hits3 <= report.hits10 <= 1.0


@pytest.mark.parametrize("kind", ["transe", "distmult"])
def test_training_is_bitwise_deterministic(kind):
    kg = toy_graph()
    cfg = TrainConfig(kind=kind, dim=8, epochs=30, seed=3)
    m1, m2 = train(kg, cfg), train(kg, cfg)
    assert np.array_equal(m1.entity_vectors, m2.entity_vectors)
    assert np.array_equal(m1.relation_vectors, m2.relation_vectors)
    assert m1.loss_history == m2.loss_history


def test_training_loss_decreases():
    kg = toy_graph()
    model = train(kg, TrainConfig(dim=16, epochs=200, seed=7))
    assert model.loss_history[-1] < model.loss_history[0]


def test_training_rejects_empty_train_split():
    kg = toy_graph()
    from dataclasses import replace

    empty = replace(kg, train=())
    with pytest.raises(ValueError, match="empty training set"):
        train(empty, TrainConfig())


def test_training_aborts_on_divergence():
    kg = toy_graph()
    # batch_size=1 lets the blow-up compound within an epoch, before the
    # per-epoch normalization can rescue it.
    cfg = TrainConfig(
        kind="distmult", dim=8, epochs=3, learning_rate=1e100, batch_size=1, seed=0
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            train(kg, cfg)


def test_training_rejects_non_finite_embeddings():
    # NaN margin losses compare False against 0 and are never summed, so the
    # loss alone stays finite here while the embeddings do not.
    cfg = TrainConfig(
        kind="transe", dim=8, epochs=3, learning_rate=1e308, batch_size=32, seed=0
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            train(toy_graph(), cfg)


def test_toy_memorization():
    kg = toy_graph()
    model = train(kg, TrainConfig(kind="transe", dim=16, epochs=200, seed=7))
    report = metrics_from_ranks(rank_triples(model, kg, kg.train))
    assert report.hits10 >= 0.9
    assert report.mrr >= 0.9  # stronger memorization signal than the 8-entity Hits@10


def test_link_prediction_shapes_and_metadata():
    kg = toy_graph()
    model = train(kg, TrainConfig(dim=16, epochs=50, seed=1))
    report = link_prediction(model, kg, split="test")
    assert report.n_queries == 2 * len(kg.test)
    assert report.split == "test" and report.filtered
    assert report.model_kind == "transe" and report.seed == 1
    assert report.dataset_fingerprint
    with pytest.raises(ValueError, match="unknown split"):
        link_prediction(model, kg, split="nope")


def test_best_threshold_midpoint_oracle():
    assert _best_threshold([0.9, 0.8], [0.2, 0.1]) == pytest.approx(0.5)


def test_best_threshold_degenerate_ties_default_negative():
    threshold = _best_threshold([0.3, 0.3], [0.3, 0.3])
    assert threshold == pytest.approx(0.3)  # score <= threshold classifies negative


def test_classification_degenerate_model_scores_half():
    entities = ["a", "b", "c", "d"]
    model = make_model("distmult", {e: [0.0] for e in entities}, {"r": [1.0], "s": [1.0]})
    kg = make_kg(
        entities,
        ["r", "s"],
        train=[Triple("a", "r", "b")],
        valid=[Triple("a", "r", "c")],
        test=[Triple("b", "s", "d"), Triple("c", "r", "d")],  # "s" unseen in valid -> global fallback
    )
    assert triplet_classification(model, kg, negatives_seed=5) == 0.5


def test_classification_on_trained_toy_model():
    kg = toy_graph()
    model = train(kg, TrainConfig(dim=16, epochs=200, seed=7))
    acc1 = triplet_classification(model, kg, negatives_seed=0)
    acc2 = triplet_classification(model, kg, negatives_seed=0)
    assert acc1 == acc2
    assert 0.0 <= acc1 <= 1.0
    with pytest.raises(ValueError, match="non-empty"):
        from dataclasses import replace

        triplet_classification(model, replace(kg, valid=()), negatives_seed=0)


def test_ab_compare_identity_is_all_zero():
    kg = toy_graph()
    cfg = TrainConfig(dim=8, epochs=30, seed=2)
    report = ab_compare(kg, kg, cfg, n_seeds=3)
    for row in report.rows:
        assert all(delta == 0.0 for delta in row.delta.values())
    assert all(report.median_delta(m) == 0.0 for m in ("mr", "mrr", "hits1", "hits3", "hits10"))
    assert [row.seed for row in report.rows] == [2, 3, 4]


def test_ab_compare_single_seed_median_is_the_row():
    kg = toy_graph()
    report = ab_compare(kg, kg, TrainConfig(dim=8, epochs=10, seed=5), n_seeds=1)
    assert len(report.rows) == 1
    assert report.median_delta("mrr") == report.rows[0].delta["mrr"]
    table = format_table(report)
    assert "delta med" in table and "base" in table and "augmented" in table


def test_ab_compare_rejects_split_mismatch():
    kg = toy_graph()
    from dataclasses import replace

    other = replace(kg, test=kg.test[:1])
    with pytest.raises(SplitMismatchError):
        ab_compare(kg, other, TrainConfig(dim=8, epochs=5), n_seeds=1)
