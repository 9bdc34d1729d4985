"""Trainer, scoring, ranking, metrics, classification, and A/B comparison."""

import dataclasses
import hashlib
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kgforge.harness import (
    EmbeddingModel,
    SplitMismatchError,
    TrainConfig,
    _best_threshold,
    _scatter_add,
    _scores,
    _row_scores,
    _step,
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
from kgforge.kg import KnowledgeGraph, Triple
from kgforge.synth import planted_alias_graph, toy_graph


def make_kg(entities, relations, train=(), valid=(), test=()):
    return KnowledgeGraph(
        entity_name={e: e for e in entities},
        relation_name={r: r for r in relations},
        entity_desc={},
        train=tuple(train),
        valid=tuple(valid),
        test=tuple(test),
    )


def make_model(kind, entity_vecs, relation_vecs, norm=2):
    entities = tuple(sorted(entity_vecs))
    relations = tuple(sorted(relation_vecs))
    return EmbeddingModel(
        config=TrainConfig(kind=kind, dim=len(next(iter(entity_vecs.values()))), norm=norm),
        entities=entities,
        relations=relations,
        entity_vectors=np.array([entity_vecs[e] for e in entities], dtype=float),
        relation_vectors=np.array([relation_vecs[r] for r in relations], dtype=float),
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
    known = {*kg.train, *kg.valid, *kg.test}
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


def per_query_ranks(model, kg, triples, filtered=True):
    """Oracle: every query scored against all entities through ``_scores``, one at a time."""
    entity_row = {e: i for i, e in enumerate(model.entities)}
    relation_row = {r: i for i, r in enumerate(model.relations)}
    ids = [(entity_row[h], relation_row[r], entity_row[t]) for h, r, t in triples]
    known_tails = {(h, r): [] for h, r, _ in triples}
    known_heads = {(r, t): [] for _, r, t in triples}
    if filtered:
        for h, r, t in (*kg.train, *kg.valid, *kg.test):
            if (h, r) in known_tails:
                known_tails[(h, r)].append(entity_row[t])
            if (r, t) in known_heads:
                known_heads[(r, t)].append(entity_row[h])
    E, R = model.entity_vectors, model.relation_vectors
    ranks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (h, r, t), (hi, ri, ti) in zip(triples, ids):
            ranks.append(rank_of_gold(_scores(model, E[hi], R[ri], E), ti, known_tails[(h, r)]))
            ranks.append(rank_of_gold(_scores(model, E, R[ri], E[ti]), hi, known_heads[(r, t)]))
    return ranks


def planted_model(rng, kind, norm, n_ent, dim, plant):
    """Random embeddings with exact ties, near-ties or overflow planted on purpose."""
    E = rng.normal(size=(n_ent, dim))
    R = rng.normal(size=(2, dim))
    if plant == "duplicates":
        E[rng.integers(n_ent, size=n_ent // 2)] = E[rng.integers(n_ent, size=n_ent // 2)]
    elif plant == "ulp":
        # Rows a few ulps from row 0: their exact scores tie or order by rounding alone.
        steps = rng.integers(-3, 4, size=(n_ent, dim))
        E[:] = E[0]
        for _ in range(3):
            E = np.where(steps > 0, np.nextafter(E, np.inf), E)
            E = np.where(steps < 0, np.nextafter(E, -np.inf), E)
            steps -= np.sign(steps)
    elif plant == "constant":
        E[:] = E[0]
        R[:] = R[0]
    elif plant == "huge":
        E[rng.integers(n_ent, size=max(1, n_ent // 4))] *= 1e160
    elif plant == "near-max":
        # Squared norms (TransE) or products of three components (DistMult) near
        # the float maximum: some screened or exact values overflow, most do not.
        top = math.sqrt(sys.float_info.max) if kind == "transe" else sys.float_info.max ** (1 / 3)
        E *= top * 10.0 ** rng.uniform(-1.0, 0.0, size=(n_ent, 1)) / np.linalg.norm(E, axis=1, keepdims=True)
        R *= top * 10.0 ** rng.uniform(-1.5, 0.0, size=(2, 1)) / np.linalg.norm(R, axis=1, keepdims=True)
    elif plant == "scales":
        # Rows from 1e-170 to 1e100: products of three may underflow or overflow.
        E *= 10.0 ** rng.uniform(-170, 100, size=(n_ent, 1))
        R *= 10.0 ** rng.uniform(-170, 100, size=(2, 1))
    elif plant == "grid":
        # Small integers: many distinct candidates at exactly the gold's distance.
        E = rng.integers(-1, 2, size=(n_ent, dim)).astype(float)
        R = rng.integers(-1, 2, size=(2, dim)).astype(float)
    # In sorted id order, as a graph over these names holds them.
    entities = sorted(f"e{i}" for i in range(n_ent))
    relations = ["r0", "r1"]
    model = EmbeddingModel(
        config=TrainConfig(kind=kind, dim=dim, norm=norm),
        entities=entities,
        relations=relations,
        entity_vectors=E,
        relation_vectors=R,
    )
    return model, entities, relations


def random_triples(rng, entities, relations, n):
    return [
        Triple(entities[int(rng.integers(len(entities)))], relations[int(rng.integers(2))],
               entities[int(rng.integers(len(entities)))])
        for _ in range(n)
    ]


@given(
    scorer=st.sampled_from(SCORERS),
    plant=st.sampled_from(["none", "duplicates", "ulp", "constant", "huge", "near-max", "scales", "grid"]),
    n_ent=st.integers(2, 80),
    dim=st.integers(1, 6),
    gold_twin=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_rank_triples_matches_per_query_oracle(scorer, plant, n_ent, dim, gold_twin, seed):
    rng = np.random.default_rng(seed)
    model, entities, relations = planted_model(rng, *scorer, n_ent, dim, plant)
    triples = random_triples(rng, entities, relations, 40)
    kg = make_kg(entities, relations, train=triples[:25], valid=triples[25:30], test=triples[30:])
    if gold_twin:
        # Every test triple's gold head and tail get an exact twin among the candidates.
        E = model.entity_vectors
        for h, _, t in kg.test:
            for gold in (h, t):
                E[int(rng.integers(n_ent))] = E[model.entities.index(gold)]
    for filtered in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            ranks = rank_triples(model, kg, kg.test, filtered)
        assert ranks == per_query_ranks(model, kg, kg.test, filtered)


def test_rank_triples_near_overflow_matches_per_query_oracle():
    # a = h + r with |a|^2 = big / 2. The screened values 2 a.e - |e|^2 of "g"
    # and "j" are finite (-0.7 big, -0.9 big), but both exact distances
    # overflow, so "j" ties the gold at -inf and counts above it.
    unit = math.sqrt(sys.float_info.max)
    c = unit * math.sqrt(0.5)

    def root(share):  # k > 0 with 2 c k + k^2 = share * big
        return unit * (math.sqrt(0.5 + share) - math.sqrt(0.5))

    model = make_model("transe", {"h": [c], "g": [-root(0.7)], "j": [-root(0.9)]}, {"r": [0.0]})
    kg = make_kg(["h", "g", "j"], ["r"], test=[Triple("h", "r", "g")])
    with np.errstate(over="ignore"):
        assert rank_triples(model, kg, kg.test) == per_query_ranks(model, kg, kg.test)
    assert rank_triples(model, kg, kg.test)[0] == 3


def test_rank_triples_matches_per_query_oracle_at_fb15k237_entity_count():
    rng = np.random.default_rng(237)
    n_ent, dim = 14_541, 16
    # Only TransE-L2 is screened; the other scorers always take the per-query path.
    model, entities, relations = planted_model(rng, "transe", 2, n_ent, dim, "none")
    model.entity_vectors /= np.linalg.norm(model.entity_vectors, axis=1, keepdims=True)
    triples = random_triples(rng, entities, relations, 5_200)
    kg = make_kg(entities, relations, train=triples[:5_000], test=triples[5_000:])
    # Exact twins of ten test tails send those queries down the per-query path.
    E = model.entity_vectors
    for _, _, t in kg.test[:10]:
        E[int(rng.integers(n_ent))] = E[model.entities.index(t)]
    assert rank_triples(model, kg, kg.test) == per_query_ranks(model, kg, kg.test)


@st.composite
def ranked_graphs(draw):
    """A small graph and a model over its sorted id tables.

    Names like ``e10`` sort before ``e2``, the graph's maps list them in a
    random order, triples repeat within and across splits, and with
    ``extra_relation`` the graph also holds ``SameAs`` triples, whose
    relation sorts after the others.
    """
    n_ent = draw(st.integers(1, 13))
    entities = [f"e{i}" for i in range(n_ent)]
    extra_relation = draw(st.booleans())
    graph_relations = ["r1", "r0"] + ["SameAs"] * extra_relation
    entity = st.sampled_from(entities)
    triple = st.builds(Triple, entity, st.sampled_from(["r0", "r1"]), entity)
    train = draw(st.lists(triple, max_size=20))
    valid = draw(st.lists(triple, max_size=5))
    test = draw(st.lists(triple, min_size=1, max_size=8))
    # Test triples that also appear in train or valid.
    train += draw(st.lists(st.sampled_from(test), max_size=3))
    valid += draw(st.lists(st.sampled_from(test), max_size=2))
    if extra_relation:
        train += draw(st.lists(st.builds(Triple, entity, st.just("SameAs"), entity), max_size=6))
    kg = make_kg(draw(st.permutations(entities)), graph_relations, train, valid, test)
    kind, norm = draw(st.sampled_from(SCORERS))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = EmbeddingModel(
        config=TrainConfig(kind=kind, dim=dim, norm=norm),
        entities=kg.train.entities,
        relations=kg.train.relations,
        entity_vectors=rng.integers(-2, 3, size=(n_ent, dim)).astype(float),
        relation_vectors=rng.normal(size=(len(graph_relations), dim)),
    )
    return model, kg


@given(graph=ranked_graphs(), filtered=st.booleans())
@settings(max_examples=300, deadline=None)
def test_rank_triples_matches_per_query_oracle_on_random_graphs(graph, filtered):
    model, kg = graph
    assert rank_triples(model, kg, kg.test, filtered) == per_query_ranks(model, kg, kg.test, filtered)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("matrix", ["entity_vectors", "relation_vectors"])
def test_non_finite_model_is_an_error(bad, matrix):
    entities = ["a", "b", "c", "d"]
    model = make_model("transe", {e: [0.1 * i, 0.2] for i, e in enumerate(entities)}, {"r": [0.3, 0.1]})
    getattr(model, matrix)[0, 1] = bad
    kg = make_kg(
        entities,
        ["r"],
        train=[Triple("a", "r", "b")],
        valid=[Triple("a", "r", "c")],
        test=[Triple("b", "r", "d")],
    )
    for evaluate in (
        lambda: rank_triples(model, kg, kg.test),
        lambda: link_prediction(model, kg),
        lambda: triplet_classification(model, kg),
    ):
        with pytest.raises(ValueError, match="non-finite embeddings"):
            evaluate()


def test_triple_scores_rows_equal_score_triple():
    rng = np.random.default_rng(5)
    for kind, norm in SCORERS:
        for _ in range(10):
            entities = [f"e{i}" for i in range(int(rng.integers(2, 30)))]
            relations = ["r0", "r1", "r2"]
            model = random_model(rng, kind, norm, entities, relations, dim=int(rng.integers(1, 40)))
            tables = (model.entities, model.relations, model.entities)
            ids = np.column_stack([rng.integers(0, len(table), 25) for table in tables])
            triples = [Triple(*map(tuple.__getitem__, tables, row)) for row in ids.tolist()]
            rows = _row_scores(model, ids)
            assert rows.tolist() == [score_triple(model, *triple) for triple in triples]


def test_model_record_holds_each_fact_once():
    names = [f.name for f in dataclasses.fields(EmbeddingModel)]
    assert names == [
        "config", "entities", "relations", "entity_vectors", "relation_vectors",
        "loss_history",
    ]
    model = train(toy_graph(), TrainConfig(kind="distmult", dim=4, epochs=2, seed=1))
    report = link_prediction(model, toy_graph())
    assert (report.model_kind, report.dim, report.seed) == ("distmult", 4, 1)


def model_fields(**changes):
    """Keyword arguments of a valid two-entity, one-relation, 2-wide model, with ``changes``."""
    return {
        "config": TrainConfig(dim=2),
        "entities": ("a", "b"),
        "relations": ("r",),
        "entity_vectors": np.zeros((2, 2)),
        "relation_vectors": np.zeros((1, 2)),
        **changes,
    }


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"config": TrainConfig(dim=3)}, "entity_vectors must be 3 wide"),
        ({"relation_vectors": np.zeros((1, 1))}, "relation_vectors must be 2 wide"),
        ({"entity_vectors": np.zeros(2)}, "entity_vectors must be 2 wide"),
        ({"entities": ("a", "b", "c")}, r"^entity names must name each of the 2 rows once, got 3 names \(3 distinct\)$"),
        ({"relations": ()}, r"^relation names must name each of the 1 rows once, got 0 names \(0 distinct\)$"),
        ({"entities": ("a", "a")}, r"^entity names must name each of the 2 rows once, got 2 names \(1 distinct\)$"),
    ],
    ids=["width-config", "width-relation", "vectors-1d", "entity-table-length", "relation-table-length",
         "repeated-name"],
)
def test_model_construction_rejects_disagreeing_facts(changes, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingModel(**model_fields(**changes))


def test_a_trained_model_holds_its_graphs_tables():
    kg = toy_graph()
    model = train(kg, TrainConfig(dim=4, epochs=1))
    assert model.entities is kg.train.entities and model.relations is kg.train.relations
    assert model.entities == tuple(sorted(kg.entities)) and model.relations == tuple(sorted(kg.relations))


def zero_model(entities, relations):
    return EmbeddingModel(
        config=TrainConfig(dim=2),
        entities=entities,
        relations=relations,
        entity_vectors=np.zeros((len(entities), 2)),
        relation_vectors=np.zeros((len(relations), 2)),
    )


@pytest.mark.parametrize(
    "entities, relations",
    [(("a", "b", "c", "d"), ("q", "r")), (("a", "b", "c"), ("r",)), (("c", "b", "a"), ("r", "q"))],
    ids=["extra-entity", "missing-relation", "reordered"],
)
def test_evaluating_a_model_on_other_ids_is_an_error(entities, relations):
    kg = make_kg(
        ["b", "a", "c"],
        ["r", "q"],
        train=[Triple("a", "r", "b")],
        valid=[Triple("a", "q", "c")],
        test=[Triple("b", "r", "c")],
    )
    assert rank_triples(zero_model(("a", "b", "c"), ("q", "r")), kg, kg.test, filtered=False) == [3, 3]
    model = zero_model(entities, relations)
    for evaluate in (
        lambda: rank_triples(model, kg, kg.test),
        lambda: rank_triples(model, kg, [Triple("a", "r", "b")], filtered=False),
        lambda: link_prediction(model, kg),
        lambda: triplet_classification(model, kg),
    ):
        with pytest.raises(ValueError, match="^the model's entities and relations are not the graph's ids"):
            evaluate()


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


# sha256 of entity_vectors, relation_vectors and loss_history on the planted
# graph (180 training triples over 3 relations), keyed by kind, norm, batch
# size and negatives per positive. The batch-64 rows were recorded with
# per-row np.add.at updates, the rest with a separate scatter for each
# positive and negative index column. Every batch scatters into repeated
# rows; at batch 1, 84 of the 360 steps violate no margin.
TRAINING_GOLDEN = {
    ("transe", 2, 64, 1): (
        "04f53fdf3861c095ba66ece369c68da3c92256c6ba8f865a996b6aa0bda67aee",
        "259ddd29d2f2112344fd4a4a6f04a54d4949c69fdf6d030b3c9da5bb1585f802",
        "ec953ceca67edfacee2fe52c5ed5e51120a80dd6346023690f9f0e38b0b6a65a",
    ),
    ("transe", 1, 64, 1): (
        "8ecc20cd30fd5254f6ed95a2a67484ee04a120f1564f67382226c675bc42916e",
        "bb6e672eb3d4dbeac2f66c4082967dcc9a61bba718b9f1b86cabab3f4c031a30",
        "e3b058d893ee669f74b5a218afb89bfedb0c4d5d1de9f4145c6000f5410c023f",
    ),
    ("distmult", 2, 64, 1): (
        "573150f122869ea72a3a5b4fcfd5b2edef2308f0efbcfcc7b56f4436ec6aea65",
        "61569ed0906e612da839683ed168f6ea3dbbad43935b0d798f720a38f751aef9",
        "a435112be3b4695f133c2c756b0f5d4f157113a3148d071ae61a5b8d8aab03e8",
    ),
    ("transe", 1, 32, 2): (
        "4fc236587084fde974a32d523d0478e0832d663b5d82d79955dc4cdabad04b8a",
        "812c2ada557a720d1f28344b9aacf3a33c0ef10a6ebd56c0de98e46819122ac0",
        "c90e471d5b2f1986894c656934594779aae6130d2afc63d65ca5fccfb439bdd4",
    ),
    ("transe", 2, 32, 2): (
        "33f519a96aac1b85838c3a840ee17f1c0dbfd86e8be372767e8904b5f7bf6ecd",
        "a797a889e781ecceced8f2bfc3220fd593144ee9831db11afd3b99c92f69cdb2",
        "2d3a26924814468d916995897f9599c615d8167633fe49ea64c77f6e722b685d",
    ),
    ("distmult", 2, 32, 2): (
        "c7769f480022a6b04cffb35b3befb3689124d5bd176f22202c46d7f9edf83973",
        "d191bb1bca9cd9c2d5164914515e8a1ba93a08a52de404f09ba11cbc48f5c8dd",
        "01219ae037e68fd45c8841bdd5f74ccac294d1a788735fe14445b205f23e4c5f",
    ),
    ("transe", 1, 1, 1): (
        "2c79261dfd18eaa9788d08098afa73871bf6547a5cedd73f679e7569899fd1d6",
        "0b83543f5e8efa6c67d04b59ead79a4480286e190e8cd8e70f2143b6f8c006d8",
        "a0bc6f9efbee0d7c0a4ee7b2ce081e905da86a1443a3764b728d28f136e358ad",
    ),
}


def _golden_id(kind, norm, batch_size, negatives):
    # The batch-64 cases keep their original ids.
    return f"{kind}-{norm}" + ("" if batch_size == 64 else f"-b{batch_size}-n{negatives}")


@pytest.mark.parametrize(
    "kind, norm, batch_size, negatives",
    sorted(TRAINING_GOLDEN),
    ids=[_golden_id(*key) for key in sorted(TRAINING_GOLDEN)],
)
def test_training_matches_golden_digests(kind, norm, batch_size, negatives):
    kg, _ = planted_alias_graph()
    cfg = TrainConfig(
        kind=kind,
        norm=norm,
        dim=8,
        epochs=2,
        batch_size=batch_size,
        negatives_per_positive=negatives,
        seed=5,
    )
    model = train(kg, cfg)
    outputs = (model.entity_vectors, model.relation_vectors, np.array(model.loss_history))
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in outputs)
    assert digests == TRAINING_GOLDEN[kind, norm, batch_size, negatives]


SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -2.5e-310]),
    st.floats(),
)


@given(data=st.data())
@settings(max_examples=300)
def test_scatter_add_equals_add_at_bitwise(data):
    n_rows = data.draw(st.integers(1, 4))
    dim = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(0, 40))
    target = data.draw(arrays(np.float64, (n_rows, dim), elements=SCATTER_VALUES))
    idx = data.draw(arrays(np.int64, n, elements=st.integers(0, n_rows - 1)))
    rows = data.draw(arrays(np.float64, (n, dim), elements=SCATTER_VALUES))
    expected, got = target.copy(), target.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(expected, idx, rows)
        _scatter_add(got, idx, rows)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_scatter_add_rejects_non_contiguous_target():
    idx = np.array([0, 1, 1])
    rows = np.ones((3, 3))
    base = np.zeros((2, 6))
    for target in (base[:, ::2], np.zeros((2, 3), order="F")):
        with pytest.raises(ValueError, match="C-contiguous"):
            _scatter_add(target, idx, rows)
        assert not target.any()
    assert not base.any()


@pytest.mark.parametrize("norm", [1, 2])
def test_step_without_margin_violation_changes_nothing(norm):
    E = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    R = np.array([[1.0, 0.0]])
    # Both positives lie at distance 0, their corruptions at distances 9 and 11.
    rows = np.array([[0, 0, 1], [0, 0, 1], [0, 0, 2], [2, 0, 0]])
    E_before, R_before = E.copy(), R.copy()
    loss = _step(E, R, rows, TrainConfig(kind="transe", norm=norm, margin=1.0))
    assert loss == 0.0
    assert E.tobytes() == E_before.tobytes()
    assert R.tobytes() == R_before.tobytes()


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


def quadratic_best_threshold(pos_scores, neg_scores):
    """Oracle: accuracy of every candidate counted by a full scan; last maximum wins."""
    distinct = sorted(set(pos_scores) | set(neg_scores))
    candidates = [distinct[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates.append(distinct[-1])
    best_threshold, best_accuracy = candidates[0], -1.0
    for threshold in candidates:
        correct = sum(1 for s in pos_scores if s > threshold)
        correct += sum(1 for s in neg_scores if s <= threshold)
        accuracy = correct / (len(pos_scores) + len(neg_scores))
        if accuracy >= best_accuracy:
            best_threshold, best_accuracy = threshold, accuracy
    return best_threshold


@st.composite
def score_lists(draw):
    """Scores drawn from a few anchors and their neighbouring doubles, signed zeros included."""
    anchors = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.3]), st.floats(allow_nan=False)),
            min_size=1,
            max_size=4,
        )
    )
    pool = anchors + [math.nextafter(a, math.inf) for a in anchors]
    pool += [math.nextafter(a, -math.inf) for a in anchors]
    value = st.sampled_from(pool)
    return draw(st.lists(value, min_size=1, max_size=12)), draw(st.lists(value, min_size=1, max_size=12))


@given(scores=score_lists())
@example(scores=([0.3], [0.3]))
@example(scores=([0.0], [-0.0]))
@example(scores=([1.0], [math.nextafter(1.0, 2.0)]))
@settings(max_examples=400)
def test_best_threshold_equals_quadratic_oracle(scores):
    pos, neg = scores
    got, want = _best_threshold(pos, neg), quadratic_best_threshold(pos, neg)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


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


def test_classification_rejects_overflowing_scores():
    # Finite embeddings whose DistMult products overflow: (a, r, b) scores -inf,
    # (a, r, c) +inf and (a, r, d) NaN, so no threshold over them means anything.
    big = 1e200
    entities = {"a": [big, big], "b": [-big, -big], "c": [big, big], "d": [big, -big]}
    model = make_model("distmult", entities, {"r": [big, big]})
    kg = make_kg(
        entities,
        ["r"],
        train=[Triple("a", "r", "d")],
        valid=[Triple("a", "r", "b")],
        test=[Triple("a", "r", "c")],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert score_triple(model, "a", "r", "b") == -math.inf
        assert score_triple(model, "a", "r", "c") == math.inf
        assert math.isnan(score_triple(model, "a", "r", "d"))
        with pytest.raises(ValueError, match="non-finite triple scores"):
            triplet_classification(model, kg)


def test_classification_rejects_impossible_negative():
    # (a, r, e) is known for every entity e, so no corrupted tail of the valid
    # triple (a, r, c) is a true negative.
    entities = ["a", "b", "c"]
    model = make_model("distmult", {e: [1.0] for e in entities}, {"r": [1.0]})
    kg = make_kg(
        entities,
        ["r"],
        train=[Triple("a", "r", "a"), Triple("a", "r", "b")],
        valid=[Triple("a", "r", "c")],
        test=[Triple("b", "r", "a")],
    )
    with pytest.raises(ValueError, match=r"no negative for \('a', 'r', 'c'\)"):
        triplet_classification(model, kg)


def test_classification_names_the_test_triple_without_a_negative():
    # The valid triple (a, r, c) has negatives; every tail of (b, r, ?) is known.
    entities = ["a", "b", "c"]
    model = make_model("distmult", {e: [1.0] for e in entities}, {"r": [1.0]})
    kg = make_kg(
        entities,
        ["r"],
        train=[Triple("b", "r", "a"), Triple("b", "r", "b")],
        valid=[Triple("a", "r", "c")],
        test=[Triple("b", "r", "c")],
    )
    with pytest.raises(ValueError, match=r"^no negative for \('b', 'r', 'c'\): 100 corrupted tails"):
        triplet_classification(model, kg)


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


def classification_record(model, kg, negatives_seed, monkeypatch):
    """Accuracy and the negatives ``triplet_classification`` scored, as one digest.

    Every triple it scores passes through ``_scores``; the tails of the
    negatives, which follow each split's positives, are read back from their
    entity vectors.
    """
    import kgforge.harness as harness

    names = {vector.tobytes(): e for e, vector in zip(model.entities, model.entity_vectors)}
    assert len(names) == len(model.entities)
    negatives = []
    scores = harness._scores

    def recording(model_, vh, vr, vt):
        half = len(vt) // 2
        negatives.append([names[row.tobytes()] for row in vt[half:]])
        return scores(model_, vh, vr, vt)

    monkeypatch.setattr(harness, "_scores", recording)
    accuracy = triplet_classification(model, kg, negatives_seed=negatives_seed)
    record = json.dumps([repr(accuracy), negatives])
    return accuracy, hashlib.sha256(record.encode()).hexdigest()[:16]


# Accuracy and negative tails of triplet classification, keyed by graph and
# negatives seed: a TransE model (dim 8, 20 epochs, seed 3) on the toy graph,
# and one (dim 8, 5 epochs, seed 5) on the planted graph.
CLASSIFICATION_GOLDEN = {
    ("toy", 0): (0.75, "108a1b818902afe7"),
    ("toy", 1): (0.75, "282fc9b888c97efb"),
    ("toy", 7): (0.75, "ff627d7ce9e5013f"),
    ("planted", 0): (0.625, "977efadc90063f33"),
    ("planted", 1): (0.65, "35f1cf236388c670"),
    ("planted", 7): (0.675, "ad4e45e58bfd32aa"),
}


def classification_graph_and_model(name):
    if name == "toy":
        kg = toy_graph()
        return kg, train(kg, TrainConfig(dim=8, epochs=20, seed=3))
    kg, _ = planted_alias_graph()
    return kg, train(kg, TrainConfig(dim=8, epochs=5, seed=5))


@pytest.mark.parametrize("graph, negatives_seed", sorted(CLASSIFICATION_GOLDEN))
def test_classification_matches_golden_negatives(graph, negatives_seed, monkeypatch):
    kg, model = classification_graph_and_model(graph)
    got = classification_record(model, kg, negatives_seed, monkeypatch)
    assert got == CLASSIFICATION_GOLDEN[graph, negatives_seed]


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
