"""Sanity of the deterministic fixture generators."""

from kgforge.kg import dataset_stats
from kgforge.synth import planted_alias_graph, toy_graph


def test_toy_graph_shape():
    kg = toy_graph()
    assert dataset_stats(kg) == (8, 3, 12, 2, 2)
    train_entities = {e for t in kg.train for e in (t.head, t.tail)}
    assert train_entities == kg.entities  # every entity is trainable


def test_planted_graph_shape_and_determinism():
    kg1, kws1 = planted_alias_graph()
    kg2, kws2 = planted_alias_graph()
    assert kg1 == kg2
    assert kws1 == kws2
    stats = dataset_stats(kg1)
    assert stats.n_entities == 60
    assert stats.n_test == 20  # two cross-half queries per alias pair


def test_planted_alias_pairs_share_keywords_and_split_neighborhoods():
    kg, kws = planted_alias_graph()
    for p in range(10):
        xa, xb = f"alias{p:02d}_a", f"alias{p:02d}_b"
        assert kws[xa] == kws[xb]
        half_a = {t.tail for t in kg.train if t.head == xa}
        half_b = {t.tail for t in kg.train if t.head == xb}
        assert half_a and half_b and not (half_a & half_b)
        # Test triples point each alias at the partner's half.
        cross_a = [t for t in kg.test if t.head == xa]
        assert len(cross_a) == 1 and cross_a[0].tail in half_b


def test_planted_background_keywords_are_disjoint():
    _, kws = planted_alias_graph()
    backgrounds = [k for e, k in kws.items() if e.startswith("bg")]
    seen = set()
    for ks in backgrounds:
        assert not (set(ks) & seen)
        seen.update(ks)


def test_planted_splits_disjoint():
    kg, _ = planted_alias_graph()
    train, valid, test = set(kg.train), set(kg.valid), set(kg.test)
    assert not (train & valid) and not (train & test) and not (valid & test)
