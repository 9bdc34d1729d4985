"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 1 checks the four public benchmark distributions only when
they are available locally (KGFORGE_DATA env var or ./data); the bundled toy
fixture variant always runs.
"""

import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from kgforge.cli import main
from kgforge.harness import (
    TrainConfig,
    ab_compare,
    metrics_from_ranks,
    rank_of_gold,
    rank_triples,
    train,
)
from kgforge.structure import (
    KeywordSet,
    StructureConfig,
    augment_training_set,
    extract_structure,
    top_k_pairs,
)
from kgforge.synth import planted_alias_graph, toy_graph
from kgforge.templates import (
    RelationMode,
    render_entity_prompt,
    render_keyword_prompt,
    render_relation_prompt,
)

PUBLIC_STATS = {
    "FB15k237": (14541, 237, 272115, 17535, 20466),
    "WN18RR": (40943, 11, 86835, 3034, 3134),
    "FB13": (75043, 13, 316232, 5908, 23733),
    "WN11": (38696, 11, 112581, 2609, 10544),
}


def _public_dataset_root(name):
    candidates = []
    env = os.environ.get("KGFORGE_DATA")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path(__file__).resolve().parent.parent / "data" / name)
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    return None


@pytest.mark.parametrize("name", sorted(PUBLIC_STATS))
def test_criterion_1_public_dataset_fidelity(name, capsys):
    root = _public_dataset_root(name)
    if root is None:
        pytest.skip(f"{name} distribution not available locally")
    start = time.perf_counter()
    assert main(["stats", str(root), "--json"]) == 0
    elapsed = time.perf_counter() - start
    stats = json.loads(capsys.readouterr().out)
    assert tuple(stats.values()) == PUBLIC_STATS[name]
    assert elapsed < 10.0
    print(f"PASS criterion 1: {name} stats exact in {elapsed:.2f}s")


def test_criterion_1_toy_fixture_stats(toy_root, capsys):
    start = time.perf_counter()
    assert main(["stats", str(toy_root), "--json"]) == 0
    elapsed = time.perf_counter() - start
    stats = json.loads(capsys.readouterr().out)
    assert tuple(stats.values()) == (8, 3, 12, 2, 2)
    assert elapsed < 10.0
    print("PASS criterion 1 (CI variant): toy fixture stats exact")


def test_criterion_2_template_fidelity():
    goldens = [
        (
            render_entity_prompt("Michael Bay").text,
            "Please provide all information about Michael Bay. Give the rationale before answering:",
        ),
        (
            render_entity_prompt("Ian Bryce").text,
            "Please provide all information about Ian Bryce. Give the rationale before answering:",
        ),
        (
            render_entity_prompt("Transformers: Dark of the Moon").text,
            "Please provide all information about Transformers: Dark of the Moon. "
            "Give the rationale before answering:",
        ),
        (
            render_relation_prompt("produced by", RelationMode.GLOBAL).text,
            "Please provide an explanation of the significance of the relation produced by "
            "in a knowledge graph with one sentence:",
        ),
        (
            render_relation_prompt("directed by", RelationMode.GLOBAL).text,
            "Please provide an explanation of the significance of the relation directed by "
            "in a knowledge graph with one sentence:",
        ),
        (
            render_relation_prompt("release region", RelationMode.GLOBAL).text,
            "Please provide an explanation of the significance of the relation release region "
            "in a knowledge graph with one sentence:",
        ),
        (
            render_relation_prompt("produced by", RelationMode.LOCAL).text,
            "Please provide an explanation of the meaning of the triplet "
            "(head entity, produced by, tail entity) and rephrase it into a sentence:",
        ),
        (
            render_relation_prompt("directed by", RelationMode.LOCAL).text,
            "Please provide an explanation of the meaning of the triplet "
            "(head entity, directed by, tail entity) and rephrase it into a sentence:",
        ),
        (
            render_relation_prompt("release region", RelationMode.LOCAL).text,
            "Please provide an explanation of the meaning of the triplet "
            "(head entity, release region, tail entity) and rephrase it into a sentence:",
        ),
        (
            render_relation_prompt("produce", RelationMode.REVERSE).text,
            "Please convert the relation produce into a verb form and provide a statement "
            "in the passive voice:",
        ),
        (
            render_relation_prompt("direct", RelationMode.REVERSE).text,
            "Please convert the relation direct into a verb form and provide a statement "
            "in the passive voice:",
        ),
        (
            render_relation_prompt("release region", RelationMode.REVERSE).text,
            "Please convert the relation release region into a verb form and provide a statement "
            "in the passive voice:",
        ),
        (
            render_keyword_prompt("A film producer.").text,
            "Please extract the five most representative keywords from the following text: "
            "A film producer.. Keywords:",
        ),
        (
            render_keyword_prompt("d").text,
            "Please extract the five most representative keywords from the following text: "
            "d. Keywords:",
        ),
        (
            render_keyword_prompt("A 2011 science fiction action film.").text,
            "Please extract the five most representative keywords from the following text: "
            "A 2011 science fiction action film.. Keywords:",
        ),
    ]
    for rendered, expected in goldens:
        assert rendered == expected
    print(f"PASS criterion 2: {len(goldens)} rendered templates byte-match goldens")


def test_criterion_3_matching_score_law():
    from kgforge.structure import match_score

    rng = random.Random(333)
    vocabulary = [f"w{i}" for i in range(15)]
    start = time.perf_counter()
    n_pairs = 10_000
    for _ in range(n_pairs):
        sa = frozenset(rng.sample(vocabulary, rng.randint(1, 7)))
        sb = frozenset(rng.sample(vocabulary, rng.randint(1, 7)))
        a = KeywordSet(entity="a", keywords=tuple(sorted(sa)))
        b = KeywordSet(entity="b", keywords=tuple(sorted(sb)))
        forward = match_score(a, b)
        backward = match_score(b, a)
        # Independent oracle: plain set intersection arithmetic.
        expected_matched = len(sa & sb)
        expected_score = expected_matched / min(len(sa), len(sb))
        assert forward.n_matched == expected_matched
        assert forward.score == expected_score
        assert backward.score == forward.score
        assert 0.0 <= forward.score <= 1.0
        smaller, larger = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
        assert (forward.score == 1.0) == smaller.issubset(larger)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 3: matching-score law over {n_pairs} pairs in {elapsed:.2f}s")


def _brute_force_top_k(keyword_sets, k):
    out = []
    for head in sorted(keyword_sets):
        rows = []
        head_words = set(keyword_sets[head].keywords)
        for tail in sorted(keyword_sets):
            if tail == head:
                continue
            common = head_words & set(keyword_sets[tail].keywords)
            if not common:
                continue
            score = len(common) / min(
                len(keyword_sets[head].keywords), len(keyword_sets[tail].keywords)
            )
            rows.append((score, tail, len(common)))
        rows.sort(key=lambda row: (-row[0], row[1]))
        out.extend((head, tail, score, m) for score, tail, m in rows[:k])
    return out


def test_criterion_4_top_k_brute_force_equivalence():
    rng = random.Random(444)
    vocabulary = [f"w{i}" for i in range(10)]
    start = time.perf_counter()
    n_instances = 200
    for _ in range(n_instances):
        n_entities = rng.randint(2, 50)
        sets = {}
        for i in range(n_entities):
            words = tuple(rng.sample(vocabulary, rng.randint(1, 7)))
            sets[f"e{i:02d}"] = KeywordSet(entity=f"e{i:02d}", keywords=words)
        k = rng.randint(1, 5)
        got = [
            (p.head, p.tail, p.score, p.n_matched)
            for p in top_k_pairs(sets, StructureConfig(k=k))
        ]
        assert got == _brute_force_top_k(sets, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: top-k equals exhaustive oracle on {n_instances} instances in {elapsed:.2f}s")


def test_criterion_5_metric_oracle():
    start = time.perf_counter()
    report = metrics_from_ranks([1, 2, 4])
    assert report.mr == 7 / 3
    assert report.mrr == 7 / 12
    assert report.hits1 == 1 / 3
    assert report.hits3 == 2 / 3
    assert report.hits10 == 1.0
    boundary = metrics_from_ranks([11, 12])
    assert boundary.hits10 == 0.0 and boundary.mr == 11.5

    rng = random.Random(555)
    for _ in range(1000):
        n = rng.randint(2, 40)
        scores = np.array([rng.uniform(-5, 5) for _ in range(n)])
        gold = rng.randrange(n)
        excluded = {i for i in range(n) if i != gold and rng.random() < 0.35}
        raw = rank_of_gold(scores, gold)
        filtered = rank_of_gold(scores, gold, excluded=excluded)
        assert filtered <= raw
        # Brute-force oracle for the raw rank.
        assert raw == 1 + sum(
            1 for i in range(n) if i != gold and scores[i] >= scores[gold]
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 5: metric oracle + 1000 filter configurations in {elapsed:.2f}s")


def test_criterion_6_trainer_sanity():
    kg = toy_graph()
    cfg = TrainConfig(kind="transe", dim=16, epochs=200, seed=7)
    start = time.perf_counter()
    model = train(kg, cfg)
    rerun = train(kg, cfg)
    ranks = rank_triples(model, kg, kg.train)
    elapsed = time.perf_counter() - start
    report = metrics_from_ranks(ranks)
    assert report.hits10 >= 0.9
    assert np.array_equal(model.entity_vectors, rerun.entity_vectors)
    assert np.array_equal(model.relation_vectors, rerun.relation_vectors)
    assert elapsed < 20.0
    print(
        f"PASS criterion 6: memorization Hits@10={report.hits10:.3f}, "
        f"bitwise repeatable, {elapsed:.2f}s"
    )


def test_criterion_7_structure_augmentation_effect():
    start = time.perf_counter()
    kg, keyword_sets = planted_alias_graph()
    cfg_on = StructureConfig(k=1, self_loop=True)
    cfg_off = StructureConfig(k=1, self_loop=False)
    pairs = top_k_pairs(keyword_sets, cfg_on)
    from kgforge.structure import synthesize_triples

    loop_entities = list(keyword_sets)
    aug_on = augment_training_set(
        kg, synthesize_triples(pairs, kg, cfg_on, self_loop_entities=loop_entities)
    )
    aug_off = augment_training_set(
        kg, synthesize_triples(pairs, kg, cfg_off, self_loop_entities=loop_entities)
    )

    train_cfg = TrainConfig(
        kind="transe", dim=24, epochs=150, learning_rate=0.1, margin=1.0, batch_size=64, seed=7
    )
    report_on = ab_compare(kg, aug_on, train_cfg, n_seeds=5)
    report_off = ab_compare(kg, aug_off, train_cfg, n_seeds=5)
    elapsed = time.perf_counter() - start

    delta_on = report_on.median_delta("hits10")
    delta_off = report_off.median_delta("hits10")
    assert delta_on >= 0.0
    assert delta_off >= 0.0
    mrr_on = report_on.median_metric("augmented", "mrr")
    mrr_off = report_off.median_metric("augmented", "mrr")
    assert mrr_on >= mrr_off - 0.02
    assert elapsed < 180.0
    print(
        f"PASS criterion 7: median dHits@10 on/off = {delta_on:+.3f}/{delta_off:+.3f}, "
        f"self-loop MRR {mrr_on:.3f} vs {mrr_off:.3f}, {elapsed:.1f}s"
    )


@pytest.mark.parametrize("k,self_loop", [(1, False), (1, True), (2, False), (3, True)])
def test_criterion_8_count_law(replay_gateway, k, self_loop):
    from kgforge.gateway import LlmGateway, ReplayBackend

    kg = toy_graph()
    gateway = LlmGateway(ReplayBackend(replay_gateway.backend.fixture_path))
    cfg = StructureConfig(k=k, self_loop=self_loop)
    bundle = extract_structure(kg, gateway, cfg)
    augmented = augment_training_set(kg, bundle.extra_triples)

    sets = {e: KeywordSet(entity=e, keywords=w) for e, w in bundle.keyword_sets.items()}
    n_pairs = len(_brute_force_top_k(sets, k))
    expected = n_pairs + (len(sets) if self_loop else 0)
    assert len(augmented.train) - len(kg.train) == expected
    print(f"PASS criterion 8: count law holds for k={k} self_loop={self_loop} (+{expected})")


def test_criterion_8_count_law_planted():
    kg, keyword_sets = planted_alias_graph()
    cfg = StructureConfig(k=1, self_loop=True)
    pairs = top_k_pairs(keyword_sets, cfg)
    from kgforge.structure import synthesize_triples

    triples = synthesize_triples(pairs, kg, cfg, self_loop_entities=list(keyword_sets))
    augmented = augment_training_set(kg, triples)
    assert len(augmented.train) - len(kg.train) == len(pairs) + len(keyword_sets)
    print("PASS criterion 8 (planted): count law holds with oracle keyword sets")


def _run_pipeline(config_path, out_dir, base_root):
    bundles_dir = out_dir / "bundles"
    rc = main(
        [
            "enrich",
            "--config",
            str(config_path),
            "--strategy",
            "E",
            "--strategy",
            "R",
            "--strategy",
            "S",
            "--out",
            str(bundles_dir),
        ]
    )
    assert rc == 0
    composed = out_dir / "composed"
    rc = main(
        [
            "compose",
            "--config",
            str(config_path),
            "--bundle",
            str(bundles_dir / "bundle_E"),
            "--bundle",
            str(bundles_dir / "bundle_R"),
            "--bundle",
            str(bundles_dir / "bundle_S"),
            "--out",
            str(composed),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "eval",
            "--config",
            str(config_path),
            "--base",
            str(base_root),
            "--augmented",
            str(composed),
            "--out",
            str(out_dir / "comparison.json"),
        ]
    )
    assert rc == 0


def _tree_bytes(root):
    tree = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            tree[str(path.relative_to(root))] = path.read_bytes()
    return tree


def test_criterion_9_end_to_end_replay_determinism(tmp_path, toy_root, toy_fixture_path):
    config = {
        "dataset": {"root": str(toy_root), "mode": "strict"},
        "output_dir": str(tmp_path / "unused"),
        "seed": 7,
        "structure": {"k": 1, "self_loop": True},
        "gateway": {"backend": "replay", "fixture": str(toy_fixture_path)},
        "train": {"dim": 8, "epochs": 20, "batch_size": 8},
        "eval": {"n_seeds": 2, "split": "test"},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    start = time.perf_counter()
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    _run_pipeline(config_path, run_a, toy_root)
    _run_pipeline(config_path, run_b, toy_root)
    elapsed = time.perf_counter() - start

    tree_a, tree_b = _tree_bytes(run_a), _tree_bytes(run_b)
    assert tree_a.keys() == tree_b.keys()
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"output file differs between runs: {name}"
    assert elapsed < 120.0
    print(
        f"PASS criterion 9: enrich->compose->eval twice, {len(tree_a)} files byte-identical, "
        f"{elapsed:.1f}s"
    )


def test_criterion_10_scope_statement_present():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "GPU-scale" in readme
    assert "deterministic" in readme.lower()
    assert "does not attempt to reproduce" in readme
    print("PASS criterion 10: scope statement present in README")
