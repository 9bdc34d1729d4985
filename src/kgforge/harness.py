"""Desk-scale structural link-prediction harness.

Two classic embedding models (translation-distance and bilinear-diagonal
scoring) trained with seeded numpy SGD, filtered ranking with pessimistic tie
handling, triplet classification via per-relation score thresholds, and A/B
comparison of a base graph against an augmented one over multiple seeds.

Training is single-threaded and fully determined by the config seed: the same
seed reproduces embeddings bit for bit.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .kg import KnowledgeGraph, Triple, kg_fingerprint

MODEL_KINDS = ("transe", "distmult")
METRICS = ("mr", "mrr", "hits1", "hits3", "hits10")


class SplitMismatchError(ValueError):
    """A/B comparison requires identical valid/test splits."""


@dataclass(frozen=True)
class TrainConfig:
    kind: str = "transe"
    dim: int = 16
    epochs: int = 200
    learning_rate: float = 0.1
    margin: float = 1.0
    negatives_per_positive: int = 1
    batch_size: int = 32
    norm: int = 2
    seed: int = 7

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        for name in ("dim", "epochs", "negatives_per_positive", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.norm not in (1, 2):
            raise ValueError(f"norm must be 1 or 2, got {self.norm}")


@dataclass
class EmbeddingModel:
    kind: str
    dim: int
    entity_index: dict[str, int]
    relation_index: dict[str, int]
    entity_vectors: np.ndarray
    relation_vectors: np.ndarray
    norm: int = 2
    loss_history: tuple[float, ...] = ()
    config: TrainConfig | None = None

    def entity_vector(self, entity: str) -> np.ndarray:
        return self.entity_vectors[self._entity_idx(entity)]

    def relation_vector(self, relation: str) -> np.ndarray:
        return self.relation_vectors[self._relation_idx(relation)]

    def _entity_idx(self, entity: str) -> int:
        try:
            return self.entity_index[entity]
        except KeyError:
            raise KeyError(f"unknown entity {entity!r}") from None

    def _relation_idx(self, relation: str) -> int:
        try:
            return self.relation_index[relation]
        except KeyError:
            raise KeyError(f"unknown relation {relation!r}") from None


def _normalize_rows(matrix: np.ndarray) -> None:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    matrix /= norms


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _transe_step(
    E: np.ndarray, R: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: TrainConfig
) -> float:
    h, r, t = pos[:, 0], pos[:, 1], pos[:, 2]
    h2, r2, t2 = neg[:, 0], neg[:, 1], neg[:, 2]
    dp_vec = E[h] + R[r] - E[t]
    dn_vec = E[h2] + R[r2] - E[t2]
    if cfg.norm == 1:
        dp = np.abs(dp_vec).sum(axis=1)
        dn = np.abs(dn_vec).sum(axis=1)
        gp = np.sign(dp_vec)
        gn = np.sign(dn_vec)
    else:
        dp = np.sqrt((dp_vec**2).sum(axis=1))
        dn = np.sqrt((dn_vec**2).sum(axis=1))
        gp = dp_vec / np.maximum(dp, 1e-12)[:, None]
        gn = dn_vec / np.maximum(dn, 1e-12)[:, None]
    losses = cfg.margin + dp - dn
    viol = losses > 0
    if viol.any():
        step = cfg.learning_rate
        gpv = step * gp[viol]
        gnv = step * gn[viol]
        np.add.at(E, h[viol], -gpv)
        np.add.at(R, r[viol], -gpv)
        np.add.at(E, t[viol], gpv)
        np.add.at(E, h2[viol], gnv)
        np.add.at(R, r2[viol], gnv)
        np.add.at(E, t2[viol], -gnv)
    return float(losses[viol].sum())


def _distmult_step(
    E: np.ndarray, R: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: TrainConfig
) -> float:
    h, r, t = pos[:, 0], pos[:, 1], pos[:, 2]
    h2, r2, t2 = neg[:, 0], neg[:, 1], neg[:, 2]
    Eh, Rr, Et = E[h], R[r], E[t]
    Eh2, Rr2, Et2 = E[h2], R[r2], E[t2]
    s_pos = (Eh * Rr * Et).sum(axis=1)
    s_neg = (Eh2 * Rr2 * Et2).sum(axis=1)
    loss = float(np.logaddexp(0.0, -s_pos).sum() + np.logaddexp(0.0, s_neg).sum())
    step = cfg.learning_rate
    g_pos = (step * -_sigmoid(-s_pos))[:, None]
    g_neg = (step * _sigmoid(s_neg))[:, None]
    np.add.at(E, h, -g_pos * (Rr * Et))
    np.add.at(R, r, -g_pos * (Eh * Et))
    np.add.at(E, t, -g_pos * (Eh * Rr))
    np.add.at(E, h2, -g_neg * (Rr2 * Et2))
    np.add.at(R, r2, -g_neg * (Eh2 * Et2))
    np.add.at(E, t2, -g_neg * (Eh2 * Rr2))
    return loss


def train(kg: KnowledgeGraph, cfg: TrainConfig) -> EmbeddingModel:
    """Train an embedding model on the graph's training split.

    Negatives corrupt the head or tail uniformly (coin flip per sample).
    Entity rows are L2-normalized at the start of each epoch. Deterministic
    given the config seed.
    """
    if not kg.train:
        raise ValueError("cannot train on an empty training set")
    entities = sorted(kg.entities)
    relations = sorted(kg.relations)
    entity_index = {e: i for i, e in enumerate(entities)}
    relation_index = {r: i for i, r in enumerate(relations)}
    triples = np.array(
        [[entity_index[h], relation_index[r], entity_index[t]] for h, r, t in kg.train],
        dtype=np.int64,
    )
    n_ent, n_train = len(entities), len(triples)

    rng = np.random.default_rng(cfg.seed)
    bound = 6.0 / np.sqrt(cfg.dim)
    E = rng.uniform(-bound, bound, (n_ent, cfg.dim))
    R = rng.uniform(-bound, bound, (len(relations), cfg.dim))
    if cfg.kind == "transe":
        _normalize_rows(R)

    step_fn = _transe_step if cfg.kind == "transe" else _distmult_step
    reps = cfg.negatives_per_positive
    loss_history = []
    for epoch in range(cfg.epochs):
        _normalize_rows(E)
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            pos = np.repeat(triples[perm[start : start + cfg.batch_size]], reps, axis=0)
            neg = pos.copy()
            corrupt_head = rng.random(len(neg)) < 0.5
            random_entities = rng.integers(0, n_ent, len(neg))
            neg[corrupt_head, 0] = random_entities[corrupt_head]
            neg[~corrupt_head, 2] = random_entities[~corrupt_head]
            epoch_loss += step_fn(E, R, pos, neg, cfg)
        mean_loss = epoch_loss / (n_train * reps)
        if not np.isfinite(mean_loss):
            raise RuntimeError(
                f"non-finite training loss at epoch {epoch} "
                f"(kind={cfg.kind}, lr={cfg.learning_rate}); lower the learning rate"
            )
        loss_history.append(mean_loss)

    return EmbeddingModel(
        kind=cfg.kind,
        dim=cfg.dim,
        entity_index=entity_index,
        relation_index=relation_index,
        entity_vectors=E,
        relation_vectors=R,
        norm=cfg.norm,
        loss_history=tuple(loss_history),
        config=cfg,
    )


def score_triple(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """Plausibility score of one triple; higher is more plausible for both kinds."""
    vh = model.entity_vector(head)
    vr = model.relation_vector(relation)
    vt = model.entity_vector(tail)
    if model.kind == "transe":
        diff = vh + vr - vt
        if model.norm == 1:
            return float(-np.abs(diff).sum())
        return float(-np.sqrt((diff**2).sum()))
    return float((vh * vr * vt).sum())


@dataclass(frozen=True)
class Query:
    """One link-prediction query; ``direction`` names the slot being predicted."""

    direction: str
    head: str
    relation: str
    tail: str

    def __post_init__(self):
        if self.direction not in ("head", "tail"):
            raise ValueError(f"direction must be 'head' or 'tail', got {self.direction!r}")

    @property
    def gold(self) -> str:
        return self.head if self.direction == "head" else self.tail


@dataclass(frozen=True)
class RankRecord:
    query: Query
    gold: str
    raw_rank: int
    filtered_rank: int


class _FilterIndex:
    """Known-true completions for (head, relation) and (relation, tail) slots."""

    def __init__(self, kg: KnowledgeGraph, entity_index: dict[str, int]):
        self.tails: dict[tuple[str, str], set[int]] = {}
        self.heads: dict[tuple[str, str], set[int]] = {}
        for h, r, t in (*kg.train, *kg.valid, *kg.test):
            self.tails.setdefault((h, r), set()).add(entity_index[t])
            self.heads.setdefault((r, t), set()).add(entity_index[h])

    def known(self, query: Query) -> set[int]:
        if query.direction == "tail":
            return self.tails.get((query.head, query.relation), set())
        return self.heads.get((query.relation, query.tail), set())


def _candidate_scores(model: EmbeddingModel, query: Query) -> np.ndarray:
    E = model.entity_vectors
    vr = model.relation_vector(query.relation)
    if model.kind == "transe":
        if query.direction == "tail":
            diff = (model.entity_vector(query.head) + vr)[None, :] - E
        else:
            diff = E + vr[None, :] - model.entity_vector(query.tail)[None, :]
        if model.norm == 1:
            return -np.abs(diff).sum(axis=1)
        return -np.sqrt((diff**2).sum(axis=1))
    if query.direction == "tail":
        return E @ (model.entity_vector(query.head) * vr)
    return E @ (vr * model.entity_vector(query.tail))


def rank_of_gold(scores: np.ndarray, gold_idx: int, excluded: Iterable[int] = ()) -> int:
    """Pessimistic rank: 1 plus the number of allowed candidates not scoring below gold.

    Tied candidates count as ranked above the gold entity, so a constant
    scorer ranks the gold dead last. NaN compares as a tie: a NaN candidate
    ranks above the gold, and a NaN gold ranks below every allowed candidate.
    """
    allowed = np.ones(len(scores), dtype=bool)
    excluded_list = list(excluded)
    if excluded_list:
        allowed[excluded_list] = False
    allowed[gold_idx] = False
    return 1 + int(np.count_nonzero(~(scores[allowed] < scores[gold_idx])))


def rank_entities(
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    query: Query,
    filter_index: "_FilterIndex | None" = None,
) -> RankRecord:
    """Raw and filtered rank of the query's gold entity among all entities.

    The filtered rank excludes candidates (other than the gold) whose
    completed triple appears anywhere in train/valid/test.
    """
    if filter_index is None:
        filter_index = _FilterIndex(kg, model.entity_index)
    scores = _candidate_scores(model, query)
    gold_idx = model._entity_idx(query.gold)
    raw = rank_of_gold(scores, gold_idx)
    known = filter_index.known(query) - {gold_idx}
    filtered = rank_of_gold(scores, gold_idx, excluded=known)
    return RankRecord(query=query, gold=query.gold, raw_rank=raw, filtered_rank=filtered)


@dataclass(frozen=True)
class EvalReport:
    mr: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    n_queries: int
    model_kind: str = ""
    dim: int = 0
    seed: int = 0
    split: str = ""
    filtered: bool = True
    dataset_fingerprint: str = ""

    def metric(self, name: str) -> float:
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}")
        return getattr(self, name)


def metrics_from_ranks(ranks: Sequence[int], **meta) -> EvalReport:
    """MR, MRR and Hits@{1,3,10} over a list of ranks."""
    if not ranks:
        raise ValueError("cannot compute metrics over zero ranks")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    n = len(ranks)
    return EvalReport(
        mr=sum(ranks) / n,
        mrr=sum(1.0 / r for r in ranks) / n,
        hits1=sum(1 for r in ranks if r <= 1) / n,
        hits3=sum(1 for r in ranks if r <= 3) / n,
        hits10=sum(1 for r in ranks if r <= 10) / n,
        n_queries=n,
        **meta,
    )


def link_prediction(
    model: EmbeddingModel, kg: KnowledgeGraph, split: str = "test", filtered: bool = True
) -> EvalReport:
    """Evaluate both prediction directions for every triple of the split.

    All 2 * |split| queries are pooled into one rank list; the filtered
    protocol is the default.
    """
    triples = kg.split(split)
    if not triples:
        raise ValueError(f"split {split!r} is empty")
    filter_index = _FilterIndex(kg, model.entity_index)
    ranks = []
    for h, r, t in triples:
        for direction in ("tail", "head"):
            record = rank_entities(
                model, kg, Query(direction=direction, head=h, relation=r, tail=t), filter_index
            )
            ranks.append(record.filtered_rank if filtered else record.raw_rank)
    cfg = model.config
    return metrics_from_ranks(
        ranks,
        model_kind=model.kind,
        dim=model.dim,
        seed=cfg.seed if cfg else 0,
        split=split,
        filtered=filtered,
        dataset_fingerprint=kg_fingerprint(kg),
    )


def _best_threshold(pos_scores: Sequence[float], neg_scores: Sequence[float]) -> float:
    """Threshold maximizing accuracy for 'positive iff score > threshold'.

    Candidates are the midpoints between adjacent distinct scores plus one
    sentinel below the minimum and the maximum itself. Ties in accuracy
    resolve to the larger threshold, so equal-score inputs default negative.
    """
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


def triplet_classification(
    model: EmbeddingModel, kg: KnowledgeGraph, negatives_seed: int = 0
) -> float:
    """Binary accuracy on the test split with per-relation score thresholds.

    One negative per positive is generated by corrupting the tail uniformly
    (seeded, avoiding known-true triples). Thresholds maximize validation
    accuracy per relation; relations unseen in validation fall back to a
    global threshold.
    """
    if not kg.valid or not kg.test:
        raise ValueError("triplet classification needs non-empty valid and test splits")
    known = kg.all_triples()
    entities = sorted(kg.entities)
    rng = np.random.default_rng(negatives_seed)

    def corrupt(triple: Triple) -> Triple:
        for _ in range(100):
            candidate = Triple(triple.head, triple.relation, entities[rng.integers(len(entities))])
            if candidate.tail != triple.tail and candidate not in known:
                return candidate
        # Dense toy graphs can exhaust retries; accept a colliding negative.
        return Triple(triple.head, triple.relation, entities[rng.integers(len(entities))])

    def scored_pairs(split: tuple[Triple, ...]) -> list[tuple[str, float, float]]:
        out = []
        for triple in split:
            negative = corrupt(triple)
            out.append(
                (
                    triple.relation,
                    score_triple(model, *triple),
                    score_triple(model, *negative),
                )
            )
        return out

    valid_pairs = scored_pairs(kg.valid)
    test_pairs = scored_pairs(kg.test)

    by_relation: dict[str, tuple[list[float], list[float]]] = {}
    for relation, pos, neg in valid_pairs:
        by_relation.setdefault(relation, ([], []))[0].append(pos)
        by_relation[relation][1].append(neg)
    thresholds = {rel: _best_threshold(pos, neg) for rel, (pos, neg) in by_relation.items()}
    global_threshold = _best_threshold(
        [p for _, p, _ in valid_pairs], [n for _, _, n in valid_pairs]
    )

    correct = 0
    for relation, pos, neg in test_pairs:
        threshold = thresholds.get(relation, global_threshold)
        correct += int(pos > threshold) + int(neg <= threshold)
    return correct / (2 * len(test_pairs))


@dataclass(frozen=True)
class SeedComparison:
    seed: int
    base: EvalReport
    augmented: EvalReport

    @property
    def delta(self) -> dict[str, float]:
        return {m: self.augmented.metric(m) - self.base.metric(m) for m in METRICS}

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "base": asdict(self.base),
            "augmented": asdict(self.augmented),
            "delta": self.delta,
        }


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[SeedComparison, ...]
    split: str
    config: TrainConfig

    def median_delta(self, metric: str) -> float:
        return statistics.median(row.delta[metric] for row in self.rows)

    def median_metric(self, which: str, metric: str) -> float:
        if which not in ("base", "augmented"):
            raise ValueError(f"which must be 'base' or 'augmented', got {which!r}")
        return statistics.median(getattr(row, which).metric(metric) for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "config": asdict(self.config),
            "n_seeds": len(self.rows),
            "rows": [row.to_dict() for row in self.rows],
            "median_delta": {m: self.median_delta(m) for m in METRICS},
            "median_base": {m: self.median_metric("base", m) for m in METRICS},
            "median_augmented": {m: self.median_metric("augmented", m) for m in METRICS},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def ab_compare(
    kg_base: KnowledgeGraph,
    kg_augmented: KnowledgeGraph,
    cfg: TrainConfig,
    n_seeds: int = 5,
    split: str = "test",
) -> ComparisonReport:
    """Train on both graphs with the same seeds and compare on the shared split.

    Seeds run cfg.seed, cfg.seed + 1, ... cfg.seed + n_seeds - 1. Deltas are
    augmented minus base per metric; the report carries every per-seed row
    plus medians.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if kg_base.valid != kg_augmented.valid or kg_base.test != kg_augmented.test:
        raise SplitMismatchError("base and augmented graphs must share valid/test splits")
    rows = []
    for offset in range(n_seeds):
        run_cfg = replace(cfg, seed=cfg.seed + offset)
        base_report = link_prediction(train(kg_base, run_cfg), kg_base, split)
        augmented_report = link_prediction(train(kg_augmented, run_cfg), kg_augmented, split)
        rows.append(SeedComparison(seed=run_cfg.seed, base=base_report, augmented=augmented_report))
    return ComparisonReport(rows=tuple(rows), split=split, config=cfg)


def format_table(report: ComparisonReport) -> str:
    """Aligned plain-text view of a comparison report."""
    header = f"{'seed':>6} {'side':<10}" + "".join(f"{m:>10}" for m in METRICS)
    lines = [header, "-" * len(header)]
    for row in report.rows:
        for side in ("base", "augmented"):
            values = getattr(row, side)
            lines.append(
                f"{row.seed:>6} {side:<10}" + "".join(f"{values.metric(m):>10.4f}" for m in METRICS)
            )
    lines.append("-" * len(header))
    lines.append(
        f"{'':>6} {'delta med':<10}"
        + "".join(f"{report.median_delta(m):>10.4f}" for m in METRICS)
    )
    return "\n".join(lines)
