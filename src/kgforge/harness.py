"""Desk-scale structural link-prediction harness.

Two classic embedding models (translation-distance and bilinear-diagonal
scoring) trained with seeded numpy SGD, filtered ranking with pessimistic tie
handling, triplet classification via per-relation score thresholds, and A/B
comparison of a base graph against an augmented one over multiple seeds.

An ``EmbeddingModel`` is one record: its ``TrainConfig`` (score family and
width), the names of its vector rows, and the vectors. ``train`` gives a model
its graph's own sorted id tables, so a row of the model is an id's position
in sorted id order, the integer the graph's split rows already hold. Outside
the training step ``_step``, ``_scores`` alone holds the scoring formulas.
``rank_triples`` screens TransE-L2 queries in chunks, one matrix product per
chunk, and settles each candidate with a rounding band, so its ranks equal
those of ``_scores``; every other query is ranked through ``_scores`` one at a
time.

Ranking and classification accept only a model whose tables are the graph's,
and then use the graph's split rows as model rows, with no translation. The
ranking filter and the classification negatives come from one sorted-key
join over those rows, ``_completions``, which sorts the keys of one
direction per call.

Training is single-threaded and fully determined by the config seed: the same
seed reproduces embeddings bit for bit.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .kg import SPLITS, KnowledgeGraph, Triple, _index_rows, _positions, kg_fingerprint, require_finite, require_int

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
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        for name in ("learning_rate", "margin"):
            require_finite(name, getattr(self, name), positive=True)
        if isinstance(self.norm, bool) or self.norm not in (1, 2):
            raise ValueError(f"norm must be 1 or 2, got {self.norm!r}")


@dataclass
class EmbeddingModel:
    """One record per model, holding each fact once: its config, the names of its rows, and the rows.

    ``config`` gives the score family (``kind``, ``norm``) and the vectors'
    width (``dim``). ``entities[i]`` and ``relations[i]`` name row ``i`` of
    ``entity_vectors`` and ``relation_vectors``; a trained model holds its
    graph's sorted id tables. Construction raises ``ValueError`` where these
    disagree.
    """

    config: TrainConfig
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    entity_vectors: np.ndarray
    relation_vectors: np.ndarray
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        self.entities, self.relations = tuple(self.entities), tuple(self.relations)
        dim = self.config.dim
        for name, table, vectors in (
            ("entity", self.entities, self.entity_vectors),
            ("relation", self.relations, self.relation_vectors),
        ):
            if vectors.ndim != 2 or vectors.shape[1] != dim:
                raise ValueError(f"{name}_vectors must be {dim} wide, got shape {vectors.shape}")
            if len(table) != len(vectors) or len(set(table)) < len(table):
                raise ValueError(
                    f"{name} names must name each of the {len(vectors)} rows once, got {len(table)} names "
                    f"({len(set(table))} distinct)"
                )


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


def _scatter_add(M: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(M, idx, rows)`` on a 2-D ``M``, through numpy's 1-D ``ufunc.at`` fast path.

    Row ``idx[i]`` of ``M`` receives ``rows[i]`` element by element in the
    order of ``i``, so every slot gets the same additions in the same order
    and the result is bit-identical to the 2-D call.
    """
    if not M.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    dim = M.shape[1]
    flat = idx.astype(np.intp)[:, None] * dim + np.arange(dim)
    # A C-contiguous array always reshapes to a view, so this writes into M.
    np.add.at(M.reshape(-1), flat.ravel(), rows.ravel())


def _step(E: np.ndarray, R: np.ndarray, rows: np.ndarray, cfg: TrainConfig) -> float:
    """One SGD step on ``rows``: a batch's positives, then one corruption of each.

    Only the loss and the per-row gradients depend on the model kind. ``E``
    then receives the positive heads, positive tails, negative heads and
    negative tails, and ``R`` the positive then the negative relations, each
    through one ``_scatter_add``. Every slot thus gets its additions in a
    fixed order, which the golden training digests pin.
    """
    n = len(rows) // 2
    h, r, t = rows.T
    vh, vr, vt = E[h], R[r], E[t]
    step = cfg.learning_rate
    if cfg.kind == "transe":
        diff = vh + vr - vt
        if cfg.norm == 1:
            dist = np.abs(diff).sum(axis=1)
            grad = np.sign(diff)
        else:
            dist = np.sqrt((diff**2).sum(axis=1))
            grad = diff / np.maximum(dist, 1e-12)[:, None]
        losses = cfg.margin + dist[:n] - dist[n:]
        viol = losses > 0
        loss = float(losses[viol].sum())
        # Only a margin-violating positive and its corruption are updated.
        keep = np.concatenate((viol, viol))
        h, r, t = h[keep], r[keep], t[keep]
        n = len(h) // 2
        dh = step * grad[keep]
        np.negative(dh[:n], out=dh[:n])
        dr, dt = dh, -dh
    else:
        scores = (vh * vr * vt).sum(axis=1)
        # Each row's loss is log(1 + exp(z)), with z = -score for positives.
        z = np.concatenate((-scores[:n], scores[n:]))
        loss = float(np.logaddexp(0.0, z[:n]).sum() + np.logaddexp(0.0, z[n:]).sum())
        w = step * _sigmoid(z)
        np.negative(w[n:], out=w[n:])
        w = w[:, None]
        dh, dr, dt = w * (vr * vt), w * (vh * vt), w * (vh * vr)
    _scatter_add(
        E,
        np.concatenate((h[:n], t[:n], h[n:], t[n:])),
        np.concatenate((dh[:n], dt[:n], dh[n:], dt[n:])),
    )
    _scatter_add(R, r, dr)
    return loss


def train(kg: KnowledgeGraph, cfg: TrainConfig) -> EmbeddingModel:
    """Train an embedding model on the graph's training split.

    The model's rows are the graph's sorted id tables, and the training rows
    are the train split's own rows. Negatives corrupt the head or tail
    uniformly (coin flip per sample). Entity rows are L2-normalized at the
    start of each epoch. Deterministic given the config seed.
    """
    if not kg.train:
        raise ValueError("cannot train on an empty training set")
    entities, relations, triples = kg.train.entities, kg.train.relations, kg.train.rows
    n_ent, n_train = len(entities), len(triples)

    rng = np.random.default_rng(cfg.seed)
    bound = 6.0 / np.sqrt(cfg.dim)
    E = rng.uniform(-bound, bound, (n_ent, cfg.dim))
    R = rng.uniform(-bound, bound, (len(relations), cfg.dim))
    if cfg.kind == "transe":
        _normalize_rows(R)

    reps = cfg.negatives_per_positive
    loss_history = []
    for epoch in range(cfg.epochs):
        _normalize_rows(E)
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            pos = np.repeat(triples[perm[start : start + cfg.batch_size]], reps, axis=0)
            rows = np.concatenate((pos, pos))
            neg = rows[len(pos) :]
            corrupt_head = rng.random(len(pos)) < 0.5
            random_entities = rng.integers(0, n_ent, len(pos))
            neg[corrupt_head, 0] = random_entities[corrupt_head]
            neg[~corrupt_head, 2] = random_entities[~corrupt_head]
            epoch_loss += _step(E, R, rows, cfg)
        mean_loss = epoch_loss / (n_train * reps)
        # A NaN margin loss compares False against 0 and is never summed, so
        # the embeddings are checked as well as the loss.
        if not (np.isfinite(mean_loss) and np.isfinite(E).all() and np.isfinite(R).all()):
            raise RuntimeError(
                f"non-finite training loss or embeddings at epoch {epoch} "
                f"(kind={cfg.kind}, lr={cfg.learning_rate}); lower the learning rate"
            )
        loss_history.append(mean_loss)

    return EmbeddingModel(
        config=cfg,
        entities=entities,
        relations=relations,
        entity_vectors=E,
        relation_vectors=R,
        loss_history=tuple(loss_history),
    )


def _scores(model: EmbeddingModel, vh: np.ndarray, vr: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Plausibility scores over the last axis; higher is more plausible for both kinds."""
    if model.config.kind == "transe":
        diff = (vh + vr) - vt
        if model.config.norm == 1:
            return -np.abs(diff).sum(axis=-1)
        return -np.sqrt((diff**2).sum(axis=-1))
    return np.einsum("...d,...d,...d->...", vh, vr, vt, optimize=True)


def _row_scores(model: EmbeddingModel, ids: np.ndarray) -> np.ndarray:
    """``_scores`` of (n, 3) rows of model indices."""
    E, R = model.entity_vectors, model.relation_vectors
    return _scores(model, E[ids[:, 0]], R[ids[:, 1]], E[ids[:, 2]])


def score_triple(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """Plausibility score of one triple; higher is more plausible for both kinds."""
    row = _index_rows(*_positions(model.entities, model.relations), [(head, relation, tail)])
    return float(_row_scores(model, row)[0])


def rank_of_gold(scores: np.ndarray, gold_idx: int, excluded: Iterable[int] = ()) -> int:
    """Pessimistic rank: 1 plus the number of allowed candidates not scoring below gold.

    Tied candidates count as ranked above the gold entity, so a constant
    scorer ranks the gold dead last. NaN compares as a tie: a NaN candidate
    ranks above the gold, and a NaN gold ranks below every allowed candidate.
    """
    allowed = np.ones(len(scores), dtype=bool)
    allowed[list(excluded)] = False
    allowed[gold_idx] = False
    return 1 + int(np.count_nonzero(~(scores[allowed] < scores[gold_idx])))


#: Queries screened per matrix product. Each scratch matrix holds this many
#: rows of float64 over all entities: 0.93 MB at FB15k-237's 14,541 entities.
_RANK_CHUNK = 8


def _exact_rank(model: EmbeddingModel, h: int, r: int, t: int, excluded, tail: bool) -> int:
    """Rank of the gold tail (or head) among every entity's ``_scores``, one query at a time."""
    E, R = model.entity_vectors, model.relation_vectors
    if tail:
        return rank_of_gold(_scores(model, E[h], R[r], E), t, excluded)
    return rank_of_gold(_scores(model, E, R[r], E[t]), h, excluded)


def _screened_ranks(
    model: EmbeddingModel, ids: np.ndarray, offsets: np.ndarray, known: np.ndarray, tail: bool
) -> list[int]:
    """``_exact_rank`` of every query row in one direction, screened chunk by chunk.

    Query ``i`` never counts its gold nor its filtered completions
    ``known[offsets[i]:offsets[i + 1]]``, which are model indices.

    For TransE-L2 each chunk's candidate values come from one matrix product,
    ``v = 2 a.e - |e|^2`` (the negated squared distance up to the query's own
    ``|a|^2``) with ``a = h + r`` for tails and ``a = t - r`` for heads. A
    candidate is settled when ``|v - v_gold|`` exceeds the sum of its own and
    the gold's rounding band. A band is ``K * u * N`` plus an underflow term in
    units of the smallest subnormal, with ``K = 8 * (dim + 8)``, ``u`` the unit
    roundoff and ``N = |a|^2 + |r|^2 + |e|^2``. That is about twice the
    worst-case rounding of the screen, of the ``_scores`` path and of its
    final square root (standard dot-product bounds, Higham 2002, section 3.1),
    so a settled candidate compares with the gold exactly as in
    ``_exact_rank``. Vectors so large that a screened or exact value might
    overflow get an infinite band. A query with an unsettled allowed
    candidate, and every TransE-L1 and DistMult query, goes through
    ``_exact_rank``.
    """
    if model.config.kind != "transe" or model.config.norm == 1:
        return [
            _exact_rank(model, *row, known[a:b], tail)
            for row, a, b in zip(ids.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
        ]
    E, R = model.entity_vectors, model.relation_vectors
    heads, rels, tails = ids.T
    golds = tails if tail else heads
    big = np.finfo(float).max
    K = 8.0 * (E.shape[1] + 8)
    ku = K * np.finfo(float).eps / 2
    floor = 2 * K * np.finfo(float).smallest_subnormal
    known_rows = np.repeat(np.arange(len(ids)), np.diff(offsets))
    ranks = []
    with np.errstate(over="ignore", invalid="ignore"):
        queries = E[heads] + R[rels] if tail else E[tails] - R[rels]
        q_sq = np.einsum("ij,ij->i", queries, queries) + np.einsum("ij,ij->i", R[rels], R[rels])
        e_sq = np.einsum("ij,ij->i", E, E)
        # Squared norms up to big / 16 keep every screened and exact value finite.
        q_band = np.where(q_sq <= big / 16, ku * q_sq, np.inf)
        e_band = np.where(e_sq <= big / 16, ku * e_sq, np.inf)
        for start in range(0, len(ids), _RANK_CHUNK):
            chunk = slice(start, start + _RANK_CHUNK)
            gold = golds[chunk]
            rows = np.arange(len(gold))
            # Doubling is exact, so this product is exactly 2 a.E^T.
            gaps = (2.0 * queries[chunk]) @ E.T
            gaps -= e_sq
            gaps -= gaps[rows, gold][:, None]
            band = np.add.outer(q_band[chunk], e_band)
            band += (band[rows, gold] + floor)[:, None]
            counted = gaps > band
            # Where a band is finite, so are the values it covers; an infinite or
            # NaN band settles nothing.
            settled = np.abs(gaps, out=gaps) > band
            skip = slice(offsets[start], offsets[start + len(gold)])
            for cells in ((rows, gold), (known_rows[skip] - start, known[skip])):
                settled[cells] = True
                counted[cells] = False
            chunk_ranks = 1 + np.count_nonzero(counted, axis=1)
            for i in np.flatnonzero(~settled.all(axis=1)).tolist():
                q = start + i
                h, r, t = ids[q].tolist()
                excluded = known[offsets[q] : offsets[q + 1]]
                chunk_ranks[i] = _exact_rank(model, h, r, t, excluded, tail)
            ranks.extend(chunk_ranks.tolist())
    return ranks


def _completions(
    kg: KnowledgeGraph, queries: np.ndarray, tail: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every known completion of each query's slot, by one sorted-key join.

    ``queries`` are (head, relation, tail) rows of the graph's sorted id
    positions. A row's slot is its head and relation when completing tails,
    its tail and relation when completing heads. Each train, valid and test
    triple gets the key ``slot * |E| + completion``. Once the keys are
    sorted, one slot's completions are one run of them, found by two binary
    searches.
    Returns offsets and entity positions: query ``i``'s completions are
    ``completions[offsets[i]:offsets[i + 1]]``, a triple in several splits
    counted once per split.
    """
    n_ent, n_rel = len(kg.entities), len(kg.relations)
    own, other = (0, 2) if tail else (2, 0)
    rows = np.concatenate([kg.split(name).rows for name in SPLITS])
    keys = (rows[:, own].astype(np.int64) * n_rel + rows[:, 1]) * n_ent + rows[:, other]
    keys.sort()
    slots = queries[:, own].astype(np.int64) * n_rel + queries[:, 1]
    lo = np.searchsorted(keys, slots * n_ent)
    counts = np.searchsorted(keys, (slots + 1) * n_ent) - lo
    offsets = np.concatenate(([0], np.cumsum(counts)))
    runs = np.repeat(lo - offsets[:-1], counts) + np.arange(offsets[-1])
    return offsets, keys[runs] % n_ent


def _require_evaluable(model: EmbeddingModel, kg: KnowledgeGraph) -> None:
    """Raise ``ValueError`` unless the model's rows are the graph's sorted ids and its vectors are finite."""
    if model.entities != kg.train.entities or model.relations != kg.train.relations:
        raise ValueError(
            "the model's entities and relations are not the graph's ids in sorted order; "
            "evaluate a model on the graph it was trained on"
        )
    if not (np.isfinite(model.entity_vectors).all() and np.isfinite(model.relation_vectors).all()):
        raise ValueError(
            f"non-finite embeddings (kind={model.config.kind}): entity_vectors or relation_vectors "
            "hold NaN or inf"
        )


def rank_triples(
    model: EmbeddingModel, kg: KnowledgeGraph, triples: Sequence[Triple], filtered: bool = True
) -> list[int]:
    """Tail rank, then head rank, of each triple among all entities.

    The model's tables must be the graph's (else ``ValueError``), so the
    queries' model rows, found by ``_index_rows`` as in ``score_triple``, are
    also their graph positions.
    The filtered rank excludes candidates (other than the gold) whose
    completed triple appears anywhere in train/valid/test, found by
    ``_completions``. Ranks are exact: each equals ``rank_of_gold`` over the
    query's ``_scores``.
    """
    _require_evaluable(model, kg)
    ids = _index_rows(*_positions(model.entities, model.relations), triples)
    known = [(np.zeros(len(ids) + 1, dtype=np.intp), np.zeros(0, dtype=np.intp))] * 2
    if filtered:
        known = [_completions(kg, ids, tail) for tail in (True, False)]
    tail_ranks = _screened_ranks(model, ids, *known[0], True)
    head_ranks = _screened_ranks(model, ids, *known[1], False)
    return [rank for pair in zip(tail_ranks, head_ranks) for rank in pair]


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
    return metrics_from_ranks(
        rank_triples(model, kg, triples, filtered),
        model_kind=model.config.kind,
        dim=model.entity_vectors.shape[1],
        seed=model.config.seed,
        split=split,
        filtered=filtered,
        dataset_fingerprint=kg_fingerprint(kg),
    )


def _best_threshold(pos_scores: Sequence[float], neg_scores: Sequence[float]) -> float:
    """Threshold maximizing accuracy for 'positive iff score > threshold'.

    Candidates are the midpoints between adjacent distinct scores plus one
    sentinel below the minimum and the maximum itself. Ties in accuracy
    resolve to the larger threshold, so equal-score inputs default negative.
    Each candidate's correct count comes from binary searches in the sorted
    scores, so the search is O(n log n).
    """
    distinct = sorted(set(pos_scores) | set(neg_scores))
    candidates = [distinct[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates.append(distinct[-1])
    pos, neg = np.sort(pos_scores), np.sort(neg_scores)
    correct = len(pos) - np.searchsorted(pos, candidates, side="right")
    correct += np.searchsorted(neg, candidates, side="right")
    # Candidates never decrease, so the last maximum is the largest threshold.
    return candidates[len(correct) - 1 - int(np.argmax(correct[::-1]))]


def triplet_classification(
    model: EmbeddingModel, kg: KnowledgeGraph, negatives_seed: int = 0
) -> float:
    """Binary accuracy on the test split with per-relation score thresholds.

    One negative per positive is generated by corrupting the tail uniformly
    (seeded, avoiding known-true triples). Thresholds maximize validation
    accuracy per relation; relations unseen in validation fall back to a
    global threshold. A NaN or infinite score is a ``ValueError``, and so is
    a triple whose 100 corrupted tails all make known-true triples.
    """
    if not kg.valid or not kg.test:
        raise ValueError("triplet classification needs non-empty valid and test splits")
    _require_evaluable(model, kg)
    # Query i is valid triple i, then test triple i - |valid|.
    positives = np.concatenate((kg.valid.rows, kg.test.rows))
    offsets, known = _completions(kg, positives, tail=True)
    offsets, known, golds = offsets.tolist(), known.tolist(), positives[:, 2].tolist()
    n_ent, n_valid = len(kg.entities), len(kg.valid)
    rng = np.random.default_rng(negatives_seed)

    def corrupt(i: int) -> int:
        """Position of a drawn tail that is neither the gold nor a known tail of query ``i``."""
        known_tails = known[offsets[i] : offsets[i + 1]]
        for _ in range(100):
            candidate = int(rng.integers(n_ent))
            if candidate != golds[i] and candidate not in known_tails:
                return candidate
        triple = tuple(kg.valid[i] if i < n_valid else kg.test[i - n_valid])
        raise ValueError(f"no negative for {triple}: 100 corrupted tails were all known-true")

    def scored(first: int, stop: int) -> list[np.ndarray]:
        """Scores of rows ``first:stop``, then of one negative each, by one ``_scores`` call."""
        negatives = positives[first:stop].copy()
        negatives[:, 2] = [corrupt(i) for i in range(first, stop)]
        scores = _row_scores(model, np.concatenate((positives[first:stop], negatives)))
        if not np.isfinite(scores).all():
            kind = model.config.kind
            raise ValueError(f"non-finite triple scores (kind={kind}): scoring overflows")
        return np.split(scores, 2)

    valid_pos, valid_neg = scored(0, n_valid)
    test_pos, test_neg = scored(n_valid, len(positives))
    valid_rel, test_rel = positives[:n_valid, 1], positives[n_valid:, 1]
    thresholds = {}
    for rel in set(valid_rel.tolist()):
        in_rel = valid_rel == rel
        thresholds[rel] = _best_threshold(valid_pos[in_rel].tolist(), valid_neg[in_rel].tolist())
    global_threshold = _best_threshold(valid_pos.tolist(), valid_neg.tolist())
    cut = np.array([thresholds.get(rel, global_threshold) for rel in test_rel.tolist()])
    correct = np.count_nonzero(test_pos > cut) + np.count_nonzero(test_neg <= cut)
    return int(correct) / (2 * len(cut))


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

    Both graphs must share their valid and test splits and their entities,
    since ranks are taken over every entity; a mismatch raises ``SplitMismatchError``.

    Seeds run cfg.seed, cfg.seed + 1, ... cfg.seed + n_seeds - 1. Deltas are
    augmented minus base per metric; the report carries every per-seed row
    plus medians.
    """
    require_int("n_seeds", n_seeds, 1)
    if kg_base.valid != kg_augmented.valid or kg_base.test != kg_augmented.test:
        raise SplitMismatchError("base and augmented graphs must share valid/test splits")
    if kg_base.entities != kg_augmented.entities:
        raise SplitMismatchError("base and augmented graphs must rank over the same entities")
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
