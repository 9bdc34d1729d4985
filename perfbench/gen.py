"""Seeded input generator for the benchmark workloads.

Every input is a pure function of (workload, seed): tab-separated datasets in
the public layout, response fixtures covering every prompt a workload issues,
and the expectations the output checks compare against. Datasets are written
by this module, not by ``kgforge.write_dataset``, so the inputs do not depend
on the code under test. Prompts are rendered, and fixtures keyed, with the
program's own templates and hash, because they must match what it issues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Public shapes. WN18RR and FB15k-237 counts are the published split sizes;
# structure-4k is cut to 4,000 entities because matching is quadratic.
SHAPES = {
    "text-wn18rr": dict(
        n_entities=40943, n_relations=11, n_train=86835, n_valid=3034, n_test=3134,
        desc_tokens=20, response_tokens=120, relation_tokens=25, id_style="wn",
    ),
    "structure-4k": dict(
        n_entities=4000, n_relations=40, n_train=24000, n_valid=1000, n_test=1000,
        desc_tokens=20, keywords=5, keyword_vocab=6000, keyword_zipf=0.9,
        empty_desc_share=0.01, id_style="fb",
    ),
    "eval-fb237": dict(
        n_entities=14541, n_relations=237, n_train=272115, n_valid=3000, n_test=1000,
        desc_tokens=20, id_style="fb",
    ),
}

ENTITY_ZIPF = 0.8     # entity degree skew
RELATION_ZIPF = 1.2   # relation frequency skew
TEXT_ZIPF = 1.0       # word frequency in names and descriptions

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def vocabulary() -> list[str]:
    """A fixed, seed-independent word list: two-syllable words, some ending in n."""
    syllables = [c + v for c in _ONSETS for v in _VOWELS]
    words = [a + b for a in syllables for b in syllables]
    words += [a + b + "n" for a in syllables[:40] for b in syllables[:40]]
    return words


@dataclass
class Inputs:
    """Paths of the generated files plus what the output checks expect."""

    workload: str
    seed: int
    root: Path
    dataset: Path
    fixture: Path | None = None
    bundle: Path | None = None
    expect: dict = field(default_factory=dict)


def _zipf(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf probabilities over n items, with the popular items placed at random."""
    weights = 1.0 / np.arange(1, n + 1) ** alpha
    return (weights / weights.sum())[rng.permutation(n)]


def _triples(rng, n_ent: int, n_rel: int, need: int) -> np.ndarray:
    """``need`` distinct (h, r, t) index rows with power-law degrees, no self-loops."""
    ent_p = _zipf(n_ent, ENTITY_ZIPF, rng)
    rel_p = _zipf(n_rel, RELATION_ZIPF, rng)
    rows = np.empty((0, 3), dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)
    while len(rows) < need:
        m = int((need - len(rows)) * 1.5) + 1000
        cand = np.stack(
            [rng.choice(n_ent, m, p=ent_p), rng.choice(n_rel, m, p=rel_p), rng.choice(n_ent, m, p=ent_p)],
            axis=1,
        )
        cand = cand[cand[:, 0] != cand[:, 2]]
        codes = (cand[:, 0] * n_rel + cand[:, 1]) * n_ent + cand[:, 2]
        _, first = np.unique(codes, return_index=True)
        first.sort()
        cand, codes = cand[first], codes[first]
        fresh = ~np.isin(codes, seen)
        rows = np.concatenate([rows, cand[fresh]])
        seen = np.concatenate([seen, codes[fresh]])
    return rows[:need]


def _ids(rng, n: int, style: str) -> list[str]:
    numbers = rng.permutation(np.unique(rng.integers(10**6, 10**8, 2 * n)))[:n]
    if style == "wn":
        return [f"{int(x):08d}" for x in numbers]
    return [f"/m/0{np.base_repr(int(x), 32).lower()}" for x in numbers]


def _words(rng, vocab: list[str], p: np.ndarray, n_rows: int, width: int) -> list[list[str]]:
    idx = rng.choice(len(vocab), (n_rows, width), p=p)
    return [[vocab[i] for i in row] for row in idx]


def _names(rng, vocab, p, n: int) -> list[str]:
    """Unique two-word names; a collision gets its row number appended."""
    names, used = [], set()
    for i, (a, b) in enumerate(_words(rng, vocab, p, n, 2)):
        name = f"{a} {b}"
        if name in used:
            name = f"{name} {i}"
        used.add(name)
        names.append(name)
    return names


def _write_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{k}\t{v}\n" for k, v in pairs), encoding="utf-8", newline="\n")


def _write_triples(path: Path, triples) -> None:
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8", newline="\n")


def _write_graph(root: Path, rng, shape: dict, vocab, word_p, empty_desc_share: float = 0.0) -> dict:
    """Write one dataset directory; returns its texts and triples."""
    n_ent, n_rel = shape["n_entities"], shape["n_relations"]
    entities = _ids(rng, n_ent, shape["id_style"])
    # Names must be unique: two subjects with one name would issue one prompt.
    rel_names = _names(rng, vocab, word_p, n_rel)
    if shape["id_style"] == "wn":
        relations = [f"_{name.replace(' ', '_')}_{i}" for i, name in enumerate(rel_names)]
    else:
        relations = [f"/{name.replace(' ', '/')}/r{i}" for i, name in enumerate(rel_names)]
    names = _names(rng, vocab, word_p, n_ent)
    descs = [" ".join(words).capitalize() + "." for words in _words(rng, vocab, word_p, n_ent, shape["desc_tokens"])]
    if empty_desc_share:
        for i in np.flatnonzero(rng.random(n_ent) < empty_desc_share):
            descs[i] = ""

    need = shape["n_train"] + shape["n_valid"] + shape["n_test"]
    rows = _triples(rng, n_ent, n_rel, need)
    triples = [(entities[h], relations[r], entities[t]) for h, r, t in rows.tolist()]
    a, b = shape["n_train"], shape["n_train"] + shape["n_valid"]

    root.mkdir(parents=True, exist_ok=True)
    _write_triples(root / "train.txt", triples[:a])
    _write_triples(root / "valid.txt", triples[a:b])
    _write_triples(root / "test.txt", triples[b:])
    _write_pairs(root / "entity2text.txt", zip(entities, names))
    _write_pairs(root / "entity2textlong.txt", ((e, d) for e, d in zip(entities, descs) if d))
    _write_pairs(root / "relation2text.txt", zip(relations, rel_names))
    return dict(entities=entities, names=names, descs=descs, relations=relations, rel_names=rel_names,
                train=triples[:a])


def _text_inputs(inputs: Inputs, rng, shape: dict) -> None:
    from kgforge.gateway import GenerationParams, write_fixture
    from kgforge.templates import MODE_ORDER, render_entity_prompt, render_relation_prompt

    vocab = vocabulary()
    word_p = _zipf(len(vocab), TEXT_ZIPF, rng)
    g = _write_graph(inputs.dataset, rng, shape, vocab, word_p)
    params = GenerationParams()
    responses = _words(rng, vocab, word_p, len(g["entities"]), shape["response_tokens"])
    half = shape["response_tokens"] // 2
    expansions = [" ".join(w[:half]) + ".\n" + " ".join(w[half:]) + "." for w in responses]
    records = [
        (render_entity_prompt(name, subject_id=e).text, params, text)
        for e, name, text in zip(g["entities"], g["names"], expansions)
    ]
    mode_texts = {}
    for rel, name in zip(g["relations"], g["rel_names"]):
        for mode in MODE_ORDER:
            words = _words(rng, vocab, word_p, 1, shape["relation_tokens"])[0]
            text = " ".join(words).capitalize() + "."
            mode_texts[(rel, mode.value)] = text
            records.append((render_relation_prompt(name, mode, subject_id=rel).text, params, text))
    write_fixture(inputs.fixture, records)
    inputs.expect = dict(
        entities=g["entities"], descs=g["descs"], expansions=expansions,
        relations=g["relations"], rel_names=g["rel_names"],
        modes=[m.value for m in MODE_ORDER], mode_texts=mode_texts, n_prompts=len(records),
    )


def _keyword_response(rng, keywords: list[str]) -> str:
    """One of several list formats the keyword parser must normalise."""
    style = int(rng.integers(4))
    shown = [k.capitalize() if rng.random() < 0.3 else k for k in keywords]
    if style == 0:
        return ", ".join(shown)
    if style == 1:
        return "\n".join(f"{i}. {k}" for i, k in enumerate(shown, 1))
    if style == 2:
        return "\n".join(f"- {k}" for k in shown)
    return "; ".join(shown) + "."


def _structure_inputs(inputs: Inputs, rng, shape: dict) -> None:
    from kgforge.gateway import GenerationParams, write_fixture
    from kgforge.templates import render_keyword_prompt

    vocab = vocabulary()
    word_p = _zipf(len(vocab), TEXT_ZIPF, rng)
    g = _write_graph(inputs.dataset, rng, shape, vocab, word_p, shape["empty_desc_share"])
    kw_vocab = [f"{a} {b}" if i % 10 == 0 else a for i, (a, b) in
                enumerate(zip(vocab[: shape["keyword_vocab"]], vocab[::-1]))]
    kw_p = _zipf(len(kw_vocab), shape["keyword_zipf"], rng)
    params = GenerationParams()
    records, keyword_sets = [], {}
    for e, name, desc in zip(g["entities"], g["names"], g["descs"]):
        chosen = rng.choice(len(kw_vocab), shape["keywords"], replace=False, p=kw_p)
        keywords = [kw_vocab[i] for i in chosen]
        keyword_sets[e] = keywords
        prompt = render_keyword_prompt(desc or name, subject_id=e)
        records.append((prompt.text, params, _keyword_response(rng, keywords)))
    write_fixture(inputs.fixture, records)
    inputs.expect = dict(entities=g["entities"], keyword_sets=keyword_sets, train=g["train"])


def _eval_inputs(inputs: Inputs, rng, shape: dict) -> None:
    from kgforge import AugmentationBundle, Triple, kg_fingerprint, load_dataset

    vocab = vocabulary()
    word_p = _zipf(len(vocab), TEXT_ZIPF, rng)
    g = _write_graph(inputs.dataset, rng, shape, vocab, word_p)
    # The augmented side: one seeded SameAs partner per entity, as strategy S
    # with k=1 would add, so the A/B comparison has a real difference to score.
    entities = g["entities"]
    partners = (np.arange(len(entities)) + rng.integers(1, len(entities), len(entities))) % len(entities)
    extra = tuple(Triple(e, "SameAs", entities[j]) for e, j in zip(entities, partners.tolist()))
    kg = load_dataset(inputs.dataset)
    AugmentationBundle(kind="structure", fingerprint=kg_fingerprint(kg), extra_triples=extra).save(inputs.bundle)
    inputs.expect = dict(n_extra=len(extra))


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` under ``root``."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    inputs = Inputs(workload=workload, seed=seed, root=root, dataset=root / "dataset")
    if workload == "text-wn18rr":
        inputs.fixture = root / "responses.jsonl"
        _text_inputs(inputs, rng, shape)
    elif workload == "structure-4k":
        inputs.fixture = root / "responses.jsonl"
        _structure_inputs(inputs, rng, shape)
    else:
        inputs.bundle = root / "bundle_S"
        _eval_inputs(inputs, rng, shape)
    return inputs
