"""Output checks: artifact digests and independent oracles for each workload.

Digests identify every artifact byte for byte; the gateway cache is digested
as a sorted set of records, because its append order follows thread timing.
The oracles recompute expected outputs from the generator's knowledge
without calling kgforge.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gen import Inputs
from pipeline import STRUCTURE_K, TEXT_COLD_BUDGET, TEXT_WARM_BUDGET

ARTIFACT_DIRS = {
    "text-wn18rr": ("cold", "warm", "composed"),
    "structure-4k": ("bundle_S", "composed"),
    "eval-fb237": ("composed",),
}
EVAL_FILES = ("comparison.json", "classification.txt")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workload: str, out: Path) -> dict[str, str]:
    """Relative artifact path -> SHA-256 of its bytes."""
    found = {}
    for d in ARTIFACT_DIRS[workload]:
        for f in sorted((out / d).rglob("*")):
            if f.is_file():
                found[f.relative_to(out).as_posix()] = _sha(f.read_bytes())
    if workload == "text-wn18rr":
        lines = sorted((out / "cache.jsonl").read_bytes().splitlines(keepends=True))
        found["cache.jsonl (sorted records)"] = _sha(b"".join(lines))
    if workload == "eval-fb237":
        for name in EVAL_FILES:
            found[name] = _sha((out / name).read_bytes())
    return found


def combined(found: dict[str, str]) -> str:
    return _sha(json.dumps(found, sort_keys=True).encode())[:16]


def _merge(original: str, generated: str, budget: int) -> str:
    kept = generated.split()[: budget - len(original.split())]
    return original + " " + " ".join(kept)


def _text(inputs: Inputs, out: Path) -> list[tuple[str, bool]]:
    x = inputs.expect

    def entity_file(budget):
        return "".join(
            f"{e}\t{_merge(d, g, budget)}\n" for e, d, g in zip(x["entities"], x["descs"], x["expansions"])
        )

    relation_file = "".join(
        f"{r}\t{name} " + " [SEP] ".join(" ".join(x["mode_texts"][(r, m)].split()) for m in x["modes"]) + "\n"
        for r, name in zip(x["relations"], x["rel_names"])
    )
    read = lambda rel: (out / rel).read_text(encoding="utf-8")  # noqa: E731
    cache = sorted((out / "cache.jsonl").read_bytes().splitlines())
    fixture = sorted(inputs.fixture.read_bytes().splitlines())
    return [
        ("cold entity texts merged under the cold budget", read("cold/bundle_E/entity_text.tsv") == entity_file(TEXT_COLD_BUDGET)),
        ("warm entity texts merged under the warm budget", read("warm/bundle_E/entity_text.tsv") == entity_file(TEXT_WARM_BUDGET)),
        ("cold relation texts composed in mode order", read("cold/bundle_R/relation_text.tsv") == relation_file),
        ("warm relation texts equal the cold ones", read("warm/bundle_R/relation_text.tsv") == relation_file),
        ("entity audit with retries equals the retry-free warm audit",
         read("cold/bundle_E/audit.json") == read("warm/bundle_E/audit.json")),
        ("relation audit with retries equals the retry-free warm audit",
         read("cold/bundle_R/audit.json") == read("warm/bundle_R/audit.json")),
        ("cache holds exactly the fixture records", cache == fixture),
    ]


def expected_structure(keyword_sets: dict[str, list[str]], entities: list[str], k: int) -> list[tuple]:
    """Top-k SameAs pairs per head (score desc, tail id asc) plus self-loops.

    Shared-keyword counts come from a keyword x entity incidence matrix, one
    vectorised row sum per head, instead of kgforge's pairwise set loop.
    """
    heads = sorted(keyword_sets)
    sets = [set(keyword_sets[h]) for h in heads]
    column = {w: j for j, w in enumerate(sorted(set().union(*sets)))}
    incidence = np.zeros((len(column), len(heads)), dtype=np.int16)
    for i, words in enumerate(sets):
        incidence[[column[w] for w in words], i] = 1
    sizes = incidence.sum(axis=0)
    triples = []
    for i, head in enumerate(heads):
        shared = incidence[[column[w] for w in sets[i]]].sum(axis=0)
        shared[i] = 0
        tails = np.flatnonzero(shared)
        scores = shared[tails] / np.minimum(sizes[i], sizes[tails])
        best = tails[np.lexsort((tails, -scores))[:k]]
        triples += [(head, "SameAs", heads[t]) for t in best]
    triples += [(e, "SameAs", e) for e in entities if e in keyword_sets]
    return triples


def _structure(inputs: Inputs, out: Path) -> list[tuple[str, bool]]:
    x = inputs.expect
    extra = expected_structure(x["keyword_sets"], x["entities"], STRUCTURE_K)
    lines = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in extra)
    train = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in x["train"])
    keywords = json.dumps(x["keyword_sets"], indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    bundle = out / "bundle_S"
    return [
        ("keyword sets parsed from every response format", (bundle / "keywords.json").read_text(encoding="utf-8") == keywords),
        ("SameAs triples equal the incidence-matrix oracle", (bundle / "extra_triples.tsv").read_text(encoding="utf-8") == lines),
        ("augmented train is base train plus extras", (bundle / "train_augmented.txt").read_text(encoding="utf-8") == train + lines),
        ("composed train is base train plus extras", (out / "composed" / "train.txt").read_text(encoding="utf-8") == train + lines),
    ]


def _eval(inputs: Inputs, out: Path) -> list[tuple[str, bool]]:
    from gen import SHAPES

    shape = SHAPES[inputs.workload]
    report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    sides = [row[side] for row in report["rows"] for side in ("base", "augmented")]
    accuracy = float((out / "classification.txt").read_text(encoding="utf-8"))
    n_train = sum(1 for _ in (out / "composed" / "train.txt").open(encoding="utf-8"))

    def sane(side):
        unit = all(0.0 <= side[m] <= 1.0 for m in ("mrr", "hits1", "hits3", "hits10"))
        return unit and math.isfinite(side["mr"]) and side["mr"] >= 1.0 and side["hits1"] <= side["hits3"] <= side["hits10"]

    return [
        ("every test triple ranked both ways on both sides", all(s["n_queries"] == 2 * shape["n_test"] for s in sides)),
        ("ranking metrics finite and in range", all(sane(s) for s in sides)),
        ("classification accuracy in [0, 1]", 0.0 <= accuracy <= 1.0),
        ("composed train is base train plus SameAs triples", n_train == shape["n_train"] + inputs.expect["n_extra"]),
    ]


ORACLES = {"text-wn18rr": _text, "structure-4k": _structure, "eval-fb237": _eval}


def oracle(inputs: Inputs, out: Path) -> list[tuple[str, bool]]:
    return ORACLES[inputs.workload](inputs, out)
