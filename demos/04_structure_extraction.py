"""Keyword matching and SameAs triple synthesis.

Keywords come back from the gateway, entity pairs are scored by
|intersection| / min(set sizes), each entity picks its top-k partners, and
the selected pairs become directed SameAs training triples (plus optional
self-loops).
"""

import tempfile
from pathlib import Path

from kgforge import (
    LlmGateway,
    ReplayBackend,
    StructureConfig,
    augment_training_set,
    extract_structure,
    parse_keywords,
    top_k_pairs,
)
from kgforge.synth import toy_graph, write_toy_fixture

# The pieces, by hand first: parsing tolerates lists, bullets, and casing.
print("parsed keywords:", parse_keywords("1. Film\n2. Director\n3. ACTION"))

keyword_sets = {
    "a": parse_keywords("film, director, action, producer, hollywood"),
    "b": parse_keywords("film, producer, studio, budget, hollywood"),
}
score = top_k_pairs(keyword_sets, StructureConfig(k=1))[0]  # a's best partner: b
print(f"match a~b: {score.n_matched} shared -> score {score.score}")

# The full pipeline against the replay fixture.
with tempfile.TemporaryDirectory(prefix="kgforge_demo_") as tmp:
    fixture = Path(tmp) / "replay.jsonl"
    write_toy_fixture(fixture)
    gateway = LlmGateway(ReplayBackend(fixture))

kg = toy_graph()
cfg = StructureConfig(k=1, self_loop=True)
bundle = extract_structure(kg, gateway, cfg)

n_loops = sum(1 for t in bundle.extra_triples if t.head == t.tail)
print(f"\nsynthesized {len(bundle.extra_triples)} triples "
      f"({len(bundle.extra_triples) - n_loops} pairs + {n_loops} self-loops)")
for triple in bundle.extra_triples[:4]:
    print("  ", tuple(triple))

augmented = augment_training_set(kg, bundle.extra_triples)
print(f"\ntrain grew {len(kg.train)} -> {len(augmented.train)}; "
      f"valid/test untouched: {augmented.valid == kg.valid and augmented.test == kg.test}")
