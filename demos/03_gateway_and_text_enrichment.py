"""Replay-backed enrichment: entity descriptions and relation texts.

A replay fixture is a JSONL file of recorded prompt/response pairs; running
against it touches no network and reproduces the same bundles every time.
The same gateway also supports live HTTP backends (see README), but every
demo here is offline.
"""

import tempfile
from pathlib import Path

from kgforge import (
    LlmGateway,
    RelationMode,
    ReplayBackend,
    describe_relations,
    expand_descriptions,
)
from kgforge.synth import toy_graph, write_toy_fixture

with tempfile.TemporaryDirectory(prefix="kgforge_demo_") as tmp:
    scratch = Path(tmp)
    fixture = scratch / "replay.jsonl"
    write_toy_fixture(fixture)

    kg = toy_graph()
    gateway = LlmGateway(ReplayBackend(fixture))

    # E: expand every entity description, merged under a 70-token budget.
    bundle_e = expand_descriptions(kg, gateway, budget_tokens=70)
    print("entity bundle:", len(bundle_e.entity_text), "texts,", len(bundle_e.errors), "errors")
    print("  /m/bryce merged:", bundle_e.entity_text["/m/bryce"][:90], "...")

    # Queries are cached by content: a second run costs zero backend calls.
    calls_before = gateway.backend.calls
    expand_descriptions(kg, gateway, budget_tokens=70)
    print("backend calls added by the rerun:", gateway.backend.calls - calls_before)

    # R: global + local explanations composed onto the relation name with [SEP].
    bundle_r = describe_relations(kg, gateway, modes={RelationMode.GLOBAL, RelationMode.LOCAL})
    composed = bundle_r.relation_text["/film/produced_by"]
    print("\nrelation text for produced by:")
    print(" ", composed[:120], "...")
    print("  parts joined by [SEP]:", composed.count("[SEP]") + 1)

    # Bundles serialize to a directory with the raw responses as an audit trail.
    out = bundle_e.save(scratch / "bundle_E")
    print("\nbundle written to", out)
    print("files:", sorted(p.name for p in out.iterdir()))
