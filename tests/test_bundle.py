"""Bundle serialization and composition onto base graphs."""

import copy
import itertools
import json
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgforge.bundle import AugmentationBundle, AuditItem, FingerprintMismatchError, apply_bundles, write_json
from kgforge.entity import expand_descriptions
from kgforge.gateway import LlmGateway, ReplayBackend
from kgforge.kg import (
    FormatError,
    KnowledgeGraph,
    Triple,
    augment_training_set,
    dataset_stats,
    kg_fingerprint,
    load_dataset,
    write_dataset,
)
from kgforge.relation import describe_relations
from kgforge.structure import StructureConfig, extract_structure, synthesize_triples, top_k_pairs
from kgforge.synth import toy_graph
from kgforge.templates import MODE_ORDER, RelationMode


@pytest.fixture
def bundles(replay_gateway):
    kg = toy_graph()
    return {
        "E": expand_descriptions(kg, replay_gateway),
        "R": describe_relations(kg, replay_gateway, modes={RelationMode.GLOBAL}),
        "S": extract_structure(kg, replay_gateway, StructureConfig(k=1, self_loop=True)),
    }


def test_write_json_streams_the_text_of_json_dumps(tmp_path):
    payload = {"z": ["é", "\u2028", 1.5], "a": {"nested": None, "ünïcode": [True]}, "": []}
    path = tmp_path / "sub" / "out.json"
    write_json(path, payload)
    expected = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_save_load_round_trip(bundles, tmp_path):
    for key, bundle in bundles.items():
        out = bundle.save(tmp_path / key, base_kg=toy_graph())
        loaded = AugmentationBundle.load(out)
        assert loaded.kind == bundle.kind
        assert loaded.fingerprint == bundle.fingerprint
        assert loaded.entity_text == bundle.entity_text
        assert loaded.relation_text == bundle.relation_text
        assert loaded.extra_triples == bundle.extra_triples
        assert loaded.keyword_sets == bundle.keyword_sets
        assert loaded.items == bundle.items


#: Audit strings: any character but a lone surrogate, often a quote, backslash, control, U+2028 or non-BMP one.
audit_text = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\n\x00\u2028\U0001f600'), max_size=8)
audit_items = st.builds(
    AuditItem,
    subject=audit_text,
    prompt_hash=st.none() | audit_text,
    response=st.none() | audit_text,
    error=st.none() | audit_text,
    mode=st.none() | audit_text,
    flags=st.lists(audit_text, max_size=2).map(tuple),
)
#: A top-level value the loader ignores.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | audit_text,
    lambda values: st.lists(values, max_size=2) | st.dictionaries(audit_text, values, max_size=2),
    max_leaves=4,
)
#: Strings that look like the lines of save's layout, which the reader splits on.
LAYOUT_TEXT = ("    {", "},", '  "items": [', "    }", "\n", "\u2028")


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(audit_items, max_size=3),
    note=json_values,
    indent=st.sampled_from([None, 1, 2, 4]),
    sort_keys=st.booleans(),
    ensure_ascii=st.booleans(),
    junk=st.text(min_size=1, max_size=3).filter(lambda text: text.strip(" \t\n\r")),
)
@example(
    items=[AuditItem("\U0001f600\u2028", "h", "1e5", None, "m", ("\\", '"'))],
    note=[-1.5e-07, True, None], indent=None, sort_keys=False, ensure_ascii=True, junk="x",
)
# The layout save writes, with no items and with items whose strings and flags look like its lines.
@example(items=[], note=None, indent=2, sort_keys=True, ensure_ascii=False, junk="]")
@example(
    items=[AuditItem(text, text, text, text, text, LAYOUT_TEXT) for text in LAYOUT_TEXT],
    note={"items": [{"subject": "n"}]}, indent=2, sort_keys=True, ensure_ascii=False, junk="}",
)
def test_load_reads_audit_json_in_any_layout_as_json_loads_does(tmp_path_factory, items, note, indent, sort_keys, ensure_ascii, junk):
    out = tmp_path_factory.mktemp("audit")
    audit = {"fingerprint": "f", "items": [vars(item) for item in items], "kind": "entity", "note": note, "schema_version": 1}
    text = json.dumps(audit, indent=indent, sort_keys=sort_keys, ensure_ascii=ensure_ascii) + "\n"
    path = out / "audit.json"
    path.write_text(text, encoding="utf-8")
    loaded = AugmentationBundle.load(out)
    expected = json.loads(text)
    parsed = [AuditItem.from_dict(item, "item") for item in expected["items"]]
    assert (loaded.kind, loaded.fingerprint, loaded.items) == (expected["kind"], expected["fingerprint"], parsed)
    # Every cut into the text and any trailing non-whitespace is a syntax error, as for json.loads.
    for bad in [text[:end] for end in range(len(text.rstrip()))] + [text + junk]:
        with pytest.raises(ValueError):
            json.loads(bad)
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(ValueError, match=r"audit\.json:\d+: invalid JSON: "):
            AugmentationBundle.load(out)


def _saved_audit_lines(tmp_path, n_items: int) -> list[str]:
    """The lines of a saved entity bundle's audit.json with ``n_items`` items."""
    items = [AuditItem(f"/m/{i}", prompt_hash=f"{i:064x}", response="r", flags=("f",)) for i in range(n_items)]
    out = AugmentationBundle("entity", kg_fingerprint(toy_graph()), items=items).save(tmp_path)
    return (out / "audit.json").read_text(encoding="utf-8").splitlines(keepends=True)


def test_a_syntax_error_after_many_items_names_its_file_line(tmp_path):
    lines = _saved_audit_lines(tmp_path, 1000)
    number = lines.index('  "kind": "entity",\n')
    lines[number] = '  "kind": "entity" "entity",\n'
    (tmp_path / "audit.json").write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"audit\.json:{number + 1}: invalid JSON: Expecting ',' delimiter$"):
        AugmentationBundle.load(tmp_path)


@pytest.mark.parametrize("fault", ["missing-comma", "trailing-comma", "unclosed-block", "inline-and-blocks"])
def test_load_rejects_a_broken_item_block_at_its_file_line(tmp_path, fault):
    lines = _saved_audit_lines(tmp_path, 3)
    starts = [number for number, line in enumerate(lines, 1) if line == "    {\n"]
    ends = [number for number, line in enumerate(lines, 1) if line.startswith("    }")]
    if fault == "missing-comma":
        lines[ends[0] - 1] = "    }\n"
    elif fault == "trailing-comma":
        lines[ends[-1] - 1] = "    },\n"
    elif fault == "unclosed-block":
        del lines[ends[-1] - 1 :]
        expected = f"{starts[-1]}: invalid JSON: item block not closed"
    else:
        # Valid JSON, but the streamed blocks would not be the items.
        lines.insert(ends[0], '    "an item",\n')
        expected = f"{starts[0]}: items written both inline and as blocks"
    text = "".join(lines)
    if fault.endswith("comma"):
        # A fault between blocks reads as json.loads reports it on the whole text.
        with pytest.raises(json.JSONDecodeError) as error:
            json.loads(text)
        expected = f"{error.value.lineno}: invalid JSON: {error.value.msg}"
    (tmp_path / "audit.json").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"audit\.json:{re.escape(expected)}$"):
        AugmentationBundle.load(tmp_path)


def test_load_and_apply_hold_a_small_share_of_a_large_audit(tmp_path):
    kg = toy_graph()
    bundle = AugmentationBundle("entity", kg_fingerprint(kg), entity_text={"/m/bay": "A director."})
    response = "word " * 200
    bundle.items = [AuditItem(f"/m/{i}", prompt_hash=f"{i:064x}", response=response) for i in range(6000)]
    out = bundle.save(tmp_path / "E")
    del bundle
    size = (out / "audit.json").stat().st_size
    tracemalloc.start()
    try:
        composed = apply_bundles(kg, [AugmentationBundle.load(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert composed.desc_of("/m/bay") == "A director."
    # A whole-text parse holds the text and every item at once: over twice the file's size.
    assert peak < size / 4, (peak, size)


def test_loaded_structure_bundle_rederives_its_triples(bundles, tmp_path):
    kg, cfg = toy_graph(), StructureConfig(k=1, self_loop=True)
    loaded = AugmentationBundle.load(bundles["S"].save(tmp_path / "S"))
    pairs = top_k_pairs(loaded.keyword_sets, cfg)
    # keywords.json is key-sorted, so self-loops take graph order from the graph.
    loops = [entity for entity in kg.entity_name if entity in loaded.keyword_sets]
    assert loaded.extra_triples
    assert tuple(synthesize_triples(pairs, kg, cfg, loops)) == loaded.extra_triples


def run_strategy(strategy, kg, fixture_path):
    """The bundle of one strategy over a fresh replay gateway, and the backend calls it made."""
    gateway = LlmGateway(ReplayBackend(fixture_path))
    if strategy == "E":
        bundle = expand_descriptions(kg, gateway)
    elif strategy == "R":
        bundle = describe_relations(kg, gateway, modes=MODE_ORDER)
    else:
        bundle = extract_structure(kg, gateway, StructureConfig(k=1, self_loop=True))
    return bundle, gateway.backend.calls


@pytest.mark.parametrize("strategy", ["E", "R", "S"])
def test_an_empty_name_fails_only_its_own_items(toy_fixture_path, strategy):
    kg = toy_graph()
    if strategy == "R":
        subject, field = "/film/release_region", "{Relation Name}"
        blank = replace(kg, relation_name={**kg.relation_name, subject: ""})
    else:
        subject = "/m/la"
        field = "{Entity Name}" if strategy == "E" else "{Entity Description}"
        # S falls back from an empty description to the name, so both are blanked.
        desc = {e: text for e, text in kg.entity_desc.items() if e != subject}
        blank = replace(kg, entity_name={**kg.entity_name, subject: ""}, entity_desc=desc)
    full, full_calls = run_strategy(strategy, kg, toy_fixture_path)
    bundle, calls = run_strategy(strategy, blank, toy_fixture_path)

    assert [(i.subject, i.mode) for i in bundle.items] == [(i.subject, i.mode) for i in full.items]
    failed = [item for item in bundle.items if item.subject == subject]
    assert bundle.errors == failed and len(failed) == (3 if strategy == "R" else 1)
    for item in failed:
        assert (item.prompt_hash, item.response) == (None, None)
        assert item.error == f"cannot fill {field} with an empty string"
        assert item.flags == (("name fallback",) if strategy == "S" else ())
    assert [i for i in bundle.items if i.subject != subject] == [i for i in full.items if i.subject != subject]
    assert calls == full_calls - len(failed)
    if strategy == "S":
        assert subject not in bundle.keyword_sets
        # With its description kept, an empty name changes nothing.
        named = replace(kg, entity_name={**kg.entity_name, subject: ""})
        assert run_strategy(strategy, named, toy_fixture_path)[0].items == full.items


def test_load_rejects_unknown_schema_version(bundles, tmp_path):
    out = bundles["E"].save(tmp_path / "E")
    audit_path = out / "audit.json"
    audit = json.loads(audit_path.read_text(encoding="utf-8"))
    # True == 1 and 1.0 == 1, but neither is the integer 1.
    for version in (2, True, 1.0):
        write_json(audit_path, {**audit, "schema_version": version})
        with pytest.raises(ValueError, match=f"schema_version {version!r} "):
            AugmentationBundle.load(out)


def test_loaded_items_are_not_read_from_a_replaced_audit(tmp_path):
    fingerprint = kg_fingerprint(toy_graph())
    AugmentationBundle("entity", fingerprint, items=[AuditItem("/m/bay", response="r")]).save(tmp_path)
    loaded = AugmentationBundle.load(tmp_path)
    AugmentationBundle("relation", "0" * 64, items=[AuditItem("/film/directed_by", error="e")]).save(tmp_path)
    with pytest.raises(ValueError, match="audit.json was replaced after its bundle was loaded$"):
        loaded.errors
    assert AugmentationBundle.load(tmp_path).errors == [AuditItem("/film/directed_by", error="e")]


def test_load_rejects_malformed_triple_line(bundles, tmp_path):
    out = bundles["S"].save(tmp_path / "S")
    (out / "extra_triples.tsv").write_text("a\tSameAs\tb\n\nnot a triple\n", encoding="utf-8")
    with pytest.raises(
        FormatError, match="^extra_triples.tsv:2: expected 3 tab-separated fields, got 1$"
    ):
        AugmentationBundle.load(out)


def test_structure_bundle_writes_merged_train(bundles, tmp_path):
    kg = toy_graph()
    out = bundles["S"].save(tmp_path / "S", base_kg=kg)
    merged_lines = (out / "train_augmented.txt").read_text(encoding="utf-8").splitlines()
    assert len(merged_lines) == len(kg.train) + len(bundles["S"].extra_triples)
    assert merged_lines[: len(kg.train)] == ["\t".join(t) for t in kg.train]


def test_apply_is_order_insensitive(bundles):
    kg = toy_graph()
    reference = apply_bundles(kg, [bundles["E"], bundles["R"], bundles["S"]])
    for order in itertools.permutations("ERS"):
        assert apply_bundles(kg, [bundles[key] for key in order]) == reference


@pytest.mark.parametrize("key", ["E", "S"])
def test_apply_rejects_two_bundles_of_one_kind_in_either_order(bundles, key):
    bundle = bundles[key]
    if key == "E":
        pair = [replace(bundle, entity_text={"/m/bay": text}) for text in ("A", "B")]
    else:
        pair = [bundle, replace(bundle, extra_triples=bundle.extra_triples[:1])]
    for order in (pair, pair[::-1]):
        with pytest.raises(ValueError, match=f"^2 {bundle.kind} bundles given"):
            apply_bundles(toy_graph(), [bundles["R"], *order])


def test_apply_effects(bundles):
    kg = toy_graph()
    composed = apply_bundles(kg, list(bundles.values()))
    stats = dataset_stats(composed)
    assert stats.n_train == len(kg.train) + len(bundles["S"].extra_triples)
    assert stats.n_entities == 8
    assert stats.n_relations == 4  # SameAs added
    assert composed.valid == kg.valid and composed.test == kg.test
    assert composed.desc_of("/m/bay") == bundles["E"].entity_text["/m/bay"]
    assert composed.relation_name["/film/directed_by"] == bundles["R"].relation_text["/film/directed_by"]


def test_composed_fingerprint_golden_value(bundles):
    composed = apply_bundles(toy_graph(), list(bundles.values()))
    assert kg_fingerprint(composed) == (
        "6af9ab54432869143ae74883141f80d14d0bc19f1092dd1f8b55b93aa4deec3b"
    )


def test_apply_nothing_is_identity(toy_kg):
    assert apply_bundles(toy_kg, []) == toy_kg


def test_fingerprint_mismatch_rejected(bundles):
    kg = toy_graph()
    stale = bundles["E"]
    stale.fingerprint = "0" * 64
    with pytest.raises(FingerprintMismatchError):
        apply_bundles(kg, [stale])


def test_composed_dataset_round_trips_through_disk(bundles, tmp_path):
    kg = toy_graph()
    composed = apply_bundles(kg, [bundles["S"]])
    out = tmp_path / "composed"
    write_dataset(composed, out)
    reloaded = load_dataset(out)
    assert dataset_stats(reloaded) == dataset_stats(composed)
    assert kg_fingerprint(reloaded) == kg_fingerprint(composed)


def test_text_files_hold_one_line_per_pair_and_round_trip(tmp_path):
    kg = toy_graph()
    fingerprint = kg_fingerprint(kg)
    odd = "\tcol 2\u2028é 中 😀"
    texts = {
        "entity_text.tsv": {entity: f"{kg.entity_name[entity]}{odd}" for entity in kg.entity_name},
        "relation_text.tsv": {relation: f"is {relation}{odd}" for relation in kg.relation_name},
    }
    bundles = [
        AugmentationBundle("entity", fingerprint, entity_text=texts["entity_text.tsv"]),
        AugmentationBundle("relation", fingerprint, relation_text=texts["relation_text.tsv"]),
    ]
    loaded = []
    for bundle, (name, pairs) in zip(bundles, texts.items()):
        out = bundle.save(tmp_path / bundle.kind)
        assert (out / name).read_bytes() == "".join(f"{k}\t{v}\n" for k, v in pairs.items()).encode("utf-8")
        loaded.append(AugmentationBundle.load(out))
    assert loaded[0].entity_text == texts["entity_text.tsv"]
    assert loaded[1].relation_text == texts["relation_text.tsv"]
    composed, recomposed = apply_bundles(kg, bundles), apply_bundles(kg, loaded)
    assert recomposed == composed
    assert kg_fingerprint(recomposed) == kg_fingerprint(composed)
    assert composed.desc_of("/m/bay").endswith(odd)


#: The one kind that may carry each payload field, and a value for it over the toy graph.
PAYLOADS = {
    "entity_text": ("entity", {"/m/bay": "A director."}),
    "relation_text": ("relation", {"/film/directed_by": "is directed by"}),
    "extra_triples": ("structure", (Triple("/m/bay", "SameAs", "/m/la"),)),
    "keyword_sets": ("structure", {"/m/bay": ("film",)}),
}


@pytest.mark.parametrize(
    ("kind", "name"),
    [(kind, name) for kind in ("entity", "relation", "structure") for name, (owner, _) in PAYLOADS.items() if owner != kind],
)
def test_a_bundle_with_another_kinds_payload_is_rejected(tmp_path, kind, name):
    owner, value = PAYLOADS[name]
    assert getattr(AugmentationBundle(owner, "f", **{name: value}), name) == value
    message = f"^{kind} bundle carries {name}; only {owner} bundles carry it$"
    with pytest.raises(ValueError, match=message):
        AugmentationBundle(kind, "f", **{name: value})
    # A caller may fill a bundle after constructing it, so save checks again before writing.
    bundle = AugmentationBundle(kind, "f")
    setattr(bundle, name, value)
    with pytest.raises(ValueError, match=message):
        bundle.save(tmp_path / kind)
    assert not (tmp_path / kind).exists()


def test_each_strategy_builds_its_bundle_in_one_construction(replay_gateway, monkeypatch):
    built = []
    post_init = AugmentationBundle.__post_init__

    def counted(bundle):
        # What the bundle holds at construction, which the payload check sees.
        built.append((bundle, {name: copy.copy(value) for name, value in vars(bundle).items()}))
        post_init(bundle)

    monkeypatch.setattr(AugmentationBundle, "__post_init__", counted)
    kg = toy_graph()
    for strategy in (
        lambda: expand_descriptions(kg, replay_gateway),
        lambda: describe_relations(kg, replay_gateway, modes=MODE_ORDER),
        lambda: extract_structure(kg, replay_gateway, StructureConfig(k=1, self_loop=True)),
    ):
        built.clear()
        bundle = strategy()
        assert len(built) == 1 and built[0][0] is bundle
        assert built[0][1] == vars(bundle)
        assert bundle.items and all(item.error is None for item in bundle.items)


@pytest.mark.parametrize("name", list(PAYLOADS))
def test_a_reused_bundle_directory_keeps_no_old_payload(tmp_path, name):
    kind, value = PAYLOADS[name]
    AugmentationBundle(kind, "f", **{name: value}).save(tmp_path, base_kg=toy_graph())
    # Every generation failed, so the payload is empty; the save goes to the same directory.
    AugmentationBundle(kind, "f").save(tmp_path)
    assert getattr(AugmentationBundle.load(tmp_path), name) == type(value)()
    files = {
        "entity": ["audit.json", "entity_text.tsv"],
        "relation": ["audit.json", "relation_text.tsv"],
        "structure": ["audit.json", "extra_triples.tsv", "keywords.json"],
    }
    assert sorted(path.name for path in tmp_path.iterdir()) == files[kind]


@pytest.mark.parametrize(("first", "second"), list(itertools.permutations(["entity_text", "relation_text", "extra_triples"], 2)))
def test_a_bundle_directory_reused_by_another_kind_keeps_no_old_payload(tmp_path, first, second):
    (kind, value), (second_kind, second_value) = PAYLOADS[first], PAYLOADS[second]
    structure = {"keyword_sets": PAYLOADS["keyword_sets"][1]} if kind == "structure" else {}
    AugmentationBundle(kind, "f", **{first: value}, **structure).save(tmp_path, base_kg=toy_graph())
    AugmentationBundle(second_kind, "f", **{second: second_value}).save(tmp_path)
    loaded = AugmentationBundle.load(tmp_path)
    assert (loaded.kind, getattr(loaded, second)) == (second_kind, second_value)
    names = {"entity_text": ["entity_text.tsv"], "relation_text": ["relation_text.tsv"], "extra_triples": ["extra_triples.tsv", "keywords.json"]}
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["audit.json", *names[second]])


@pytest.mark.parametrize(
    ("key", "file_name", "content", "name"),
    [
        ("E", "extra_triples.tsv", "/m/bay\tSameAs\t/m/la\n", "extra_triples"),
        ("E", "keywords.json", '{"/m/bay": ["film"]}', "keyword_sets"),
        ("R", "entity_text.tsv", "/m/bay\tA director.\n", "entity_text"),
        ("S", "relation_text.tsv", "/film/directed_by\tis directed by\n", "relation_text"),
    ],
    ids=["E-extra_triples", "E-keywords", "R-entity_text", "S-relation_text"],
)
def test_load_rejects_a_stray_payload_file(bundles, tmp_path, key, file_name, content, name):
    out = bundles[key].save(tmp_path / key)
    (out / file_name).write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{bundles[key].kind} bundle carries {name}; "):
        AugmentationBundle.load(out)


def test_apply_constructs_one_graph(bundles, monkeypatch):
    kg, built = toy_graph(), []
    post_init = KnowledgeGraph.__post_init__

    def counted(graph):
        built.append(graph)
        post_init(graph)

    monkeypatch.setattr(KnowledgeGraph, "__post_init__", counted)
    composed = apply_bundles(kg, [bundles["E"], bundles["R"], bundles["S"]])
    assert len(built) == 1 and built[0] is composed


@pytest.mark.parametrize(
    ("kind", "payload", "message"),
    [
        ("entity", {"entity_text": {"/m/ghost": "x"}}, "bundle text for unknown entity '/m/ghost'"),
        # SameAs is new in the structure bundle; a text may name only base ids.
        ("relation", {"relation_text": {"SameAs": "x"}}, "bundle text for unknown relation 'SameAs'"),
    ],
)
def test_apply_rejects_a_text_for_an_unknown_id(bundles, kind, payload, message):
    kg = toy_graph()
    bundle = AugmentationBundle(kind, kg_fingerprint(kg), **payload)
    for order in ([bundle, bundles["S"]], [bundles["S"], bundle]):
        with pytest.raises(FingerprintMismatchError, match=f"^{re.escape(message)}$"):
            apply_bundles(kg, order)


def test_derived_graphs_keep_the_base_load_warnings(tmp_path):
    write_dataset(toy_graph(), tmp_path)
    with (tmp_path / "train.txt").open("a", encoding="utf-8") as fh:
        fh.write("/m/ghost\t/film/directed_by\t/m/bay\n")
    kg = load_dataset(tmp_path, mode="lenient")
    assert len(kg.load_warnings) == 1
    fingerprint = kg_fingerprint(kg)
    # One bundle per kind: entity text, relation text and extra triples.
    payloads = list(PAYLOADS.items())[:3]
    bundles = [AugmentationBundle(owner, fingerprint, **{name: value}) for name, (owner, value) in payloads]
    derived = [augment_training_set(kg, PAYLOADS["extra_triples"][1]), apply_bundles(kg, []), apply_bundles(kg, bundles)]
    derived += [apply_bundles(kg, [bundle]) for bundle in bundles]
    for graph in derived:
        assert graph.load_warnings == kg.load_warnings
