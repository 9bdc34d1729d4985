"""Deterministic fixture data: a small film graph and a planted-alias benchmark.

The toy graph (8 entities, 3 relations, 12/2/2 triples) backs the unit and
acceptance suites together with a canned replay fixture covering every prompt
the enrichment pipeline would issue against it.

The planted-alias generator builds a graph where selected entities are split
into alias pairs: each alias carries half of the original neighborhood, the
pair shares an identical oracle keyword set, and the held-out test triples
connect each alias to the half it never saw in training. Linking the aliases
is then the only path to those targets, which is exactly what the structure
augmentation synthesizes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .gateway import GenerationParams, write_fixture
from .kg import KnowledgeGraph, Triple, write_dataset
from .templates import (
    MODE_ORDER,
    RelationMode,
    render_entity_prompt,
    render_keyword_prompt,
    render_relation_prompt,
)

TOY_ENTITIES = (
    ("/m/bay", "Michael Bay", "An American film director and producer."),
    ("/m/bryce", "Ian Bryce", "A film producer."),
    ("/m/dotm", "Transformers: Dark of the Moon", "A 2011 science fiction action film."),
    ("/m/armageddon", "Armageddon", "A 1998 American science fiction disaster film."),
    ("/m/par", "Paramount Pictures", "An American film studio."),
    ("/m/spielberg", "Steven Spielberg", "An American filmmaker."),
    ("/m/usa", "United States", "A country in North America."),
    ("/m/la", "Los Angeles", "A city in California."),
)

TOY_RELATIONS = (
    ("/film/directed_by", "directed by"),
    ("/film/produced_by", "produced by"),
    ("/film/release_region", "release region"),
)

TOY_TRAIN = (
    Triple("/m/dotm", "/film/directed_by", "/m/bay"),
    Triple("/m/dotm", "/film/produced_by", "/m/bryce"),
    Triple("/m/dotm", "/film/produced_by", "/m/par"),
    Triple("/m/dotm", "/film/produced_by", "/m/spielberg"),
    Triple("/m/dotm", "/film/release_region", "/m/usa"),
    Triple("/m/dotm", "/film/release_region", "/m/la"),
    Triple("/m/armageddon", "/film/directed_by", "/m/bay"),
    Triple("/m/armageddon", "/film/produced_by", "/m/bryce"),
    Triple("/m/armageddon", "/film/produced_by", "/m/par"),
    Triple("/m/armageddon", "/film/produced_by", "/m/bay"),
    Triple("/m/armageddon", "/film/release_region", "/m/usa"),
    Triple("/m/armageddon", "/film/release_region", "/m/la"),
)

TOY_VALID = (
    Triple("/m/dotm", "/film/produced_by", "/m/bay"),
    Triple("/m/la", "/film/release_region", "/m/usa"),
)

TOY_TEST = (
    Triple("/m/armageddon", "/film/produced_by", "/m/spielberg"),
    Triple("/m/bryce", "/film/produced_by", "/m/par"),
)

#: Canned keyword responses, written so some pairs overlap strongly (directors,
#: films) and the geography entities overlap nobody.
TOY_KEYWORD_RESPONSES = {
    "/m/bay": "film, director, action, hollywood, producer",
    "/m/bryce": "film, producer, hollywood, studio, budget",
    "/m/dotm": "robots, action, film, sequel, sci-fi",
    "/m/armageddon": "asteroid, action, film, disaster, sci-fi",
    "/m/par": "studio, film, hollywood, production, entertainment",
    "/m/spielberg": "film, director, hollywood, producer, drama",
    "/m/usa": "country, north america, states, nation, government",
    "/m/la": "city, california, entertainment, west coast, metropolis",
}


def toy_graph() -> KnowledgeGraph:
    """The bundled 8-entity film graph (12/2/2 split)."""
    return KnowledgeGraph(
        entity_name={eid: name for eid, name, _ in TOY_ENTITIES},
        relation_name=dict(TOY_RELATIONS),
        entity_desc={eid: desc for eid, _, desc in TOY_ENTITIES},
        train=TOY_TRAIN,
        valid=TOY_VALID,
        test=TOY_TEST,
    )


def _canned_expansion(name: str) -> str:
    return (
        f"{name} is a well-known name in the film world. Rationale: the graph links it to "
        f"films, studios, and filmmakers, so a film-industry profile is the consistent reading."
    )


def _canned_relation_text(name: str, mode: RelationMode) -> str:
    if mode is RelationMode.GLOBAL:
        return f"The relation {name} connects works with the people, companies, or places involved in them."
    if mode is RelationMode.LOCAL:
        return f"The triplet states that the head entity is {name} the tail entity, as in a film and its contributor."
    return f"To be {name} something means the action was performed on the head entity by the tail entity."


def toy_fixture_records(
    params: GenerationParams | None = None,
) -> list[tuple[str, GenerationParams, str]]:
    """Every (prompt, params, response) the pipeline issues against the toy graph."""
    params = params or GenerationParams()
    kg = toy_graph()
    records = []
    for entity, name in kg.entity_name.items():
        prompt = render_entity_prompt(name, subject_id=entity)
        records.append((prompt.text, params, _canned_expansion(name)))
    for relation, name in kg.relation_name.items():
        for mode in MODE_ORDER:
            prompt = render_relation_prompt(name, mode, subject_id=relation)
            records.append((prompt.text, params, _canned_relation_text(name, mode)))
    for entity, name in kg.entity_name.items():
        source = kg.desc_of(entity) or name
        prompt = render_keyword_prompt(source, subject_id=entity)
        records.append((prompt.text, params, TOY_KEYWORD_RESPONSES[entity]))
    return records


def write_toy_dataset(root: str | Path) -> KnowledgeGraph:
    kg = toy_graph()
    write_dataset(kg, root)
    return kg


def write_toy_fixture(path: str | Path, params: GenerationParams | None = None) -> int:
    return write_fixture(path, toy_fixture_records(params))


def planted_alias_graph(
    n_background: int = 40,
    n_alias_pairs: int = 10,
    neighbors_per_pair: int = 6,
    seed: int = 13,
) -> tuple[KnowledgeGraph, dict[str, tuple[str, ...]]]:
    """Graph with alias pairs plus oracle keyword sets for the aliases.

    Returns the base graph and the keyword sets ready for ``top_k_pairs``:
    entity id -> keyword tuple, in graph order. Each alias pair shares one
    unique five-keyword set, every background entity gets five keywords
    nobody else has. Test triples connect each alias to
    one neighbor from its partner's training half, in the pair's relation.
    """
    if neighbors_per_pair < 2 or neighbors_per_pair % 2:
        raise ValueError("neighbors_per_pair must be even and >= 2")
    rng = np.random.default_rng(seed)
    backgrounds = [f"bg{i:02d}" for i in range(n_background)]
    relations = ["rel_a", "rel_b", "rel_c"]

    entity_name: dict[str, str] = {b: f"Background {i}" for i, b in enumerate(backgrounds)}
    keyword_sets: dict[str, tuple[str, ...]] = {
        b: tuple(f"bg{i}kw{j}" for j in range(5)) for i, b in enumerate(backgrounds)
    }
    alias_pairs: list[tuple[str, str]] = []
    for p in range(n_alias_pairs):
        xa, xb = f"alias{p:02d}_a", f"alias{p:02d}_b"
        alias_pairs.append((xa, xb))
        entity_name[xa] = f"Alias {p} left"
        entity_name[xb] = f"Alias {p} right"
        shared = tuple(f"pair{p}kw{j}" for j in range(5))
        keyword_sets[xa] = keyword_sets[xb] = shared

    seen: set[Triple] = set()

    def fresh(head: str, relation: str, tail: str) -> Triple | None:
        triple = Triple(head, relation, tail)
        if head == tail or triple in seen:
            return None
        seen.add(triple)
        return triple

    train: list[Triple] = []
    for i, b in enumerate(backgrounds):
        added = 0
        while added < 3:
            j = int(rng.integers(n_background))
            triple = fresh(b, relations[int(rng.integers(len(relations)))], backgrounds[j])
            if triple is not None:
                train.append(triple)
                added += 1

    test: list[Triple] = []
    half = neighbors_per_pair // 2
    for p, (xa, xb) in enumerate(alias_pairs):
        relation = relations[p % len(relations)]
        neighbor_idx = rng.choice(n_background, size=neighbors_per_pair, replace=False)
        neighbors = [backgrounds[int(i)] for i in neighbor_idx]
        half_a, half_b = neighbors[:half], neighbors[half:]
        for n in half_a:
            train.append(Triple(xa, relation, n))
            seen.add(train[-1])
        for n in half_b:
            train.append(Triple(xb, relation, n))
            seen.add(train[-1])
        test.append(Triple(xa, relation, half_b[0]))
        test.append(Triple(xb, relation, half_a[0]))
    seen.update(test)

    valid: list[Triple] = []
    while len(valid) < 10:
        i, j = int(rng.integers(n_background)), int(rng.integers(n_background))
        triple = fresh(backgrounds[i], relations[int(rng.integers(len(relations)))], backgrounds[j])
        if triple is not None:
            valid.append(triple)

    entity_desc = {
        entity: f"Synthetic node described by: {', '.join(keyword_sets[entity])}."
        for entity in entity_name
    }
    kg = KnowledgeGraph(
        entity_name=entity_name,
        relation_name={r: r.replace("_", " ") for r in relations},
        entity_desc=entity_desc,
        train=tuple(train),
        valid=tuple(valid),
        test=tuple(test),
    )
    return kg, keyword_sets
