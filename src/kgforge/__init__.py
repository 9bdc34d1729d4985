"""kgforge: LLM-driven knowledge graph enrichment with a desk-scale evaluation harness."""

from .bundle import AugmentationBundle, FingerprintMismatchError, apply_bundles
from .entity import expand_descriptions, merge_entity_text
from .gateway import (
    GenerationParams,
    HttpBackend,
    LlmExchange,
    LlmGateway,
    ReplayBackend,
)
from .harness import (
    EvalReport,
    TrainConfig,
    ab_compare,
    link_prediction,
    metrics_from_ranks,
    rank_triples,
    score_triple,
    train,
    triplet_classification,
)
from .kg import (
    DatasetStats,
    KnowledgeGraph,
    TextStore,
    Triple,
    dataset_stats,
    kg_fingerprint,
    load_dataset,
    write_dataset,
)
from .relation import compose_relation_text, describe_relations
from .structure import (
    KeywordSet,
    MatchScore,
    StructureConfig,
    augment_training_set,
    extract_structure,
    match_score,
    parse_keywords,
    synthesize_triples,
    top_k_pairs,
)
from .templates import (
    RelationMode,
    RenderedPrompt,
    Strategy,
    render_entity_prompt,
    render_keyword_prompt,
    render_relation_prompt,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationBundle",
    "DatasetStats",
    "EvalReport",
    "FingerprintMismatchError",
    "GenerationParams",
    "HttpBackend",
    "KeywordSet",
    "KnowledgeGraph",
    "LlmExchange",
    "LlmGateway",
    "MatchScore",
    "RelationMode",
    "RenderedPrompt",
    "ReplayBackend",
    "Strategy",
    "StructureConfig",
    "TextStore",
    "TrainConfig",
    "Triple",
    "ab_compare",
    "apply_bundles",
    "augment_training_set",
    "compose_relation_text",
    "dataset_stats",
    "describe_relations",
    "expand_descriptions",
    "extract_structure",
    "kg_fingerprint",
    "link_prediction",
    "load_dataset",
    "match_score",
    "merge_entity_text",
    "metrics_from_ranks",
    "parse_keywords",
    "rank_triples",
    "render_entity_prompt",
    "render_keyword_prompt",
    "render_relation_prompt",
    "score_triple",
    "synthesize_triples",
    "top_k_pairs",
    "train",
    "triplet_classification",
    "write_dataset",
]
