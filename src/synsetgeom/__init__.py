"""Geometric significance attributes of synonym sets over word embeddings.

Given a pretrained word2vec-format model and a collection of synsets, this
package computes, for every word of a synset, its rank (how consistently
the word pulls the remaining words together across all two-block splits),
its centrality (the accumulated similarity improvement), and whether it
belongs to the synset interior (it strictly improves every split).  Synsets
with an empty interior are candidates for dictionary cleanup; two models
can be compared side by side.
"""

from .embeddings import EmbeddingModel, load_binary_model, load_text_model
from .errors import (
    DegenerateGeometryError,
    ModelFormatError,
    ResolutionError,
    SynsetGeomError,
    SynsetParseError,
    SynsetSizeError,
)
from .geometry import (
    DEFAULT_EPS,
    DEFAULT_MAX_SYNSET_SIZE,
    PartitionTable,
    ResolvedSynset,
    SynsetReport,
    WordAttributes,
    analyze_synset,
    enumerate_partitions,
    partition_outcomes,
    word_attributes,
)
from .ingestion import (
    OovPolicy,
    RawSynset,
    ResolutionOutcome,
    candidate_keys,
    parse_synsets,
    resolve,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EPS",
    "DEFAULT_MAX_SYNSET_SIZE",
    "DegenerateGeometryError",
    "EmbeddingModel",
    "ModelFormatError",
    "OovPolicy",
    "PartitionTable",
    "RawSynset",
    "ResolutionError",
    "ResolutionOutcome",
    "ResolvedSynset",
    "SynsetGeomError",
    "SynsetParseError",
    "SynsetReport",
    "SynsetSizeError",
    "WordAttributes",
    "analyze_synset",
    "candidate_keys",
    "enumerate_partitions",
    "load_binary_model",
    "load_text_model",
    "parse_synsets",
    "partition_outcomes",
    "resolve",
    "word_attributes",
]
