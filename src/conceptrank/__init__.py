"""Zero-exemplar event ranking over concept-detector scores.

Given only a textual event query, semantically relevant concept
classifiers are selected via word embeddings, weakly-described videos are
partitioned into pseudo positives/negatives, and per-video aggregation
weights are learned by alternating an adaptive-neighbor graph update with
a convex weight update under a top-push ranking loss.
"""

from .composer import (
    CompositionConfig,
    FitResult,
    ScoreMatrix,
    aggregate,
    fit,
    fuse_supervised,
    normalize_scores,
    objective,
    update_scores,
)
from .embeddings import EmbeddingTable, PhraseVector, cosine, load_embeddings, phrase_vector
from .errors import CoverageError, FormatError, ValidationError
from .evaluation import EvalReport, average_precision, borda_baseline, ranked_list
from .graph import (
    NeighborMatrix,
    candidate_neighbors,
    gamma_for_k,
    score_distances,
    simplex_project,
    update_neighbors,
)
from .pipeline import RunConfig, run_eval, run_rank, run_select_concepts
from .query import (
    Concept,
    ConceptVocabulary,
    EventQuery,
    PseudoLabels,
    RelevanceVector,
    VideoRecord,
    concept_relevance,
    partition_pseudo,
    select_concepts,
    weak_labels,
)
from .synth import (
    SynthInstance,
    brute_force_push,
    brute_force_simplex,
    finite_diff_gradient,
    gen_instance,
    toy_embedding_table,
)
from .text import clean_text, porter_stem, tokenize

__version__ = "0.1.0"

__all__ = [
    "CompositionConfig",
    "Concept",
    "ConceptVocabulary",
    "CoverageError",
    "EmbeddingTable",
    "EvalReport",
    "EventQuery",
    "FitResult",
    "FormatError",
    "NeighborMatrix",
    "PhraseVector",
    "PseudoLabels",
    "RelevanceVector",
    "RunConfig",
    "ScoreMatrix",
    "SynthInstance",
    "ValidationError",
    "VideoRecord",
    "aggregate",
    "average_precision",
    "borda_baseline",
    "brute_force_push",
    "brute_force_simplex",
    "candidate_neighbors",
    "clean_text",
    "concept_relevance",
    "cosine",
    "finite_diff_gradient",
    "fit",
    "fuse_supervised",
    "gamma_for_k",
    "gen_instance",
    "load_embeddings",
    "normalize_scores",
    "objective",
    "partition_pseudo",
    "phrase_vector",
    "porter_stem",
    "ranked_list",
    "run_eval",
    "run_rank",
    "run_select_concepts",
    "score_distances",
    "select_concepts",
    "simplex_project",
    "toy_embedding_table",
    "tokenize",
    "update_neighbors",
    "update_scores",
    "weak_labels",
]
