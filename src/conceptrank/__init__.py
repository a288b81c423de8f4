"""Zero-exemplar event ranking over concept-detector scores.

Given only a textual event query, semantically relevant concept
classifiers are selected via word embeddings, weakly-described videos are
partitioned into pseudo positives/negatives, and per-video aggregation
weights are learned by alternating an adaptive-neighbor graph update with
a convex weight update under a top-push ranking loss.

The command line (``conceptrank``) runs ``run_rank``,
``run_select_concepts``, ``run_eval`` and ``gen_instance``.  The library
API, in pipeline order:

- Inputs: ``load_embeddings``, ``EmbeddingTable``, ``phrase_vector``,
  ``PhraseVector``, ``cosine``; ``tokenize``, ``clean_text``,
  ``porter_stem``; ``Concept``, ``ConceptVocabulary``, ``EventQuery``,
  ``VideoRecord``.
- Query steps: ``QueryLayer`` embeds a run's concept names and weak
  descriptions once and ``query_vector`` embeds an event; from them
  ``concept_relevance`` gives a ``RelevanceVector``, ``select_concepts``
  its top K, ``weak_labels`` the weak videos' concept relevances and
  ``partition_pseudo`` the ``PseudoLabels``.
- Fit: ``ScoreMatrix``, ``normalize_scores``, ``fuse_supervised``,
  ``CompositionConfig``, ``fit`` and its ``FitResult``; the two steps it
  alternates, ``update_scores`` and the graph step over
  ``candidate_neighbors`` and ``gamma_for_k`` into a ``NeighborMatrix``;
  and the ``objective`` it descends.  The model and ``fit`` live in
  ``conceptrank.composer``; the weight step, its QP and every matrix it
  factors live in ``conceptrank.weightstep``, which ``composer`` imports.
- Evaluation: ``ranked_list``, ``average_precision``, ``borda_baseline``,
  ``EvalReport``.
- Runs: ``RunConfig`` and the three ``run_*`` functions; synthetic
  instances with planted truth, ``gen_instance`` and ``SynthInstance``.
- Errors: ``CoverageError``, ``FormatError``, ``ValidationError``.
"""

from .composer import (
    CompositionConfig,
    FitResult,
    ScoreMatrix,
    fit,
    fuse_supervised,
    normalize_scores,
    objective,
    update_scores,
)
from .embeddings import EmbeddingTable, PhraseVector, cosine, load_embeddings, phrase_vector
from .errors import CoverageError, FormatError, ValidationError
from .evaluation import EvalReport, average_precision, borda_baseline, ranked_list
from .graph import NeighborMatrix, candidate_neighbors, gamma_for_k
from .pipeline import RunConfig, run_eval, run_rank, run_select_concepts
from .query import (
    Concept,
    ConceptVocabulary,
    EventQuery,
    PseudoLabels,
    QueryLayer,
    RelevanceVector,
    VideoRecord,
    concept_relevance,
    partition_pseudo,
    query_vector,
    select_concepts,
    weak_labels,
)
from .synth import SynthInstance, gen_instance
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
    "QueryLayer",
    "RelevanceVector",
    "RunConfig",
    "ScoreMatrix",
    "SynthInstance",
    "ValidationError",
    "VideoRecord",
    "average_precision",
    "borda_baseline",
    "candidate_neighbors",
    "clean_text",
    "concept_relevance",
    "cosine",
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
    "query_vector",
    "ranked_list",
    "run_eval",
    "run_rank",
    "run_select_concepts",
    "select_concepts",
    "tokenize",
    "update_scores",
    "weak_labels",
]
