"""Semantic query generation and weak supervision.

Scores concept relevance against an event query in embedding space,
selects top concepts, computes per-video weak labels from free-form
descriptions, and partitions weakly-described videos into pseudo
positives/negatives.  All operations are pure functions over immutable
inputs.

A run over many events embeds the event-independent phrases once, in a
``QueryLayer`` (concept names C and weak descriptions D), with the norm of
every row, and then needs only each event's query vector q
(``query_vector``) and its norm: m cosines for ``concept_relevance`` and
l for ``partition_pseudo``.  Each cosine is ``cosine``'s own arithmetic
from those cached norms: an exact 1.0 for a row equal to q, else one
``np.dot`` per pair over the product of the norms, clamped into
[-1, 1], so it keeps ``cosine``'s bits.  A matrix product in place of
the per-pair dots differs in the last bit on about a third of the rows;
the fit downstream turns differences that small into different
rankings.  The weak labels
``max(0, D C^T)`` do not depend on the event and feed no computation, so
``weak_labels`` takes them as one matrix product per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable, phrase_vector
from .errors import CoverageError
from .text import clean_text, tokenize

__all__ = [
    "Concept",
    "ConceptVocabulary",
    "EventQuery",
    "RelevanceVector",
    "VideoRecord",
    "PseudoLabels",
    "QueryLayer",
    "query_vector",
    "concept_relevance",
    "select_concepts",
    "weak_labels",
    "partition_pseudo",
]


@dataclass(frozen=True)
class Concept:
    concept_id: str
    name: str
    source: str = ""


@dataclass(frozen=True)
class ConceptVocabulary:
    """Ordered concept list; the order is the canonical score-column order."""

    concepts: list[Concept]

    def __post_init__(self):
        ids = [c.concept_id for c in self.concepts]
        if any(not i for i in ids):
            raise ValueError("empty concept_id")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate concept_id")

    def __len__(self) -> int:
        return len(self.concepts)

    @property
    def ids(self) -> list[str]:
        return [c.concept_id for c in self.concepts]


@dataclass(frozen=True)
class EventQuery:
    event_id: str
    name: str
    description: str = ""

    def __post_init__(self):
        if not self.event_id or not self.name:
            raise ValueError("event_id and name must be nonempty")

    def text_tokens(self) -> list[str]:
        return tokenize(self.name + " " + self.description)


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    split: str  # "weak" or "test"
    description: str = ""

    def __post_init__(self):
        if self.split not in ("weak", "test"):
            raise ValueError(f"unknown split {self.split!r}")
        if self.split == "weak" and not self.description.strip():
            raise ValueError(f"weak video {self.video_id!r} needs a description")


@dataclass(frozen=True)
class RelevanceVector:
    """Per-concept relevance in [0, 1], aligned to the vocabulary order.

    ``oov_concepts`` flags concepts whose names were fully out of
    vocabulary (their relevance is the defined fallback 0).
    """

    values: np.ndarray
    oov_concepts: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("relevance values must be a 1-d array within [0, 1]")


@dataclass(frozen=True)
class PseudoLabels:
    """Disjoint, nonempty index sets of pseudo positives/negatives."""

    positives: tuple[int, ...]
    negatives: tuple[int, ...]

    def __post_init__(self):
        if not self.positives or not self.negatives:
            raise ValueError("pseudo positives and negatives must be nonempty")
        if set(self.positives) & set(self.negatives):
            raise ValueError("pseudo positives and negatives overlap")


def select_concepts(w: RelevanceVector, k: int, vocab: ConceptVocabulary) -> list[int]:
    """Indices of the K largest relevances, descending, ties by concept_id."""
    m = len(vocab)
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= K <= {m}, got {k}")
    order = sorted(range(m), key=lambda i: (-w.values[i], vocab.concepts[i].concept_id))
    return order[:k]


@dataclass(frozen=True)
class QueryLayer:
    """Unit phrase vectors of a run's event-independent inputs.

    ``concepts`` holds the concept-name vectors (m x D) in vocabulary
    order and ``descriptions`` the cleaned-description vectors of
    ``weak_records`` (l x D), each computed by ``phrase_vector``.  A
    phrase with no in-vocabulary token is a zero row, flagged in
    ``concept_oov`` or left out of ``covered``.  ``concept_norms`` and
    ``description_norms`` hold ``np.linalg.norm`` of each row, the
    norms ``cosine`` would recompute for every event.
    """

    vocab: ConceptVocabulary
    weak_records: tuple[VideoRecord, ...]
    concepts: np.ndarray
    concept_oov: np.ndarray
    descriptions: np.ndarray
    covered: np.ndarray
    concept_norms: np.ndarray
    description_norms: np.ndarray

    @classmethod
    def build(
        cls,
        vocab: ConceptVocabulary,
        weak_records: list[VideoRecord],
        table: EmbeddingTable,
    ) -> QueryLayer:
        if any(r.split != "weak" for r in weak_records):
            raise ValueError("all records must be weak-split")
        concepts, named = _phrase_rows([tokenize(c.name) for c in vocab.concepts], table)
        descriptions, covered = _phrase_rows(
            [clean_text(r.description) for r in weak_records], table
        )
        return cls(
            vocab=vocab,
            weak_records=tuple(weak_records),
            concepts=concepts,
            concept_oov=~named,
            descriptions=descriptions,
            covered=covered,
            concept_norms=_row_norms(concepts),
            description_norms=_row_norms(descriptions),
        )

    def uncovered_ids(self) -> list[str]:
        """Weak videos whose description has no vocabulary coverage."""
        return [r.video_id for r, ok in zip(self.weak_records, self.covered) if not ok]


def _phrase_rows(phrases: list[list[str]], table: EmbeddingTable):
    """Stacked ``phrase_vector`` rows and the mask of phrases it covers."""
    rows = np.zeros((len(phrases), table.dimension))
    ok = np.zeros(len(phrases), dtype=bool)
    for i, tokens in enumerate(phrases):
        try:
            rows[i] = phrase_vector(tokens, table).vector
        except CoverageError:
            continue
        ok[i] = True
    return rows, ok


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, as ``cosine`` takes it of one vector
    (a norm over an axis sums in another order)."""
    return np.array([np.linalg.norm(row) for row in rows])


def _cosines(
    qvec: np.ndarray, rows: np.ndarray, norms: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """``cosine(qvec, rows[i])`` for each index i in ``idx``, bit for bit,
    given the norm of every row in ``norms``; each row taken is nonzero."""
    dots = np.array([np.dot(qvec, rows[i]) for i in idx])
    x = dots / (np.linalg.norm(qvec) * norms[idx])
    # cosine's min(1.0, max(-1.0, x)), under which a NaN becomes -1.0
    x = np.where(x > -1.0, np.where(x < 1.0, x, 1.0), -1.0)
    x[np.all(rows[idx] == qvec, axis=1)] = 1.0
    return x


def query_vector(query: EventQuery, table: EmbeddingTable) -> np.ndarray:
    """Unit phrase vector of the event's name and description; raises
    CoverageError when no token of it is in the table."""
    return phrase_vector(query.text_tokens(), table).vector


def concept_relevance(layer: QueryLayer, qvec: np.ndarray) -> RelevanceVector:
    """Clamped cosine between the query vector ``qvec`` and each
    concept-name vector of ``layer``.

    Negative cosines are clamped to 0 so values live in [0, 1].  Concept
    names with no in-vocabulary token get 0 and are flagged.
    """
    values = np.zeros(len(layer.vocab))
    named = np.flatnonzero(~layer.concept_oov)
    c = _cosines(qvec, layer.concepts, layer.concept_norms, named)
    # max(0.0, c), under which a cosine of -0.0 becomes 0.0
    values[named] = np.where(c > 0.0, c, 0.0)
    oov = frozenset(int(k) for k in np.flatnonzero(layer.concept_oov))
    return RelevanceVector(values=values, oov_concepts=oov)


def weak_labels(layer: QueryLayer) -> np.ndarray:
    """Concept relevance of every covered weak video's cleaned description,
    one row each, in ``layer.weak_records`` order."""
    values = np.clip(layer.descriptions[layer.covered] @ layer.concepts.T, 0.0, 1.0)
    values[:, layer.concept_oov] = 0.0
    return values


def partition_pseudo(
    layer: QueryLayer, qvec: np.ndarray, n_pos: int, n_neg: int
) -> PseudoLabels:
    """Split the covered weak videos of ``layer`` into pseudo
    positives/negatives by similarity to the query vector ``qvec``.

    Videos are ranked by cosine between the cleaned-description vector and
    ``qvec``; the top ``n_pos`` become positives and the bottom ``n_neg``
    negatives.  Ties break by ascending video_id, which makes the split
    deterministic.  Indices refer to ``layer.weak_records``; uncovered
    videos are in neither set.
    """
    pool = np.flatnonzero(layer.covered)
    if n_pos < 1 or n_neg < 1:
        raise ValueError("n_pos and n_neg must be >= 1")
    if n_pos + n_neg > len(pool):
        raise ValueError(
            f"n_pos + n_neg = {n_pos + n_neg} exceeds the {len(pool)} weak videos"
        )
    sims = _cosines(qvec, layer.descriptions, layer.description_norms, pool).tolist()
    ranked = sorted(
        range(len(pool)),
        key=lambda i: (-sims[i], layer.weak_records[pool[i]].video_id),
    )
    return PseudoLabels(
        positives=tuple(int(pool[i]) for i in ranked[:n_pos]),
        negatives=tuple(int(pool[i]) for i in ranked[len(ranked) - n_neg :]),
    )
