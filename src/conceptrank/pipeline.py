"""End-to-end per-event ranking pipeline.

A run embeds the concept names and the weak videos' descriptions once
(``QueryLayer``) and computes the weak labels, which do not depend on the
event, once; every event's weak-label file gets the same rows.  Each
event then needs only its query vector: concept relevance, top-K
selection, the pseudo-label partition, score normalization, the
alternating fit, and finally the ranked test list.  Events run one after
another in one pass: each event is ranked, its files are written, its
records are logged and its AP is scored before the next event starts.
One event's failure is logged and recorded in its place in that order,
without aborting the others.  Per-event outputs go to distinct files, and
nothing in a run is random, so identical configs and inputs produce
byte-identical outputs at a fixed BLAS thread count.  The dense products of
the weight step round differently with the number of threads, and where the
optimum is not unique that moves the solved scores by more than rounding,
so runs at different thread counts (set by ``OPENBLAS_NUM_THREADS``, for
one) can rank differently.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io
from .composer import (
    SUPERVISED_COLUMN_ID,
    CompositionConfig,
    ScoreMatrix,
    fit,
    fuse_supervised,
    normalize_scores,
)
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ValidationError
from .evaluation import (
    average_precision,
    borda_baseline,
    mean_average_precision,
    ranked_list,
)
from .query import (
    EventQuery,
    QueryLayer,
    concept_relevance,
    partition_pseudo,
    query_vector,
    select_concepts,
    weak_labels,
)

__all__ = ["RunConfig", "run_rank", "run_select_concepts", "run_eval", "rank_one_event"]


def log_kv(**fields) -> None:
    """One JSON object per line on standard error."""
    print(json.dumps(fields), file=sys.stderr, flush=True)


def _require_files(*paths: str | None) -> None:
    """Raise ``ValidationError`` naming every given path that is not a file;
    unset paths (``None`` or empty) are skipped."""
    missing = [p for p in paths if p and not os.path.isfile(p)]
    if missing:
        raise ValidationError(f"missing input files: {missing}")


def _load_table(path: str) -> EmbeddingTable:
    """The embedding table at ``path``; logs how many of its records repeat
    an earlier token, which ``load_embeddings`` counts but does not report."""
    table = load_embeddings(path)
    if table.duplicate_count:
        log_kv(stage="embeddings", duplicate_tokens=table.duplicate_count)
    return table


@dataclass
class RunConfig:
    embeddings: str
    vocabulary: str
    videos: str
    scores: str
    events: str
    out_dir: str
    supervised: str | None = None
    ground_truth: str | None = None
    top_k: int = 30
    n_pos: int = 20
    n_neg: int = 100
    fit: CompositionConfig = field(default_factory=CompositionConfig)

    def validate(self) -> None:
        _require_files(
            self.embeddings, self.vocabulary, self.videos, self.scores, self.events,
            self.supervised, self.ground_truth,
        )
        if self.top_k < 1:
            raise ValidationError("top-k must be >= 1")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValidationError("n-pos and n-neg must be >= 1")


def _select_score_columns(S: ScoreMatrix, selected: list[int]) -> ScoreMatrix:
    return ScoreMatrix(
        values=S.values[:, selected],
        video_ids=list(S.video_ids),
        l=S.l,
        u=S.u,
        concept_ids=[S.concept_ids[k] for k in selected],
    )


def rank_one_event(
    event: EventQuery,
    layer: QueryLayer,
    table: EmbeddingTable,
    scores: ScoreMatrix,
    supervised: dict[str, float] | None,
    config: RunConfig,
):
    """Full pipeline for a single event.

    Returns (ranking, fit_result, selected_scores).
    Weak videos whose cleaned description has no vocabulary coverage are
    excluded from the pseudo-label pool (they stay in the score matrix and
    are ranked via the graph like any unlabeled row).
    """
    qvec = query_vector(event, table)
    relevance = concept_relevance(layer, qvec)
    k = min(config.top_k, len(layer.vocab))
    selected = select_concepts(relevance, k, layer.vocab)
    labels = partition_pseudo(layer, qvec, config.n_pos, config.n_neg)

    S_sel = normalize_scores(_select_score_columns(scores, selected))
    w_init = relevance.values[selected]
    if supervised is not None:
        missing = [v for v in S_sel.video_ids if v not in supervised]
        if missing:
            raise ValidationError(f"supervised scores missing for videos: {missing[:10]}")
        sup_vec = np.array([supervised[v] for v in S_sel.video_ids])
        S_fit = fuse_supervised(S_sel, sup_vec)
        w_init = np.append(w_init, w_init.max() if w_init.size else 1.0)
    else:
        S_fit = S_sel

    result = fit(S_fit, labels, w_init, config.fit)
    ranking = ranked_list(S_fit.test_ids(), result.scores[S_fit.l :])
    return ranking, result, S_sel


def _write_weak_labels(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# metrics.json's own keys, beside the per-event APs; no event id may be one
METRICS_KEYS = ("failures", "mAP", "borda", "iter0")


def run_rank(config: RunConfig) -> tuple[int, dict]:
    """Rank every event; returns (exit_code, metrics dict).

    ``out_dir`` is created only once every input has been read and checked,
    so a rank rejected for its inputs leaves no directory behind.
    """
    config.validate()
    table = _load_table(config.embeddings)
    vocab = io.read_vocabulary(config.vocabulary)
    videos = io.read_videos(config.videos)
    events = io.read_events(config.events)
    taken = sorted({e.event_id for e in events} & set(METRICS_KEYS))
    if taken:
        raise ValidationError(f"event ids {taken} are keys of metrics.json")
    scores = io.read_scores(config.scores, vocab, videos)
    supervised = io.read_supervised(config.supervised) if config.supervised else None
    truth = io.read_ground_truth(config.ground_truth) if config.ground_truth else None
    if config.top_k > len(vocab):
        log_kv(stage="rank", note="top_k_clipped", top_k=config.top_k, m=len(vocab))

    layer = QueryLayer.build(vocab, [r for r in videos if r.split == "weak"], table)
    for video_id in layer.uncovered_ids():
        log_kv(stage="weak_labels", video=video_id, skipped="no_vocabulary_coverage")
    # every event splits the same covered weak pool
    pool = int(layer.covered.sum())
    if config.n_pos + config.n_neg > pool:
        raise ValidationError(
            f"n_pos + n_neg = {config.n_pos + config.n_neg} exceeds the {pool} covered weak videos"
        )
    # inputs that would fail every event, or fail the run after some
    # events are written, are rejected before the first one
    if supervised is not None:
        missing = [v for v in scores.video_ids if v not in supervised]
        if missing:
            raise ValidationError(
                f"{config.supervised}: supervised scores missing for videos: {missing[:10]}"
            )
    if truth is not None:
        test_ids = set(scores.test_ids())
        for eid in [e.event_id for e in events if e.event_id in truth]:
            unknown = sorted(set(truth[eid]) - test_ids)
            if unknown:
                raise ValidationError(
                    f"{config.ground_truth}: {eid} labels videos that are not test "
                    f"videos: {unknown[:10]}"
                )
            if not any(truth[eid].values()):
                raise ValidationError(f"{config.ground_truth}: {eid} has no positive video")
    weak_csv = io.scores_csv(
        vocab,
        [r.video_id for r, ok in zip(layer.weak_records, layer.covered) if ok],
        weak_labels(layer),
    )
    os.makedirs(config.out_dir, exist_ok=True)

    failures: dict[str, str] = {}
    per_event_ap: dict[str, float] = {}
    per_event_borda: dict[str, float] = {}
    per_event_iter0: dict[str, float] = {}
    for event in events:
        eid = event.event_id
        try:
            ranking, result, S_sel = rank_one_event(
                event, layer, table, scores, supervised, config
            )
        except Exception as exc:  # noqa: BLE001 - isolate per-event failures
            failures[eid] = f"{type(exc).__name__}: {exc}"
            log_kv(stage="rank", event=eid, error=failures[eid])
            continue
        io.write_ranking(io.ranking_path(config.out_dir, eid), ranking)
        _write_weak_labels(os.path.join(config.out_dir, f"{eid}_weak_labels.csv"), weak_csv)
        for message in result.warnings:
            log_kv(stage="fit", event=eid, warning=message)
        log_kv(
            stage="rank",
            event=eid,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective_trace[-1],
            uncertified_steps=result.uncertified_steps,
        )
        if truth is not None and eid in truth:
            positives = {v for v, lab in truth[eid].items() if lab == 1}
            per_event_ap[eid] = average_precision(ranking, positives)
            per_event_borda[eid] = average_precision(borda_baseline(S_sel), positives)
            iter0 = ranked_list(S_sel.test_ids(), result.initial_scores[S_sel.l :])
            per_event_iter0[eid] = average_precision(iter0, positives)
    failures_key, map_key, borda_key, iter0_key = METRICS_KEYS
    metrics: dict = {failures_key: failures}
    if per_event_ap:
        report = mean_average_precision(per_event_ap)
        metrics.update(report.per_event_ap)
        metrics[map_key] = report.map_value
        metrics[borda_key] = mean_average_precision(per_event_borda).as_dict()
        metrics[iter0_key] = mean_average_precision(per_event_iter0).as_dict()
    io.write_metrics(os.path.join(config.out_dir, "metrics.json"), metrics)

    if not failures:
        return 0, metrics
    return (2 if len(failures) == len(events) else 3), metrics


def run_select_concepts(
    embeddings: str, vocabulary: str, events: str, out_dir: str, top_k: int
) -> tuple[int, str]:
    """Emit the per-event top-K concepts with relevance values as CSV."""
    _require_files(embeddings, vocabulary, events)
    if top_k < 1:
        raise ValidationError("top-k must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    table = _load_table(embeddings)
    vocab = io.read_vocabulary(vocabulary)
    queries = io.read_events(events)
    layer = QueryLayer.build(vocab, [], table)
    k = min(top_k, len(vocab))
    selections = []
    for event in queries:
        relevance = concept_relevance(layer, query_vector(event, table))
        chosen = select_concepts(relevance, k, vocab)
        pairs = [(vocab.concepts[i].concept_id, relevance.values[i]) for i in chosen]
        selections.append((event.event_id, pairs))
    path = os.path.join(out_dir, "selected_concepts.csv")
    io.write_selected_concepts(path, selections)
    return 0, path


def run_eval(
    rankings_dir: str, ground_truth_path: str, out_path: str | None = None
) -> tuple[int, dict]:
    """Score existing ranking files against a ground-truth file."""
    _require_files(ground_truth_path)
    truth = io.read_ground_truth(ground_truth_path)
    per_event: dict[str, float] = {}
    for event_id in sorted(truth):
        path = io.ranking_path(rankings_dir, event_id)
        if not os.path.isfile(path):
            raise ValidationError(f"missing ranking file for {event_id}: {path}")
        ranking = io.read_ranking(path)
        ranked_ids = {vid for vid, _ in ranking}
        unknown = sorted(set(truth[event_id]) - ranked_ids)
        if unknown:
            raise ValidationError(
                f"ground-truth videos absent from {event_id} ranking: {unknown[:10]}"
            )
        positives = {v for v, lab in truth[event_id].items() if lab == 1}
        per_event[event_id] = average_precision(ranking, positives)
    report = mean_average_precision(per_event).as_dict()
    if out_path is None:
        out_path = os.path.join(rankings_dir, "eval_metrics.json")
    io.write_metrics(out_path, report)
    return 0, report
