"""Average precision, mean AP, and the fixed-weight Borda baseline.

AP is non-interpolated over the full ranked list; score ties are resolved
by ascending video_id before AP is computed, never averaged over tie
permutations, so every metric is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composer import ScoreMatrix

__all__ = [
    "EvalReport",
    "ranked_list",
    "average_precision",
    "borda_baseline",
    "mean_average_precision",
]

RankedList = list[tuple[str, float]]


@dataclass(frozen=True)
class EvalReport:
    per_event_ap: dict[str, float]
    map_value: float

    def as_dict(self) -> dict[str, float]:
        out = dict(sorted(self.per_event_ap.items()))
        out["mAP"] = self.map_value
        return out


def ranked_list(video_ids: list[str], scores: np.ndarray) -> RankedList:
    """Pairs sorted by descending score, ties by ascending video_id."""
    if len(video_ids) != len(scores):
        raise ValueError("ids and scores must have equal length")
    if len(set(video_ids)) != len(video_ids):
        raise ValueError("video_ids must be unique")
    order = sorted(range(len(video_ids)), key=lambda i: (-scores[i], video_ids[i]))
    return [(video_ids[i], float(scores[i])) for i in order]


def average_precision(ranking: RankedList, positives: set[str]) -> float:
    """Mean over positives of precision at each positive's rank."""
    if not positives:
        raise ValueError("positives must be nonempty")
    ranked_ids = [vid for vid, _ in ranking]
    missing = sorted(positives - set(ranked_ids))
    if missing:
        raise ValueError(f"positives missing from the ranking: {missing}")
    hits = 0
    total = 0.0
    for rank, vid in enumerate(ranked_ids, start=1):
        if vid in positives:
            hits += 1
            total += hits / rank
    return total / len(positives)


def mean_average_precision(per_event_ap: dict[str, float]) -> EvalReport:
    if not per_event_ap:
        raise ValueError("need at least one event AP")
    return EvalReport(
        per_event_ap=dict(per_event_ap),
        map_value=float(np.mean(list(per_event_ap.values()))),
    )


def borda_baseline(S: ScoreMatrix) -> RankedList:
    """Equal-weight rank aggregation over the matrix columns, on the test
    videos.

    Within each column, test videos are ranked by descending score (ties by
    ascending video_id) and awarded n - rank points; a video's Borda score
    is the sum of its points over all columns.
    """
    values = S.values[S.l :]
    ids = S.test_ids()
    n = len(ids)
    # each video's place in ascending video_id order, the tie-break key
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    awards = np.arange(n - 1, -1, -1, dtype=np.float64)  # n - rank, rank from 1
    points = np.zeros(n)
    for col in range(values.shape[1]):
        points[np.lexsort((id_rank, -values[:, col]))] += awards
    return ranked_list(ids, points)
