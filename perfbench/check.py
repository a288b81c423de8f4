"""Checks on the outputs of `conceptrank rank`, computed apart from the program.

Every expected value comes from the input files and numpy: nothing here
imports `conceptrank`, and nothing compares against a stored copy of an
earlier output.

* A ranking file lists every test video of its event exactly once, scores
  never increase down the file, and equal scores are ordered by ascending
  video_id.
* The AP of each event, computed here from the ranking file and the ground
  truth, matches the value in `metrics.json` within 1e-12.
* Each weak-label file matches the clamped cosine between the mean vector
  of a description's tokens and the mean vector of each concept name's
  tokens within 1e-9.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

AP_TOL = 1e-12
WEAK_LABEL_TOL = 1e-9


def read_ranking(path: str) -> list[tuple[str, float]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return [(vid, float(score)) for vid, score in rows]


def ranking_problems(ranking: list[tuple[str, float]], test_ids: list[str]) -> list[str]:
    """Why `ranking` is not a valid ranked list of `test_ids` (empty if it is)."""
    problems = []
    ids = [vid for vid, _ in ranking]
    if len(set(ids)) != len(ids):
        problems.append("a video is listed more than once")
    missing = set(test_ids) - set(ids)
    if missing:
        problems.append(f"{len(missing)} test videos missing, e.g. {sorted(missing)[0]}")
    extra = set(ids) - set(test_ids)
    if extra:
        problems.append(f"{len(extra)} videos that are not test videos, e.g. {sorted(extra)[0]}")
    for (a, sa), (b, sb) in zip(ranking, ranking[1:]):
        if sb > sa:
            problems.append(f"score rises from {a} to {b}")
            break
        if sb == sa and b < a:
            problems.append(f"tie between {a} and {b} not in ascending video_id order")
            break
    return problems


def average_precision(ranked_ids: list[str], positives: set[str]) -> float:
    """Non-interpolated AP: mean over positives of the precision at their rank."""
    hits = 0
    total = 0.0
    for rank, vid in enumerate(ranked_ids, start=1):
        if vid in positives:
            hits += 1
            total += hits / rank
    return total / len(positives)


class Instance:
    """Expected values of one generated instance, read from its input files."""

    def __init__(self, in_dir: str) -> None:
        with open(os.path.join(in_dir, "events.jsonl"), encoding="utf-8") as fh:
            self.event_ids = [json.loads(line)["event_id"] for line in fh if line.strip()]
        with open(os.path.join(in_dir, "videos.tsv"), encoding="utf-8") as fh:
            videos = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
        self.weak = [(vid, desc.split()) for vid, split, desc in videos if split == "weak"]
        self.test_ids = [vid for vid, split, _ in videos if split == "test"]
        with open(os.path.join(in_dir, "vocabulary.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        self.concept_ids = [r[0] for r in rows]
        names = [r[1].split() for r in rows]
        self.positives: dict[str, set[str]] = {e: set() for e in self.event_ids}
        with open(os.path.join(in_dir, "ground_truth.csv"), encoding="utf-8", newline="") as fh:
            for event_id, vid, label in list(csv.reader(fh))[1:]:
                if label == "1":
                    self.positives[event_id].add(vid)

        needed = {t for _, toks in self.weak for t in toks} | {t for n in names for t in n}
        vectors = {}
        with open(os.path.join(in_dir, "embeddings.txt"), encoding="utf-8") as fh:
            for line in fh:
                token, _, rest = line.partition(" ")
                if token in needed:
                    vectors[token] = np.array(rest.split(), dtype=np.float64)

        def mean_unit(tokens: list[str]) -> np.ndarray:
            v = np.mean([vectors[t] for t in tokens], axis=0)
            return v / np.linalg.norm(v)

        D = np.array([mean_unit(toks) for _, toks in self.weak])
        C = np.array([mean_unit(n) for n in names])
        self.weak_labels = np.maximum(D @ C.T, 0.0)

    def weak_label_problems(self, path: str) -> list[str]:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["video_id"] + self.concept_ids:
            return ["weak-label header does not list the vocabulary in order"]
        if [r[0] for r in rows[1:]] != [vid for vid, _ in self.weak]:
            return ["weak-label rows do not list the weak videos in order"]
        got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        err = float(np.max(np.abs(got - self.weak_labels)))
        if err > WEAK_LABEL_TOL:
            return [f"weak labels off by {err:.3g}"]
        return []

    def event_problems(
        self, out_dir: str, metrics: dict, event_id: str
    ) -> tuple[list[str], float | None]:
        """Problems with one event's outputs, and the AP computed here from
        its ranking file; the AP is None when the program wrote no ranking."""
        path = os.path.join(out_dir, f"{event_id}_ranking.tsv")
        if event_id in metrics.get("failures", {}):
            return [f"failed in the program: {metrics['failures'][event_id]}"], None
        if not os.path.isfile(path):
            return ["ranking file missing"], None
        ranking = read_ranking(path)
        problems = ranking_problems(ranking, self.test_ids)
        ap = average_precision([vid for vid, _ in ranking], self.positives[event_id])
        reported = metrics.get(event_id)
        if not isinstance(reported, float) or abs(reported - ap) > AP_TOL:
            problems.append(f"metrics.json AP {reported!r}, recomputed {ap!r}")
        weak_path = os.path.join(out_dir, f"{event_id}_weak_labels.csv")
        if not os.path.isfile(weak_path):
            problems.append("weak-label file missing")
        else:
            problems += self.weak_label_problems(weak_path)
        return problems, ap
