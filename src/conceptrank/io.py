"""Readers and writers for every external file format.

Formats:
  embeddings    plain text, ``token SP float ...`` per line (see embeddings)
  vocabulary    CSV with header ``concept_id,name,source``
  videos        headerless TSV ``video_id TAB split TAB description``
  events        JSON lines with ``event_id``, ``name``, ``description``
  scores        CSV with header ``video_id,<concept_id_1>,...`` matching the
                vocabulary column order
  supervised    CSV with header ``video_id,score``
  ground truth  CSV with header ``event_id,video_id,label`` with label 0/1
  rankings      headerless TSV ``video_id TAB score`` written per event
  metrics       JSON object, keys sorted

Floats are serialized with repr so files round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .composer import ScoreMatrix
from .errors import FormatError, ValidationError
from .query import Concept, ConceptVocabulary, EventQuery, VideoRecord

__all__ = [
    "read_vocabulary",
    "write_vocabulary",
    "read_videos",
    "write_videos",
    "read_events",
    "write_events",
    "read_scores",
    "write_scores",
    "read_supervised",
    "write_supervised",
    "read_ground_truth",
    "write_ground_truth",
    "write_embeddings",
    "write_ranking",
    "read_ranking",
    "write_metrics",
    "ranking_path",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_embeddings(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for token, vec in rows:
            fh.write(token + " " + " ".join(_fmt(x) for x in vec) + "\n")


def read_vocabulary(path: str) -> ConceptVocabulary:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["concept_id", "name", "source"]:
            raise FormatError(f"{path}: expected header concept_id,name,source")
        concepts = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            concepts.append(Concept(concept_id=row[0], name=row[1], source=row[2]))
    if not concepts:
        raise FormatError(f"{path}: no concepts")
    try:
        return ConceptVocabulary(concepts=concepts)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_vocabulary(path: str, vocab: ConceptVocabulary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["concept_id", "name", "source"])
        for c in vocab.concepts:
            writer.writerow([c.concept_id, c.name, c.source])


def read_videos(path: str) -> list[VideoRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                records.append(
                    VideoRecord(video_id=parts[0], split=parts[1], description=parts[2])
                )
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise FormatError(f"{path}: no videos")
    ids = [r.video_id for r in records]
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate video_id")
    return records


def write_videos(path: str, records: list[VideoRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(f"{r.video_id}\t{r.split}\t{r.description}\n")


def read_events(path: str) -> list[EventQuery]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: bad JSON: {exc}") from None
            try:
                events.append(
                    EventQuery(
                        event_id=obj["event_id"],
                        name=obj["name"],
                        description=obj.get("description", ""),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not events:
        raise FormatError(f"{path}: no events")
    ids = [e.event_id for e in events]
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate event_id")
    return events


def write_events(path: str, events: list[EventQuery]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in events:
            fh.write(
                json.dumps(
                    {"event_id": e.event_id, "name": e.name, "description": e.description},
                    sort_keys=True,
                )
                + "\n"
            )


def read_scores(
    path: str, vocab: ConceptVocabulary, videos: list[VideoRecord]
) -> ScoreMatrix:
    """Load the score matrix, reordering rows weak-first per the video file."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "video_id":
            raise FormatError(f"{path}: first header field must be video_id")
        if header[1:] != vocab.ids:
            raise ValidationError(
                f"{path}: score columns do not match the vocabulary order"
            )
        by_id: dict[str, np.ndarray] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            if row[0] in by_id:
                raise FormatError(f"{path}:{lineno}: duplicate video_id {row[0]!r}")
            try:
                by_id[row[0]] = np.array([float(x) for x in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad float: {exc}") from None
    missing = [r.video_id for r in videos if r.video_id not in by_id]
    if missing:
        raise ValidationError(f"{path}: missing score rows for videos: {missing[:10]}")
    weak = [r for r in videos if r.split == "weak"]
    test = [r for r in videos if r.split == "test"]
    ordered = weak + test
    values = np.vstack([by_id[r.video_id] for r in ordered])
    return ScoreMatrix(
        values=values,
        video_ids=[r.video_id for r in ordered],
        l=len(weak),
        u=len(test),
        concept_ids=list(vocab.ids),
    )


def write_scores(
    path: str, vocab: ConceptVocabulary, video_ids: list[str], values: np.ndarray
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id"] + vocab.ids)
        for vid, row in zip(video_ids, values):
            writer.writerow([vid] + [_fmt(x) for x in row])


def read_supervised(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["video_id", "score"]:
            raise FormatError(f"{path}: expected header video_id,score")
        out = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"{path}:{lineno}: expected 2 fields")
            if row[0] in out:
                raise FormatError(f"{path}:{lineno}: duplicate video_id {row[0]!r}")
            try:
                out[row[0]] = float(row[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad float {row[1]!r}") from None
    if not out:
        raise FormatError(f"{path}: no supervised scores")
    return out


def write_supervised(path: str, scores: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "score"])
        for vid, score in scores.items():
            writer.writerow([vid, _fmt(score)])


def read_ground_truth(path: str) -> dict[str, dict[str, int]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["event_id", "video_id", "label"]:
            raise FormatError(f"{path}: expected header event_id,video_id,label")
        out: dict[str, dict[str, int]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 or row[2] not in ("0", "1"):
                raise FormatError(f"{path}:{lineno}: expected event_id,video_id,0|1")
            labels = out.setdefault(row[0], {})
            if row[1] in labels:
                raise FormatError(
                    f"{path}:{lineno}: duplicate event_id,video_id {row[0]!r},{row[1]!r}"
                )
            labels[row[1]] = int(row[2])
    if not out:
        raise FormatError(f"{path}: no ground-truth rows")
    return out


def write_ground_truth(path: str, truth: dict[str, dict[str, int]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["event_id", "video_id", "label"])
        for event_id in truth:
            for vid, label in truth[event_id].items():
                writer.writerow([event_id, vid, str(int(label))])


def ranking_path(out_dir: str, event_id: str) -> str:
    return os.path.join(out_dir, f"{event_id}_ranking.tsv")


def write_ranking(path: str, ranking: list[tuple[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for vid, score in ranking:
            fh.write(f"{vid}\t{_fmt(score)}\n")


def read_ranking(path: str) -> list[tuple[str, float]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected video_id TAB score")
            try:
                out.append((parts[0], float(parts[1])))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad float {parts[1]!r}") from None
    return out


def write_metrics(path: str, metrics: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
