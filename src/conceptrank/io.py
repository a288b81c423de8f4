"""Readers and writers for every file the pipeline reads or writes.

Formats:
  embeddings         plain text, ``token SP float ...`` per line (see embeddings)
  embeddings cache   ``<embeddings>.cache.npz`` beside the table, written on a
                     parse and read while the table's bytes are unchanged
                     (see embeddings)
  vocabulary         CSV with header ``concept_id,name,source``
  videos             headerless TSV ``video_id TAB split TAB description``
  events             JSON lines with string fields ``event_id``, ``name`` and,
                     optionally, ``description``
  scores             CSV with header ``video_id,<concept_id_1>,...`` matching the
                     vocabulary column order
  weak labels        the scores format over the weak videos that the
                     vocabulary covers, written per event
  supervised         CSV with header ``video_id,score``
  ground truth       CSV with header ``event_id,video_id,label`` with label 0/1
  rankings           headerless TSV ``video_id TAB score`` written per event
  selected concepts  CSV with header ``event_id,rank,concept_id,relevance``,
                     best concept first within each event
  metrics            JSON object, keys sorted: ``rank``'s metrics, ``eval``'s
                     metrics and ``synth``'s instance manifest

Every CSV and TSV file is read by ``_read_rows``: a row's first column (for
ground truth, its first two) is its key, and no key may repeat.  Every CSV
file is formatted by ``_csv_text``.  Floats are serialized with repr so
files round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import json
import os
from io import StringIO

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
    "scores_csv",
    "read_supervised",
    "write_supervised",
    "read_ground_truth",
    "write_ground_truth",
    "write_embeddings",
    "write_ranking",
    "read_ranking",
    "write_selected_concepts",
    "write_metrics",
    "ranking_path",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad float {text!r}") from None


def _tsv_rows(fh):
    for line in fh:
        line = line.rstrip("\n")
        yield line.split("\t") if line else []


def _read_rows(path, columns, parse, *, key=1, tsv=False, empty_ok=False, header_error=None):
    """The rows of the delimited file ``path`` as ``{key: parse(row)}`` in file
    order, where a row's key is its first field, or the tuple of its first
    ``key`` fields.

    A CSV file's first row must equal ``columns``; ``header_error(found)``,
    if given, is the exception raised when it does not.  A TSV file
    (``tsv``) has no header.  Blank rows are skipped.  Every other row must
    have one field per column and a key no earlier row has; a ``ValueError``
    from ``parse`` is raised again as a ``FormatError`` with the row's
    ``path:lineno:`` prefix.  A file without rows is an error unless
    ``empty_ok``.
    """
    out: dict = {}
    with open(path, encoding="utf-8", newline=None if tsv else "") as fh:
        rows = _tsv_rows(fh) if tsv else csv.reader(fh)
        if not tsv:
            found = next(rows, None)
            if found != columns:
                if header_error is not None:
                    raise header_error(found)
                raise FormatError(f"{path}: expected header {','.join(columns)}")
        for lineno, row in enumerate(rows, start=1 if tsv else 2):
            if not row:
                continue
            if len(row) != len(columns):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}"
                )
            k = row[0] if key == 1 else tuple(row[:key])
            if k in out:
                raise FormatError(
                    f"{path}:{lineno}: duplicate {','.join(columns[:key])} {k!r}"
                )
            try:
                out[k] = parse(row)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not out and not empty_ok:
        raise FormatError(f"{path}: no rows")
    return out


def _csv_text(header: list[str], rows) -> str:
    """``header`` and then ``rows`` as CSV text, each line ending in ``\\n``."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_embeddings(path: str, rows) -> None:
    _write(path, "".join(
        token + " " + " ".join(_fmt(x) for x in vec) + "\n" for token, vec in rows
    ))


def read_vocabulary(path: str) -> ConceptVocabulary:
    concepts = _read_rows(path, ["concept_id", "name", "source"], lambda row: Concept(*row))
    try:
        return ConceptVocabulary(concepts=list(concepts.values()))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_vocabulary(path: str, vocab: ConceptVocabulary) -> None:
    _write(path, _csv_text(
        ["concept_id", "name", "source"],
        ([c.concept_id, c.name, c.source] for c in vocab.concepts),
    ))


def read_videos(path: str) -> list[VideoRecord]:
    records = _read_rows(
        path, ["video_id", "split", "description"], lambda row: VideoRecord(*row), tsv=True
    )
    return list(records.values())


def write_videos(path: str, records: list[VideoRecord]) -> None:
    _write(path, "".join(f"{r.video_id}\t{r.split}\t{r.description}\n" for r in records))


def _check_event_id(event_id: str) -> None:
    """An event id names the event's ranking file in a directory, so it
    must be a plain file name: not ``.`` or ``..``, with no ``/``, ``\\``
    or NUL."""
    if event_id in (".", "..") or any(c in event_id for c in "/\\\0"):
        raise ValueError(f"event_id {event_id!r} is not a plain file name")


def read_events(path: str) -> list[EventQuery]:
    events: dict[str, EventQuery] = {}
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
                fields = {"event_id": obj["event_id"], "name": obj["name"]}
                fields["description"] = obj.get("description", "")
                for name, value in fields.items():
                    if not isinstance(value, str):
                        kind = type(value).__name__
                        raise ValueError(f"{name} must be a JSON string, got {kind}")
                _check_event_id(fields["event_id"])
                event = EventQuery(**fields)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if event.event_id in events:
                raise FormatError(f"{path}:{lineno}: duplicate event_id {event.event_id!r}")
            events[event.event_id] = event
    if not events:
        raise FormatError(f"{path}: no events")
    return list(events.values())


def write_events(path: str, events: list[EventQuery]) -> None:
    _write(path, "".join(
        json.dumps(
            {"event_id": e.event_id, "name": e.name, "description": e.description},
            sort_keys=True,
        )
        + "\n"
        for e in events
    ))


def read_scores(
    path: str, vocab: ConceptVocabulary, videos: list[VideoRecord]
) -> ScoreMatrix:
    """Load the score matrix, reordering rows weak-first per the video file."""

    def header_error(found):
        if found and found[0] == "video_id":
            return ValidationError(f"{path}: score columns do not match the vocabulary order")
        return FormatError(f"{path}: first header field must be video_id")

    by_id = _read_rows(
        path,
        ["video_id"] + vocab.ids,
        lambda row: np.array([_float(x) for x in row[1:]], dtype=np.float64),
        header_error=header_error,
    )
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


def scores_csv(vocab: ConceptVocabulary, video_ids: list[str], values: np.ndarray) -> str:
    """The text of a scores file; a weak-labels file has this format too."""
    return _csv_text(
        ["video_id"] + vocab.ids,
        ([vid] + [_fmt(x) for x in row] for vid, row in zip(video_ids, values)),
    )


def write_scores(
    path: str, vocab: ConceptVocabulary, video_ids: list[str], values: np.ndarray
) -> None:
    _write(path, scores_csv(vocab, video_ids, values))


def read_supervised(path: str) -> dict[str, float]:
    def parse(row):
        score = _float(row[1])
        if not np.isfinite(score):
            raise ValueError(f"supervised score must be finite, got {row[1]!r}")
        return score

    return _read_rows(path, ["video_id", "score"], parse)


def write_supervised(path: str, scores: dict[str, float]) -> None:
    _write(path, _csv_text(
        ["video_id", "score"], ([vid, _fmt(score)] for vid, score in scores.items())
    ))


def _label(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {text!r}")
    return int(text)


def read_ground_truth(path: str) -> dict[str, dict[str, int]]:
    def parse(row):
        _check_event_id(row[0])
        return _label(row[2])

    labels = _read_rows(path, ["event_id", "video_id", "label"], parse, key=2)
    out: dict[str, dict[str, int]] = {}
    for (event_id, video_id), label in labels.items():
        out.setdefault(event_id, {})[video_id] = label
    return out


def write_ground_truth(path: str, truth: dict[str, dict[str, int]]) -> None:
    _write(path, _csv_text(
        ["event_id", "video_id", "label"],
        (
            [event_id, vid, str(int(label))]
            for event_id, labels in truth.items()
            for vid, label in labels.items()
        ),
    ))


def ranking_path(out_dir: str, event_id: str) -> str:
    return os.path.join(out_dir, f"{event_id}_ranking.tsv")


def write_ranking(path: str, ranking: list[tuple[str, float]]) -> None:
    _write(path, "".join(f"{vid}\t{_fmt(score)}\n" for vid, score in ranking))


def read_ranking(path: str) -> list[tuple[str, float]]:
    scores = _read_rows(
        path, ["video_id", "score"], lambda row: _float(row[1]), tsv=True, empty_ok=True
    )
    return list(scores.items())


def write_selected_concepts(path: str, selections) -> None:
    """``selections`` holds, per event, ``(event_id, [(concept_id,
    relevance), ...])`` with the best concept first."""
    _write(path, _csv_text(
        ["event_id", "rank", "concept_id", "relevance"],
        (
            [event_id, str(rank), concept_id, _fmt(relevance)]
            for event_id, chosen in selections
            for rank, (concept_id, relevance) in enumerate(chosen, start=1)
        ),
    ))


def write_metrics(path: str, metrics: dict) -> None:
    _write(path, json.dumps(metrics, indent=2, sort_keys=True) + "\n")
