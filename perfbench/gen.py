"""Input generator for the `conceptrank rank` benchmark.

Writes every file that `rank` reads (embedding table, concept vocabulary,
videos, events, detector scores) plus the ground truth, from a seed alone.
It does not import `conceptrank`, so the program under test receives only
the files.

The planted model, per instance:

* Each event has a unit topic direction.  Its informative concepts (their
  own per event, disjoint across events) have names made of tokens whose
  vectors lie near that direction; so do the tokens of the event's query.
  Every other concept name and every generic description token points in
  a random direction.
* Each weak video is positive for at most one event.  A positive's
  description draws some tokens from its event's topic, a negative's draws
  a few by chance, so the pseudo labels that `rank` draws are imperfect.
* Detector scores are noise, raised on an event's informative concepts for
  that event's positives; some negatives are raised on one or two of them
  as well (hard negatives), so neither Borda nor the learned ranking
  reaches mAP 1.0.

Every description and concept-name token is lowercase letters followed by
a digit.  No stopword and no Porter suffix rule matches such a token, so
the program's text cleaning leaves each description unchanged.

Usage:  python3 perfbench/gen.py --workload solve --seed 3 --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class Workload:
    events: int
    weak: int  # l
    test: int  # u
    concepts: int  # m
    informative: int  # planted concepts per event
    dim: int  # embedding dimension
    filler: int  # table tokens that no input uses
    positive_share: float  # per event, of the weak and of the test videos
    rank_args: tuple[str, ...]  # flags passed to `conceptrank rank`
    stream: int  # seed stream, so workloads never share inputs


WORKLOADS = {
    # capped weight step at the CLI's default label counts (20/100) and cap
    "solve": Workload(
        events=1, weak=300, test=340, concepts=50, informative=5, dim=32,
        filler=200, positive_share=0.12,
        rank_args=("--top-k", "30", "--max-iters", "4"), stream=1,
    ),
    # the same layer on its clip-regime path (no cap: hinge slacks)
    "uncapped": Workload(
        events=1, weak=180, test=220, concepts=50, informative=5, dim=32,
        filler=200, positive_share=0.12,
        rank_args=("--top-k", "30", "--max-iters", "4", "--no-weight-cap"), stream=2,
    ),
    # many events over a large vocabulary and table, small fit per event
    "events": Workload(
        events=8, weak=32, test=110, concepts=180, informative=4, dim=48,
        filler=20000, positive_share=0.09,
        rank_args=("--top-k", "5", "--n-pos", "5", "--n-neg", "20", "--max-iters", "2"),
        stream=3,
    ),
}

DESC_TOKENS = 8  # tokens per weak description
TOPIC_TOKENS = 3  # on-topic tokens in a positive's (or look-alike's) description
LOOK_ALIKE_SHARE = 0.06  # weak negatives whose description is on some topic
HARD_NEG_SHARE = 0.15  # negatives whose scores rise on some informative concepts
SIGNAL = 0.30  # score lift on an informative concept
SCORE_NOISE = 0.08
FLOAT_FMT = "%.6f"  # as in common text embedding files


def _tokens(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """`count` new unique tokens: 3 to 7 letters and one final digit."""
    out: list[str] = []
    while len(out) < count:
        need = count - len(out)
        lengths = rng.integers(3, 8, size=need)
        letters = rng.choice(_LETTERS, size=(need, 7))
        digits = rng.integers(10, size=need)
        for n, row, d in zip(lengths, letters, digits):
            tok = "".join(row[:n]) + str(d)
            if tok not in taken:
                taken.add(tok)
                out.append(tok)
    return out


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generate(workload: str, seed: int, instance: int, out_dir: str) -> None:
    """Write one instance of `workload` into `out_dir`."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng([w.stream, seed, instance])
    os.makedirs(out_dir, exist_ok=True)
    taken: set[str] = set()
    vectors: dict[str, np.ndarray] = {}

    topics = [_unit(rng, w.dim) for _ in range(w.events)]

    def near(topic: np.ndarray) -> np.ndarray:
        return topic + 0.45 * rng.standard_normal(w.dim) / np.sqrt(w.dim)

    # topic words per event: query and on-topic description tokens
    topic_words = []
    for topic in topics:
        toks = _tokens(rng, 12, taken)
        for t in toks:
            vectors[t] = near(topic)
        topic_words.append(toks)
    generic = _tokens(rng, 60, taken)
    for t in generic:
        vectors[t] = _unit(rng, w.dim)

    # concepts: the first events*informative are planted, in event order
    n_planted = w.events * w.informative
    if n_planted > w.concepts:
        raise ValueError("more planted concepts than concepts")
    concept_names = []
    for k in range(w.concepts):
        toks = _tokens(rng, int(rng.integers(1, 3)), taken)
        event = k // w.informative if k < n_planted else None
        for t in toks:
            vectors[t] = near(topics[event]) if event is not None else _unit(rng, w.dim)
        concept_names.append(" ".join(toks))
    concept_order = rng.permutation(w.concepts)  # vocabulary order hides the plant
    concept_ids = [f"C{k:04d}" for k in range(w.concepts)]
    informative = [
        [int(np.flatnonzero(concept_order == e * w.informative + j)[0])
         for j in range(w.informative)]
        for e in range(w.events)
    ]
    names = [concept_names[concept_order[k]] for k in range(w.concepts)]

    filler = rng.standard_normal((w.filler, w.dim))
    filler /= np.linalg.norm(filler, axis=1, keepdims=True)
    vectors.update(zip(_tokens(rng, w.filler, taken), filler))

    # videos: an exact number of positives per event in each split
    def assign(count: int) -> np.ndarray:
        per_event = max(1, round(w.positive_share * count))
        label = np.full(count, -1)
        label[: per_event * w.events] = np.repeat(np.arange(w.events), per_event)
        return rng.permutation(label)

    weak_event = assign(w.weak)
    test_event = assign(w.test)
    n = w.weak + w.test
    video_ids = [f"V{i:05d}" for i in range(n)]

    # exact counts keep the pseudo-label noise the same from seed to seed
    negatives = np.flatnonzero(weak_event < 0)
    look_alike = dict(zip(
        rng.choice(negatives, size=round(LOOK_ALIKE_SHARE * negatives.size), replace=False),
        rng.integers(w.events, size=negatives.size),
    ))
    descriptions = []
    for i, e in enumerate(weak_event):
        topic = int(e) if e >= 0 else look_alike.get(i)
        toks = [str(t) for t in rng.choice(generic, size=DESC_TOKENS)]
        if topic is not None:
            for pos in rng.choice(DESC_TOKENS, size=TOPIC_TOKENS, replace=False):
                toks[pos] = str(rng.choice(topic_words[topic]))
        descriptions.append(" ".join(toks))

    video_event = np.concatenate([weak_event, test_event])
    negatives = np.flatnonzero(video_event < 0)
    hard = set(rng.choice(negatives, size=round(HARD_NEG_SHARE * negatives.size), replace=False))
    scores = np.clip(0.3 + SCORE_NOISE * rng.standard_normal((n, w.concepts)), 0.0, 1.0)
    for i, e in enumerate(video_event):
        if e >= 0:
            cols = informative[e]
        elif i in hard:
            e_fake = int(rng.integers(w.events))
            cols = rng.choice(informative[e_fake], size=int(rng.integers(1, 3)), replace=False)
        else:
            continue
        scores[i, cols] += SIGNAL * (1.0 + 0.5 * rng.standard_normal(len(cols)))
    scores = np.clip(scores, 0.0, 1.0)

    events = []
    for e in range(w.events):
        toks = list(rng.choice(topic_words[e], size=6, replace=False))
        events.append({
            "event_id": f"E{e + 1:03d}",
            "name": " ".join(toks[:2]),
            "description": " ".join(toks[2:]),
        })

    # the table lists tokens in a seeded order, rounded as written
    table_tokens = sorted(vectors)
    rng.shuffle(table_tokens)
    emb_fmt = "%s " + " ".join([FLOAT_FMT] * w.dim) + "\n"
    score_fmt = "%s," + ",".join([FLOAT_FMT] * w.concepts) + "\n"
    _write(out_dir, "embeddings.txt", (emb_fmt % (t, *vectors[t]) for t in table_tokens))
    _write(out_dir, "vocabulary.csv", ["concept_id,name,source\n"] + [
        f"{cid},{name},perfbench\n" for cid, name in zip(concept_ids, names)])
    _write(out_dir, "videos.tsv", [
        f"{video_ids[i]}\tweak\t{descriptions[i]}\n" if i < w.weak else f"{video_ids[i]}\ttest\t\n"
        for i in range(n)])
    _write(out_dir, "events.jsonl", (json.dumps(ev, sort_keys=True) + "\n" for ev in events))
    _write(out_dir, "scores.csv", [",".join(["video_id"] + concept_ids) + "\n"] + [
        score_fmt % (vid, *row) for vid, row in zip(video_ids, scores)])
    _write(out_dir, "ground_truth.csv", ["event_id,video_id,label\n"] + [
        f"{ev['event_id']},{video_ids[i]},{int(video_event[i] == e)}\n"
        for e, ev in enumerate(events) for i in range(w.weak, n)])


def _write(out_dir: str, name: str, lines) -> None:
    # on disk before `rank` is timed, so no write-back runs during set-up
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())


def rank_argv(workload: str, in_dir: str, out_dir: str) -> list[str]:
    """Arguments of `conceptrank rank` on an instance written by `generate`."""
    return [
        "rank",
        "--embeddings", os.path.join(in_dir, "embeddings.txt"),
        "--vocabulary", os.path.join(in_dir, "vocabulary.csv"),
        "--videos", os.path.join(in_dir, "videos.tsv"),
        "--events", os.path.join(in_dir, "events.jsonl"),
        "--scores", os.path.join(in_dir, "scores.csv"),
        "--ground-truth", os.path.join(in_dir, "ground_truth.csv"),
        "--out-dir", out_dir,
        *WORKLOADS[workload].rank_args,
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.instance, args.out_dir)


if __name__ == "__main__":
    main()
