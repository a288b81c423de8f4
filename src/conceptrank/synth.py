"""Synthetic instances with planted ground truth.

Instances are desk-scale stand-ins for a real video corpus: a compact
embedding table over themed word groups, a concept vocabulary whose
informative concepts are named with event words, templated weak-video
descriptions, and score columns where informative concepts separate the
planted labels.  Regenerating with the same seed is bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .query import Concept, ConceptVocabulary, EventQuery, PseudoLabels, VideoRecord
from .text import porter_stem

__all__ = [
    "SynthInstance",
    "gen_instance",
    "toy_embedding_rows",
]

# themed word groups; every group maps to one basis direction so that
# cross-group cosine is exactly 0 and within-group cosine exactly 1
_EVENT_GROUP_A = ("dog", "puppy", "terrier", "kennel", "leash")
_EVENT_GROUP_B = ("show", "contest", "exhibition", "judge", "arena")
_OTHER_GROUPS = (
    ("parade", "march", "procession", "banner"),
    ("climb", "rock", "boulder", "rope"),
    ("cook", "bake", "kitchen", "recipe"),
    ("repair", "fix", "bicycle", "wheel"),
    ("music", "guitar", "drum", "song"),
    ("beach", "ocean", "sand", "wave"),
)
_ALL_GROUPS = (_EVENT_GROUP_A, _EVENT_GROUP_B) + _OTHER_GROUPS


def toy_embedding_rows() -> list[tuple[str, np.ndarray]]:
    """(token, vector) rows of the toy table, in a fixed order.

    Each group word and its Porter stem share the group's one-hot vector,
    so both raw query tokens and cleaned description tokens are covered.
    """
    dim = len(_ALL_GROUPS)
    rows: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    for g, words in enumerate(_ALL_GROUPS):
        vec = np.zeros(dim)
        vec[g] = 1.0
        for word in words:
            for token in (word, porter_stem(word)):
                if token not in seen:
                    seen.add(token)
                    rows.append((token, vec.copy()))
    return rows


@dataclass
class SynthInstance:
    seed: int
    sigma: float
    l: int
    u: int
    event: EventQuery
    vocabulary: ConceptVocabulary
    videos: list[VideoRecord]
    scores: np.ndarray  # (l+u, m) raw detector scores
    informative: tuple[int, ...]  # planted informative column indices
    weak_truth: np.ndarray  # (l,) planted 0/1 labels of weak videos
    test_truth: np.ndarray  # (u,) planted 0/1 labels of test videos
    supervised: np.ndarray  # (l+u,) perfect supervised scores

    @property
    def video_ids(self) -> list[str]:
        return [v.video_id for v in self.videos]

    def test_positive_ids(self) -> set[str]:
        return {
            self.videos[self.l + i].video_id
            for i in range(self.u)
            if self.test_truth[i] == 1
        }

    def exact_pseudo_labels(self) -> PseudoLabels:
        """The planted weak split as pseudo labels (construction oracle)."""
        return PseudoLabels(
            positives=tuple(np.flatnonzero(self.weak_truth == 1)),
            negatives=tuple(np.flatnonzero(self.weak_truth == 0)),
        )


def gen_instance(
    seed: int, l: int, u: int, m: int, n_informative: int, sigma: float
) -> SynthInstance:
    """Deterministic planted instance.

    Half of each split is positive.  Informative concept columns score
    positives ~U[0.7, 1.0] and negatives ~U[0, 0.3]; other columns score
    ~U[0, 1] for everyone; additive Gaussian noise of scale sigma is
    clipped back into [0, 1].
    """
    if l < 4 or u < 4:
        raise ValueError("need l >= 4 and u >= 4")
    if not 1 <= n_informative <= m:
        raise ValueError(f"need 1 <= n_informative <= {m}")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)

    event = EventQuery(
        event_id="E001",
        name="dog show",
        description="a dog show with puppy and judge at the exhibition",
    )

    informative = tuple(sorted(rng.permutation(m)[:n_informative].tolist()))
    info_names = itertools.cycle(
        [f"{a} {b}" for a, b in itertools.product(_EVENT_GROUP_A, _EVENT_GROUP_B)]
    )
    mild_names = itertools.cycle(
        [
            f"{b} {g[0]}"
            for b, g in itertools.product(_EVENT_GROUP_B[:3], _OTHER_GROUPS)
        ]
    )
    far_names = itertools.cycle(
        [f"{g[0]} {g[1]}" for g in _OTHER_GROUPS]
        + [f"{g[2]} {g[3]}" for g in _OTHER_GROUPS]
    )
    concepts = []
    n_distractors = 0
    for k in range(m):
        if k in informative:
            name = next(info_names)
        elif n_distractors % 2 == 0:
            name = next(mild_names)
            n_distractors += 1
        else:
            name = next(far_names)
            n_distractors += 1
        concepts.append(Concept(concept_id=f"C{k:03d}", name=name, source="synth"))
    vocabulary = ConceptVocabulary(concepts=concepts)

    weak_truth = np.zeros(l, dtype=np.int64)
    weak_truth[rng.permutation(l)[: l // 2]] = 1
    test_truth = np.zeros(u, dtype=np.int64)
    test_truth[rng.permutation(u)[: u // 2]] = 1
    truth = np.concatenate([weak_truth, test_truth])

    n = l + u
    scores = np.empty((n, m))
    for k in range(m):
        if k in informative:
            col = np.where(
                truth == 1,
                rng.uniform(0.7, 1.0, size=n),
                rng.uniform(0.0, 0.3, size=n),
            )
        else:
            col = rng.uniform(0.0, 1.0, size=n)
        scores[:, k] = col
    if sigma > 0:
        scores = np.clip(scores + rng.normal(0.0, sigma, size=scores.shape), 0.0, 1.0)

    videos = []
    for i in range(l):
        if weak_truth[i] == 1:
            a = str(rng.choice(_EVENT_GROUP_A))
            b = str(rng.choice(_EVENT_GROUP_B))
            desc = f"a {a} at the {b}"
        else:
            group = _OTHER_GROUPS[int(rng.integers(len(_OTHER_GROUPS)))]
            w1, w2 = (str(w) for w in rng.choice(group, size=2, replace=False))
            desc = f"the {w1} and a {w2}"
        videos.append(VideoRecord(video_id=f"V{i:04d}", split="weak", description=desc))
    for i in range(u):
        videos.append(VideoRecord(video_id=f"V{l + i:04d}", split="test"))

    return SynthInstance(
        seed=seed,
        sigma=sigma,
        l=l,
        u=u,
        event=event,
        vocabulary=vocabulary,
        videos=videos,
        scores=scores,
        informative=informative,
        weak_truth=weak_truth,
        test_truth=test_truth,
        supervised=truth.astype(np.float64),
    )

