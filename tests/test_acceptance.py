"""Acceptance suite: one checked criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import os
import time

import numpy as np
import pytest

from conceptrank.cli import main
from conceptrank.composer import (
    CompositionConfig,
    ScoreMatrix,
    fit,
    fuse_supervised,
    normalize_scores,
    push_loss_from_scores,
    row_scores,
    score_box_top,
    smoothness_value,
)
from conceptrank.evaluation import average_precision, borda_baseline, ranked_list
from conceptrank.graph import gamma_for_k
from conceptrank.query import select_concepts
from conceptrank.synth import gen_instance
from conceptrank.weightstep import _weight_step

from helpers import (
    add_at_laplacian,
    brute_force_push,
    brute_force_simplex,
    finite_diff_gradient,
    neighbor_row,
    phrase_partition,
    phrase_relevance,
    project_row,
    random_instance,
    random_scores_and_labels,
    slsqp_weight_step_value,
    support_size,
    toy_embedding_table,
    weight_step_value,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_simplex_projection_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        v = rng.uniform(-10, 10, dim)
        gap = float(np.linalg.norm(project_row(v) - brute_force_simplex(v)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        "simplex projection matches enumeration oracle (1000 draws, dims 2-6)",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst l2 gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_uniform_prior_limit_exact():
    ok = True
    for n in range(2, 40):
        out = neighbor_row(np.zeros(n), gamma=1.0)
        ok = ok and np.array_equal(out, np.full(n, 1.0 / n))
    _report("zero distances give exactly the uniform neighbor vector", ok)


def test_gamma_for_k_support():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    ok = True
    detail = ""
    for _ in range(500):
        dim = int(rng.integers(3, 40))
        d = rng.uniform(0, 5, dim)
        if rng.uniform() < 0.1:
            d = np.round(d, 1)  # induce occasional ties
        k = int(rng.integers(1, dim))
        support = support_size(neighbor_row(d, gamma_for_k(d, k)))
        ds = np.sort(d)
        exact_possible = k == dim or ds[k] > ds[k - 1]
        if exact_possible:
            if support != k:
                ok, detail = False, f"support {support} != k {k}"
                break
        elif support < k:  # documented >=k fallback under ties
            ok, detail = False, f"tie fallback support {support} < k {k}"
            break
    elapsed = time.perf_counter() - start
    _report(
        "gamma_for_k yields support exactly k (>=k under ties) on 500 draws",
        ok and elapsed < 5.0,
        detail or f"{elapsed:.2f}s",
    )


def test_infinite_push_enumeration_equivalence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        scores, labels = random_scores_and_labels(rng)
        got = push_loss_from_scores(scores, labels)
        want = brute_force_push(scores, labels)
        worst = max(worst, abs(got - want))
    _report(
        "push loss equals brute-force enumeration on 1000 instances",
        worst <= 1e-12,
        f"worst gap {worst:.2e}",
    )


def test_monotone_descent_trace():
    rng = np.random.default_rng(66)
    worst = -np.inf
    for _ in range(50):
        S, labels, _, _, lam = random_instance(rng, n_max=60, m_max=10)
        S = normalize_scores(S)
        cfg = CompositionConfig(
            lambda_push=lam,
            max_outer_iters=4,
            k_candidates=8,
        )
        res = fit(S, labels, np.ones(S.n_concepts), cfg)
        trace = np.array(res.objective_trace)
        worst = max(worst, float(np.diff(trace).max(initial=-np.inf)))
    _report(
        "objective trace non-increasing at every block boundary (50 instances)",
        worst <= 1e-10,
        f"worst increase {worst:.2e}",
    )


def test_solver_cross_validation():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    uncertified = 0
    for _ in range(100):
        S, labels, neighbors, W0, lam = random_instance(rng, n_max=30, m_max=5)
        hi = score_box_top(S.values, 1.0)
        f0 = np.minimum(row_scores(W0, S.values), hi)
        f, gap, bound = _weight_step(f0, neighbors, labels, lam, hi, 1e-10)
        want = slsqp_weight_step_value(neighbors, labels, lam, hi)
        worst = max(worst, abs(weight_step_value(f, neighbors, labels, lam) - want))
        uncertified += gap > bound
    elapsed = time.perf_counter() - start
    _report(
        "weight step agrees with an independent SLSQP solve within 1e-4, "
        "every step certified (100 instances)",
        worst <= 1e-4 and uncertified == 0 and elapsed < 60.0,
        f"worst |diff| {worst:.2e}, {uncertified} uncertified, {elapsed:.1f}s",
    )


def test_smoothness_gradient_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        S, labels, nb, W0, lam = random_instance(rng, n_max=14, m_max=4)
        P = add_at_laplacian(nb, np.arange(S.n_videos))
        W = np.maximum(W0 * rng.uniform(0.3, 1.2), 0.0)

        def smooth_of_w(Wx):
            return smoothness_value(row_scores(Wx, S.values), nb)

        # P is the Hessian of the smoothness term, so P f its gradient
        analytic = (P @ row_scores(W, S.values))[:, None] * S.values
        numeric = finite_diff_gradient(smooth_of_w, W, h=1e-6)
        rel = np.linalg.norm(numeric - analytic) / max(1.0, np.linalg.norm(analytic))
        worst = max(worst, float(rel))
    _report(
        "smoothness gradient matches central differences (100 points)",
        worst <= 1e-5,
        f"worst rel err {worst:.2e}",
    )


def _pipeline_ap(inst, top_k, lam, with_supervised, table):
    relevance = phrase_relevance(inst.event, inst.vocabulary, table)
    selected = select_concepts(relevance, top_k, inst.vocabulary)
    weak = [v for v in inst.videos if v.split == "weak"]
    labels = phrase_partition(inst.event, weak, table, 20, 20)
    S = normalize_scores(
        ScoreMatrix(
            values=inst.scores[:, selected],
            video_ids=inst.video_ids,
            l=inst.l,
            u=inst.u,
            concept_ids=[inst.vocabulary.concepts[k].concept_id for k in selected],
        )
    )
    w_init = relevance.values[selected]
    S_fit = S
    if with_supervised:
        S_fit = fuse_supervised(S, inst.supervised)
        w_init = np.append(w_init, w_init.max())
    cfg = CompositionConfig(
        lambda_push=lam,
        k_candidates=15,
        k_neighbors=5,
        max_outer_iters=6,
        tol=1e-4,
    )
    result = fit(S_fit, labels, w_init, cfg)
    ranking = ranked_list(S_fit.test_ids(), result.scores[S_fit.l :])
    positives = inst.test_positive_ids()
    return (
        average_precision(ranking, positives),
        average_precision(borda_baseline(S), positives),
    )


def test_planted_recovery_and_trend():
    table = toy_embedding_table()
    start = time.perf_counter()
    inst = gen_instance(seed=0, l=40, u=40, m=6, n_informative=1, sigma=0.0)
    ap_clean, _ = _pipeline_ap(inst, top_k=2, lam=1.0, with_supervised=False, table=table)
    wins = 0
    for seed in range(50):
        inst = gen_instance(seed=seed, l=40, u=40, m=8, n_informative=2, sigma=0.3)
        ap, borda_ap = _pipeline_ap(
            inst, top_k=5, lam=2.0, with_supervised=False, table=table
        )
        wins += ap >= borda_ap
    elapsed = time.perf_counter() - start
    _report(
        "planted recovery: noiseless AP exactly 1.0; sigma=0.3 beats Borda on >=45/50",
        ap_clean == 1.0 and wins >= 45 and elapsed < 120.0,
        f"clean AP {ap_clean}, wins {wins}/50, {elapsed:.1f}s",
    )


def test_initialization_baseline_equality():
    table = toy_embedding_table()
    inst = gen_instance(seed=4, l=16, u=16, m=6, n_informative=1, sigma=0.2)
    relevance = phrase_relevance(inst.event, inst.vocabulary, table)
    selected = select_concepts(relevance, 3, inst.vocabulary)
    weak = [v for v in inst.videos if v.split == "weak"]
    labels = phrase_partition(inst.event, weak, table, 8, 8)
    S = normalize_scores(
        ScoreMatrix(
            values=inst.scores[:, selected],
            video_ids=inst.video_ids,
            l=inst.l,
            u=inst.u,
            concept_ids=[str(k) for k in selected],
        )
    )
    cfg = CompositionConfig(max_outer_iters=3, k_candidates=10)
    result = fit(S, labels, relevance.values[selected], cfg)
    got = ranked_list(S.test_ids(), result.initial_scores[S.l :])
    prior = relevance.values[selected]
    fixed = np.tile(prior * (1.0 / prior.sum()), (S.n_videos, 1))
    want = ranked_list(S.test_ids(), row_scores(fixed, S.values)[S.l :])
    _report(
        "iteration-0 ranking equals the fixed-relevance-weight ranking",
        [v for v, _ in got] == [v for v, _ in want],
    )


def test_few_exemplar_fusion():
    table = toy_embedding_table()
    inst = gen_instance(seed=5, l=40, u=40, m=6, n_informative=1, sigma=0.5)
    ap_fused, _ = _pipeline_ap(inst, top_k=2, lam=10.0, with_supervised=True, table=table)
    ap_plain, _ = _pipeline_ap(inst, top_k=2, lam=10.0, with_supervised=False, table=table)
    _report(
        "perfect supervised column fused at lambda=10 gives AP 1.0; removing it is strictly worse",
        ap_fused == 1.0 and ap_plain < ap_fused,
        f"fused {ap_fused}, without {ap_plain:.4f}",
    )


def test_full_rank_determinism(tmp_path):
    data = str(tmp_path / "data")
    assert (
        main(
            [
                "synth", "--out-dir", data, "--seed", "3", "--weak", "10",
                "--test", "10", "--concepts", "5", "--informative", "1",
                "--sigma", "0.2",
            ]
        )
        == 0
    )
    args = lambda out: [  # noqa: E731
        "rank",
        "--embeddings", os.path.join(data, "embeddings.txt"),
        "--vocabulary", os.path.join(data, "vocabulary.csv"),
        "--videos", os.path.join(data, "videos.tsv"),
        "--scores", os.path.join(data, "scores.csv"),
        "--events", os.path.join(data, "events.jsonl"),
        "--ground-truth", os.path.join(data, "ground_truth.csv"),
        "--out-dir", out,
        "--top-k", "3", "--n-pos", "5", "--n-neg", "5",
        "--k-candidates", "8", "--k-neighbors", "3",
        "--max-iters", "5",
    ]
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(args(out1)) == 0
    assert main(args(out2)) == 0
    same = True
    for name in sorted(os.listdir(out1)):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        same = same and b1 == b2
    _report("two identical rank runs produce byte-identical outputs", same)
