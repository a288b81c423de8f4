"""Tests of the benchmark's own generator, checker and trace aggregation."""

from __future__ import annotations

import filecmp
import json
import os
import types

import numpy as np
import pytest

import check
import gen
import run
import traced

WORKLOAD = "uncapped"  # the smallest single-event workload


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("inst") / "in")
    gen.generate(WORKLOAD, 7, 0, path)
    return path


def _valid_outputs(inst: check.Instance, out_dir: str) -> list[tuple[str, float]]:
    """A correct set of outputs for the instance's first event."""
    os.makedirs(out_dir, exist_ok=True)
    event = inst.event_ids[0]
    scores = np.linspace(1.0, 0.0, len(inst.test_ids))
    scores[3] = scores[2]  # one tie, listed in ascending id order
    ranking = list(zip(sorted(inst.test_ids), scores.tolist()))
    with open(os.path.join(out_dir, f"{event}_ranking.tsv"), "w") as fh:
        fh.writelines(f"{v}\t{s!r}\n" for v, s in ranking)
    with open(os.path.join(out_dir, f"{event}_weak_labels.csv"), "w") as fh:
        fh.write(",".join(["video_id"] + inst.concept_ids) + "\n")
        for (vid, _), row in zip(inst.weak, inst.weak_labels):
            fh.write(",".join([vid] + [repr(float(x)) for x in row]) + "\n")
    return ranking


def _metrics(inst, ranking, ap_shift=0.0):
    ap = check.average_precision([v for v, _ in ranking], inst.positives[inst.event_ids[0]])
    return {"failures": {}, inst.event_ids[0]: ap + ap_shift}


def test_same_seed_gives_byte_identical_inputs(tmp_path, instance_dir):
    gen.generate(WORKLOAD, 7, 0, str(tmp_path / "again"))
    gen.generate(WORKLOAD, 8, 0, str(tmp_path / "other"))
    names = sorted(os.listdir(instance_dir))
    assert names == sorted(os.listdir(tmp_path / "again"))
    _, mismatch, errors = filecmp.cmpfiles(instance_dir, tmp_path / "again", names, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(instance_dir, tmp_path / "other", names, shallow=False)
    assert mismatch


def test_cleaning_leaves_descriptions_unchanged(instance_dir):
    text = pytest.importorskip("conceptrank.text")
    inst = check.Instance(instance_dir)
    for _, tokens in inst.weak:
        assert text.clean_text(" ".join(tokens)) == tokens


def test_valid_outputs_pass(tmp_path, instance_dir):
    inst = check.Instance(instance_dir)
    ranking = _valid_outputs(inst, str(tmp_path))
    problems, ap = inst.event_problems(str(tmp_path), _metrics(inst, ranking), inst.event_ids[0])
    assert problems == []
    assert 0.0 < ap < 1.0


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda r: r + [r[-1]], "more than once"),
        (lambda r: r[:-1], "missing"),
        (lambda r: [r[1], r[0]] + r[2:], "score rises"),
        (lambda r: r[:2] + [r[3], r[2]] + r[4:], "tie"),
    ],
)
def test_checker_rejects_bad_rankings(instance_dir, mutate, expected):
    inst = check.Instance(instance_dir)
    ranking = [(v, 1.0 - i / 100) for i, v in enumerate(sorted(inst.test_ids))]
    ranking[3] = (ranking[3][0], ranking[2][1])
    assert check.ranking_problems(ranking, inst.test_ids) == []
    problems = check.ranking_problems(mutate(ranking), inst.test_ids)
    assert any(expected in p for p in problems), problems


def test_checker_rejects_wrong_ap_and_weak_labels(tmp_path, instance_dir):
    inst = check.Instance(instance_dir)
    ranking = _valid_outputs(inst, str(tmp_path))
    event = inst.event_ids[0]
    problems, _ = inst.event_problems(str(tmp_path), _metrics(inst, ranking, 1e-9), event)
    assert any("AP" in p for p in problems)

    inst.weak_labels[0, 0] += 1e-6
    problems, _ = inst.event_problems(str(tmp_path), _metrics(inst, ranking), event)
    assert any("weak labels off" in p for p in problems)

    os.remove(os.path.join(tmp_path, f"{event}_ranking.tsv"))
    problems, ap = inst.event_problems(str(tmp_path), _metrics(inst, ranking), event)
    assert ap is None and problems == ["ranking file missing"]


def test_tracer_records_nested_spans_with_event():
    tracer = traced.Tracer()
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda event: module.inner(1)
    tracer.wrap("inner", module, "inner")
    tracer.wrap("outer", module, "outer", enter=tracer.set_event)
    assert module.outer(types.SimpleNamespace(event_id="E9")) == 2
    spans = sorted(tracer.spans)
    assert [(s[1], s[4], s[5]) for s in spans] == [("outer", None, "E9"), ("inner", 0, "E9")]


def test_layer_metrics_from_spans():
    trace = {
        "spans": [
            [0, "pipeline.run", 10.0, 20.0, None, None],
            [1, "pipeline.event", 11.0, 15.0, None, "E1"],
            [2, "query.weak_labels", 11.5, 12.0, 1, "E1"],
            [3, "query.weak_labels", 12.0, 12.25, 1, "E1"],
            [4, "pipeline.event", 13.0, 19.0, None, "E2"],
        ],
        "fits": [{"event": "E1", "iterations": 3, "uncertified": 1, "problems": []}],
    }
    m = run.layer_metrics(trace)
    assert m["query.weak_labels_s"] == pytest.approx(0.75)
    assert m["query.weak_label_calls"] == 2
    assert m["pipeline.event_s"] == pytest.approx(10.0)
    assert m["pipeline.queue_wait_s"] == pytest.approx(4.0)
    assert "composer.fit_s" not in m and "composer.outer_iters" not in m


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    expected = set(run.LAYER_TIMES) | set(run.LAYER_COUNTS) | {
        "pipeline.queue_wait_s", "composer.outer_iters", "composer.uncertified_steps",
        "trace.overhead_s",
    }
    assert layer_names == expected
