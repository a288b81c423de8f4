import json
import os
import shutil
import subprocess
import sys

import pytest

import conceptrank
from conceptrank import embeddings, io, query, weightstep
from conceptrank.cli import main
from conceptrank.composer import CompositionConfig
from conceptrank.evaluation import average_precision, ranked_list
from conceptrank.pipeline import METRICS_KEYS, RunConfig, rank_one_event, run_rank

from helpers import bench_generator


def _synth(tmp_path, seed=0, weak=8, test=8, concepts=4, informative=1, sigma=0.0):
    out = str(tmp_path / "data")
    code = main(
        [
            "synth",
            "--out-dir", out,
            "--seed", str(seed),
            "--weak", str(weak),
            "--test", str(test),
            "--concepts", str(concepts),
            "--informative", str(informative),
            "--sigma", str(sigma),
        ]
    )
    assert code == 0
    return out


def _rank_args(data, out, extra=()):
    return [
        "rank",
        "--embeddings", os.path.join(data, "embeddings.txt"),
        "--vocabulary", os.path.join(data, "vocabulary.csv"),
        "--videos", os.path.join(data, "videos.tsv"),
        "--scores", os.path.join(data, "scores.csv"),
        "--events", os.path.join(data, "events.jsonl"),
        "--ground-truth", os.path.join(data, "ground_truth.csv"),
        "--out-dir", out,
        "--top-k", "2",
        "--n-pos", "4",
        "--n-neg", "4",
        "--k-candidates", "8",
        "--k-neighbors", "3",
        "--max-iters", "4",
        *extra,
    ]


def test_synth_writes_all_pipeline_inputs(tmp_path):
    data = _synth(tmp_path)
    for name in (
        "embeddings.txt",
        "vocabulary.csv",
        "videos.tsv",
        "events.jsonl",
        "scores.csv",
        "supervised.csv",
        "ground_truth.csv",
        "instance.json",
    ):
        assert os.path.isfile(os.path.join(data, name)), name


def test_synth_then_rank_with_default_label_counts(tmp_path):
    # synth's default weak split holds rank's default pseudo labels
    data = str(tmp_path / "data")
    assert main(["synth", "--out-dir", data]) == 0
    out = str(tmp_path / "out")
    args = [
        "rank",
        "--embeddings", os.path.join(data, "embeddings.txt"),
        "--vocabulary", os.path.join(data, "vocabulary.csv"),
        "--videos", os.path.join(data, "videos.tsv"),
        "--scores", os.path.join(data, "scores.csv"),
        "--events", os.path.join(data, "events.jsonl"),
        "--ground-truth", os.path.join(data, "ground_truth.csv"),
        "--out-dir", out,
        "--max-iters", "2",
    ]
    assert main(args) == 0
    assert json.loads(open(os.path.join(out, "metrics.json")).read())["failures"] == {}
    assert os.path.getsize(io.ranking_path(out, "E001")) > 0


def test_rank_rejects_label_counts_above_weak_pool_once(tmp_path, capsys):
    # every event splits the same weak pool, so 20 + 100 pseudo labels from
    # 40 weak videos is one run-level error, raised before any event is ranked
    data = str(tmp_path / "data")
    assert main(["synth", "--out-dir", data, "--weak", "40"]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    args = [
        "rank",
        "--embeddings", os.path.join(data, "embeddings.txt"),
        "--vocabulary", os.path.join(data, "vocabulary.csv"),
        "--videos", os.path.join(data, "videos.tsv"),
        "--scores", os.path.join(data, "scores.csv"),
        "--events", os.path.join(data, "events.jsonl"),
        "--out-dir", str(out),
    ]
    assert main(args) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert not any("event" in r for r in records)
    (error,) = [r["validation_error"] for r in records if "validation_error" in r]
    assert "n_pos + n_neg = 120 exceeds the 40" in error
    assert not out.exists()


def test_rank_end_to_end_and_metrics(tmp_path):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert metrics["failures"] == {}
    assert "E001" in metrics and "mAP" in metrics
    assert "borda" in metrics and "mAP" in metrics["borda"]
    ranking = io.read_ranking(io.ranking_path(out, "E001"))
    assert len(ranking) == 8  # test split only
    assert os.path.isfile(os.path.join(out, "E001_weak_labels.csv"))


def test_rank_with_supervised_scores(tmp_path):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    extra = ("--supervised", os.path.join(data, "supervised.csv"))
    assert main(_rank_args(data, out, extra=extra)) == 0
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert metrics["failures"] == {} and metrics["E001"] >= 0.0
    assert len(io.read_ranking(io.ranking_path(out, "E001"))) == 8


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:2] + lines[3:], "supervised scores missing for videos: ['V0001']"),
        (lambda lines: lines[:2] + ["V0001,nan\n"] + lines[3:], "supervised.csv:3: "),
    ],
    ids=["missing_row", "nan"],
)
def test_rank_rejects_bad_supervised_file(tmp_path, capsys, edit, message):
    # a supervised file that fails every event is a validation error,
    # raised before any event is ranked
    data = _synth(tmp_path)
    path = os.path.join(data, "supervised.csv")
    lines = open(path, encoding="utf-8").readlines()
    assert lines[2].startswith("V0001,")
    open(path, "w", encoding="utf-8").writelines(edit(lines))
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out, extra=("--supervised", path))) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert not any("event" in r for r in records)
    (error,) = [r["validation_error"] for r in records if "validation_error" in r]
    assert message in error
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            ["E002,V0008,1", "E002,VXXXX,1"],
            "E002 labels videos that are not test videos: ['VXXXX']",
        ),
        (["E002,V0008,0", "E002,V0009,0"], "E002 has no positive video"),
    ],
    ids=["unknown_video", "no_positive"],
)
def test_rank_checks_ground_truth_before_any_event(tmp_path, capsys, rows, message):
    # the second event's truth would fail only after the first event's
    # files were written, so the run rejects it before ranking either
    data = _synth(tmp_path)
    _add_events(data, 2)
    with open(os.path.join(data, "ground_truth.csv"), "a", encoding="utf-8") as fh:
        fh.write("".join(row + "\n" for row in rows))
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out)) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert not any("event" in r for r in records)
    (error,) = [r["validation_error"] for r in records if "validation_error" in r]
    assert message in error
    assert not os.path.exists(out)


def test_rank_noiseless_planted_event_is_perfect(tmp_path):
    data = _synth(tmp_path, weak=12, test=12, sigma=0.0)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out, extra=("--n-pos", "6", "--n-neg", "6"))) == 0
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert metrics["E001"] == 1.0


def test_rank_deterministic_bytes(tmp_path):
    data = _synth(tmp_path, sigma=0.2)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    assert main(_rank_args(data, out1)) == 0
    assert main(_rank_args(data, out2)) == 0
    for name in sorted(os.listdir(out1)):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def _rank_in_subprocess(argv, threads, after=""):
    """Run ``main(argv)`` in a new interpreter whose BLAS starts with
    ``threads`` threads, then the Python code ``after``; returns what the
    interpreter printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conceptrank.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
    code = f"import sys\nfrom conceptrank.cli import main\nassert main({argv!r}) == 0\n{after}"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_capped_floor_scores_are_exact(tmp_path):
    # four test videos whose optimum is the floor 0 of their box: the
    # capped weight step's exact solve puts them at 0.0, where exact ties
    # are ordered by video_id, at either BLAS thread count.  An interior
    # point left them at residues of 5.2e-11 to 6.3e-11 and ordered them by
    # that residue
    data = _synth(tmp_path, seed=1, sigma=0.6)
    floor = ["V0009", "V0011", "V0012", "V0015"]
    for threads in (1, 2):
        out = str(tmp_path / f"out{threads}")
        _rank_in_subprocess(_rank_args(data, out), threads)
        ranking = io.read_ranking(io.ranking_path(out, "E001"))
        assert [score for v, score in ranking if v in floor] == [0.0] * len(floor)
        zero = [v for v, score in ranking if score == 0.0]
        assert set(floor) <= set(zero) and zero == sorted(zero)


def test_capped_rank_leaves_numpy_ma_unimported(tmp_path):
    # on numpy 2.4 a plain np.unique or np.setdiff1d imports numpy.ma,
    # about 1.1 MB of a rank's peak resident size; a capped rank runs
    # neither
    data = _synth(tmp_path, sigma=0.2)
    argv = _rank_args(data, str(tmp_path / "out"))
    assert _rank_in_subprocess(argv, 1, "print('numpy.ma' in sys.modules)").split() == ["False"]


def test_rank_missing_scores_file_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    os.remove(os.path.join(data, "scores.csv"))
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 1
    assert "scores.csv" in capsys.readouterr().err


def _one_validation_error(err):
    """The one validation_error of a command's stderr, every line of which
    must be a JSON log record (so no traceback was printed)."""
    records = [json.loads(line) for line in err.splitlines()]
    (error,) = [r["validation_error"] for r in records if "validation_error" in r]
    return error


def test_rank_out_dir_under_a_file_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    capsys.readouterr()
    assert main(_rank_args(data, str(afile / "sub"))) == 1
    assert "afile/sub" in _one_validation_error(capsys.readouterr().err)


def test_rank_rejected_scores_file_leaves_no_out_dir(tmp_path, capsys):
    # the scores file is read after the table, the vocabulary, the videos
    # and the events; a rank that fails on it creates no output directory
    data = _synth(tmp_path)
    path = os.path.join(data, "scores.csv")
    lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
    open(path, "w", encoding="utf-8").writelines(["garbage\n"] + lines[1:])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_rank_args(data, str(out))) == 1
    error = _one_validation_error(capsys.readouterr().err)
    assert error == f"{path}: first header field must be video_id"
    assert not out.exists()


def _cli_process(argv):
    """``python -m conceptrank.cli`` run on ``argv`` in a new interpreter with
    this process's environment (its BLAS thread count among it)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conceptrank.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "conceptrank.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_matches_main(tmp_path, capsys):
    # the process entry point returns main's exit codes (0, 1 and
    # argparse's 2), logs what main logs, and writes the files it writes
    data = _synth(tmp_path, sigma=0.2)
    inproc, child = str(tmp_path / "inproc"), str(tmp_path / "child")
    capsys.readouterr()
    assert main(_rank_args(data, inproc)) == 0
    err = capsys.readouterr().err
    done = _cli_process(_rank_args(data, child))
    assert done.returncode == 0, done.stderr
    assert done.stderr == err.replace(inproc, child)
    assert sorted(os.listdir(child)) == sorted(os.listdir(inproc))
    for name in os.listdir(inproc):
        with open(os.path.join(inproc, name), "rb") as fh:
            want = fh.read()
        with open(os.path.join(child, name), "rb") as fh:
            assert fh.read() == want, name

    os.remove(os.path.join(data, "scores.csv"))
    assert main(_rank_args(data, inproc)) == 1
    err = capsys.readouterr().err
    done = _cli_process(_rank_args(data, child))
    assert (done.returncode, done.stderr) == (1, err)

    with pytest.raises(SystemExit) as info:
        main(["rank", "--no-such-flag"])
    assert info.value.code == 2
    assert _cli_process(["rank", "--no-such-flag"]).returncode == 2


def test_rank_partial_failure_exit_three(tmp_path):
    data = _synth(tmp_path)
    events = os.path.join(data, "events.jsonl")
    with open(events, "a", encoding="utf-8") as fh:
        fh.write('{"event_id": "E999", "name": "zzzz qqqq", "description": ""}\n')
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 3
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert "E999" in metrics["failures"]
    assert metrics["E001"] >= 0.0


def test_rank_partial_failure_first_event(tmp_path, capsys):
    # the failing event comes first; the good one after it is still ranked
    data = _synth(tmp_path)
    events = os.path.join(data, "events.jsonl")
    good = open(events, encoding="utf-8").read()
    with open(events, "w", encoding="utf-8") as fh:
        fh.write('{"event_id": "E999", "name": "zzzz qqqq", "description": ""}\n' + good)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out)) == 3
    assert sorted(os.listdir(out)) == [
        "E001_ranking.tsv", "E001_weak_labels.csv", "metrics.json"
    ]
    assert len(io.read_ranking(io.ranking_path(out, "E001"))) == 8
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert list(metrics["failures"]) == ["E999"] and metrics["E001"] >= 0.0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["event"] for r in records if r.get("stage") == "rank"] == ["E999", "E001"]


def test_rank_log_lines_are_json(tmp_path, capsys):
    data = _synth(tmp_path)
    events = os.path.join(data, "events.jsonl")
    with open(events, "a", encoding="utf-8") as fh:
        fh.write('{"event_id": "E999", "name": "zzzz qqqq", "description": ""}\n')
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out)) == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    errors = [r["error"] for r in records if r.get("event") == "E999"]
    assert errors == [metrics["failures"]["E999"]] and " " in errors[0]
    (done,) = [r for r in records if r.get("event") == "E001"]
    assert isinstance(done["converged"], bool) and done["uncertified_steps"] == 0


def test_rank_logs_duplicate_table_tokens(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out)) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert not [r for r in records if r.get("stage") == "embeddings"]
    table = os.path.join(data, "embeddings.txt")
    first = open(table, encoding="utf-8").readline()
    token = first.split(" ")[0]
    with open(table, "a", encoding="utf-8") as fh:
        fh.write(first + token.upper() + first[len(token):])
    assert main(_rank_args(data, out)) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r for r in records if r.get("stage") == "embeddings"] == [
        {"stage": "embeddings", "duplicate_tokens": 2}
    ]


def _add_events(data, count):
    """Append copies of E001 under new ids; returns every event id."""
    path = os.path.join(data, "events.jsonl")
    first = json.loads(open(path, encoding="utf-8").readline())
    with open(path, "a", encoding="utf-8") as fh:
        for j in range(2, count + 1):
            fh.write(json.dumps({**first, "event_id": f"E{j:03d}"}) + "\n")
    return [f"E{j:03d}" for j in range(1, count + 1)]


def test_rank_embeds_one_phrase_per_event(tmp_path, monkeypatch):
    # concept names and weak descriptions are embedded once per run; each
    # event adds only its query vector
    calls = []

    def counted(tokens, table):
        calls.append(tokens)
        return embeddings.phrase_vector(tokens, table)

    monkeypatch.setattr(query, "phrase_vector", counted)
    counts = {}
    for n_events in (1, 3):
        data = _synth(tmp_path / str(n_events), weak=10, concepts=5)
        ids = _add_events(data, n_events)
        calls.clear()
        assert main(_rank_args(data, str(tmp_path / f"out{n_events}"))) == 0
        counts[n_events] = len(calls)
        assert counts[n_events] <= 10 + 5 + n_events
        weak = [open(os.path.join(tmp_path / f"out{n_events}", f"{e}_weak_labels.csv"),
                     "rb").read() for e in ids]
        assert all(b == weak[0] for b in weak)
    assert counts[3] - counts[1] == 2


def test_rank_logs_uncertified_weight_steps(tmp_path, capsys, monkeypatch):
    # the exact active-set solve, which certifies these capped steps,
    # declines every round, so every weight step ends at its input scores
    # uncertified, and the record counts each one
    monkeypatch.setattr(weightstep, "_active_set", lambda qp: None)
    data = _synth(tmp_path, sigma=0.2)
    args = dict(
        embeddings=os.path.join(data, "embeddings.txt"),
        vocabulary=os.path.join(data, "vocabulary.csv"),
        videos=os.path.join(data, "videos.tsv"),
        scores=os.path.join(data, "scores.csv"),
        events=os.path.join(data, "events.jsonl"),
        out_dir=str(tmp_path / "out"),
        top_k=2, n_pos=4, n_neg=4,
    )
    fit = CompositionConfig(k_candidates=8, k_neighbors=3, max_outer_iters=4)
    capsys.readouterr()
    code, _ = run_rank(RunConfig(**args, fit=fit))
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    warned = [r["warning"] for r in records if r.get("stage") == "fit"]
    (done,) = [r for r in records if r.get("stage") == "rank"]
    assert done["uncertified_steps"] == len(warned) == done["iterations"] >= 1
    assert all("certified gap" in w for w in warned)
    assert done["converged"] is False


def test_rank_certifies_slowly_shrinking_gaps(tmp_path, capsys):
    # weight steps 2 and 3 of this fit shrink their certified gap by a
    # factor 0.53-0.58 per iteration (4.29, 1.26, 0.634, 0.335, 0.195):
    # slow, but not stalled, so each step must run on to its tolerance
    data = _synth(tmp_path, seed=1, weak=200, test=200, concepts=8, informative=2, sigma=0.1)
    config = RunConfig(
        embeddings=os.path.join(data, "embeddings.txt"),
        vocabulary=os.path.join(data, "vocabulary.csv"),
        videos=os.path.join(data, "videos.tsv"),
        scores=os.path.join(data, "scores.csv"),
        events=os.path.join(data, "events.jsonl"),
        out_dir=str(tmp_path / "out"),
        top_k=5,
        fit=CompositionConfig(max_outer_iters=3),
    )
    capsys.readouterr()
    code, _ = run_rank(config)
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert not [r for r in records if r.get("stage") == "fit"]
    (done,) = [r for r in records if r.get("stage") == "rank"]
    assert done["uncertified_steps"] == 0


def test_rank_total_failure_exit_two(tmp_path):
    data = _synth(tmp_path)
    events = os.path.join(data, "events.jsonl")
    with open(events, "w", encoding="utf-8") as fh:
        fh.write('{"event_id": "E999", "name": "zzzz qqqq", "description": ""}\n')
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 2


@pytest.mark.parametrize(
    "flag", [("--solver", "reference"), ("--seed", "7"), ("--gamma", "0.5")]
)
def test_rank_rejects_removed_flags(tmp_path, flag):
    # the weight step has one solver and no randomness to select or seed,
    # and the neighbor regularizer is set per row from --k-neighbors
    with pytest.raises(SystemExit) as exc:
        main(_rank_args(str(tmp_path), str(tmp_path / "out"), extra=flag))
    assert exc.value.code == 2


def test_rank_accepts_one_candidate(tmp_path):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out, extra=("--k-candidates", "1"))) == 0
    assert json.loads(open(os.path.join(out, "metrics.json")).read())["failures"] == {}


@pytest.mark.parametrize("flag", ["--k-candidates", "--k-neighbors"])
def test_rank_rejects_zero_neighbor_counts(tmp_path, capsys, flag):
    data = _synth(tmp_path)
    capsys.readouterr()
    assert main(_rank_args(data, str(tmp_path / "out"), extra=(flag, "0"))) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    field = flag[2:].replace("-", "_")
    assert any(field in r.get("validation_error", "") for r in records)


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--lambda", "nan", "lambda_push"),
        ("--lambda", "inf", "lambda_push"),
        ("--weight-cap", "nan", "weight_cap"),
        ("--weight-cap", "inf", "weight_cap"),
        ("--tol", "nan", "tol"),
        ("--tol", "inf", "tol"),
    ],
)
def test_rank_rejects_non_finite_fit_settings(tmp_path, capsys, flag, value, field):
    # each of these once ran to the end: with a NaN or infinite objective
    # reported as certified, or with a tolerance that any decrease meets
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out, extra=(flag, value))) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    (error,) = [r["validation_error"] for r in records if "validation_error" in r]
    assert error.startswith(field)
    assert not os.path.exists(out)


def test_rank_stdout_flag(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out, extra=("--stdout",))) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "mAP" in printed


def test_select_concepts(tmp_path, capsys):
    data = _synth(tmp_path, concepts=5)
    out = str(tmp_path / "sel")
    code = main(
        [
            "select-concepts",
            "--embeddings", os.path.join(data, "embeddings.txt"),
            "--vocabulary", os.path.join(data, "vocabulary.csv"),
            "--events", os.path.join(data, "events.jsonl"),
            "--out-dir", out,
            "--top-k", "3",
            "--stdout",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "event_id,rank,concept_id,relevance"
    assert len(lines) == 1 + 3  # one event, K rows


def test_select_concepts_logs_duplicate_table_tokens(tmp_path, capsys):
    data = _synth(tmp_path, concepts=5)
    table = os.path.join(data, "embeddings.txt")
    first = open(table, encoding="utf-8").readline()
    with open(table, "a", encoding="utf-8") as fh:
        fh.write(first)
    capsys.readouterr()
    code = main(
        [
            "select-concepts",
            "--embeddings", table,
            "--vocabulary", os.path.join(data, "vocabulary.csv"),
            "--events", os.path.join(data, "events.jsonl"),
            "--out-dir", str(tmp_path / "sel"),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert records == [{"stage": "embeddings", "duplicate_tokens": 1}]


def test_select_concepts_rejects_zero_top_k(tmp_path, capsys):
    data = _synth(tmp_path, concepts=5)
    out = tmp_path / "sel"
    capsys.readouterr()
    code = main(
        [
            "select-concepts",
            "--embeddings", os.path.join(data, "embeddings.txt"),
            "--vocabulary", os.path.join(data, "vocabulary.csv"),
            "--events", os.path.join(data, "events.jsonl"),
            "--out-dir", str(out),
            "--top-k", "0",
        ]
    )
    assert code == 1
    assert not out.exists()
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert any("top-k" in r.get("validation_error", "") for r in records)


def test_eval_subcommand(tmp_path):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    code = main(
        [
            "eval",
            "--rankings-dir", out,
            "--ground-truth", os.path.join(data, "ground_truth.csv"),
        ]
    )
    assert code == 0
    report = json.loads(open(os.path.join(out, "eval_metrics.json")).read())
    rank_metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert report["E001"] == rank_metrics["E001"]
    assert report["mAP"] == report["E001"]


def test_eval_unknown_video_in_truth(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    gt = os.path.join(data, "ground_truth.csv")
    with open(gt, "a", encoding="utf-8") as fh:
        fh.write("E001,vGHOST,1\n")
    assert main(["eval", "--rankings-dir", out, "--ground-truth", gt]) == 1
    assert "vGHOST" in capsys.readouterr().err


def test_eval_out_under_a_file_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    afile = tmp_path / "afile"
    afile.write_text("")
    gt = os.path.join(data, "ground_truth.csv")
    capsys.readouterr()
    argv = ["eval", "--rankings-dir", out, "--ground-truth", gt, "--out", str(afile / "x.json")]
    assert main(argv) == 1
    assert "afile/x.json" in _one_validation_error(capsys.readouterr().err)


def test_eval_rejects_event_id_outside_rankings_dir(tmp_path, capsys):
    # a ground-truth event id names a ranking file, so '../E9' would read
    # r2/E9_ranking.tsv from outside --rankings-dir r2/sub
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    r2 = tmp_path / "r2"
    (r2 / "sub").mkdir(parents=True)
    shutil.copy(io.ranking_path(out, "E001"), r2 / "E9_ranking.tsv")
    gt = os.path.join(data, "ground_truth.csv")
    text = open(gt, encoding="utf-8").read().replace("E001,", "../E9,")
    open(gt, "w", encoding="utf-8").write(text)
    capsys.readouterr()
    assert main(["eval", "--rankings-dir", str(r2 / "sub"), "--ground-truth", gt]) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert "ground_truth.csv:2: event_id '../E9'" in record["validation_error"]
    assert os.listdir(r2 / "sub") == []


def test_eval_rejects_repeated_video(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    path = io.ranking_path(out, "E001")
    lines = open(path, encoding="utf-8").readlines()
    truth = io.read_ground_truth(os.path.join(data, "ground_truth.csv"))["E001"]
    first = next(i for i, line in enumerate(lines) if truth[line.split("\t")[0]] == 1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(lines[first])
    capsys.readouterr()
    code = main(
        ["eval", "--rankings-dir", out, "--ground-truth", os.path.join(data, "ground_truth.csv")]
    )
    assert code == 1
    assert not os.path.exists(os.path.join(out, "eval_metrics.json"))
    vid = lines[first].split("\t")[0]
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert f"E001_ranking.tsv:{len(lines) + 1}: duplicate video_id '{vid}'" in (
        record["validation_error"]
    )


@pytest.mark.parametrize(
    "command, field, value",
    [("rank", "event_id", 1), ("rank", "name", 5), ("select-concepts", "description", ["x"])],
)
def test_event_fields_must_be_strings(tmp_path, capsys, command, field, value):
    data = _synth(tmp_path)
    events = os.path.join(data, "events.jsonl")
    event = json.loads(open(events, encoding="utf-8").readline())
    with open(events, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**event, field: value}) + "\n")
    gt = os.path.join(data, "ground_truth.csv")
    if field == "event_id":
        # truth for the event as the CSV spells its id
        text = open(gt, encoding="utf-8").read().replace("E001,", f"{value},")
        open(gt, "w", encoding="utf-8").write(text)
    out = str(tmp_path / "out")
    if command == "rank":
        argv = _rank_args(data, out)
    else:
        argv = [
            "select-concepts",
            "--embeddings", os.path.join(data, "embeddings.txt"),
            "--vocabulary", os.path.join(data, "vocabulary.csv"),
            "--events", events,
            "--out-dir", out,
        ]
    capsys.readouterr()
    assert main(argv) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert f"events.jsonl:1: {field} must be a JSON string" in record["validation_error"]


def _rename_event(data, event_id):
    """Give the synth event, and its ground truth, the id ``event_id``."""
    events = os.path.join(data, "events.jsonl")
    event = json.loads(open(events, encoding="utf-8").readline())
    with open(events, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**event, "event_id": event_id}) + "\n")
    gt = os.path.join(data, "ground_truth.csv")
    text = open(gt, encoding="utf-8").read().replace("E001,", f"{event_id},")
    open(gt, "w", encoding="utf-8").write(text)


def test_rank_rejects_event_id_outside_out_dir(tmp_path, capsys):
    data = _synth(tmp_path)
    _rename_event(data, "../escaped")
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out)) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert "events.jsonl:1: event_id '../escaped'" in record["validation_error"]
    assert sorted(os.listdir(tmp_path)) == ["data"]


@pytest.mark.parametrize("event_id", METRICS_KEYS)
def test_rank_rejects_event_id_that_is_a_metrics_key(tmp_path, capsys, event_id):
    data = _synth(tmp_path)
    _rename_event(data, event_id)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(_rank_args(data, out)) == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert repr(event_id) in record["validation_error"]
    assert not os.path.exists(out)


def test_metrics_keys_are_the_run_level_keys(tmp_path):
    data = _synth(tmp_path)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert set(metrics) == {"E001", *METRICS_KEYS}


def test_rank_metrics_iter0_is_the_initial_scores_ap(tmp_path):
    # an instance on which the first ranking, the final one and Borda differ
    data = _synth(tmp_path, seed=0, sigma=0.6)
    out = str(tmp_path / "out")
    assert main(_rank_args(data, out)) == 0
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())

    config = RunConfig(
        embeddings=os.path.join(data, "embeddings.txt"),
        vocabulary=os.path.join(data, "vocabulary.csv"),
        videos=os.path.join(data, "videos.tsv"),
        scores=os.path.join(data, "scores.csv"),
        events=os.path.join(data, "events.jsonl"),
        out_dir=str(tmp_path / "unused"),
        top_k=2, n_pos=4, n_neg=4,
        fit=CompositionConfig(k_candidates=8, k_neighbors=3, max_outer_iters=4),
    )
    table = embeddings.load_embeddings(config.embeddings)
    vocab = io.read_vocabulary(config.vocabulary)
    videos = io.read_videos(config.videos)
    (event,) = io.read_events(config.events)
    scores = io.read_scores(config.scores, vocab, videos)
    layer = query.QueryLayer.build(vocab, [r for r in videos if r.split == "weak"], table)
    ranking, result, S_sel = rank_one_event(event, layer, table, scores, None, config)
    assert ranking == io.read_ranking(io.ranking_path(out, "E001"))

    truth = io.read_ground_truth(os.path.join(data, "ground_truth.csv"))["E001"]
    positives = {v for v, label in truth.items() if label == 1}
    initial = ranked_list(S_sel.test_ids(), result.initial_scores[S_sel.l :])
    ap = average_precision(initial, positives)
    assert metrics["iter0"] == {"E001": ap, "mAP": ap}
    assert len({ap, metrics["E001"], metrics["borda"]["E001"]}) == 3


@pytest.mark.parametrize("workload", sorted(bench_generator().WORKLOADS))
def test_bench_workloads_certify_every_step(workload, tmp_path, capsys):
    # instance 0 of three seeds of each benchmark workload, ranked with its
    # own flags: every weight step of every event meets its certified
    # tolerance
    gen = bench_generator()
    for seed in (90, 91, 92):
        data, out = str(tmp_path / f"in{seed}"), str(tmp_path / f"out{seed}")
        os.makedirs(data)
        gen.generate(workload, seed, 0, data)
        capsys.readouterr()
        assert main(gen.rank_argv(workload, data, out)) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        ranked = [r for r in records if r.get("stage") == "rank"]
        assert len(ranked) == gen.WORKLOADS[workload].events
        assert [r["uncertified_steps"] for r in ranked] == [0] * len(ranked)
