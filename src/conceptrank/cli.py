"""Command-line interface.

Subcommands: ``rank`` (full pipeline per event), ``select-concepts``,
``eval``, and ``synth``.  Every ``rank`` and ``select-concepts`` setting
takes its default from the class attribute of the same setting in
``RunConfig`` (concept selection, pseudo labels) or ``CompositionConfig``
(the fit), so each default is written once.  Logs are one JSON object
per line on standard error; with ``--stdout`` the primary result
artifact is also printed to standard output.

Exit codes: 0 success, 1 validation error, 2 runtime failure in all
events, 3 partial failure.

``run`` is the process entry point (the ``conceptrank`` console script
and ``python -m conceptrank.cli``); ``main`` is the same command for a
caller in a running interpreter.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import io
from .composer import CompositionConfig
from .pipeline import RunConfig, log_kv, run_eval, run_rank, run_select_concepts
from .synth import gen_instance, toy_embedding_rows


def _add_input_flags(p: argparse.ArgumentParser, with_scores: bool) -> None:
    p.add_argument(
        "--embeddings", required=True,
        help="embedding table text file; its parse is cached beside it, in "
        "<file>.cache.npz, and reused while the file's bytes are unchanged",
    )
    p.add_argument("--vocabulary", required=True, help="concept vocabulary CSV")
    p.add_argument("--events", required=True, help="event queries JSONL")
    if with_scores:
        p.add_argument("--videos", required=True, help="video records TSV")
        p.add_argument("--scores", required=True, help="score matrix CSV")
        p.add_argument("--supervised", help="optional supervised score CSV")
        p.add_argument("--ground-truth", help="optional ground-truth CSV")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--top-k", type=int, default=RunConfig.top_k,
                   help="selected concepts per event")
    p.add_argument("--n-pos", type=int, default=RunConfig.n_pos, help="pseudo positives")
    p.add_argument("--n-neg", type=int, default=RunConfig.n_neg, help="pseudo negatives")
    p.add_argument("--k-neighbors", type=int, default=CompositionConfig.k_neighbors,
                   help="target neighbor support")
    p.add_argument("--k-candidates", type=int, default=CompositionConfig.k_candidates,
                   help="candidate neighbors")
    p.add_argument("--lambda", dest="lambda_push", type=float,
                   default=CompositionConfig.lambda_push, help="push-loss weight")
    p.add_argument("--weight-cap", type=float, default=CompositionConfig.weight_cap,
                   help="per-row l1 cap on aggregation weights")
    p.add_argument("--no-weight-cap", action="store_true",
                   help="drop the l1 cap, keeping only w >= 0")
    p.add_argument("--tol", type=float, default=CompositionConfig.tol,
                   help="relative objective decrease for convergence")
    p.add_argument("--max-iters", type=int, default=CompositionConfig.max_outer_iters,
                   help="outer iterations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptrank",
        description="Zero-exemplar event ranking over concept-detector scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="run the full per-event ranking pipeline")
    _add_input_flags(p_rank, with_scores=True)
    _add_hyper_flags(p_rank)
    p_rank.add_argument("--out-dir", required=True)
    p_rank.add_argument("--stdout", action="store_true",
                        help="also print the metrics JSON to standard output")

    p_sel = sub.add_parser("select-concepts", help="emit per-event top-K concepts")
    _add_input_flags(p_sel, with_scores=False)
    p_sel.add_argument("--top-k", type=int, default=RunConfig.top_k)
    p_sel.add_argument("--out-dir", required=True)
    p_sel.add_argument("--stdout", action="store_true",
                       help="also print the selection CSV to standard output")

    p_eval = sub.add_parser("eval", help="score ranking files against ground truth")
    p_eval.add_argument("--rankings-dir", required=True)
    p_eval.add_argument("--ground-truth", required=True)
    p_eval.add_argument("--out", default=None, help="metrics JSON path")
    p_eval.add_argument("--stdout", action="store_true")

    p_synth = sub.add_parser("synth", help="write a synthetic planted instance")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    # enough weak videos for rank's default pseudo-label counts
    p_synth.add_argument("--weak", type=int, default=RunConfig.n_pos + RunConfig.n_neg,
                         help="weak videos (l)")
    p_synth.add_argument("--test", type=int, default=40, help="test videos (u)")
    p_synth.add_argument("--concepts", type=int, default=8, help="vocabulary size (m)")
    p_synth.add_argument("--informative", type=int, default=1)
    p_synth.add_argument("--sigma", type=float, default=0.0)
    p_synth.add_argument("--stdout", action="store_true",
                         help="also print the instance manifest JSON")

    return parser


def _cmd_rank(args: argparse.Namespace) -> int:
    config = RunConfig(
        embeddings=args.embeddings,
        vocabulary=args.vocabulary,
        videos=args.videos,
        scores=args.scores,
        events=args.events,
        out_dir=args.out_dir,
        supervised=args.supervised,
        ground_truth=args.ground_truth,
        top_k=args.top_k,
        n_pos=args.n_pos,
        n_neg=args.n_neg,
        fit=CompositionConfig(
            k_neighbors=args.k_neighbors,
            k_candidates=args.k_candidates,
            lambda_push=args.lambda_push,
            weight_cap=None if args.no_weight_cap else args.weight_cap,
            tol=args.tol,
            max_outer_iters=args.max_iters,
        ),
    )
    code, metrics = run_rank(config)
    if args.stdout:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return code


def _cmd_select(args: argparse.Namespace) -> int:
    code, path = run_select_concepts(
        args.embeddings, args.vocabulary, args.events, args.out_dir, args.top_k
    )
    if args.stdout:
        with open(path, encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
    return code


def _cmd_eval(args: argparse.Namespace) -> int:
    code, report = run_eval(args.rankings_dir, args.ground_truth, args.out)
    if args.stdout:
        print(json.dumps(report, indent=2, sort_keys=True))
    return code


def _cmd_synth(args: argparse.Namespace) -> int:
    inst = gen_instance(
        seed=args.seed,
        l=args.weak,
        u=args.test,
        m=args.concepts,
        n_informative=args.informative,
        sigma=args.sigma,
    )
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    io.write_embeddings(os.path.join(out, "embeddings.txt"), toy_embedding_rows())
    io.write_vocabulary(os.path.join(out, "vocabulary.csv"), inst.vocabulary)
    io.write_videos(os.path.join(out, "videos.tsv"), inst.videos)
    io.write_events(os.path.join(out, "events.jsonl"), [inst.event])
    io.write_scores(
        os.path.join(out, "scores.csv"), inst.vocabulary, inst.video_ids, inst.scores
    )
    io.write_supervised(
        os.path.join(out, "supervised.csv"),
        dict(zip(inst.video_ids, inst.supervised)),
    )
    truth = {
        inst.event.event_id: {
            inst.videos[inst.l + i].video_id: int(inst.test_truth[i])
            for i in range(inst.u)
        }
    }
    io.write_ground_truth(os.path.join(out, "ground_truth.csv"), truth)
    manifest = {
        "seed": inst.seed,
        "sigma": inst.sigma,
        "weak": inst.l,
        "test": inst.u,
        "concepts": len(inst.vocabulary),
        "informative_columns": list(inst.informative),
        "event_id": inst.event.event_id,
    }
    io.write_metrics(os.path.join(out, "instance.json"), manifest)
    log_kv(stage="synth", out_dir=out, seed=inst.seed, sigma=inst.sigma)
    if args.stdout:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "rank": _cmd_rank,
        "select-concepts": _cmd_select,
        "eval": _cmd_eval,
        "synth": _cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        # FormatError and ValidationError are ValueErrors; a path that
        # cannot be read or written (missing, or under a file) is an OSError
        log_kv(stage=args.command, validation_error=f"{exc}")
        return 1


def run() -> int:
    """``main`` on the process's own arguments, for a process that exits
    next.  Every object is then frozen out of the garbage collector, so
    interpreter exit does not walk the heap that the imports built; files
    and streams are still flushed and closed as at any exit."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
