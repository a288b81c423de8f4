"""Traced run of `conceptrank rank`, timed from the benchmark's own files.

Calls `conceptrank.cli.main` in this process with the given `rank`
arguments.  Before the call it replaces, in their modules, the functions
that the pipeline and `fit` look up at call time with wrappers that record
one span per call (name, start, end, parent span, event id).  Spans stay
in memory and are written, with the checks on every `FitResult`, to the
trace file when the run ends.  The program itself carries no tracing.

A wrapped name that no longer exists is listed under "absent" and the run
goes on; the metrics built from it are then reported as absent.

Usage:  python3 perfbench/traced.py --trace-out FILE -- <rank arguments>
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

# (layer, module, attribute): the names the pipeline and `fit` look up
WRAPS = [
    ("pipeline.run", "conceptrank.cli", "run_rank"),
    ("pipeline.event", "conceptrank.pipeline", "rank_one_event"),
    ("embeddings.load", "conceptrank.pipeline", "load_embeddings"),
    ("io.read", "conceptrank.io", "read_vocabulary"),
    ("io.read", "conceptrank.io", "read_videos"),
    ("io.read", "conceptrank.io", "read_events"),
    ("io.read", "conceptrank.io", "read_scores"),
    ("io.read", "conceptrank.io", "read_supervised"),
    ("io.read", "conceptrank.io", "read_ground_truth"),
    ("io.write", "conceptrank.io", "write_ranking"),
    ("io.write", "conceptrank.io", "write_metrics"),
    ("io.write", "conceptrank.pipeline", "_write_weak_labels"),
    ("query.relevance", "conceptrank.pipeline", "concept_relevance"),
    ("query.weak_labels", "conceptrank.pipeline", "weak_labels"),
    ("query.partition", "conceptrank.pipeline", "partition_pseudo"),
    ("composer.fit", "conceptrank.pipeline", "fit"),
    ("graph.candidates", "conceptrank.composer", "candidate_neighbors"),
    ("graph.gamma", "conceptrank.composer", "gamma_for_k"),
    ("graph.neighbor_step", "conceptrank.composer", "update_neighbor_rows"),
    ("composer.weight_step", "conceptrank.composer", "_weight_step"),
    ("kernels", "conceptrank._kernels", "simplex_project_rows"),
    ("kernels", "conceptrank._kernels", "project_rows_nonneg_l1"),
    ("kernels", "conceptrank._kernels", "push_hinge_means"),
    ("kernels", "conceptrank._kernels", "colmax_ball_project"),
    ("evaluation", "conceptrank.pipeline", "ranked_list"),
    ("evaluation", "conceptrank.pipeline", "average_precision"),
    ("evaluation", "conceptrank.pipeline", "borda_baseline"),
]

# the weight step's own message for a step above its tolerance
GAP_MESSAGE = "weight step stopped at certified gap"
# rounding allowance of the properties checked on every FitResult
TRACE_RTOL = 1e-12
CAP_RTOL = 1e-9


class Tracer:
    """Span recorder; spans are tuples (id, layer, start, end, parent, event)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.fits: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, module, attr: str, enter=None, leave=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, layer, t0, t1, parent, getattr(self._local, "event", None))
                )
            if leave is not None:
                leave(args, result)
            return result

        setattr(module, attr, traced)

    def set_event(self, args) -> None:
        self._local.event = args[0].event_id

    def check_fit(self, cap: float | None):
        """A `leave` hook that records the properties every fit must have."""

        def leave(args, result) -> None:
            trace = result.objective_trace
            problems = []
            rises = [
                i for i in range(1, len(trace))
                if trace[i] > trace[i - 1] + TRACE_RTOL * max(1.0, abs(trace[i - 1]))
            ]
            if rises:
                problems.append(f"objective_trace rises at entries {rises[:5]}")
            W = np.asarray(result.weights)
            if np.any(W < 0.0):
                problems.append(f"negative weight {float(W.min())!r}")
            if cap is not None and np.any(W.sum(axis=1) > cap * (1.0 + CAP_RTOL)):
                problems.append(f"row l1 {float(W.sum(axis=1).max())!r} above cap {cap!r}")
            self.fits.append({
                "event": getattr(self._local, "event", None),
                "iterations": int(result.iterations),
                "uncertified": sum(GAP_MESSAGE in w for w in result.warnings),
                "problems": problems,
            })

        return leave


def install(tracer: Tracer, cap: float | None) -> list[str]:
    """Wrap every name in WRAPS that exists; return the absent ones."""
    hooks = {
        "rank_one_event": {"enter": tracer.set_event},
        "fit": {"leave": tracer.check_fit(cap)},
    }
    absent = []
    for layer, module_name, attr in WRAPS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if not callable(getattr(module, attr, None)):
            absent.append(f"{module_name}.{attr}")
            continue
        tracer.wrap(layer, module, attr, **hooks.get(attr, {}))
    return absent


def main() -> int:
    parser = argparse.ArgumentParser(description="traced `conceptrank rank`")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("rank_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rank_argv = args.rank_argv[1:] if args.rank_argv[:1] == ["--"] else args.rank_argv

    from conceptrank import cli

    parsed = cli.build_parser().parse_args(rank_argv)
    cap = None if parsed.no_weight_cap else parsed.weight_cap
    tracer = Tracer()
    absent = install(tracer, cap)
    code = cli.main(rank_argv)
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump(
            {"code": code, "absent": absent, "fits": tracer.fits,
             "spans": sorted(tracer.spans)},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
