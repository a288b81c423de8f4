"""Benchmark of `conceptrank rank`, run as a child process on generated inputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 12 --trace 0

A run generates INSTANCES inputs from the seed.  Set-up ranks each one once
on freshly written inputs into an empty output directory; the median of
those wall times is `setup_s`.  Then it ranks the instances in turn, whole
rounds at a time, until `--seconds` have passed.

* `--trace 0` reports the end-to-end metrics: `rank_s` and `peak_rss_mb`
  (medians over the timed ranks), `setup_s`, and `map`, the mean over the
  instances of the mAP that this benchmark computes from the ranking files.
* `--trace 1` alternates an untraced rank with a traced one
  (`perfbench/traced.py`) and reports per-layer metrics, each the median
  over the traced ranks, and `trace.overhead_s`, the median traced wall
  time minus the median untraced one.

An operation is one event in one rank process.  It fails when
`metrics.json` lists it under `failures`, when its ranking file is
missing, or when a check on its output fails (`perfbench/check.py`, the
`FitResult` checks of the traced run, and byte-identical rankings across
the ranks of one instance).  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

INSTANCES = 3  # inputs per run, each ranked once per round
CHILD_TIMEOUT_S = 120.0
RUNS_DIR = os.path.join(HERE, "runs")

# per-layer metrics: summed busy time or call count of a traced layer
LAYER_TIMES = {
    "embeddings.load_s": "embeddings.load",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "query.relevance_s": "query.relevance",
    "query.weak_labels_s": "query.weak_labels",
    "query.partition_s": "query.partition",
    "graph.candidates_s": "graph.candidates",
    "graph.gamma_s": "graph.gamma",
    "graph.neighbor_step_s": "graph.neighbor_step",
    "composer.fit_s": "composer.fit",
    "composer.weight_step_s": "composer.weight_step",
    "kernels.s": "kernels",
    "evaluation.s": "evaluation",
    "pipeline.event_s": "pipeline.event",
}
LAYER_COUNTS = {
    "query.weak_label_calls": "query.weak_labels",
    "graph.neighbor_steps": "graph.neighbor_step",
    "composer.weight_steps": "composer.weight_step",
    "kernels.calls": "kernels",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values of one traced rank; a layer never entered is absent."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    run_start = None
    event_starts = []
    for _, layer, t0, t1, _, _ in trace["spans"]:
        busy[layer] += t1 - t0
        calls[layer] += 1
        if layer == "pipeline.run":
            run_start = t0
        elif layer == "pipeline.event":
            event_starts.append(t0)
    out: dict[str, float] = {}
    for name, layer in LAYER_TIMES.items():
        if layer in calls:
            out[name] = busy[layer]
    for name, layer in LAYER_COUNTS.items():
        if layer in calls:
            out[name] = calls[layer]
    if run_start is not None and event_starts:
        out["pipeline.queue_wait_s"] = sum(t - run_start for t in event_starts)
    if "composer.fit" in calls:
        out["composer.outer_iters"] = sum(f["iterations"] for f in trace["fits"])
        out["composer.uncertified_steps"] = sum(f["uncertified"] for f in trace["fits"])
    return out


class Run:
    def __init__(self, workload: str, seed: int, root: str) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        # bytecode is compiled once per checkout, into the benchmark's own
        # directory, whatever the caller's environment says
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.abspath("src"),
            PYTHONPYCACHEPREFIX=os.path.join(RUNS_DIR, "pycache"),
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed on a check of an output the program wrote
        self.problems: list[str] = []
        self.instances: list[check.Instance] = []
        # per instance and event: the first valid ranking file, and its AP
        self.first_rankings: list[dict[str, bytes]] = [{} for _ in range(INSTANCES)]
        self.aps: list[dict[str, float]] = [{} for _ in range(INSTANCES)]
        self.ranks = 0
        self.absent: set[str] = set()  # wrapped names the program no longer has

    def in_dir(self, i: int) -> str:
        return os.path.join(self.root, f"i{i}", "in")

    def spawn(self, argv: list[str], log: str) -> tuple[float, float, int]:
        """Run one child to its end: (wall s, peak RSS MB, exit code)."""
        with open(log, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def rank(self, i: int, traced: bool) -> tuple[float, float, dict | None]:
        """Rank instance i once into an empty directory and check every event."""
        self.ranks += 1
        out_dir = os.path.join(self.root, f"i{i}", "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = gen.rank_argv(self.workload, self.in_dir(i), out_dir)
        trace_path = os.path.join(self.root, f"i{i}", "trace.json")
        if traced:
            argv = [os.path.join(HERE, "traced.py"), "--trace-out", trace_path, "--", *argv]
        else:
            argv = ["-m", "conceptrank.cli", *argv]
        wall, rss, code = self.spawn(argv, os.path.join(self.root, f"i{i}", "rank.log"))
        trace = None
        if traced and os.path.isfile(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            self.absent.update(trace["absent"])
            os.replace(trace_path, os.path.join(
                RUNS_DIR, f"trace-{self.workload}-seed{self.seed}-i{i}.json"))
        self.account(i, out_dir, code, trace)
        print(f"rank instance {i}{' traced' if traced else ''}: {wall:.3f} s, {rss:.1f} MB",
              file=sys.stderr)
        return wall, rss, trace

    def account(self, i: int, out_dir: str, code: int, trace: dict | None) -> None:
        """Count the events of one rank: failed in the program or with wrong output."""
        inst = self.instances[i]
        metrics_path = os.path.join(out_dir, "metrics.json")
        metrics = None
        if os.path.isfile(metrics_path):
            with open(metrics_path, encoding="utf-8") as fh:
                metrics = json.load(fh)
        fit_problems = defaultdict(list)
        if trace is not None:
            for f in trace["fits"]:
                fit_problems[f["event"]] += f["problems"]
        for event_id in inst.event_ids:
            self.attempted += 1
            if metrics is None:
                problems, ap = [f"rank exited with code {code} and wrote no metrics.json"], None
            else:
                problems, ap = inst.event_problems(out_dir, metrics, event_id)
            if ap is not None:
                problems += fit_problems[event_id]
                with open(os.path.join(out_dir, f"{event_id}_ranking.tsv"), "rb") as fh:
                    ranking = fh.read()
                if not problems:
                    self.aps[i].setdefault(event_id, ap)
                    if self.first_rankings[i].setdefault(event_id, ranking) != ranking:
                        problems.append("ranking differs from the first rank of this input")
            if problems:
                self.failed += 1
                self.wrong += ap is not None
                self.problems.append(f"instance {i} {event_id}: {'; '.join(problems)}")

    def set_up(self) -> list[float]:
        """Generate each instance and rank it once; returns the wall times."""
        walls = []
        for i in range(INSTANCES):
            gen.generate(self.workload, self.seed, i, self.in_dir(i))
            self.instances.append(check.Instance(self.in_dir(i)))
            wall, _, _ = self.rank(i, traced=False)
            walls.append(wall)
        return walls

    def mean_map(self) -> float:
        maps = [sum(a.values()) / len(a) for a in self.aps if a]
        return sum(maps) / len(maps) if maps else float("nan")


def measure(run: Run, seconds: float, traced: bool) -> dict[str, dict]:
    # compile the package's bytecode once, outside every timing
    run.spawn(["-c", "import conceptrank.cli"], os.path.join(run.root, "warmup.log"))
    setup = run.set_up()
    plain_walls, plain_rss, traced_walls, layers = [], [], [], defaultdict(list)
    start = time.perf_counter()
    while not plain_walls or time.perf_counter() - start < seconds:
        for i in range(INSTANCES):
            wall, rss, _ = run.rank(i, traced=False)
            plain_walls.append(wall)
            plain_rss.append(rss)
            if traced:
                wall, _, trace = run.rank(i, traced=True)
                traced_walls.append(wall)
                for name, value in layer_metrics(trace).items() if trace else ():
                    layers[name].append(value)
    if traced:
        metrics = {
            name: {"value": statistics.median(values),
                   "unit": "s" if name.endswith(("_s", ".s")) else "count"}
            for name, values in sorted(layers.items())
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(plain_walls),
            "unit": "s",
        }
        return metrics
    return {
        "rank_s": {"value": statistics.median(plain_walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(plain_rss), "unit": "MB"},
        "map": {"value": run.mean_map(), "unit": "1"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark of `conceptrank rank`")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "conceptrank", "cli.py")):
        print("run from the root of a conceptrank checkout: src/conceptrank is missing",
              file=sys.stderr)
        return 2

    root = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(root)
    run = Run(args.workload, args.seed, root)
    try:
        metrics = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if run.absent:
        print(f"absent from the program, metrics left out: {sorted(run.absent)}",
              file=sys.stderr)
    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run.ranks} rank processes", file=sys.stderr)
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
