"""Benchmark of recgraph's batch commands, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is a fresh ``python -m recgraph.cli`` child, one at a
time, on inputs this script generates from ``--seed``.  With ``--trace 0``
the last stdout line holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced child (see traced.py), next to
untraced children that give the tracing overhead.  Every child's CSVs are
checked: against digests pinned in digests.json for (workload, seed),
between repetitions, and against independent checks (check.py).  README.md
names every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS threads must be pinned before numpy loads, here and in every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import standins  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_run"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 7  # counted set-up samples, after an uncounted warm-up import
SETUP_SECONDS = 6.0  # cheap set-ups keep sampling until this much time has passed
WS_N, WS_K = 1000, 10  # ring lattice size and degree of ws-lattice
WS_P_VALUES = (0.0, 0.0001, 0.001, 0.01, 0.1, 1.0)  # the ws command's default p values
WS_MODES = ("uniform", "preferential")


@dataclass(frozen=True)
class Workload:
    """One CLI command line, its input stand-in and how to count its work.

    A workload with an input shape is a ``sweep`` over the two widths around
    the shape's split-off width.
    """

    args: tuple
    analyses: int  # (graph, width) rows, or measured rewired graphs for ws
    output: str  # the one CSV the command writes
    shape: standins.Shape | None = None


WORKLOADS = {
    # Large graph: the distance pass dominates.  Two widths keep a child
    # short enough for several repetitions in one run.
    "sweep-ml100k": Workload(
        args=("sweep",), analyses=2, output="sweep.csv", shape=standins.ML100K),
    # Sparse lattices of about 50 hops with Python rewiring: per-level costs.
    "ws-lattice": Workload(
        args=("ws", "--n", str(WS_N), "--k", str(WS_K), "--mode", "both", "--trials", "3"),
        analyses=5 * 2 * 3, output="ws.csv"),
}

SELF_SPANS = (
    "dataset.load_ratings", "jumps.co_rating_pairs", "jumps.apply_jump",
    "jumps.adjacency_csr", "metrics.measure_l_pp", "metrics.measure_l_r_l_pm",
    "metrics.connected_components", "metrics.degree_distribution",
    "metrics.joint_degree_distribution", "metrics.clustering_coefficient",
    "nsw.predict", "synth.generate", "synth.rewire", "synth.small_world_curve",
    "cli.sweep_rows",
)
COUNTS = {
    "dataset.ratings": "count",
    "jumps.co_rating_pairs.pairs": "count",
    "jumps.edges_kept": "count",
    "metrics.bfs_sources": "count",
    "metrics.reached_pairs": "count",
    "metrics.dist_bytes_computed": "bytes",
    "metrics.connected_components.calls": "count",
    "nsw.predict.calls": "count",
    "synth.rewire.calls": "count",
}


@dataclass
class Rep:
    """One child run of the workload's command."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    digests: dict
    traced: bool = False
    trace: dict | None = None
    problems: list = field(default_factory=list)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def run_child(argv, cwd: Path, deadline: float):
    """Run one child to completion; returns (wall_s, cpu_s, rss_mib, exit code)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def csv_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


class Bench:
    """One benchmark run: inputs, set-up samples, warm-up, repetitions, checks."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
        self.input = self.work / "ratings.data"
        pinned = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
        self.pinned = pinned.get(name, {}).get(str(seed))
        self.checked = {}  # CSV digest -> independent-check problems
        self.reps_run = 0

    def cli_args(self) -> list:
        args = list(self.wl.args) + ["--seed", str(self.seed), "--out", "out"]
        if self.wl.shape is not None:
            split = self.wl.shape.split_width
            args += ["--input", str(self.input), "--w-min", str(split - 1), "--w-max", str(split)]
        return args

    def prepare(self) -> dict | None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.wl.shape is None:
            return None
        return standins.write_movielens(self.wl.shape, self.seed, self.input)

    def setup_sample(self, code: str, index: int) -> float:
        cwd = self.work / f"setup{index}"
        cwd.mkdir()
        wall, _, _, exit_code = run_child([sys.executable, "-c", code, str(self.input)],
                                          cwd, self.deadline)
        if exit_code != 0:
            raise RuntimeError(f"set-up child exited {exit_code}; see {cwd / 'stderr.txt'}")
        return wall

    def setup_samples(self) -> list:
        """Interpreter start plus ``import recgraph`` (plus loading the input).

        An uncounted warm-up import comes first: it compiles the bytecode and
        pulls the libraries into the page cache (the input file is there
        already, having just been written).
        """
        code = "import sys, recgraph.cli"
        self.setup_sample(code, 0)
        if self.wl.shape is not None:
            code += "; recgraph.load_ratings(sys.argv[1])"
        walls = []
        start = time.monotonic()
        while len(walls) < SETUP_SAMPLES or time.monotonic() - start < SETUP_SECONDS:
            walls.append(self.setup_sample(code, len(walls) + 1))
        return walls

    def rep(self, traced: bool) -> Rep:
        cwd = self.work / f"rep{self.reps_run}"
        self.reps_run += 1
        cwd.mkdir()
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), "spans.json",
                    cwd.name, "--"] + self.cli_args()
        else:
            argv = [sys.executable, "-m", "recgraph.cli"] + self.cli_args()
        wall, cpu, rss, code = run_child(argv, cwd, self.deadline)
        rep = Rep(wall, cpu, rss, code, csv_digests(cwd / "out"), traced)
        if traced and (cwd / "spans.json").is_file():
            rep.trace = json.loads((cwd / "spans.json").read_text(encoding="utf-8"))
        self.verify(rep, cwd)
        return rep

    def verify(self, rep: Rep, cwd: Path):
        if rep.exit_code != 0:
            rep.problems.append(f"exit code {rep.exit_code}")
            return
        if list(rep.digests) != [self.wl.output]:
            rep.problems.append(f"outputs {list(rep.digests)} != {[self.wl.output]}")
            return
        if rep.traced and rep.trace is None:
            rep.problems.append("traced child wrote no spans")
        if self.pinned is not None and rep.digests != self.pinned:
            rep.problems.append("CSV digests differ from the pinned ones")
        key = rep.digests[self.wl.output]
        if key not in self.checked:
            text = (cwd / "out" / self.wl.output).read_text(encoding="utf-8")
            if self.wl.shape is not None:
                self.checked[key] = check.sweep_mismatches(self.input, text,
                                                           self.wl.shape.split_width)
            else:
                self.checked[key] = check.ws_mismatches(text, WS_N, WS_K, WS_P_VALUES, WS_MODES)
        rep.problems += self.checked[key]

    def repeat(self, traced: bool, budget: float, at_least: int) -> list:
        reps = []
        start = time.monotonic()
        while len(reps) < at_least or time.monotonic() - start < budget:
            if reps and time.monotonic() + reps[-1].wall_s > self.deadline:
                break
            reps.append(self.rep(traced))
        return reps


def self_times(trace: dict) -> dict:
    spans = trace["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = dict.fromkeys(SELF_SPANS, 0.0)
    for (name, *_), t in zip(spans, own):
        totals[name] += t
    return totals


def layer_metrics(traced: Rep, untraced_wall: float, analyses: int) -> dict:
    counts = traced.trace["counts"]
    selfs = self_times(traced.trace)
    out = {f"{name}.self_s": (t, "s") for name, t in selfs.items()}
    out["cli.self_s"] = (traced.wall_s - sum(selfs.values()), "s")
    out.update({name: (counts.get(name, 0), unit) for name, unit in COUNTS.items()})
    out["metrics.components_per_analysis"] = (
        counts.get("metrics.connected_components.calls", 0) / analyses, "ratio")
    calls = counts.get("nsw.predict.calls", 0)
    out["nsw.defined_ratio"] = (counts.get("nsw.predict.defined", 0) / calls if calls else 0.0,
                                "ratio")
    out["trace.wall_s"] = (traced.wall_s, "s")
    out["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    return out


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    bench = Bench(name, seed, trace)
    if bench.pinned is None:
        print(f"warning: no digests pinned for {name} seed {seed}; "
              "only the independent checks apply", file=sys.stderr)
    shape = bench.prepare()
    setup = bench.setup_samples()
    untraced_budget = seconds / 2 if trace else seconds
    reps = bench.repeat(False, untraced_budget, at_least=1 if trace else 2)
    traced = bench.repeat(True, seconds / 2, at_least=2) if trace else []

    problems = []
    first = reps[0].digests
    for i, rep in enumerate(reps + traced):
        if rep.exit_code == 0 and rep.digests != first:
            rep.problems.append("CSV digests differ from the first run")
        problems += [f"rep {i}: {p}" for p in rep.problems]
    failed = sum(1 for rep in reps + traced if rep.problems)
    wall = statistics.median(r.wall_s for r in reps)
    if trace:
        good = [r for r in traced if r.trace is not None]
        if any(r.trace["counts"] != good[0].trace["counts"] for r in good):
            problems.append("traced counts differ between repetitions")
        metrics = {}
        if good:
            chosen = sorted(good, key=lambda r: r.wall_s)[(len(good) - 1) // 2]
            metrics = layer_metrics(chosen, wall, bench.wl.analyses)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in reps), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "analyses_per_s": (bench.wl.analyses / wall, "1/s"),
            "peak_rss_mib": (statistics.median(r.rss_mib for r in reps), "MiB"),
        }
    result = {
        "correct": not problems and bool(metrics),
        "attempted": len(reps) + len(traced),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "command": bench.cli_args(), "environment": environment(), "input_shape": shape,
        "setup_s": setup, "digests": first, "digests_pinned": bench.pinned is not None,
        "problems": problems,
        "reps": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mib": r.rss_mib,
                  "exit_code": r.exit_code, "traced": r.traced, "problems": r.problems}
                 for r in reps + traced],
        "spans": [r.trace for r in traced],
        "result": result,
    }
    (bench.work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    bench.input.unlink(missing_ok=True)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{name} seed {seed}: {len(reps)} untraced, {len(traced)} traced runs, "
          f"shape {shape}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "recgraph" / "cli.py").is_file():
        print("error: run from the root of a recgraph checkout (no src/recgraph/cli.py)",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
