"""Run one recgraph CLI command with spans around each layer's public functions.

    python3 perfbench/traced.py SPANS_JSON RUN_ID -- <recgraph cli arguments>

Every function listed in LAYERS is replaced, in each recgraph module that
holds it, by a wrapper that records a span (name, start, end, parent span,
run id) and the layer's work counts.  Replacing the name in every module,
not only where it is defined, makes nested calls visible too: ``measure_l_pp``
calls ``connected_components`` through ``recgraph.metrics``, and the CLI calls
both through its own imported names.  Spans stay in memory and are written
to SPANS_JSON when the command ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import recgraph
import recgraph.cli
from recgraph import dataset, jumps, metrics, nsw, synth

MODULES = (recgraph, recgraph.cli, dataset, jumps, metrics, nsw, synth)


def _count_load(counts, result, args):
    counts["dataset.ratings"] += result.edge_count


def _count_pairs(counts, result, args):
    counts["jumps.co_rating_pairs.pairs"] += len(result[0])


def _count_jump(counts, result, args):
    counts["jumps.edges_kept"] += result.edge_count


def _count_l_pp(counts, result, args):
    counts["metrics.bfs_sources"] += result.sources
    counts["metrics.reached_pairs"] += result.pairs_pp
    counts["metrics.dist_bytes_computed"] += result.sources * args[0].n * 8


def _count_l_r(counts, result, args):
    gr = args[0]
    counts["metrics.bfs_sources"] += result.sources
    counts["metrics.reached_pairs"] += result.pairs_pp + result.pairs_pm
    counts["metrics.dist_bytes_computed"] += result.sources * (gr.n_people + gr.n_movies) * 8


def _count_predict(counts, result, args):
    counts["nsw.predict.defined"] += 1


# (owner, attribute, span name, counter called with the result on success)
LAYERS = (
    (dataset, "load_ratings", "dataset.load_ratings", _count_load),
    (jumps, "co_rating_pairs", "jumps.co_rating_pairs", _count_pairs),
    (jumps, "apply_jump", "jumps.apply_jump", _count_jump),
    (jumps.SocialGraph, "adjacency_csr", "jumps.adjacency_csr", None),
    (jumps.RecommenderGraph, "out_csr", "jumps.adjacency_csr", None),
    (metrics, "measure_l_pp", "metrics.measure_l_pp", _count_l_pp),
    (metrics, "measure_l_r_l_pm", "metrics.measure_l_r_l_pm", _count_l_r),
    (metrics, "connected_components", "metrics.connected_components", None),
    (metrics, "degree_distribution", "metrics.degree_distribution", None),
    (metrics, "joint_degree_distribution", "metrics.joint_degree_distribution", None),
    (metrics, "clustering_coefficient", "metrics.clustering_coefficient", None),
    (nsw, "predict_l_pp", "nsw.predict", _count_predict),
    (nsw, "predict_l_r", "nsw.predict", _count_predict),
    (nsw, "predict_l_pm", "nsw.predict", _count_predict),
    (synth, "generate_wreath", "synth.generate", None),
    (synth, "generate_power_law_bipartite", "synth.generate", None),
    (synth, "rewire", "synth.rewire", None),
    (synth, "small_world_curve", "synth.small_world_curve", None),
    (recgraph.cli, "sweep_rows", "cli.sweep_rows", None),
)


class Tracer:
    """In-memory span log plus work counters for one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self._stack.append(index)
            self.counts[f"{name}.calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                counter(self.counts, result, args)
            return result
        return traced

    def install(self):
        for owner, attr, name, counter in LAYERS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            setattr(owner, attr, wrapper)
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py SPANS_JSON RUN_ID -- <recgraph cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer(argv[1])
    tracer.install()
    try:
        return recgraph.cli.main(argv[3:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
