"""Package names the benchmark reaches by name, and its tracer end to end.

Its tracer wraps package functions (``perfbench/traced.py``) and reads
their results, and its set-up samples call ``recgraph.load_ratings``
(``perfbench/run.py``).  A rename, a dropped re-export or a changed return
shape under ``src/`` would break those only when the benchmark runs; these
tests make it fail here instead.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import recgraph
from recgraph import load_ratings
from recgraph.jumps import co_rating_pairs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    for owner, attr, name, _ in traced.LAYERS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_benchmark_setup_names_resolve():
    # each set-up sample of perfbench/run.py runs
    # ``import recgraph.cli; recgraph.load_ratings(path)`` in a fresh child
    import recgraph
    import recgraph.cli

    assert callable(recgraph.load_ratings)
    assert callable(recgraph.cli.main)


def _traced(tmp_path, run_id, *args):
    """Run one CLI command under perfbench/traced.py; returns its span record."""
    spans = tmp_path / f"{run_id}.json"
    env = dict(os.environ, PYTHONPATH=str(Path(recgraph.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans), run_id, "--",
         *args, "--out", str(tmp_path / run_id)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert record["run_id"] == run_id and record["spans"]
    return record


def test_tracer_spans_a_sweep_and_a_ws_run(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("".join(f"{p}\t{m}\t3\t0\n" for p in range(1, 9) for m in range(1, 12)
                            if (p * m) % 3), encoding="utf-8")
    record = _traced(tmp_path, "sweep", "sweep", "--input", str(path),
                     "--w-min", "1", "--w-max", "2")
    names = {span[0] for span in record["spans"]}
    # a sweep cuts its widths inside hammock_graphs, which has no span
    assert {"cli.sweep_rows", "jumps.co_rating_pairs"} <= names
    assert "jumps.apply_jump" not in names
    # the pair count is the width-1 table's ordered arcs, each edge twice
    count, _ = co_rating_pairs(load_ratings(path))
    assert record["counts"]["jumps.co_rating_pairs.pairs"] == len(count) > 0
    record = _traced(tmp_path, "ws", "ws", "--n", "30", "--k", "4")
    assert {"synth.small_world_curve", "synth.rewire"} <= {span[0] for span in record["spans"]}
