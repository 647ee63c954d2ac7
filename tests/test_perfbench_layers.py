"""Package names the benchmark reaches by name.

Its tracer wraps package functions (``perfbench/traced.py``), and its set-up
samples call ``recgraph.load_ratings`` (``perfbench/run.py``).  A rename or a
dropped re-export under ``src/`` would break those only when the benchmark
runs; these tests make it fail here instead.
"""

import importlib
from pathlib import Path

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
