"""The benchmark's tracer wraps package functions by name (``perfbench/traced.py``).

A rename under ``src/`` would break ``perfbench/run.py --trace 1`` only when
that runs; this test makes it fail here instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    for owner, attr, name, _ in traced.LAYERS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
