"""Graph analysis of rating datasets for recommender evaluation.

Induces social and recommender graphs from who-rated-what data via
parameterized jumps, measures connectivity and characteristic path
lengths, and compares them against random-graph predictions.

The package re-exports what the README's library examples call, the
exception types and ``__version__``.  Everything else lives in its module:
``recgraph.dataset``, ``jumps``, ``metrics``, ``nsw`` and ``synth``.
"""

from .dataset import load_ratings
from .errors import (
    ConfigError,
    DegenerateModelError,
    EmptyDatasetError,
    FitError,
    GraphMismatchError,
    InvalidDistributionError,
    ParseError,
    RecgraphError,
    UndefinedMetricError,
    UnknownNodeError,
)
from .jumps import RecommenderGraph, apply_jump
from .metrics import joint_degree_distribution, measure_l_pp, measure_l_r_l_pm
from .nsw import predict_l_r
from .synth import SynthConfig, generate_power_law_bipartite, generate_wreath, rewire

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateModelError",
    "EmptyDatasetError",
    "FitError",
    "GraphMismatchError",
    "InvalidDistributionError",
    "ParseError",
    "RecgraphError",
    "RecommenderGraph",
    "SynthConfig",
    "UndefinedMetricError",
    "UnknownNodeError",
    "apply_jump",
    "generate_power_law_bipartite",
    "generate_wreath",
    "joint_degree_distribution",
    "load_ratings",
    "measure_l_pp",
    "measure_l_r_l_pm",
    "predict_l_r",
    "rewire",
    "__version__",
]
