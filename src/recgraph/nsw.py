"""Generating-function predictions for random graphs with fixed degree shape.

Given only a degree distribution (undirected case) or a joint in/out-degree
distribution (directed case), estimate the first and second neighborhood
sizes z1 and z2 of a typical vertex, grow them geometrically, and solve for
the path length at which the neighborhood would cover the N vertices
the distribution counts.  Distributions hold vertex counts, so z1 and z2
are exact integer sums divided by N once, and arcs balance exactly:

    l = (log[(N - 1)(z2 - z1) + z1^2] - log[z1^2]) / log[z2 / z1]

Real clustered graphs systematically exceed these estimates, which is what
makes the gap informative.  The model degenerates when z2 <= z1 (no growing
neighborhood), which surfaces as DegenerateModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateModelError, InvalidDistributionError
from .metrics import DegreeDistribution, JointDegreeDistribution


@dataclass(frozen=True)
class ModelMoments:
    """Expected first and second neighborhood sizes of a typical vertex."""

    z1: float
    z2: float


def moments_undirected(dist: DegreeDistribution) -> ModelMoments:
    """z1 = sum k n_k / N, z2 = sum k (k - 1) n_k / N over the vertex counts n_k."""
    z1 = sum(k * c for k, c in dist.counts.items())
    z2 = sum(k * (k - 1) * c for k, c in dist.counts.items())
    n = dist.n
    return ModelMoments(z1=z1 / n, z2=z2 / n)


def moments_directed(joint: JointDegreeDistribution) -> ModelMoments:
    """z1 = sum k n_jk / N, z2 = sum j k n_jk / N, after checking arc balance.

    Every arc leaves one vertex and enters another, so the in- and
    out-degree sums must be equal; any difference is rejected.
    """
    imbalance = sum((j - k) * c for (j, k), c in joint.counts.items())
    if imbalance != 0:
        raise InvalidDistributionError(
            f"in-degrees sum to {imbalance} more than out-degrees; arcs must balance")
    z1 = sum(k * c for (_, k), c in joint.counts.items())
    z2 = sum(j * k * c for (j, k), c in joint.counts.items())
    n = joint.n
    return ModelMoments(z1=z1 / n, z2=z2 / n)


def _predict_length(n: int, moments: ModelMoments) -> float:
    if n < 2:
        raise InvalidDistributionError("need at least 2 vertices to predict a length")
    if moments.z1 <= 0:
        raise DegenerateModelError("no edges: z1 = 0")
    if moments.z2 <= moments.z1:
        raise DegenerateModelError(
            f"neighborhoods do not grow: z2 = {moments.z2} <= z1 = {moments.z1}")
    z1, z2 = moments.z1, moments.z2
    # log of the ratio, not a difference of logs: keeps the algebraic
    # collapse to 1.0 exact when the neighborhood already covers the graph
    return math.log(((n - 1) * (z2 - z1) + z1 * z1) / (z1 * z1)) / math.log(z2 / z1)


def predict_l_pp(dist: DegreeDistribution) -> float:
    """Model mean person-person path length over the ``dist.n`` people of ``dist``."""
    return _predict_length(dist.n, moments_undirected(dist))


def predict_l_r(joint: JointDegreeDistribution) -> float:
    """Model mean path length over the ``joint.n`` people and movies of ``joint``."""
    return _predict_length(joint.n, moments_directed(joint))


def predict_l_pm(l_r: float, l_pp: float, n_people: int, n_movies: int) -> float:
    """Back out the person-movie mean from the person-person and overall means.

    The overall mean mixes person-person and person-movie ordered pairs, so
    l_pm = (l_r * (C_pp + C_pm) - l_pp * C_pp) / C_pm with C_pp = N_P(N_P - 1)
    and C_pm = N_P * N_M.
    """
    if n_movies < 1:
        raise DegenerateModelError("no movies: person-movie mean undefined")
    if n_people < 2:
        raise InvalidDistributionError("need at least 2 people for the person-person term")
    c_pp = n_people * (n_people - 1)
    c_pm = n_people * n_movies
    return (l_r * (c_pp + c_pm) - l_pp * c_pp) / c_pm
