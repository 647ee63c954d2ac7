"""Synthetic rating datasets and ring-lattice rewiring experiments.

A ring lattice is written as its rows in closed form, and its mean path
length is a closed form too.  Rewiring turns only the rows it reads into
neighbour sets, writes each moved edge's new end into a copy of the edge
list and builds the new rows from that list; a rewiring that moves no edge
hands back the lattice itself, which the small-world curve then does not
measure again.

The dataset generator hands person b (1-based, most active first) the first
ceil(n_movies * b**-epsilon) movies, then re-points each initial rating, with
probability REWIRE_THRESHOLD / REWIRE_OUTCOMES (2/11), at a uniformly chosen
movie the person has not rated.  Person 1 starts with every movie and can
never be rewired away from one (there is no unseen target), and a rewire
keeps each person's rating count, so everyone with a rating shares person 1's
component.  Only a person whose initial count underflows to zero stands
apart; the repair hands each such person movie 1.

All randomness flows through one stdlib Random stream per call, consumed in
a documented order, so results are a pure function of (config, seed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .dataset import BipartiteRatings
from .edges import Csr, csr
from .jumps import SocialGraph
from .metrics import (
    _local_clustering,
    clustering_coefficient,
    connected_components,
    measure_l_pp,
)

UNIFORM = "uniform"
PREFERENTIAL = "preferential"
REWIRE_MODES = (UNIFORM, PREFERENTIAL)

# rejection sampling attempts before falling back to an explicit pool scan
_REJECTION_CAP = 64


# -- power-law bipartite generator --------------------------------------------

# A generated rating is rewired when a uniform draw from range(REWIRE_OUTCOMES)
# falls below REWIRE_THRESHOLD.
REWIRE_THRESHOLD = 2
REWIRE_OUTCOMES = 11


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic rating dataset generator.

    ``seed`` may be an int or a string; it feeds a single stdlib Random
    stream.
    """

    n_people: int = 500
    n_movies: int = 75
    epsilon: float = 0.7
    seed: int | str = 0

    def __post_init__(self):
        if self.n_people < 1 or self.n_movies < 1:
            raise ValueError("need at least one person and one movie")
        if not self.epsilon >= 0:  # NaN fails this too
            raise ValueError("epsilon must be non-negative")


@dataclass
class GenerationDiagnostics:
    """Counts of events worth knowing about but not worth failing on."""

    skipped_rewires: int = 0
    repair_edges: int = 0


def initial_degree(b: int, epsilon: float, n_movies: int) -> int:
    """Ratings person b starts with: ceil(n_movies * b**-epsilon), capped at n_movies."""
    return min(n_movies, math.ceil(n_movies * float(b) ** -epsilon))


def generate_power_law_bipartite(cfg: SynthConfig):
    """Build the synthetic dataset; returns (graph, GenerationDiagnostics).

    Draw order: edges iterate ascending (person, initial movie rank); each
    edge consumes one rewire-decision draw, and a triggered rewire consumes
    one more draw to pick a uniform unseen movie.
    """
    rng = random.Random(cfg.seed)
    diag = GenerationDiagnostics()
    degrees = [initial_degree(b, cfg.epsilon, cfg.n_movies) for b in range(1, cfg.n_people + 1)]
    rated = np.arange(cfg.n_movies) < np.array(degrees)[:, None]
    for row, d in zip(rated, degrees):
        for movie in range(d):
            if rng.randrange(REWIRE_OUTCOMES) >= REWIRE_THRESHOLD:
                continue
            pool = np.flatnonzero(~row)
            if not len(pool):
                diag.skipped_rewires += 1
                continue
            row[movie] = False
            row[pool[rng.randrange(len(pool))]] = True

    # Person 1 rates every movie and a rewire keeps each person's count, so
    # everyone with a rating shares one component with all the movies; the
    # only strays are people whose count underflowed to zero (epsilon past
    # about 120 at 500 people), and movie 1 joins each of them exactly.
    unrated = ~rated.any(axis=1)
    rated[unrated, 0] = True
    diag.repair_edges = int(unrated.sum())

    graph = BipartiteRatings(
        np.argwhere(rated) + 1,
        people=range(1, cfg.n_people + 1),
        movies=range(1, cfg.n_movies + 1),
    )
    return graph, diag


def calibrate_epsilon(kappa: int, n_people: int = 500, n_movies: int = 75) -> float:
    """Find epsilon so the least active person starts with exactly kappa ratings.

    The map epsilon -> ceil(n_movies * n_people**-epsilon) is a
    non-increasing step function of epsilon; bisection brackets the feasible
    interval and the midpoint comes back.  kappa = 1 is the exception: its
    interval is unbounded above, so the smallest feasible epsilon comes back
    instead.
    """
    if not 1 <= kappa <= n_movies:
        raise ValueError(f"kappa must lie in [1, {n_movies}], got {kappa}")
    if n_people < 2:
        raise ValueError("calibration needs at least 2 people")

    def min_count(eps):
        return initial_degree(n_people, eps, n_movies)

    def boundary(target):
        """Smallest epsilon with min_count(eps) <= target, by bisection."""
        lo, hi = 0.0, 64.0
        if min_count(lo) <= target:
            return lo
        for _ in range(200):
            mid = (lo + hi) / 2
            if min_count(mid) <= target:
                hi = mid
            else:
                lo = mid
        return hi

    lower = boundary(kappa)
    if kappa == 1:
        result = lower
    else:
        result = (lower + boundary(kappa - 1)) / 2
    if min_count(result) != kappa:
        raise ArithmeticError(f"calibration failed for kappa={kappa}")  # pragma: no cover
    return result


# -- ring lattices and rewiring ---------------------------------------------------


@dataclass(frozen=True)
class WreathConfig:
    """Ring lattice on n vertices, each adjacent to its k nearest neighbors."""

    n: int
    k: int
    seed: int | str = 0
    mode: str = UNIFORM

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 vertices")
        if self.k % 2 != 0 or not 2 <= self.k < self.n:
            raise ValueError("k must be even with 2 <= k < n")
        if self.mode not in REWIRE_MODES:
            raise ValueError(f"mode must be one of {REWIRE_MODES}")


def generate_wreath(n: int, k: int) -> SocialGraph:
    """Ring lattice: vertex i adjacent to i +- 1 .. k/2, modulo n.

    Row i is i plus those k offsets, sorted; as k < n, they stay distinct.
    """
    WreathConfig(n=n, k=k)  # reuse the validation
    half = k // 2
    rows = np.sort((np.arange(n)[:, None] + np.r_[-half:0, 1:half + 1]) % n, axis=1)
    return SocialGraph(np.arange(n), Csr(np.arange(0, n * k + 1, k), rows.ravel()))


def rewire(g: SocialGraph, p: float, mode: str = UNIFORM, seed=0):
    """Rewire one endpoint of each selected edge; returns (graph, skipped).

    Edges are visited in ascending (u, v) order and independently selected
    with probability p (one uniform draw each).  A selected edge keeps its
    smaller-id endpoint u and re-attaches the other end: uniformly over
    non-self, non-adjacent targets, or with probability proportional to
    current degree in preferential mode.  Edges with no valid target are
    left in place and counted in ``skipped``.  When no edge moves, ``g``
    itself comes back.

    The walk runs on vertex indices.  Vertex ids are sorted, so index order
    is id order and every draw picks the vertex an id-keyed walk would.  A
    row becomes a set the first time the walk reads it.  Each moved edge's
    new end replaces its old one in a copy of the edge list, and
    ``edges.csr`` builds the new rows from both directions of that list.
    """
    if not 0 <= p <= 1:
        raise ValueError("rewire probability must lie in [0, 1]")
    if mode not in REWIRE_MODES:
        raise ValueError(f"mode must be one of {REWIRE_MODES}")
    rng = random.Random(f"rewire:{seed}")
    n = g.n
    rows = g.adjacency_csr()
    starts = rows.indptr.tolist()
    arcs = memoryview(rows.indices)  # its slices read as ints, faster than tolist()
    adj = [None] * n  # neighbour sets, for the rows the walk has read

    def nbrs(i):
        if adj[i] is None:
            adj[i] = set(arcs[starts[i]:starts[i + 1]])
        return adj[i]

    if mode == UNIFORM:
        pick, pool, degrees = _uniform_target, n, None
    else:
        pick = _preferential_target
        pool = degrees = _Fenwick(g.degrees().tolist())
    skipped = 0
    moved = False
    draw = rng.random
    tails, heads = g.edges()
    new_heads = heads.copy()
    old_heads = heads.tolist()
    for e, u in enumerate(tails.tolist()):
        if draw() >= p:
            continue
        v = old_heads[e]
        taken = nbrs(u)
        target = pick(rng, pool, u, taken)
        if target is None:
            skipped += 1
            continue
        moved = True
        new_heads[e] = target
        taken.discard(v)
        taken.add(target)
        nbrs(v).discard(u)
        nbrs(target).add(u)
        if degrees is not None:
            degrees.add(v, -1)
            degrees.add(target, 1)
    if not moved:
        return g, skipped
    arc_tails = np.concatenate([tails, new_heads])
    arc_heads = np.concatenate([new_heads, tails])
    return SocialGraph(g.vertices, csr(n, arc_tails, arc_heads)), skipped


def _uniform_target(rng, n, u, taken):
    """Uniform over vertex indices that are neither u nor adjacent to u.

    Rejection sampling, falling back to an explicit sorted pool when the
    graph is dense enough to starve it; both paths draw from the same
    stream, so results stay deterministic.
    """
    if len(taken) + 1 >= n:
        return None
    for _ in range(_REJECTION_CAP):
        t = rng.randrange(n)
        if t != u and t not in taken:
            return t
    pool = [t for t in range(n) if t != u and t not in taken]
    return pool[rng.randrange(len(pool))]


class _Fenwick:
    """Non-negative integer weights with O(log n) updates.

    A binary indexed tree (Fenwick 1994): ``_tree[i]`` (1-based) holds the
    sum of the ``i & -i`` weights ending at index i - 1, so a prefix search
    is one descent from ``_top``.  ``values`` keeps the weights themselves
    and ``total`` their sum.
    """

    def __init__(self, values):
        self.values = list(values)
        self.total = sum(self.values)
        n = len(self.values)
        prefix = np.cumsum([0, *self.values])
        i = np.arange(n + 1)
        self._tree = (prefix - prefix[i - (i & -i)]).tolist()
        self._top = 1 << n.bit_length() >> 1  # largest power of 2 <= n

    def add(self, index, delta):
        """Add delta to the weight at index."""
        self.values[index] += delta
        self.total += delta
        tree, i, end = self._tree, index + 1, len(self._tree)
        while i < end:
            tree[i] += delta
            i += i & -i


def _preferential_target(rng, degrees, u, taken):
    """Degree-proportional choice among valid target indices (one uniform draw).

    ``degrees`` is a :class:`_Fenwick` of the current degrees.  The pick is
    the index ``searchsorted(cumsum(w), cut, side="right")`` returns, clamped
    to the last index, where ``w`` is the degrees with u and its neighbours
    zeroed and ``cut = rng.random() * sum(w)``; None when ``sum(w)`` is 0.
    Each prefix of ``w`` is an integer (exact as a float below 2**53), so
    it exceeds ``cut`` exactly when it exceeds ``t = floor(cut)``.  One
    descent of the tree finds the first index whose prefix of ``w`` exceeds
    ``t``: a node covering indices pos .. nxt - 1 weighs its tree sum less
    the degrees of ``excluded[j:k]``, the excluded indices in that range.
    """
    excluded = sorted(chain((u,), taken))
    # skips[i]: the degree of the first i excluded vertices
    skips = list(accumulate((degrees.values[x] for x in excluded), initial=0))
    valid = degrees.total - skips[-1]
    if valid <= 0:
        return None
    t = int(rng.random() * valid)
    tree, end, step = degrees._tree, len(degrees._tree), degrees._top
    pos = j = 0
    last = len(excluded)
    while step:
        nxt = pos + step
        if nxt < end:
            weight, k = tree[nxt], j
            if j < last and excluded[j] < nxt:
                k = bisect_left(excluded, nxt, j)
                weight -= skips[k] - skips[j]
            if weight <= t:
                pos, t, j = nxt, t - weight, k
        step >>= 1
    return min(pos, len(degrees.values) - 1)


# -- small-world curves --------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """One rewiring probability with its trial-averaged scaled measurements."""

    p: float
    l_ratio: float
    c_ratio: float | None


def _giant_clustering(graph: SocialGraph) -> float:
    """The clustering coefficient of the giant component alone."""
    return float(_local_clustering(graph)[connected_components(graph).people_in_giant].mean())


def _lattice_path_length(n: int, k: int) -> float:
    """Mean shortest-path length of ``generate_wreath(n, k)``, in closed form.

    A vertex j ring steps away (j <= n / 2) is ceil(j / (k / 2)) hops off,
    so the hops over all ordered pairs sum to n * S, with S the sum over
    j = 1 .. n - 1.  Dividing S by n - 1 is the same rational as the
    distance pass's n * S / (n * (n - 1)), and int division rounds
    correctly, so the float is the pass's bit for bit.
    """
    half = k // 2
    return sum(-(-min(j, n - j) // half) for j in range(1, n)) / (n - 1)


def small_world_curve(cfg: WreathConfig, p_values, trials: int = 1):
    """Scaled path length and clustering versus rewiring probability.

    Every measurement runs on the giant component and is scaled by the
    untouched lattice's values; each (p, trial) pair rewires a fresh lattice
    with seed ``f"{cfg.seed}:{trial}:{p_index}"``.  The lattice's path
    length comes in closed form (see :func:`_lattice_path_length`), and a
    trial whose rewiring moves no edge adds the lattice's own values without
    measuring them again.  Returns CurvePoints in p_values order; p = 0
    comes back as exactly (1.0, 1.0).  A lattice with k = 2 has no
    clustering to scale by, so every c_ratio is then None.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    lattice = generate_wreath(cfg.n, cfg.k)
    base_l = _lattice_path_length(cfg.n, cfg.k)
    base_c = clustering_coefficient(lattice)
    points = []
    for i, p in enumerate(p_values):
        if p == 0:
            # rewiring selects nothing at p = 0, so every trial is the lattice
            points.append(CurvePoint(p=0.0, l_ratio=1.0, c_ratio=1.0 if base_c else None))
            continue
        l_total = 0.0
        c_total = 0.0
        for t in range(trials):
            graph, _ = rewire(lattice, p, cfg.mode, seed=f"{cfg.seed}:{t}:{i}")
            if graph is lattice:
                # no edge moved; a connected lattice's giant is all of it
                l_total += base_l
                c_total += base_c
                continue
            l_total += measure_l_pp(graph).l_pp
            c_total += _giant_clustering(graph)
        points.append(CurvePoint(
            p=float(p),
            l_ratio=(l_total / trials) / base_l,
            c_ratio=(c_total / trials) / base_c if base_c else None,
        ))
    return points
