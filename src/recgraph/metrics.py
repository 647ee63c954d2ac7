"""Exact structural measurements on social and recommender graphs.

Components, degree distributions, average shortest-path lengths, clustering,
and the small utilities (complementary degree CDFs, L-infinity discrepancy)
the experiment drivers report.  Path lengths are exact breadth-first values:
every graph here is unweighted, so per-source BFS from each giant-component
person replaces anything heavier.  Above 5,000 giant people the source set is
uniformly sampled (seeded) instead, and the result says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .errors import UndefinedMetricError
from .jumps import RecommenderGraph, SocialGraph

EXACT_SOURCE_LIMIT = 5000
DEFAULT_SAMPLED_SOURCES = 1000


# -- types -------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentReport:
    """Component structure of a graph.

    ``component_sizes`` holds (people, movies) pairs in the listing order
    described by :func:`connected_components`; ``giant_people`` and
    ``giant_movies`` are the ids inside the largest component.
    """

    component_sizes: tuple
    giant_people: tuple
    giant_movies: tuple
    isolated_people: int
    shattered: bool


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree -> fraction of vertices, over ``n`` vertices."""

    probabilities: dict
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UndefinedMetricError("degree distribution needs at least one vertex")
        if any(k < 0 for k in self.probabilities):
            raise ValueError("degrees must be non-negative")
        mass = sum(self.probabilities.values())
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {mass}")

    def counts(self) -> dict:
        return {k: round(p * self.n) for k, p in sorted(self.probabilities.items())}


@dataclass(frozen=True)
class JointDegreeDistribution:
    """(indegree, outdegree) -> fraction of vertices, over ``n`` vertices."""

    probabilities: dict
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UndefinedMetricError("joint degree distribution needs at least one vertex")
        if any(j < 0 or k < 0 for j, k in self.probabilities):
            raise ValueError("degrees must be non-negative")
        mass = sum(self.probabilities.values())
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {mass}")


@dataclass(frozen=True)
class PathLengthStats:
    """Mean shortest-path lengths with the pair counts behind each mean.

    ``sources`` is how many BFS sources ran; ``sampled`` is False when that
    was every person in the giant component.  Means are None when the
    corresponding pair count is zero.
    """

    l_pp: float | None
    l_pm: float | None
    l_r: float | None
    pairs_pp: int
    pairs_pm: int
    sources: int
    sampled: bool


# -- components ---------------------------------------------------------------


def connected_components(graph) -> ComponentReport:
    """Component structure of a SocialGraph or RecommenderGraph (cached).

    People partition by the undirected social edges; isolated people are
    single-person components.  For a recommender graph each movie joins the
    component of its raters, picking the one with the most people (ties to
    the smaller minimum person id) when raters span several; unrated movies
    are components of their own.  Movies never merge person components:
    their arcs are one-way, so two people belong together only when social
    edges alone connect them.

    Components are listed by total size descending, ties broken toward more
    people and then the smaller minimum vertex id; the first entry is the
    giant component.  Both graph types are immutable, so the report is kept
    on the graph and later calls return it.
    """
    if isinstance(graph, RecommenderGraph):
        social = graph.social
        ratings = graph.ratings
    elif isinstance(graph, SocialGraph):
        social = graph
        ratings = None
    else:
        raise TypeError(f"expected SocialGraph or RecommenderGraph, got {type(graph).__name__}")
    if graph._components is None:
        graph._components = _component_report(social, ratings)
    return graph._components


def _component_report(social: SocialGraph, ratings) -> ComponentReport:
    n = social.n
    if n:
        n_comp, labels = csgraph.connected_components(social.adjacency_csr(), directed=False)
    else:
        n_comp, labels = 0, np.empty(0, dtype=np.int64)
    people = np.bincount(labels, minlength=n_comp)
    # vertices are sorted, so a label's first index holds its minimum person id
    _, first = np.unique(labels, return_index=True)
    anchor = social.vertices[first]
    movies = np.zeros(n_comp, dtype=np.int64)
    movie_ids = movie_label = np.empty(0, dtype=np.int64)
    if ratings is not None:
        movie_ids = ratings.movies
        # rank person components by (people desc, min person id asc); each
        # movie joins the best-ranked component among its raters
        by_rank = np.lexsort((anchor, -people))
        rank = np.empty(n_comp, dtype=np.int64)
        rank[by_rank] = np.arange(n_comp)
        best = np.full(ratings.n_movies, n_comp, dtype=np.int64)
        np.minimum.at(best, ratings.edge_movie_idx, rank[labels[ratings.edge_person_idx]])
        rated = best < n_comp
        movie_label = np.empty(ratings.n_movies, dtype=np.int64)
        movie_label[rated] = by_rank[best[rated]]
        movies = np.bincount(movie_label[rated], minlength=n_comp)
        # each unrated movie is a component of its own, labelled after the people's
        unrated = movie_ids[~rated]
        movie_label[~rated] = np.arange(n_comp, n_comp + len(unrated))
        people = np.concatenate([people, np.zeros(len(unrated), dtype=np.int64)])
        movies = np.concatenate([movies, np.ones(len(unrated), dtype=np.int64)])
        anchor = np.concatenate([anchor, unrated])
    if len(people) == 0:
        return ComponentReport((), (), (), 0, True)

    order = np.lexsort((anchor, -people, -(people + movies)))
    giant = order[0]
    degrees = social.degrees()
    giant_person = labels == giant
    return ComponentReport(
        component_sizes=tuple(zip(people[order].tolist(), movies[order].tolist())),
        giant_people=tuple(social.vertices[giant_person].tolist()),
        giant_movies=tuple(movie_ids[movie_label == giant].tolist()),
        isolated_people=int(np.count_nonzero(degrees == 0)),
        shattered=not bool(np.any(degrees[~giant_person])),
    )


# -- degree distributions -------------------------------------------------------


def degree_distribution(gs: SocialGraph, largest_only=False) -> DegreeDistribution:
    """Distribution of social degrees, optionally restricted to the giant.

    The giant component is closed under its own edges, so restriction just
    filters vertices; member degrees are unchanged.
    """
    degrees = gs.degrees()
    if largest_only:
        report = connected_components(gs)
        degrees = degrees[np.isin(gs.vertices, report.giant_people)]
    n = len(degrees)
    if n == 0:
        raise UndefinedMetricError("degree distribution of an empty graph")
    values, counts = np.unique(degrees, return_counts=True)
    probs = {int(k): int(c) / n for k, c in zip(values, counts)}
    return DegreeDistribution(probabilities=probs, n=n)


def joint_degree_distribution(gr: RecommenderGraph, largest_only=False) -> JointDegreeDistribution:
    """Joint (indegree, outdegree) distribution over people and movies.

    People have indegree equal to their social degree and outdegree equal to
    social degree plus rated movies; movies have indegree equal to their
    rater count and outdegree 0.  With ``largest_only`` both vertex set and
    arcs are restricted to the giant component (induced counts).
    """
    ratings = gr.ratings
    if largest_only:
        report = connected_components(gr)
        keep_p = np.isin(ratings.people, report.giant_people)
        keep_m = np.isin(ratings.movies, report.giant_movies)
    else:
        keep_p = np.ones(gr.n_people, dtype=bool)
        keep_m = np.ones(gr.n_movies, dtype=bool)
    n = int(keep_p.sum() + keep_m.sum())
    if n == 0:
        raise UndefinedMetricError("joint degree distribution of an empty graph")

    pi, mi = ratings.edge_person_idx, ratings.edge_movie_idx
    kept = keep_p[pi] & keep_m[mi]
    social_deg = gr.social.degrees()[keep_p]
    out_deg = social_deg + np.bincount(pi[kept], minlength=gr.n_people)[keep_p]
    movie_in = np.bincount(mi[kept], minlength=gr.n_movies)[keep_m]
    # keys keep first-seen order (people by id, then movies), because
    # moments_directed sums in dict order and its last bits must not move
    jk = np.concatenate([np.column_stack([social_deg, out_deg]),
                         np.column_stack([movie_in, np.zeros_like(movie_in)])])
    keys, first, counts = np.unique(jk, axis=0, return_index=True, return_counts=True)
    seen = np.argsort(first)
    probs = {(j, k): c / n for (j, k), c in zip(keys[seen].tolist(), counts[seen].tolist())}
    return JointDegreeDistribution(probabilities=probs, n=n)


# -- path lengths ----------------------------------------------------------------


def _pick_sources(candidates, max_sources, seed):
    """Exact sources up to the limit, else a seeded uniform sample.

    ``max_sources=None`` applies the default policy: exact through
    EXACT_SOURCE_LIMIT people, then DEFAULT_SAMPLED_SOURCES samples.
    """
    ordered = sorted(candidates)
    if max_sources is None:
        if len(ordered) <= EXACT_SOURCE_LIMIT:
            return ordered, False
        count = DEFAULT_SAMPLED_SOURCES
    elif len(ordered) <= max_sources:
        return ordered, False
    else:
        count = max_sources
    rng = random.Random(f"sources:{seed}")
    return sorted(rng.sample(ordered, count)), True


def measure_l_pp(gs: SocialGraph, max_sources=None, seed=0) -> PathLengthStats:
    """Mean shortest-path length between ordered person pairs in the giant.

    BFS runs from every giant-component person (or a seeded sample, see
    :func:`_pick_sources`); self-pairs are excluded.
    """
    report = connected_components(gs)
    if len(report.giant_people) < 2:
        raise UndefinedMetricError("l_pp needs a giant component with at least 2 people")
    sources, sampled = _pick_sources(report.giant_people, max_sources, seed)
    src_idx = np.searchsorted(gs.vertices, sources)
    dist = csgraph.dijkstra(gs.adjacency_csr(), directed=False, indices=src_idx,
                            unweighted=True)
    finite = np.isfinite(dist) & (dist > 0)
    total = float(dist[finite].sum())
    pairs = int(finite.sum())
    return PathLengthStats(
        l_pp=total / pairs if pairs else None,
        l_pm=None,
        l_r=None,
        pairs_pp=pairs,
        pairs_pm=0,
        sources=len(sources),
        sampled=sampled,
    )


def measure_l_r_l_pm(gr: RecommenderGraph, max_sources=None, seed=0) -> PathLengthStats:
    """Directed means from giant-component people to people and to movies.

    BFS follows arc directions.  l_pp averages over reachable person
    targets, l_pm over reachable movie targets, and l_r over their union,
    so l_r * (pairs_pp + pairs_pm) == l_pp * pairs_pp + l_pm * pairs_pm.
    Unreachable pairs are simply absent from the counts.
    """
    report = connected_components(gr)
    if not report.giant_people:
        raise UndefinedMetricError("l_r needs at least one person source in the giant")
    sources, sampled = _pick_sources(report.giant_people, max_sources, seed)
    n_people = gr.n_people
    src_idx = np.searchsorted(gr.ratings.people, sources)
    dist = csgraph.dijkstra(gr.out_csr(), directed=True, indices=src_idx,
                            unweighted=True)
    pp = dist[:, :n_people]
    pm = dist[:, n_people:]
    pp_finite = np.isfinite(pp) & (pp > 0)
    pm_finite = np.isfinite(pm) & (pm > 0)
    sum_pp = float(pp[pp_finite].sum())
    sum_pm = float(pm[pm_finite].sum())
    pairs_pp = int(pp_finite.sum())
    pairs_pm = int(pm_finite.sum())
    both = pairs_pp + pairs_pm
    return PathLengthStats(
        l_pp=sum_pp / pairs_pp if pairs_pp else None,
        l_pm=sum_pm / pairs_pm if pairs_pm else None,
        l_r=(sum_pp + sum_pm) / both if both else None,
        pairs_pp=pairs_pp,
        pairs_pm=pairs_pm,
        sources=len(sources),
        sampled=sampled,
    )


# -- clustering --------------------------------------------------------------------


def clustering_coefficient(g: SocialGraph) -> float:
    """Mean over vertices of the edge density among each vertex's neighbors.

    Vertices with fewer than two neighbors contribute zero.
    """
    if g.n == 0:
        raise UndefinedMetricError("clustering coefficient of an empty graph")
    if g.edge_count == 0:
        return 0.0
    a = g.adjacency_csr().astype(np.int64)
    closed = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()  # 2 * triangles at i
    deg = g.degrees().astype(np.int64)
    denom = deg * (deg - 1)
    contrib = np.divide(closed, denom, out=np.zeros(g.n, dtype=float),
                        where=denom > 0)
    return float(contrib.mean())


# -- report utilities -----------------------------------------------------------------


def degree_cdf(dist: DegreeDistribution, log_scale=False):
    """Complementary cumulative counts: vertices with degree >= each value.

    Entries cover the degrees present in the distribution, ascending; the
    first count always equals n.  With ``log_scale`` counts come back as
    log10 (zero counts would be omitted, though listed degrees always have
    at least one vertex at or above them).
    """
    counts = dist.counts()
    degrees = sorted(counts)
    remaining = dist.n
    out = []
    for k in degrees:
        if log_scale:
            if remaining > 0:
                out.append((k, float(np.log10(remaining))))
        else:
            out.append((k, remaining))
        remaining -= counts[k]
    return out


def linf_discrepancy(a, b) -> float:
    """Largest absolute gap between two sequences, skipping missing entries.

    Entries may be None on either side; those positions are skipped
    pairwise.  Raises on length mismatch, or when nothing overlaps.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    gaps = [abs(x - y) for x, y in zip(a, b) if x is not None and y is not None]
    if not gaps:
        raise UndefinedMetricError("no overlapping entries to compare")
    return max(gaps)


# -- CSV rendering ------------------------------------------------------------------


def csv_float(x) -> str:
    """Render a value for CSV: 6 significant digits, ints plain, None empty."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def degree_cdf_csv(entries, log_scale=False) -> str:
    header = "degree,log10_count" if log_scale else "degree,count"
    lines = [header]
    lines.extend(f"{k},{csv_float(c)}" for k, c in entries)
    return "\n".join(lines) + "\n"
