"""Exact structural measurements on social and recommender graphs.

Components, degree distributions, average shortest-path lengths, clustering,
the rating graph's reach from one person, and the small utilities
(complementary degree CDFs, L-infinity discrepancy) the experiment drivers
report.  Path lengths are exact breadth-first values: every graph here is
unweighted, so one level-synchronous kernel runs all giant-component sources
at once, 64 to a machine word, and counts the targets first reached at each
level as Python ints; the means are read off those counts.  The kernel keeps
one frontier over people and movies and pulls it through one in-arc table
over both: the social graph's rows, then, for a recommender graph, each
movie's raters.  Movies are sinks there, so a movie is one hop past its
nearest rater and G_r's out-arc rows are never built.  The reach runs the
same kernel over the rating graph's rows, each person's movies and then
each movie's raters.  Sources go in blocks sized so the gathered frontier bits stay within
BITSET_BLOCK_BYTES (or one word per arc, when that is more), which bounds
memory however many sources run.  Each level runs one pull over people and
movie rows alike: one reduceat over the gathered arcs, until a block of more
than one word passes BFS_SLAB_WORD_LEVELS levels times words (a long search,
such as a ring lattice's, or a wide block) and switches to OR-reducing
slabs of rows of one length, which costs less per word but more to set up.
Above 5,000 giant people the source set is uniformly sampled (seeded)
instead, and the result says so.

Everything is numpy on the social graph's adjacency rows.  Components
come from one hook-and-compress labelling of its u < v edges, read off the
rows (``edges.component_labels``), which a social graph and its recommender
graph share.  Clustering counts the neighbours each edge's ends share with
adjacency bitsets, in blocks bounded by the same BITSET_BLOCK_BYTES.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

import numpy as np

from .edges import Csr, component_labels
from .dataset import BipartiteRatings
from .errors import UndefinedMetricError, UnknownNodeError
from .jumps import RecommenderGraph, SocialGraph

EXACT_SOURCE_LIMIT = 5000
DEFAULT_SAMPLED_SOURCES = 1000
# Byte budget for one block of gathered uint64 bitsets, each holding at
# least one word per row.  In the distance pass a block is its words times
# 8 times the arcs (the gathered frontier bits) or the vertices, whichever
# is more.  Small blocks keep each level's gather near cache size: on dense
# graphs one word per block ran fastest, while sparse lattices (~50 levels)
# want all their sources in one block to pay each level once.  The slab
# pull gathers the same words as reduceat, one row length at a time.  In
# the clustering count it bounds the adjacency bitsets of one column range,
# and the bitsets of one block of edges gathered from them.
BITSET_BLOCK_BYTES = 4 << 20
# Word-levels (levels times the block's words) a block pulls with reduceat
# before it switches to the slab pull, an OR down axis 0 of a (length, rows,
# words) gather per row length; only blocks of more than one word switch, at
# the first level d with d * words > BFS_SLAB_WORD_LEVELS.  So a 2-word block
# switches at level 9 and a 16-word block at level 2.  On a 2-core x86-64
# host (Python 3.11.7, numpy 2.4.6), one level at 16 words took 0.24 ms by
# slabs against 0.55 ms by reduceat on the n = 1000, k = 10 ring lattice (one
# row length), 0.19-0.26 against 0.39-0.42 ms on that lattice rewired at
# p = 0.1 and 1 (8 and 21 lengths), and 10.0 against 64.7 ms on the width-18
# social graph of the ML-100k stand-in (505 lengths).  At one word the slabs
# won only on the plain lattice (0.03 against 0.05 ms) and lost on the other
# three (0.05-5.7 against 0.03-0.59 ms): each length costs a few numpy calls
# a level.  Building the slabs costs 1-8 word-levels of 16-word reduceat
# pulls (0.09-0.20 ms on the lattices, 5-9 ms on the stand-in graph), so a
# block spends 2 to 16 times that before it switches.
# No block of `sweep -w 1..30` on the stand-in switches (at most 2 words and
# 4 levels); 30 of the 450 passes of the default `synth-study` and all 28
# rewired lattices that `ws --trials 3` measures do.
BFS_SLAB_WORD_LEVELS = 16


# -- types -------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentReport:
    """Component structure of a graph.

    ``component_sizes`` holds (people, movies) pairs in the listing order
    described by :func:`connected_components`; ``giant_people`` and
    ``giant_movies`` are the ids inside the largest component.
    ``isolated_people`` counts the one-person social components, the people
    without a social edge (a movie they rated does not join them to anyone).
    """

    component_sizes: tuple
    giant_people: tuple
    giant_movies: tuple
    isolated_people: int


def _check_counts(counts: dict, degrees) -> None:
    if not counts:
        raise UndefinedMetricError("degree distribution needs at least one vertex")
    if any(k < 0 for k in degrees):
        raise ValueError("degrees must be non-negative")
    if not all(isinstance(c, int) and c > 0 for c in counts.values()):
        raise ValueError("vertex counts must be positive ints")


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree -> number of vertices with that degree, as positive ints.

    ``n`` is the sum of the counts, so every listed degree has a vertex and
    every moment is an exact integer sum over ``n``.
    """

    counts: dict

    def __post_init__(self):
        _check_counts(self.counts, self.counts)

    @property
    def n(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class JointDegreeDistribution:
    """(indegree, outdegree) -> number of vertices with that pair, as positive ints.

    ``n`` is the sum of the counts, as for :class:`DegreeDistribution`.
    """

    counts: dict

    def __post_init__(self):
        _check_counts(self.counts, itertools.chain.from_iterable(self.counts))

    @property
    def n(self) -> int:
        return sum(self.counts.values())


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


def _labelling(social: SocialGraph) -> tuple:
    """(label per person, people per label, minimum person id per label), cached.

    A recommender graph's people partition as its social graph's do, so the
    reports of both read this one labelling, kept on the social graph.
    """
    if social._labels is None:
        labels = component_labels(social.n, *social.edges())
        # vertices are sorted, so a label's first index holds its minimum person id
        _, first = np.unique(labels, return_index=True)
        social._labels = labels, np.bincount(labels), social.vertices[first]
    return social._labels


def _component_report(social: SocialGraph, ratings) -> ComponentReport:
    labels, people, anchor = _labelling(social)
    isolated = int(np.count_nonzero(people == 1))
    n_comp = len(people)
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
        return ComponentReport((), (), (), 0)

    order = np.lexsort((anchor, -people, -(people + movies)))
    giant = order[0]
    return ComponentReport(
        component_sizes=tuple(zip(people[order].tolist(), movies[order].tolist())),
        giant_people=tuple(social.vertices[labels == giant].tolist()),
        giant_movies=tuple(movie_ids[movie_label == giant].tolist()),
        isolated_people=isolated,
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
    values, counts = np.unique(degrees, return_counts=True)
    return DegreeDistribution(dict(zip(values.tolist(), counts.tolist())))


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
    pi, mi = ratings.edge_person_idx, ratings.edge_movie_idx
    kept = keep_p[pi] & keep_m[mi]
    social_deg = gr.social.degrees()[keep_p]
    out_deg = social_deg + np.bincount(pi[kept], minlength=gr.n_people)[keep_p]
    movie_in = np.bincount(mi[kept], minlength=gr.n_movies)[keep_m]
    jk = np.concatenate([np.column_stack([social_deg, out_deg]),
                         np.column_stack([movie_in, np.zeros_like(movie_in)])])
    keys, counts = np.unique(jk, axis=0, return_counts=True)
    return JointDegreeDistribution(dict(zip(map(tuple, keys.tolist()), counts.tolist())))


# -- path lengths ----------------------------------------------------------------


def _pick_sources(candidates, max_sources, seed):
    """Every candidate up to a limit, else a seeded uniform sample of a count.

    ``max_sources`` is both the limit and the count; None applies the
    default policy: exact through EXACT_SOURCE_LIMIT people, then
    DEFAULT_SAMPLED_SOURCES samples.
    """
    limit, count = ((EXACT_SOURCE_LIMIT, DEFAULT_SAMPLED_SOURCES) if max_sources is None
                    else (max_sources, max_sources))
    ordered = sorted(candidates)
    if len(ordered) <= limit:
        return ordered, False
    rng = random.Random(f"sources:{seed}")
    return sorted(rng.sample(ordered, count)), True


def _bfs_levels(rows, n_people, src_idx):
    """Targets first reached at each distance from the sources, summed over them.

    Row v of ``rows`` lists the vertices with an arc into v, over one index
    space: people 0..n_people-1, then movies.  G_r's movie rows list their
    raters; the rating graph's person rows list their movies.  Entry d - 1
    of the returned list is the [people, movies] count, as Python ints, of
    the (source, target) pairs at distance d, through the last level that
    reaches anything.  Sources run together, 64 to a uint64 word and 64 * k
    to a block: per level every row ORs the frontier words of the vertices
    it lists, and the bits it had not yet seen are the pairs at that
    distance.  Sources are visited at distance 0, so self-pairs never
    count, nor do unreachable pairs.  Once its levels times words pass
    BFS_SLAB_WORD_LEVELS, a block of more than one word pulls through slabs
    (see :func:`_slabs`), built once per call; both pulls give the same
    frontier.
    """
    n = len(rows.indptr) - 1
    # take() gathers fastest with native indices
    rows = Csr(rows.indptr, rows.indices.astype(np.intp, copy=False))
    # reduceat yields an element, not zero, for an empty segment, so rows
    # listing nobody are left out of the pull.  Such a row keeps the
    # frontier of two levels back, whose bits are all seen, so the mask
    # clears them (an isolated source's own bit, or nothing)
    listed = np.flatnonzero(np.diff(rows.indptr))
    starts = rows.indptr[listed]
    words = max(1, BITSET_BLOCK_BYTES // (8 * max(len(rows.indices), n)))
    slabs = None
    levels = []
    for lo in range(0, len(src_idx), 64 * words):
        block = src_idx[lo:lo + 64 * words]
        col = np.arange(len(block))
        front = np.zeros((n, -(-len(block) // 64)), dtype=np.uint64)
        front[block, col // 64] = np.left_shift(np.uint64(1), (col % 64).astype(np.uint64))
        seen = front.copy()
        pulled = np.zeros_like(front)
        for d in itertools.count(1):
            if front.shape[1] > 1 and d * front.shape[1] > BFS_SLAB_WORD_LEVELS:
                if slabs is None:
                    slabs = _slabs(rows)
                for members, slab in slabs:
                    pulled[members] = np.bitwise_or.reduce(np.take(front, slab, axis=0), axis=0)
            else:
                pulled[listed] = np.bitwise_or.reduceat(
                    np.take(front, rows.indices, axis=0), starts)
            pulled &= ~seen
            pp = int(np.bitwise_count(pulled[:n_people]).sum(dtype=np.int64))
            pm = int(np.bitwise_count(pulled[n_people:]).sum(dtype=np.int64))
            if pp + pm == 0:
                break
            if len(levels) < d:
                levels.append([0, 0])
            levels[d - 1][0] += pp
            levels[d - 1][1] += pm
            seen |= pulled
            front, pulled = pulled, front
    return levels


def _over_raters(top, ratings):
    """``top``'s rows, one per person, then row n_people + j listing movie j's raters."""
    raters = ratings.rater_csr()
    return Csr(np.concatenate([top.indptr, raters.indptr[1:] + top.indptr[-1]]),
               np.concatenate([top.indices, raters.indices]))


def _slabs(rows):
    """The non-empty rows grouped by exact length: a list of (rows, slab).

    Column r of a group's (length, rows) slab lists row r's entries, so the
    slabs hold each entry once and nothing else.
    """
    lengths = np.diff(rows.indptr)
    groups = []
    for length in np.unique(lengths[lengths > 0]).tolist():
        members = np.flatnonzero(lengths == length)
        groups.append((members, rows.indices[rows.indptr[members] + np.arange(length)[:, None]]))
    return groups


def _path_lengths(social, rows, giant_people, max_sources, seed) -> PathLengthStats:
    """One distance pass over ``rows`` from the giant's people (or a sample of them)."""
    sources, sampled = _pick_sources(giant_people, max_sources, seed)
    levels = _bfs_levels(rows, social.n, np.searchsorted(social.vertices, sources))
    pairs_pp = sum(pp for pp, _ in levels)
    pairs_pm = sum(pm for _, pm in levels)
    sum_pp = sum(d * pp for d, (pp, _) in enumerate(levels, 1))
    sum_pm = sum(d * pm for d, (_, pm) in enumerate(levels, 1))
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


def measure_l_pp(gs: SocialGraph, max_sources=None, seed=0) -> PathLengthStats:
    """Mean shortest-path length between ordered person pairs in the giant.

    The bit-parallel BFS kernel (see :func:`_bfs_levels`) pulls through the
    social rows alone, from every giant-component person or a seeded sample
    (see :func:`_pick_sources`), and counts the people first reached at each
    level; the mean is read off those counts, and self-pairs are excluded.
    The same kernel, over other in-arc tables, runs ``measure_l_r_l_pm`` and
    the rating graph's ``bfs_reach_count``.  A social graph has no movies,
    so ``l_pm`` and ``l_r`` are None and ``pairs_pm`` is 0.
    """
    report = connected_components(gs)
    if len(report.giant_people) < 2:
        raise UndefinedMetricError("l_pp needs a giant component with at least 2 people")
    stats = _path_lengths(gs, gs.adjacency_csr(), report.giant_people, max_sources, seed)
    return replace(stats, l_r=None)


def measure_l_r_l_pm(gr: RecommenderGraph, max_sources=None, seed=0) -> PathLengthStats:
    """Directed means from giant-component people to people and to movies.

    One bit-parallel BFS pass follows G_r's arcs: the social rows carry it
    between people, and each movie is reached one hop past its nearest
    rater but never spreads the search.  l_pp averages over reachable person
    targets, l_pm over reachable movie targets, and l_r over their union, so
    l_r * (pairs_pp + pairs_pm) == l_pp * pairs_pp + l_pm * pairs_pm.
    Unreachable pairs are simply absent from the counts.
    """
    report = connected_components(gr)
    if not report.giant_people:
        raise UndefinedMetricError("l_r needs at least one person source in the giant")
    return _path_lengths(gr.social, _over_raters(gr.social.adjacency_csr(), gr.ratings),
                         report.giant_people, max_sources, seed)


def bfs_reach_count(g: BipartiteRatings, person, depth) -> int:
    """Vertices of the rating graph within ``depth`` hops of a person, the person included.

    The graph is bipartite, so hop parity alternates sides: depth 1 adds
    the person's movies, depth 2 adds co-raters, and so on.  One distance
    pass runs from the person over the rating graph's rows: each person's
    movies (the ratings are sorted by person), then each movie's raters.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    v = int(person)
    i = int(np.searchsorted(g.people, v))
    if i == g.n_people or g.people[i] != v:
        raise UnknownNodeError(f"unknown person id: {person}")
    indptr = np.zeros(g.n_people + 1, dtype=np.int64)
    np.cumsum(g.person_degrees(), out=indptr[1:])
    rows = _over_raters(Csr(indptr, g.edge_movie_idx + g.n_people), g)
    return 1 + sum(pp + pm for pp, pm in _bfs_levels(rows, g.n_people, np.array([i]))[:depth])


# -- clustering --------------------------------------------------------------------


def clustering_coefficient(g: SocialGraph) -> float:
    """Mean over vertices of the edge density among each vertex's neighbors.

    Vertices with fewer than two neighbors contribute zero; see
    :func:`_local_clustering` for how the triangles are counted.
    """
    if g.n == 0:
        raise UndefinedMetricError("clustering coefficient of an empty graph")
    return float(_local_clustering(g).mean())


def _local_clustering(g: SocialGraph) -> np.ndarray:
    """Edge density among each vertex's neighbours, aligned with ``g.vertices``.

    The neighbours two ends of an edge share are counted as set bits of the
    AND of their adjacency bitsets, 64 columns to a uint64 word, over column
    ranges and edge blocks that stay within BITSET_BLOCK_BYTES; the
    shared neighbours summed over a vertex's edges are twice its triangles.
    A vertex's value depends only on its component, so a component's mean
    is the clustering coefficient of that component alone.  ``g`` has at
    least one vertex.
    """
    n = g.n
    eu, ev = g.edges()
    tails, heads = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    words = min(-(-n // 64), max(1, BITSET_BLOCK_BYTES // (8 * n)))
    step = max(1, BITSET_BLOCK_BYTES // (8 * words))
    shared = np.zeros(g.edge_count, dtype=np.int64)
    for lo in range(0, n, 64 * words):
        col = heads - lo
        arcs = (col >= 0) & (col < 64 * words)
        col = col[arcs]
        bits = np.zeros(n * words, dtype=np.uint64)
        np.bitwise_or.at(bits, tails[arcs] * words + col // 64,
                         np.left_shift(np.uint64(1), (col % 64).astype(np.uint64)))
        bits = bits.reshape(n, words)
        for e in range(0, g.edge_count, step):
            both = bits[eu[e:e + step]] & bits[ev[e:e + step]]
            shared[e:e + step] += np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    closed = np.bincount(tails, np.concatenate([shared, shared]), minlength=n)  # 2 * triangles at i
    deg = g.degrees().astype(np.int64)
    denom = deg * (deg - 1)
    return np.divide(closed, denom, out=np.zeros(n, dtype=float), where=denom > 0)


# -- report utilities -----------------------------------------------------------------


def degree_cdf(dist: DegreeDistribution, log_scale=False):
    """Complementary cumulative counts: vertices with degree >= each value.

    Entries cover the degrees present in the distribution, ascending; the
    first count always equals n, and every count is at least one, since a
    listed degree has a vertex.  With ``log_scale`` counts come back as log10.
    """
    remaining = dist.n
    out = []
    for k in sorted(dist.counts):
        out.append((k, float(np.log10(remaining)) if log_scale else remaining))
        remaining -= dist.counts[k]
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
