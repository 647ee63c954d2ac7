"""Jumps: rules that induce person-person graphs from co-rated movies.

A jump turns the bipartite rating graph into an undirected social graph G_s
whose edges connect people with sufficiently overlapping taste, plus a
directed recommender graph G_r that keeps the movies reachable from that
social structure.  A jump is its width w, the hammock of width w: it
connects two people when they co-rated at least w movies.  Width 1 is the
skip jump, which links every pair of co-raters.  Widths nest: width w + 1
is width w without the arcs whose count is exactly w.  So hammock_graphs,
the one place a width is cut, counts the arcs of the first width asked for
and drops one count's arcs per later width.

In G_r every social edge contributes arcs in both directions and every
rating contributes one person -> movie arc.  Movies have no outgoing arcs,
so they are reachable endpoints rather than hubs.
"""

from __future__ import annotations

import numpy as np

from .dataset import BipartiteRatings
from .edges import Csr, csr
from .errors import GraphMismatchError

# Byte budget for one block of co-rating counts: its rows of people times
# every person, at the incidence's item size.
CO_RATING_BLOCK_BYTES = 16 << 20


class SocialGraph:
    """Undirected simple graph over integer vertex ids, built from its rows.

    This is the shape of the person-person graph a jump induces (isolated
    people stay as vertices) and doubles as the container for ring-lattice
    graphs.  ``vertices`` are sorted unique ids; ``rows``, an ``edges.Csr``
    over vertex indices, are symmetric, loop-free and ascending, and are
    trusted.  Degrees and edges are read off them.  Immutable.
    """

    def __init__(self, vertices, rows: Csr):
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self._rows = rows
        self._labels = None  # component labels, sizes and anchors, filled by metrics
        self._components = None  # ComponentReport, filled by metrics

    # -- shape -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self._rows.indices) // 2

    def __repr__(self):
        return f"SocialGraph(n={self.n}, edges={self.edge_count})"

    # -- access ------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Degree per vertex, aligned with ``self.vertices``."""
        return np.diff(self._rows.indptr)

    def adjacency_csr(self) -> Csr:
        """Symmetric adjacency rows over vertex indices, each row ascending."""
        return self._rows

    def edges(self):
        """The edges as index arrays (u, v) with u < v, ascending by (u, v)."""
        tails = np.repeat(np.arange(self.n), self.degrees())
        upper = tails < self._rows.indices
        return tails[upper], self._rows.indices[upper]


# -- jump application -------------------------------------------------------


def co_rating_pairs(g: BipartiteRatings, width: int = 1):
    """The arc table of one width: (count, rows) over indices into ``g.people``.

    Row i of ``rows`` (an ``edges.Csr``) lists, ascending, the people who
    share at least ``width`` movies with person i, and ``count`` (int32)
    holds each arc's shared count; an arc i -> j and its twin j -> i share
    one.  The counts come from a dense float32 product of the person x movie
    incidence with itself, one block of people at a time, diagonal cleared,
    whose entries of at least ``width`` in row-major order are the arcs.
    Every partial sum is a whole number no larger than ``g.n_movies``, so
    float32 counts are exact below 2**24 movies (float64 is used above
    that).  The incidence takes n_people x n_movies x 4 bytes; each block
    product stays within CO_RATING_BLOCK_BYTES (or one row of people, when
    that is more), and its ``kept`` mask adds a quarter of that.
    """
    if not isinstance(width, int) or width < 1:
        raise ValueError("width must be a positive integer")
    n = g.n_people
    dtype = np.float32 if g.n_movies < 2**24 else np.float64
    inc = np.zeros((n, g.n_movies), dtype=dtype)
    inc[g.edge_person_idx, g.edge_movie_idx] = 1
    step = max(1, CO_RATING_BLOCK_BYTES // (inc.itemsize * max(n, 1)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    heads, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int32)]
    for a in range(0, n, step):
        block = inc[a:a + step] @ inc.T
        own = np.arange(a, a + len(block))
        block[own - a, own] = 0
        kept = block >= width
        flat = np.flatnonzero(kept)
        counts.append(block.ravel()[flat].astype(np.int32))
        indptr[own + 1] = np.count_nonzero(kept, axis=1)
        heads.append(np.remainder(flat, n, out=flat))
        del block  # the last block and the incidence go before the concatenation
    del inc
    np.cumsum(indptr, out=indptr)
    return np.concatenate(counts), Csr(indptr, np.concatenate(heads))


def apply_jump(g: BipartiteRatings, width: int) -> SocialGraph:
    """Induce the social graph of the jump with the given width.

    Two people are linked when they co-rated at least ``width`` movies, a
    positive int.  Every person stays a vertex even when isolated.
    """
    return SocialGraph(g.people.copy(), co_rating_pairs(g, width)[1])


def hammock_graphs(g: BipartiteRatings, w_min: int, w_max: int):
    """Yield ``(w, social graph)`` for widths w_min..w_max.

    w_min's graph holds the rows of its own table (:func:`co_rating_pairs`).
    Widths nest, so each later width drops the arcs of count w - 1 from the
    last table, the only one held.
    """
    count, rows = co_rating_pairs(g, w_min)
    for w in range(w_min, w_max + 1):
        if w > w_min:
            keep = count >= w
            # kept arcs stay in row order: a row end moves back by the arcs dropped before it
            indptr = rows.indptr - np.searchsorted(np.flatnonzero(~keep), rows.indptr)
            count, rows = count[keep], Csr(indptr, rows.indices[keep])
            del keep  # not held while the width is analysed
        yield w, SocialGraph(g.people.copy(), rows)


# -- recommender graph -------------------------------------------------------


class RecommenderGraph:
    """Directed graph pairing a social graph with the movies behind it.

    Vertices are the dataset's people and movies.  Each social edge yields
    arcs both ways between its people; each rating yields one arc from the
    rater to the movie.  Movies are sinks (outdegree 0).
    """

    def __init__(self, ratings: BipartiteRatings, social: SocialGraph):
        if len(social.vertices) != len(ratings.people) or not np.array_equal(
                social.vertices, ratings.people):
            raise GraphMismatchError("social graph vertices differ from the dataset's people")
        self.ratings = ratings
        self.social = social
        self._out = None
        self._components = None  # ComponentReport, filled by metrics

    @property
    def n_people(self) -> int:
        return self.ratings.n_people

    @property
    def n_movies(self) -> int:
        return self.ratings.n_movies

    def __repr__(self):
        return (f"RecommenderGraph(n_people={self.n_people}, n_movies={self.n_movies}, "
                f"person_arcs={2 * self.social.edge_count}, movie_arcs={self.ratings.edge_count})")

    def out_csr(self):
        """G_r's arcs as out-arc rows over one index space (cached); see ``edges.Csr``.

        Indices 0..n_people-1 are people (in ``ratings.people`` order) and
        the rest are movies (in ``ratings.movies`` order).  This lists the
        graph; the distance pass in ``metrics`` does not build it, reading
        the social rows and each movie's raters instead.
        """
        if self._out is None:
            np_ = self.n_people
            social = self.social.adjacency_csr()
            tails = np.concatenate([np.repeat(np.arange(np_), self.social.degrees()),
                                    self.ratings.edge_person_idx])
            heads = np.concatenate([social.indices, self.ratings.edge_movie_idx + np_])
            self._out = csr(np_ + self.n_movies, tails, heads)
        return self._out
