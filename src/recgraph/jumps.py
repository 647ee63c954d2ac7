"""Jumps: rules that induce person-person graphs from co-rated movies.

A jump turns the bipartite rating graph into an undirected social graph G_s
whose edges connect people with sufficiently overlapping taste, plus a
directed recommender graph G_r that keeps the movies reachable from that
social structure.  A jump is its width w, the hammock of width w: it
connects two people when they co-rated at least w movies.  Width 1 is the
skip jump, which links every pair of co-raters.

In G_r every social edge contributes arcs in both directions and every
rating contributes one person -> movie arc.  Movies have no outgoing arcs,
so they are reachable endpoints rather than hubs.
"""

from __future__ import annotations

import numpy as np

from .dataset import BipartiteRatings
from .edges import csr
from .errors import GraphMismatchError, UnknownNodeError

# Byte budget for one block of co-rating counts: its rows of people times
# the people from the block's first row on, at the incidence's item size.
CO_RATING_BLOCK_BYTES = 16 << 20


class SocialGraph:
    """Undirected simple graph over integer vertex ids.

    This is the shape of the person-person graph a jump induces (isolated
    people stay as vertices) and doubles as the container for ring-lattice
    graphs.  Immutable after construction.
    """

    def __init__(self, vertices, edges=()):
        self.vertices = np.array(sorted({int(v) for v in vertices}), dtype=np.int64)
        index = {v: i for i, v in enumerate(self.vertices.tolist())}
        pairs = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            try:
                ia, ib = index[a], index[b]
            except KeyError as missing:
                raise UnknownNodeError(f"edge endpoint not a vertex: {missing.args[0]}") from None
            pairs.add((ia, ib) if ia < ib else (ib, ia))
        if pairs:
            arr = np.array(sorted(pairs), dtype=np.int64)
            self._eu, self._ev = arr[:, 0], arr[:, 1]
        else:
            self._eu = np.empty(0, dtype=np.int64)
            self._ev = np.empty(0, dtype=np.int64)
        self._csr = None
        self._degrees = None
        self._labels = None  # component labels, sizes and anchors, filled by metrics
        self._components = None  # ComponentReport, filled by metrics

    @classmethod
    def _from_arrays(cls, vertex_ids, eu, ev):
        """Trusted path: vertex_ids sorted unique, eu < ev, lexsorted, deduped."""
        g = cls.__new__(cls)
        g.vertices = np.asarray(vertex_ids, dtype=np.int64)
        g._eu = np.asarray(eu, dtype=np.int64)
        g._ev = np.asarray(ev, dtype=np.int64)
        g._csr = None
        g._degrees = None
        g._labels = None
        g._components = None
        return g

    # -- shape -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self._eu)

    def __repr__(self):
        return f"SocialGraph(n={self.n}, edges={self.edge_count})"

    # -- access ------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Degree per vertex, aligned with ``self.vertices`` (cached)."""
        if self._degrees is None:
            self._degrees = np.bincount(np.concatenate([self._eu, self._ev]), minlength=self.n)
        return self._degrees

    def adjacency_csr(self):
        """Symmetric adjacency rows over vertex indices (cached); see ``edges.Csr``."""
        if self._csr is None:
            self._csr = csr(self.n, np.concatenate([self._eu, self._ev]),
                            np.concatenate([self._ev, self._eu]))
        return self._csr


# -- jump application -------------------------------------------------------


def co_rating_pairs(g: BipartiteRatings):
    """All person index pairs sharing at least one movie, with shared counts.

    Returns (iu, iv, count) arrays with iu < iv over indices into
    ``g.people``, ordered by (iu, iv); iu and iv are int64, count int32.
    The counts come from a dense float32 product of the person x movie
    incidence with itself, one block of people at a time: the block's rows
    times every later person's row, of which the strict upper triangle is
    kept.  Every partial sum is a whole number no larger than
    ``g.n_movies``, so float32 counts are exact below 2**24 movies (float64
    is used above that).  The incidence takes n_people x n_movies x 4 bytes;
    each block product stays within CO_RATING_BLOCK_BYTES (or one row of
    people, when that is more).
    """
    n = g.n_people
    dtype = np.float32 if g.n_movies < 2**24 else np.float64
    inc = np.zeros((n, g.n_movies), dtype=dtype)
    inc[g.edge_person_idx, g.edge_movie_idx] = 1
    step = max(1, CO_RATING_BLOCK_BYTES // (inc.itemsize * max(n, 1)))
    parts = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0, dtype=np.int32),)]
    for a in range(0, n, step):
        block = np.triu(inc[a:a + step] @ inc[a:].T, 1)
        r, c = np.nonzero(block)  # row-major, so the pairs come out ordered
        parts.append((r + a, c + a, block[r, c].astype(np.int32)))
    return tuple(np.concatenate(part) for part in zip(*parts))


def apply_jump(g: BipartiteRatings, width: int, pairs=None) -> SocialGraph:
    """Induce the social graph of the jump with the given width.

    Two people are linked when they co-rated at least ``width`` movies, a
    positive int.  Every person stays a vertex even when isolated.
    ``pairs`` may carry a precomputed :func:`co_rating_pairs` result so a
    sweep over widths pays the counting cost once.
    """
    if not isinstance(width, int) or width < 1:
        raise ValueError("width must be a positive integer")
    iu, iv, cnt = pairs if pairs is not None else co_rating_pairs(g)
    keep = cnt >= width
    return SocialGraph._from_arrays(g.people.copy(), iu[keep], iv[keep])


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

    @property
    def person_arc_count(self) -> int:
        return 2 * self.social.edge_count

    @property
    def movie_arc_count(self) -> int:
        return self.ratings.edge_count

    def __repr__(self):
        return (f"RecommenderGraph(n_people={self.n_people}, n_movies={self.n_movies}, "
                f"person_arcs={self.person_arc_count}, movie_arcs={self.movie_arc_count})")

    def out_csr(self):
        """G_r's arcs as out-arc rows over one index space (cached); see ``edges.Csr``.

        Indices 0..n_people-1 are people (in ``ratings.people`` order) and
        the rest are movies (in ``ratings.movies`` order).  This lists the
        graph; the distance pass in ``metrics`` does not build it, reading
        the social rows and each movie's raters instead.
        """
        if self._out is None:
            np_ = self.n_people
            tails = np.concatenate([
                self.social._eu, self.social._ev,
                self.ratings.edge_person_idx,
            ])
            heads = np.concatenate([
                self.social._ev, self.social._eu,
                self.ratings.edge_movie_idx + np_,
            ])
            self._out = csr(np_ + self.n_movies, tails, heads)
        return self._out
