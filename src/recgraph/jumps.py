"""Jumps: rules that induce person-person graphs from co-rated movies.

A jump turns the bipartite rating graph into an undirected social graph G_s
whose edges connect people with sufficiently overlapping taste, plus a
directed recommender graph G_r that keeps the movies reachable from that
social structure.  The hammock jump with width w connects two people when
they co-rated at least w movies; the skip jump is the width-1 special case.

In G_r every social edge contributes arcs in both directions and every
rating contributes one person -> movie arc.  Movies have no outgoing arcs,
so they are reachable endpoints rather than hubs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dataset import BipartiteRatings
from .errors import GraphMismatchError, UnknownNodeError

SKIP = "skip"
HAMMOCK = "hammock"


@dataclass(frozen=True)
class JumpSpec:
    """A jump kind plus its width; skip is pinned to width 1."""

    kind: str = HAMMOCK
    width: int = 1

    def __post_init__(self):
        if self.kind not in (SKIP, HAMMOCK):
            raise ValueError(f"unknown jump kind: {self.kind!r}")
        if not isinstance(self.width, int) or self.width < 1:
            raise ValueError("width must be a positive integer")
        if self.kind == SKIP and self.width != 1:
            raise ValueError("skip is the width-1 jump; width cannot vary")

    @classmethod
    def skip(cls) -> "JumpSpec":
        return cls(kind=SKIP, width=1)

    @classmethod
    def hammock(cls, width: int) -> "JumpSpec":
        return cls(kind=HAMMOCK, width=width)


class SocialGraph:
    """Undirected simple graph over integer vertex ids.

    This is the shape of the person-person graph a jump induces (isolated
    people stay as vertices) and doubles as the container for ring-lattice
    graphs.  Immutable after construction.
    """

    def __init__(self, vertices, edges=()):
        self.vertices = np.array(sorted({int(v) for v in vertices}), dtype=np.int64)
        self._index = {int(v): i for i, v in enumerate(self.vertices)}
        pairs = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            try:
                ia, ib = self._index[a], self._index[b]
            except KeyError as missing:
                raise UnknownNodeError(f"edge endpoint not a vertex: {missing.args[0]}") from None
            pairs.add((ia, ib) if ia < ib else (ib, ia))
        if pairs:
            arr = np.array(sorted(pairs), dtype=np.int64)
            self._eu, self._ev = arr[:, 0], arr[:, 1]
        else:
            self._eu = np.empty(0, dtype=np.int64)
            self._ev = np.empty(0, dtype=np.int64)
        self._adj = None
        self._csr = None
        self._components = None  # ComponentReport, filled by metrics

    @classmethod
    def _from_arrays(cls, vertex_ids, eu, ev):
        """Trusted path: vertex_ids sorted unique, eu < ev, lexsorted, deduped."""
        g = cls.__new__(cls)
        g.vertices = np.asarray(vertex_ids, dtype=np.int64)
        g._index = {int(v): i for i, v in enumerate(g.vertices)}
        g._eu = np.asarray(eu, dtype=np.int64)
        g._ev = np.asarray(ev, dtype=np.int64)
        g._adj = None
        g._csr = None
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
        """Degree per vertex, aligned with ``self.vertices``."""
        both = np.concatenate([self._eu, self._ev])
        return np.bincount(both, minlength=self.n)

    def degree_of(self, vertex) -> int:
        try:
            i = self._index[int(vertex)]
        except KeyError:
            raise UnknownNodeError(f"unknown vertex id: {vertex}") from None
        return int(np.count_nonzero(self._eu == i) + np.count_nonzero(self._ev == i))

    def _adjacency(self):
        if self._adj is None:
            adj = {int(v): set() for v in self.vertices}
            for iu, iv in zip(self._eu, self._ev):
                u, v = int(self.vertices[iu]), int(self.vertices[iv])
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    def neighbors(self, vertex) -> frozenset:
        try:
            return frozenset(self._adjacency()[int(vertex)])
        except KeyError:
            raise UnknownNodeError(f"unknown vertex id: {vertex}") from None

    def has_edge(self, a, b) -> bool:
        return int(b) in self._adjacency().get(int(a), ())

    def edge_ids(self):
        """Iterate (u, v) id pairs with u < v, in ascending order."""
        for iu, iv in zip(self._eu, self._ev):
            yield int(self.vertices[iu]), int(self.vertices[iv])

    def adjacency_csr(self):
        """Symmetric sparse adjacency over vertex indices (cached)."""
        if self._csr is None:
            rows = np.concatenate([self._eu, self._ev])
            cols = np.concatenate([self._ev, self._eu])
            data = np.ones(len(rows), dtype=np.int8)
            self._csr = sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return self._csr

    def subgraph(self, vertex_ids) -> "SocialGraph":
        """Induced subgraph on the given vertex ids."""
        keep_ids = sorted({int(v) for v in vertex_ids})
        for v in keep_ids:
            if v not in self._index:
                raise UnknownNodeError(f"unknown vertex id: {v}")
        keep_idx = {self._index[v] for v in keep_ids}
        mask = np.fromiter(
            ((int(u) in keep_idx) and (int(v) in keep_idx) for u, v in zip(self._eu, self._ev)),
            dtype=bool, count=self.edge_count)
        new_ids = np.array(keep_ids, dtype=np.int64)
        remap = {self._index[v]: i for i, v in enumerate(keep_ids)}
        eu = np.fromiter((remap[int(u)] for u in self._eu[mask]), dtype=np.int64,
                         count=int(mask.sum()))
        ev = np.fromiter((remap[int(v)] for v in self._ev[mask]), dtype=np.int64,
                         count=int(mask.sum()))
        return SocialGraph._from_arrays(new_ids, eu, ev)


# -- jump application -------------------------------------------------------


def common_artifacts_count(g: BipartiteRatings, p1, p2) -> int:
    """How many movies two people both rated."""
    return len(g.movies_of(p1) & g.movies_of(p2))


def co_rating_pairs(g: BipartiteRatings):
    """All person index pairs sharing at least one movie, with shared counts.

    Returns (iu, iv, count) arrays with iu < iv over indices into
    ``g.people``.  Equivalent to walking every movie's rater list and
    counting pairs; the incidence-matrix product performs exactly that
    enumeration in one compiled step.  Memory scales with the number of
    co-rating pairs, so this is meant for datasets up to a few thousand
    people.
    """
    inc = g.incidence()
    co = (inc @ inc.T).tocoo()
    mask = co.row < co.col
    iu, iv, cnt = co.row[mask], co.col[mask], co.data[mask]
    order = np.lexsort((iv, iu))
    return iu[order].astype(np.int64), iv[order].astype(np.int64), cnt[order]


def apply_jump(g: BipartiteRatings, spec: JumpSpec, pairs=None) -> SocialGraph:
    """Induce the social graph for a jump.

    Every person stays a vertex even when isolated.  ``pairs`` may carry a
    precomputed :func:`co_rating_pairs` result so a sweep over widths pays
    the counting cost once.
    """
    iu, iv, cnt = pairs if pairs is not None else co_rating_pairs(g)
    keep = cnt >= spec.width
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
        """Directed adjacency over a combined index space (cached).

        Indices 0..n_people-1 are people (in ``ratings.people`` order) and
        the rest are movies (in ``ratings.movies`` order).
        """
        if self._out is None:
            np_ = self.n_people
            n = np_ + self.n_movies
            rows = np.concatenate([
                self.social._eu, self.social._ev,
                self.ratings.edge_person_idx,
            ])
            cols = np.concatenate([
                self.social._ev, self.social._eu,
                self.ratings.edge_movie_idx + np_,
            ])
            data = np.ones(len(rows), dtype=np.int8)
            self._out = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
        return self._out
