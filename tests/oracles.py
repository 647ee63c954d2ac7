"""Independent reference implementations the property suites compare against.

Everything here is deliberately written the slow, obvious way (set
intersections, dense Floyd-Warshall, pointer-chasing union-find) and shares
no code with the package under test.
"""

from __future__ import annotations

import random

import numpy as np

from recgraph import BipartiteRatings, SocialGraph


# -- brute-force hammock -------------------------------------------------------


def hammock_edges_bruteforce(g: BipartiteRatings, width: int) -> set:
    """All person pairs sharing at least ``width`` movies, by set intersection."""
    movies_of = {int(p): set() for p in g.people}
    for pi, mi in zip(g.edge_person_idx, g.edge_movie_idx):
        movies_of[int(g.people[pi])].add(int(g.movies[mi]))
    people = sorted(movies_of)
    edges = set()
    for i, u in enumerate(people):
        for v in people[i + 1:]:
            if len(movies_of[u] & movies_of[v]) >= width:
                edges.add((u, v))
    return edges


# -- dense Floyd-Warshall --------------------------------------------------------


def floyd_warshall(n: int, arcs, directed: bool) -> np.ndarray:
    """Dense all-pairs hop counts; arcs are (src_index, dst_index) pairs."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in arcs:
        d[u, v] = 1.0
        if not directed:
            d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def mean_over_pairs(dist: np.ndarray, rows, cols) -> tuple:
    """(mean, count) over finite row->col entries, self-pairs excluded."""
    total = 0.0
    count = 0
    for r in rows:
        for c in cols:
            if r == c:
                continue
            v = dist[r, c]
            if np.isfinite(v) and v > 0:
                total += v
                count += 1
    return (total / count if count else None), count


# -- joint degree counts -----------------------------------------------------------


def joint_degree_loop(gr, people, movies) -> dict:
    """(indegree, outdegree) -> fraction over the listed people and movies.

    People count their full social degree; rating arcs count only when both
    ends are listed.  Keys appear in the order they are first met, people
    first, as listed.
    """
    ratings = gr.ratings
    social_deg = {int(v): 0 for v in gr.social.vertices}
    for u, v in gr.social.edge_ids():
        social_deg[u] += 1
        social_deg[v] += 1
    person_out = {int(p): 0 for p in people}
    movie_in = {int(m): 0 for m in movies}
    for pi, mi in zip(ratings.edge_person_idx, ratings.edge_movie_idx):
        p, m = int(ratings.people[pi]), int(ratings.movies[mi])
        if p in person_out and m in movie_in:
            person_out[p] += 1
            movie_in[m] += 1
    counts = {}
    for p, out in person_out.items():
        jk = (social_deg[p], social_deg[p] + out)
        counts[jk] = counts.get(jk, 0) + 1
    for m, into in movie_in.items():
        counts[(into, 0)] = counts.get((into, 0), 0) + 1
    n = len(person_out) + len(movie_in)
    return {jk: c / n for jk, c in counts.items()}


# -- union-find ---------------------------------------------------------------------


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self) -> set:
        buckets = {}
        for x in self.parent:
            buckets.setdefault(self.find(x), set()).add(x)
        return {frozenset(members) for members in buckets.values()}


def social_partition(gs: SocialGraph) -> set:
    """Person partition under social edges, as a set of frozensets."""
    uf = UnionFind(int(v) for v in gs.vertices)
    for u, v in gs.edge_ids():
        uf.union(u, v)
    return uf.groups()


def giant_people_oracle(gs: SocialGraph) -> set:
    """Largest person group, ties broken toward the smaller minimum id."""
    groups = social_partition(gs)
    return set(min(groups, key=lambda grp: (-len(grp), min(grp))))


# -- random instances ------------------------------------------------------------


def random_ratings(seed, max_people=12, max_movies=16) -> BipartiteRatings:
    """Random bipartite ratings; density varies by seed, never empty."""
    rng = random.Random(f"ratings:{seed}")
    n_p = rng.randint(2, max_people)
    n_m = rng.randint(1, max_movies)
    density = rng.uniform(0.05, 0.6)
    offset = rng.choice((0, 1, 100))
    people = [offset + i for i in range(1, n_p + 1)]
    movies = [offset + j for j in range(1, n_m + 1)]
    pairs = [(p, m) for p in people for m in movies if rng.random() < density]
    if not pairs:
        pairs.append((people[0], movies[0]))
    return BipartiteRatings(pairs, people=people, movies=movies)


def random_social(seed, max_n=40) -> SocialGraph:
    """Random undirected graph on sometimes non-contiguous vertex ids."""
    rng = random.Random(f"social:{seed}")
    n = rng.randint(2, max_n)
    p = rng.uniform(0.02, 0.5)
    step = rng.choice((1, 1, 3))
    vertices = [5 + i * step for i in range(n)]
    edges = [(u, v) for i, u in enumerate(vertices)
             for v in vertices[i + 1:] if rng.random() < p]
    return SocialGraph(vertices, edges)
