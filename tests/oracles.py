"""Independent reference implementations the property suites compare against.

Everything here is deliberately written the slow, obvious way (row-by-row
parsing, set-based dedupe, set intersections, dense Floyd-Warshall,
pointer-chasing union-find, id-keyed rewiring) and shares no code with the
package under test; only its exception types, mode names and the
generator's rewire odds are imported, so that errors compare by type.
Rating graphs are built through their validating constructor, and social
graphs from an edge list by ``social_graph``.  Tests read graphs through
the array-reading helpers at the top rather than package lookups.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import numpy as np

from recgraph import EmptyDatasetError, ParseError, UnknownNodeError, synth
from recgraph.dataset import BipartiteRatings
from recgraph.edges import Csr
from recgraph.jumps import SocialGraph
from recgraph.synth import PREFERENTIAL, UNIFORM


# -- building and reading graphs through their arrays ---------------------------


def social_graph(vertices, edges=()) -> SocialGraph:
    """The social graph on ``vertices`` with the given (id, id) edges.

    Each edge lands in both of its ends' rows once, however often and in
    whichever orientation it is listed; rows are sorted, and every array is
    int64, empty input included.  A self-loop or an unknown id raises.
    """
    ids = sorted({int(v) for v in vertices})
    index = {v: i for i, v in enumerate(ids)}
    nbrs = [set() for _ in ids]
    for a, b in edges:
        i, j = index[int(a)], index[int(b)]
        if i == j:
            raise ValueError(f"self-loop on vertex {a}")
        nbrs[i].add(j)
        nbrs[j].add(i)
    indptr = np.cumsum([0] + [len(row) for row in nbrs], dtype=np.int64)
    indices = np.array([j for row in nbrs for j in sorted(row)], dtype=np.int64)
    return SocialGraph(np.array(ids, dtype=np.int64), Csr(indptr, indices))


def social_edges(gs: SocialGraph) -> list:
    """The (u, v) id pairs of a social graph's edges, u < v, in ascending order.

    Read off the adjacency rows: row i lists the indices of vertex i's
    neighbours, so each edge shows up in both of its ends' rows.
    """
    ids = gs.vertices.tolist()
    indptr, indices = gs.adjacency_csr()
    return sorted((ids[i], ids[j]) for i in range(len(ids))
                  for j in indices[indptr[i]:indptr[i + 1]].tolist() if i < j)


def adjacency(gs: SocialGraph) -> dict:
    """Vertex id -> set of neighbour ids, every vertex listed."""
    adj = {int(v): set() for v in gs.vertices}
    for u, v in social_edges(gs):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_ids(g: BipartiteRatings) -> list:
    """The (person, movie) id pairs of a rating graph's edges, in ascending order."""
    return list(zip(g.people[g.edge_person_idx].tolist(), g.movies[g.edge_movie_idx].tolist()))


def movies_by_person(g: BipartiteRatings) -> dict:
    """Person id -> set of rated movie ids, every person listed."""
    rated = {int(p): set() for p in g.people}
    for p, m in edge_ids(g):
        rated[p].add(m)
    return rated


def people_by_movie(g: BipartiteRatings) -> dict:
    """Movie id -> set of rater ids, every movie listed."""
    raters = {int(m): set() for m in g.movies}
    for p, m in edge_ids(g):
        raters[m].add(p)
    return raters


def write_movielens_tab(g: BipartiteRatings, path):
    """Write the edges as tab-separated rows ``person movie 1 0``, in ascending order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{p}\t{m}\t1\t0\n" for p, m in edge_ids(g))


# -- row-wise loading -----------------------------------------------------------


@dataclass(frozen=True)
class OracleRatings:
    """What a rating graph holds: sorted ids, sorted edges, collapsed rows."""

    people: list
    movies: list
    edges: list
    duplicate_count: int


def ratings_oracle(pairs, people=None, movies=None) -> OracleRatings:
    """Set-based graph construction, the first occurrence of a pair kept."""
    kept = []
    seen = set()
    dups = 0
    for person, movie in pairs:
        key = (int(person), int(movie))
        if key in seen:
            dups += 1
            continue
        seen.add(key)
        kept.append(key)
    pset = {p for p, _ in kept}
    mset = {m for _, m in kept}
    if people is not None:
        people = {int(p) for p in people}
        stray = pset - people
        if stray:
            raise UnknownNodeError(f"edge endpoints outside the person set: {sorted(stray)[:5]}")
        pset = people
    if movies is not None:
        movies = {int(m) for m in movies}
        stray = mset - movies
        if stray:
            raise UnknownNodeError(f"edge endpoints outside the movie set: {sorted(stray)[:5]}")
        mset = movies
    if any(p < 0 for p in pset) or any(m < 0 for m in mset):
        raise ValueError("person and movie ids must be non-negative")
    people = np.array(sorted(pset), dtype=np.int64).tolist()
    movies = np.array(sorted(mset), dtype=np.int64).tolist()
    return OracleRatings(people, movies, sorted(kept), dups)


_ORACLE_ID_MAX = 2**63 - 1


def _oracle_parse_int(field, path, lineno, what):
    try:
        value = int(field)
    except ValueError:
        raise ParseError(path, lineno, f"{what} is not an integer: {field!r}") from None
    if value < 0:
        raise ParseError(path, lineno, f"{what} must be non-negative: {value}")
    if what != "timestamp" and value > _ORACLE_ID_MAX:
        raise ParseError(path, lineno, f"{what} exceeds {_ORACLE_ID_MAX}: {value}")
    return value


def _oracle_iter_movielens_tab(path):
    # an undecodable byte becomes a lone surrogate that fails its field parse
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(path, lineno, f"expected 4 tab-separated fields, got {len(fields)}")
            person = _oracle_parse_int(fields[0], path, lineno, "person id")
            movie = _oracle_parse_int(fields[1], path, lineno, "movie id")
            try:
                float(fields[2])
            except ValueError:
                raise ParseError(path, lineno, f"rating is not numeric: {fields[2]!r}") from None
            _oracle_parse_int(fields[3], path, lineno, "timestamp")
            yield person, movie


def load_movielens_tab_oracle(path) -> OracleRatings:
    """Parse a tab-separated rating file one row at a time."""
    loaded = ratings_oracle(_oracle_iter_movielens_tab(path))
    if not loaded.edges:
        raise EmptyDatasetError(f"{path}: no ratings found")
    return loaded


def _oracle_iter_csv(path):
    # the csv module splits the rows: quoted fields may hold commas and newlines
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDatasetError(f"{path}: empty file")
            names = [name.strip().lower() for name in header]
            if names not in (["person", "movie"], ["person", "movie", "rating"]):
                raise ParseError(path, 1, "header must be person,movie[,rating]")
            for row in reader:
                if all(not cell.strip() for cell in row):
                    continue
                lineno = reader.line_num
                if len(row) != len(names):
                    raise ParseError(path, lineno, f"expected {len(names)} fields, got {len(row)}")
                person = _oracle_parse_int(row[0].strip(), path, lineno, "person id")
                movie = _oracle_parse_int(row[1].strip(), path, lineno, "movie id")
                if len(row) == 3 and row[2].strip():
                    try:
                        float(row[2])
                    except ValueError:
                        raise ParseError(path, lineno, f"rating is not numeric: {row[2]!r}") from None
                yield person, movie
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, str(exc)) from None


def load_csv_oracle(path) -> OracleRatings:
    """Parse a ``person,movie[,rating]`` CSV file one row at a time.

    The header is matched ignoring case and spaces; ids are stripped, and a
    blank rating is allowed.
    """
    loaded = ratings_oracle(_oracle_iter_csv(path))
    if not loaded.edges:
        raise EmptyDatasetError(f"{path}: no ratings found")
    return loaded


def ratings_of(g: BipartiteRatings) -> OracleRatings:
    """The same view of a package-built graph."""
    return OracleRatings(g.people.tolist(), g.movies.tolist(), edge_ids(g), g.duplicate_count)


# -- brute-force hammock -------------------------------------------------------


def hammock_edges_bruteforce(g: BipartiteRatings, width: int) -> set:
    """All person pairs sharing at least ``width`` movies, by set intersection."""
    movies_of = movies_by_person(g)
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


# -- boolean-frontier reach --------------------------------------------------------


def bipartite_reach(g: BipartiteRatings, person, depth) -> int:
    """Vertices of the rating graph within ``depth`` hops of a person, the person included.

    One boolean frontier per step, alternating sides: people -> movies on
    even steps, movies -> people on odd ones.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    pi, mi = g.edge_person_idx, g.edge_movie_idx
    start = np.flatnonzero(g.people == int(person))
    if len(start) == 0:
        raise UnknownNodeError(f"unknown person id: {person}")
    seen_p = np.zeros(g.n_people, dtype=bool)
    seen_m = np.zeros(g.n_movies, dtype=bool)
    seen_p[start] = True
    frontier = seen_p.copy()
    for step in range(depth):
        if not frontier.any():
            break
        if step % 2 == 0:  # people -> movies
            reached = np.zeros(g.n_movies, dtype=bool)
            reached[mi[frontier[pi]]] = True
            frontier = reached & ~seen_m
            seen_m |= frontier
        else:  # movies -> people
            reached = np.zeros(g.n_people, dtype=bool)
            reached[pi[frontier[mi]]] = True
            frontier = reached & ~seen_p
            seen_p |= frontier
    return int(seen_p.sum() + seen_m.sum())


def distance_histogram(dist: np.ndarray, rows, n_people: int) -> list:
    """[people, movies] row->column entries at each distance 1, 2, ..., as far as any lies.

    Columns below ``n_people`` are people and the rest movies; zero (self)
    and infinite (unreachable) entries are left out.
    """
    hops = dist[list(rows)]
    hops = np.where(np.isfinite(hops), hops, 0).astype(np.int64)
    top = int(hops.max(initial=0))
    people = np.bincount(hops[:, :n_people].ravel(), minlength=top + 1)
    movies = np.bincount(hops[:, n_people:].ravel(), minlength=top + 1)
    return [[int(p), int(m)] for p, m in zip(people[1:], movies[1:])]


# -- joint degree counts -----------------------------------------------------------


def joint_degree_loop(gr, people, movies) -> dict:
    """(indegree, outdegree) -> number of the listed people and movies with it.

    People count their full social degree; rating arcs count only when both
    ends are listed.
    """
    ratings = gr.ratings
    social_deg = {int(v): 0 for v in gr.social.vertices}
    for u, v in social_edges(gr.social):
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
    return counts


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
    for u, v in social_edges(gs):
        uf.union(u, v)
    return uf.groups()


def giant_people_oracle(gs: SocialGraph) -> set:
    """Largest person group, ties broken toward the smaller minimum id."""
    groups = social_partition(gs)
    return set(min(groups, key=lambda grp: (-len(grp), min(grp))))


# -- id-space rewiring ----------------------------------------------------------

_ORACLE_REJECTION_CAP = 64


def rewire_oracle(g: SocialGraph, p: float, mode: str = UNIFORM, seed=0):
    """The id-keyed rewiring walk: (graph, skipped), built through social_graph."""
    if not 0 <= p <= 1:
        raise ValueError("rewire probability must lie in [0, 1]")
    if mode not in (UNIFORM, PREFERENTIAL):
        raise ValueError(f"mode must be one of {(UNIFORM, PREFERENTIAL)}")
    rng = random.Random(f"rewire:{seed}")
    ids = [int(v) for v in g.vertices]
    pos = {v: i for i, v in enumerate(ids)}
    csr = g.adjacency_csr()
    nbr_ids = g.vertices[csr.indices].tolist()
    adj = {v: set(nbr_ids[csr.indptr[i]:csr.indptr[i + 1]]) for i, v in enumerate(ids)}
    degrees = np.array([len(adj[v]) for v in ids], dtype=np.int64)
    skipped = 0
    for u, v in social_edges(g):
        if rng.random() >= p:
            continue
        target = None
        if mode == UNIFORM:
            target = _oracle_uniform_target(rng, ids, u, adj[u])
        else:
            target = _oracle_preferential_target(rng, ids, pos, degrees, u, adj[u])
        if target is None:
            skipped += 1
            continue
        adj[u].discard(v)
        adj[v].discard(u)
        adj[u].add(target)
        adj[target].add(u)
        degrees[pos[v]] -= 1
        degrees[pos[target]] += 1
    edges = []
    for a in ids:
        for b in adj[a]:
            if a < b:
                edges.append((a, b))
    rewired = social_graph(ids, edges)
    return rewired, skipped


def _oracle_uniform_target(rng, ids, u, taken):
    n = len(ids)
    if len(taken) + 1 >= n:
        return None
    for _ in range(_ORACLE_REJECTION_CAP):
        t = ids[rng.randrange(n)]
        if t != u and t not in taken:
            return t
    pool = [t for t in ids if t != u and t not in taken]
    if not pool:
        return None
    return pool[rng.randrange(len(pool))]


def _oracle_preferential_target(rng, ids, pos, degrees, u, taken):
    weights = degrees.astype(float).copy()
    weights[pos[u]] = 0.0
    for t in taken:
        weights[pos[t]] = 0.0
    total = float(weights.sum())
    if total <= 0:
        return None
    cut = rng.random() * total
    cumulative = np.cumsum(weights)
    index = int(np.searchsorted(cumulative, cut, side="right"))
    index = min(index, len(ids) - 1)
    return ids[index]


# -- dict-of-sets rating generator ----------------------------------------------


def generate_oracle(cfg):
    """The set-per-person power-law generator with the general component repair.

    Takes a SynthConfig and returns (graph, skipped_rewires, repair_edges):
    the same draws as the package's generator, at the rewire odds read from
    ``synth.REWIRE_THRESHOLD`` / ``synth.REWIRE_OUTCOMES`` when called, then
    every component other than the giant gets movie 1 on its busiest member
    who lacks it.
    """
    rng = random.Random(cfg.seed)
    people = range(1, cfg.n_people + 1)
    movies = range(1, cfg.n_movies + 1)

    def degree(b):
        return min(cfg.n_movies, math.ceil(cfg.n_movies * float(b) ** -cfg.epsilon))

    rated = {b: set(range(1, degree(b) + 1)) for b in people}
    skipped = 0
    for b in people:
        for movie in range(1, degree(b) + 1):
            if rng.randrange(synth.REWIRE_OUTCOMES) >= synth.REWIRE_THRESHOLD:
                continue
            pool = [m for m in movies if m not in rated[b]]
            if not pool:
                skipped += 1
                continue
            target = pool[rng.randrange(len(pool))]
            rated[b].discard(movie)
            rated[b].add(target)

    # vertices are numbered people first, then movies, as in a label array
    uf = UnionFind([("p", b) for b in people] + [("m", m) for m in movies])
    for b in people:
        for m in rated[b]:
            uf.union(("p", b), ("m", m))
    index = {("p", b): b - 1 for b in people}
    index.update({("m", m): cfg.n_people + m - 1 for m in movies})

    def giant_key(group):
        n_people = sum(1 for side, _ in group if side == "p")
        return (-len(group), -n_people, min(index[x] for x in group))

    groups = sorted(uf.groups(), key=giant_key)
    repair = 0
    for group in groups[1:]:
        members = sorted((b for side, b in group if side == "p"),
                         key=lambda b: (-len(rated[b]), b))
        for b in members:
            if 1 not in rated[b]:
                rated[b].add(1)
                repair += 1
                break
    pairs = [(b, m) for b in people for m in sorted(rated[b])]
    return BipartiteRatings(pairs, people=people, movies=movies), skipped, repair


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
    return social_graph(vertices, edges)


def ratings_with_giant(seed, giant: int) -> BipartiteRatings:
    """Ratings whose skip-jump social giant holds exactly ``giant`` people.

    People 1..giant are joined by a path of shared movies plus random
    shortcuts; some also rate a movie of their own.  Outside the giant sit a
    three-person group sharing one movie, three isolated people each rating
    a movie nobody else rates, and two unrated movies.
    """
    rng = random.Random(f"giant:{seed}:{giant}")
    people = list(range(1, giant + 1))
    groups = [[a, b] for a, b in zip(people, people[1:])]
    groups += [rng.sample(people, rng.randint(2, 4)) for _ in range(giant // 3)]
    groups += [[p] for p in people if rng.random() < 0.3]
    groups.append([giant + 1, giant + 2, giant + 3])
    groups += [[p] for p in range(giant + 4, giant + 7)]
    movies = list(range(1000, 1000 + len(groups) + 2))
    pairs = [(p, m) for m, group in zip(movies, groups) for p in group]
    return BipartiteRatings(pairs, people=range(1, giant + 7), movies=movies)
