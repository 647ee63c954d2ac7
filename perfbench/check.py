"""Checks of the benchmark's CSVs that share no code with ``recgraph``.

``sweep.csv``: one row is recomputed.  The ratings file is parsed with
numpy, the width-w social graph comes from a dense co-rating matrix,
components from a union-find, and path lengths from a dense boolean-matmul
BFS that advances every source's frontier one level at a time.  Movies are
sinks of the recommender graph, so person-person distances there equal
social distances, and a movie sits one step past its nearest rater.

``ws.csv``: the rows are compared with what theory says of a rewired ring
lattice (see :func:`ws_mismatches`).
"""

from __future__ import annotations

import math

import numpy as np


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(n, edges):
    parent = list(range(n))
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([_find(parent, i) for i in range(n)], dtype=np.int64)


def _bfs_sums(adj, inc, sources):
    """(sum, pairs) over person targets and over movie targets at distance >= 1."""
    n_src = len(sources)
    frontier = np.zeros((n_src, adj.shape[0]), dtype=bool)
    frontier[np.arange(n_src), sources] = True
    reached = frontier.copy()
    movies_seen = np.zeros((n_src, inc.shape[1]), dtype=bool)
    sum_pp = pairs_pp = sum_pm = pairs_pm = 0
    depth = 0
    while frontier.any():
        f = frontier.astype(np.float32)
        new_movies = ((f @ inc) > 0) & ~movies_seen
        movies_seen |= new_movies
        count = int(new_movies.sum())
        sum_pm += (depth + 1) * count
        pairs_pm += count
        frontier = ((f @ adj) > 0) & ~reached
        reached |= frontier
        depth += 1
        count = int(frontier.sum())
        sum_pp += depth * count
        pairs_pp += count
    return sum_pp, pairs_pp, sum_pm, pairs_pm


def _g6(x):
    return format(x, ".6g")


def _co_ratings(data_path):
    """(person ids, movie ids, person x movie incidence, person x person co-rating counts)."""
    raw = np.loadtxt(data_path, dtype=np.int64, usecols=(0, 1), delimiter="\t", ndmin=2)
    people, p_idx = np.unique(raw[:, 0], return_inverse=True)
    movies, m_idx = np.unique(raw[:, 1], return_inverse=True)
    inc = np.zeros((len(people), len(movies)), dtype=np.float32)
    inc[p_idx, m_idx] = 1.0
    co = inc @ inc.T  # float32 counts are exact far beyond any movie count
    np.fill_diagonal(co, 0.0)
    return people, movies, inc, co


def sweep_row(data_path, w) -> dict:
    """The sweep.csv fields of width ``w`` that do not involve a prediction."""
    people, movies, inc, co = _co_ratings(data_path)
    adj = co >= w
    edges = np.argwhere(np.triu(adj)).tolist()
    root = _components(len(people), edges)

    roots, size = np.unique(root, return_counts=True)
    people_in = dict(zip(roots.tolist(), size.tolist()))
    min_id = {r: int(people[r]) for r in roots.tolist()}  # a root is its smallest index
    # each movie joins the rater component with the most people (ties: smaller min id)
    movies_in = dict.fromkeys(people_in, 0)
    raters = inc.T > 0
    for m in range(len(movies)):
        best = min(set(root[raters[m]].tolist()), key=lambda r: (-people_in[r], min_id[r]))
        movies_in[best] += 1
    rec_giant = min(people_in, key=lambda r: (-(people_in[r] + movies_in[r]),
                                                -people_in[r], min_id[r]))
    social_giant = min(people_in, key=lambda r: (-people_in[r], min_id[r]))

    row = {
        "w": str(w),
        "components": str(len(people_in)),
        "giant_people": str(people_in[rec_giant]),
        "giant_movies": str(movies_in[rec_giant]),
        "isolated_people": str(int(np.count_nonzero(adj.sum(axis=1) == 0))),
        "sampled_sources": "all",
    }
    adj32 = adj.astype(np.float32)
    sums = {}
    for giant in {social_giant, rec_giant}:
        sums[giant] = _bfs_sums(adj32, inc, np.flatnonzero(root == giant))
    sum_pp, pairs_pp, _, _ = sums[social_giant]
    row["l_pp_measured"] = _g6(sum_pp / pairs_pp) if pairs_pp else ""
    sum_pp, pairs_pp, sum_pm, pairs_pm = sums[rec_giant]
    both = pairs_pp + pairs_pm
    row["l_r_measured"] = _g6((sum_pp + sum_pm) / both) if both else ""
    row["l_pm_measured"] = _g6(sum_pm / pairs_pm) if pairs_pm else ""
    return row


def sweep_mismatches(data_path, csv_text, w) -> list:
    """Fields of the width-``w`` row of ``csv_text`` that differ from the recomputation."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    got = next((r for r in rows if r["w"] == str(w)), None)
    if got is None:
        return [f"no row for w={w}"]
    want = sweep_row(data_path, w)
    return [f"{k}: csv {got.get(k)!r} != recomputed {v!r}" for k, v in want.items()
            if got.get(k) != v]


def _ring_mean_distance(n, k) -> float:
    """Mean shortest-path length between distinct vertices of the ring lattice."""
    half = k // 2
    hops = [math.ceil(min(d, n - d) / half) for d in range(1, n)]
    return sum(hops) / (n - 1)


def ws_mismatches(csv_text, n, k, p_values, modes) -> list:
    """Disagreements of ``ws.csv`` with the theory of a rewired ring lattice.

    - the rows are (p, mode) for every mode and p value, in order;
    - p = 0 reads exactly ``1,1`` (nothing is rewired);
    - every l_ratio lies in (0, 1] (rewiring only adds shortcuts);
    - every c_ratio is within 0.03 of (1 - p)**3, the clustering of a
      rewired lattice (Barrat & Weigt 2000);
    - at p = 1, l_ratio is within 25% of ln(n)/ln(k) over the exact lattice
      mean distance (a random graph's path length).
    """
    lines = csv_text.splitlines()
    if not lines or lines[0] != "p,l_ratio,c_ratio,mode":
        return [f"ws.csv header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    want_keys = [(p, mode) for mode in modes for p in p_values]
    got_keys = [(float(r[0]), r[3]) for r in rows if len(r) == 4]
    if got_keys != want_keys:
        return [f"ws.csv rows {got_keys} != {want_keys}"]
    random_ratio = math.log(n) / math.log(k) / _ring_mean_distance(n, k)
    problems = []
    for text_p, text_l, text_c, mode in rows:
        p, l_ratio, c_ratio = float(text_p), float(text_l), float(text_c)
        where = f"ws.csv p={text_p} {mode}"
        if p == 0 and (text_l, text_c) != ("1", "1"):
            problems.append(f"{where}: ratios {text_l},{text_c} != 1,1")
        if not 0 < l_ratio <= 1:
            problems.append(f"{where}: l_ratio {text_l} outside (0, 1]")
        if abs(c_ratio - (1 - p) ** 3) > 0.03:
            problems.append(f"{where}: c_ratio {text_c} far from (1-p)^3 = {(1 - p) ** 3:.4g}")
        if p == 1 and abs(l_ratio / random_ratio - 1) > 0.25:
            problems.append(f"{where}: l_ratio {text_l} far from random {random_ratio:.4g}")
    return problems
