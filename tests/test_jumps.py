import tracemalloc
import weakref

import numpy as np
import pytest

from recgraph import (
    GraphMismatchError,
    RecommenderGraph,
    apply_jump,
    load_ratings,
)
from recgraph import jumps
from recgraph.dataset import BipartiteRatings
from recgraph.edges import csr
from recgraph.jumps import co_rating_pairs, hammock_graphs

from oracles import (
    adjacency,
    hammock_edges_bruteforce,
    random_ratings,
    social_edges,
    social_graph,
)


def four_person_fixture():
    """Four people whose hammock at w=25 leaves exactly five social edges.

    Movie groups are sized so the co-rating counts come out to
    ab=32 ac=25 ad=26 bc=25 bd=38 cd=23.
    """
    pairs = []
    mid = 0

    def add(group, count):
        nonlocal mid
        for _ in range(count):
            mid += 1
            for p in group:
                pairs.append((p, mid))

    add((1, 2, 3, 4), 19)
    add((1, 2, 3), 6)
    add((1, 2, 4), 7)
    add((2, 4), 12)
    add((3, 4), 4)
    add((1,), 2)
    add((4,), 21)
    return BipartiteRatings(pairs)


# -- width ---------------------------------------------------------------------


def test_width_validation():
    g = BipartiteRatings([(1, 10), (2, 10)])
    assert social_edges(apply_jump(g, 1)) == [(1, 2)]
    assert social_edges(apply_jump(g, 2)) == []
    for bad in (0, -1, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError):
            apply_jump(g, bad)
        with pytest.raises(ValueError):
            co_rating_pairs(g, bad)


# -- SocialGraph ------------------------------------------------------------------


def test_social_graph_basics():
    gs = social_graph([1, 2, 3], [(1, 2), (2, 1), (2, 3)])
    assert gs.n == 3
    assert gs.edge_count == 2  # the oracle lists (1,2) once across orientations
    assert repr(gs) == "SocialGraph(n=3, edges=2)"
    assert adjacency(gs) == {1: {2}, 2: {1, 3}, 3: {2}}
    assert gs.degrees().tolist() == [1, 2, 1]
    assert [e.tolist() for e in gs.edges()] == [[0, 1], [1, 2]]
    assert social_graph([4, 5]).degrees().tolist() == [0, 0]
    empty = social_graph([])
    assert empty.n == empty.edge_count == 0
    assert [a.dtype for a in (empty.vertices, *empty.adjacency_csr())] == [np.int64] * 3


# -- hammock correctness ------------------------------------------------------------


def test_threshold_semantics():
    g = BipartiteRatings([(1, 10), (1, 11), (1, 12), (2, 10), (2, 11), (2, 12)])
    for w in (1, 2, 3):
        gs = apply_jump(g, w)
        assert adjacency(gs)[1] == {2}
    gs4 = apply_jump(g, 4)
    assert adjacency(gs4)[1] == set()
    assert gs4.n == 2  # isolated people stay


def test_hammock_equals_bruteforce_oracle():
    # the heart of the jump module: 120 random datasets, widths 1..5
    for seed in range(120):
        g = random_ratings(seed, max_people=30, max_movies=25)
        for w in (1, 2, 3, 5):
            gs = apply_jump(g, w)
            assert set(social_edges(gs)) == hammock_edges_bruteforce(g, w), (
                f"seed {seed} width {w}")


def test_hammock_monotone_in_width():
    for seed in range(40):
        g = random_ratings(seed)
        prev = None
        for w in range(1, 6):
            edges = set(social_edges(apply_jump(g, w)))
            if prev is not None:
                assert edges <= prev
            prev = edges


def test_hammock_graphs_match_each_width_alone():
    # ranges from above 1, a single width, and ranges past the widest count
    for seed in range(30):
        g = random_ratings(seed)
        widest = int(co_rating_pairs(g)[0].max(initial=0))
        for w_min, w_max in ((2, 4), (3, 3), (1, widest + 2), (2, widest + 2)):
            graphs = list(hammock_graphs(g, w_min, w_max))
            assert [w for w, _ in graphs] == list(range(w_min, w_max + 1))
            for w, gs in graphs:
                want = apply_jump(g, w)
                for name, a, b in [("vertices", gs.vertices, want.vertices),
                                   *zip(("indptr", "indices"), gs.adjacency_csr(),
                                        want.adjacency_csr())]:
                    assert a.dtype == b.dtype and np.array_equal(a, b), (name, seed, w)


def test_hammock_graphs_cut_each_width_from_the_last(monkeypatch):
    # each width is cut from the last one's table, the only table held: once
    # the next width is out, the arrays of the last one are freed, the first
    # table's counts included
    first = []

    def recorded(g, width):
        table = co_rating_pairs(g, width)
        first.append(weakref.ref(table[0]))
        return table

    monkeypatch.setattr(jumps, "co_rating_pairs", recorded)
    for seed in range(10):
        g = random_ratings(seed)
        first.clear()
        graphs = hammock_graphs(g, 2, 7)
        held = []
        for w in range(2, 8):
            got, gs = next(graphs)
            assert got == w and all(ref() is None for ref in held), (seed, w)
            held = [weakref.ref(a) for a in gs.adjacency_csr()] + (first if w == 2 else [])
            del gs


def test_co_rating_blocks_match_one_block(monkeypatch):
    # blocks of 1, 2, 3 and 5 people leave a short last block on most graphs
    for seed in range(30):
        g = random_ratings(seed, max_people=40, max_movies=30)
        n = g.n_people
        whole = co_rating_pairs(g)
        count, (indptr, indices) = whole
        assert [a.dtype for a in (count, indptr, indices)] == [np.int32, np.int64, np.int64]
        assert len(indptr) == n + 1 and indptr[-1] == len(indices) == len(count)
        tails = np.repeat(np.arange(n), np.diff(indptr))
        assert (np.diff(tails * n + indices) > 0).all()  # rows sorted, arcs distinct
        arcs = dict(zip(zip(tails.tolist(), indices.tolist()), count.tolist()))
        assert all(i != j for i, j in arcs)
        assert arcs == {(j, i): c for (i, j), c in arcs.items()}  # twins share a count
        # an arc's count is the widest hammock that still links its people
        people = g.people.tolist()
        for w in range(1, int(count.max(initial=0)) + 2):
            linked = {(people[i], people[j]) for (i, j), c in arcs.items() if i < j and c >= w}
            assert linked == hammock_edges_bruteforce(g, w), (seed, w)
        for w, gs in hammock_graphs(g, 1, 3):
            eu, ev = gs.edges()
            rebuilt = csr(n, np.concatenate([eu, ev]), np.concatenate([ev, eu]))
            for got, want in zip(gs.adjacency_csr(), rebuilt):
                assert got.dtype == want.dtype and np.array_equal(got, want), (seed, w)
        # a wider table is the width-1 table filtered to counts of at least w
        for w in (1, 2, 3):
            keep = count >= w
            want = (count[keep], np.concatenate([[0], np.cumsum(keep)])[indptr], indices[keep])
            for step in (None, 1, 2, 3, 5):
                if step is not None:
                    monkeypatch.setattr(jumps, "CO_RATING_BLOCK_BYTES", 4 * n * step)
                blocked = co_rating_pairs(g, w)
                for got, exp in zip((blocked[0], *blocked[1]), want):
                    assert got.dtype == exp.dtype and np.array_equal(got, exp), (seed, w, step)
            monkeypatch.undo()  # back to one block


def test_hammock_cut_peak_memory_per_arc(standin, monkeypatch):
    # draining hammock_graphs(g, 17, 18) on the benchmark's stand-in from a
    # table built beforehand peaks at 12.2 bytes per table arc (tracemalloc,
    # numpy 2.4): a keep mask and the kept arcs' counts and heads; cutting
    # every width, the first one included, through a cumsum as long as the
    # table read 29.1
    g = load_ratings(standin)
    table = co_rating_pairs(g, 17)
    monkeypatch.setattr(jumps, "co_rating_pairs", lambda g, width: table)
    tracemalloc.start()
    try:
        widths = [w for w, _ in hammock_graphs(g, 17, 18)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths == [17, 18]
    assert peak <= 16 * len(table[0])


def test_two_step_reachability_is_composed_jumps():
    # distance 2 in the social graph means exactly: no direct edge, but a
    # shared neighbor exists
    for seed in range(25):
        g = random_ratings(seed)
        gs = apply_jump(g, 1)
        people = [int(p) for p in g.people]
        nbrs = adjacency(gs)
        for i, u in enumerate(people):
            for v in people[i + 1:]:
                via = any(x in nbrs[u] and v in nbrs[x]
                          for x in people if x not in (u, v))
                two_apart = v not in nbrs[u] and via
                if two_apart:
                    assert nbrs[u] & nbrs[v]


def test_four_person_fixture_edges():
    g = four_person_fixture()
    gs = apply_jump(g, 25)
    assert set(social_edges(gs)) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    adj = adjacency(gs)
    assert len(adj[1]) == 3
    assert len(adj[4]) == 2


# -- recommender graph ---------------------------------------------------------------


def test_movies_are_sinks_and_person_arcs_paired():
    for seed in range(15):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, 1))
        indptr, indices = gr.out_csr()
        n_people = gr.n_people
        assert len(indptr) == n_people + gr.n_movies + 1
        assert indptr[-1] == len(indices)
        assert (indptr[n_people:] == indptr[n_people]).all()  # nothing ever leaves a movie
        tails = np.repeat(np.arange(n_people), np.diff(indptr[:n_people + 1]))
        heads = indices[:indptr[n_people]]
        to_person = heads < n_people
        person_arcs = set(zip(tails[to_person].tolist(), heads[to_person].tolist()))
        assert len(person_arcs) == to_person.sum() == 2 * gr.social.edge_count
        assert person_arcs == {(v, u) for u, v in person_arcs}
        assert len(heads) - to_person.sum() == g.edge_count
        assert repr(gr) == (f"RecommenderGraph(n_people={n_people}, n_movies={gr.n_movies}, "
                            f"person_arcs={len(person_arcs)}, movie_arcs={g.edge_count})")


def test_mismatched_social_graph_rejected():
    g = BipartiteRatings([(1, 10), (2, 10)])
    other = social_graph([1, 2, 3], [(1, 2)])
    with pytest.raises(GraphMismatchError):
        RecommenderGraph(g, other)
