import contextlib
import itertools
import random

import numpy as np
import pytest

from recgraph import (
    RecommenderGraph,
    UndefinedMetricError,
    apply_jump,
    generate_wreath,
    joint_degree_distribution,
    load_ratings,
    measure_l_pp,
    measure_l_r_l_pm,
    rewire,
)
from recgraph import metrics
from recgraph.dataset import BipartiteRatings
from recgraph.metrics import (
    DegreeDistribution,
    JointDegreeDistribution,
    _pick_sources,
    clustering_coefficient,
    connected_components,
    degree_cdf,
    degree_distribution,
    linf_discrepancy,
)

from oracles import (
    adjacency,
    distance_histogram,
    edge_ids,
    floyd_warshall,
    giant_people_oracle,
    joint_degree_loop,
    mean_over_pairs,
    people_by_movie,
    random_ratings,
    random_social,
    ratings_with_giant,
    social_edges,
    social_graph,
    social_partition,
)


def chain_graph():
    """p1 - m1 - p2 - m2 - p3 under the weakest jump."""
    g = BipartiteRatings([(1, 101), (2, 101), (2, 102), (3, 102)])
    gs = apply_jump(g, 1)
    return g, gs, RecommenderGraph(g, gs)


# -- components ----------------------------------------------------------------


def test_partition_matches_union_find_oracle():
    # 120 random graphs against an independent union-find
    for seed in range(120):
        gs = random_social(seed)
        report = connected_components(gs)
        sizes = [p for p, _ in report.component_sizes]
        expected = social_partition(gs)
        assert set(report.giant_people) == giant_people_oracle(gs), f"seed {seed}"
        assert sorted(sizes, reverse=True) == sorted(
            (len(grp) for grp in expected), reverse=True), f"seed {seed}"
        assert sum(sizes) == gs.n
        lonely = sum(1 for nbrs in adjacency(gs).values() if not nbrs)
        assert report.isolated_people == lonely


def test_isolated_people_counted():
    gs = social_graph([1, 2, 3, 4, 5], [(1, 2)])
    report = connected_components(gs)
    assert report.isolated_people == 3
    assert report.component_sizes == ((2, 0), (1, 0), (1, 0), (1, 0))


def test_not_shattered_when_secondary_component_has_edges():
    gs = social_graph([1, 2, 3, 4, 5], [(1, 2), (1, 3), (4, 5)])
    report = connected_components(gs)
    assert set(report.giant_people) == {1, 2, 3}
    assert report.isolated_people == 0  # the pair 4-5 is not isolated


def test_movie_assignment_follows_bigger_people_component():
    # at w=2 the lone shared movie 50 links no people, so the social
    # components stay {1,2,3} and {4,5}; its raters span both and the
    # 3-person component wins the movie
    g = BipartiteRatings(
        [(1, 10), (1, 11), (2, 10), (2, 11), (3, 10), (3, 11),
         (4, 20), (4, 21), (5, 20), (5, 21),
         (1, 50), (4, 50)])
    gr = RecommenderGraph(g, apply_jump(g, 2))
    report = connected_components(gr)
    assert set(report.giant_people) == {1, 2, 3}
    assert 50 in report.giant_movies


def test_movie_assignment_tie_breaks_to_smaller_person_id():
    # two 2-person components each contribute one rater to movie 99
    g = BipartiteRatings(
        [(1, 10), (1, 11), (2, 10), (2, 11),
         (3, 20), (3, 21), (4, 20), (4, 21),
         (2, 99), (3, 99)])
    gr = RecommenderGraph(g, apply_jump(g, 2))
    report = connected_components(gr)
    comps = {(p, m) for p, m in report.component_sizes}
    assert comps == {(2, 3), (2, 2)}
    assert set(report.giant_people) == {1, 2}  # movie 99 breaks the tie
    assert set(report.giant_movies) == {10, 11, 99}


def test_unrated_movie_is_own_component():
    g = BipartiteRatings([(1, 10)], people=[1], movies=[10, 11])
    gr = RecommenderGraph(g, apply_jump(g, 1))
    report = connected_components(gr)
    assert (0, 1) in report.component_sizes
    assert 11 not in report.giant_movies


def test_two_person_toy_splits_at_width_two():
    g = BipartiteRatings([(1, 10), (2, 10)])
    for w, expected in ((1, 1), (2, 2)):
        gr = RecommenderGraph(g, apply_jump(g, w))
        assert len(connected_components(gr).component_sizes) == expected


def test_components_conserve_people_and_movies():
    for seed in range(60):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, 2))
        report = connected_components(gr)
        assert sum(p for p, _ in report.component_sizes) == g.n_people
        assert sum(m for _, m in report.component_sizes) == g.n_movies


def test_social_and_recommender_reports_share_one_labelling(monkeypatch):
    labelled, reads = [], []
    label = metrics.component_labels

    def labelling(*args):
        labelled.append(label(*args))
        return labelled[-1]

    def reading(fn):
        def wrapper(values, *args, **kwargs):
            reads.append(values)
            return fn(values, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "component_labels", labelling)
    monkeypatch.setattr(np, "bincount", reading(np.bincount))
    monkeypatch.setattr(np, "unique", reading(np.unique))
    g = random_ratings(3)
    gs = apply_jump(g, 2)
    gr = RecommenderGraph(g, gs)
    assert connected_components(gr).isolated_people == connected_components(gs).isolated_people
    assert len(labelled) == 1
    # one count of people per label and one pass for the anchors, for both reports
    assert sum(values is labelled[0] for values in reads) == 2


def test_component_type_check():
    with pytest.raises(TypeError):
        connected_components("not a graph")


# -- degree distributions ---------------------------------------------------------


def test_degree_distribution_star():
    gs = social_graph([0, 1, 2, 3, 4], [(0, i) for i in range(1, 5)])
    dist = degree_distribution(gs)
    assert dist.counts == {1: 4, 4: 1}
    assert dist.n == 5


def test_degree_distribution_handshake():
    for seed in range(40):
        gs = random_social(seed)
        dist = degree_distribution(gs)
        assert sum(k * c for k, c in dist.counts.items()) == 2 * gs.edge_count


def test_degree_distribution_largest_only():
    gs = social_graph([1, 2, 3, 4, 5], [(1, 2), (2, 3)])
    dist = degree_distribution(gs, largest_only=True)
    assert dist.n == 3
    assert dist.counts == {1: 2, 2: 1}


def test_degree_distribution_empty_graph():
    with pytest.raises(UndefinedMetricError):
        degree_distribution(social_graph([], []))
    g = BipartiteRatings([])
    gr = RecommenderGraph(g, apply_jump(g, 1))
    for largest_only in (False, True):
        with pytest.raises(UndefinedMetricError):
            joint_degree_distribution(gr, largest_only=largest_only)


def test_distribution_count_validation():
    # a count is a number of vertices: a positive Python int
    for counts in ({1: 1.5}, {1: 0}, {1: 2, 2: -1}, {1: np.int64(2)}, {-1: 3}):
        with pytest.raises(ValueError):
            DegreeDistribution(counts)
    for counts in ({(1, 1): 1.5}, {(1, 1): 0}, {(-1, 2): 1}, {(2, -1): 1}):
        with pytest.raises(ValueError):
            JointDegreeDistribution(counts)
    for cls in (DegreeDistribution, JointDegreeDistribution):
        with pytest.raises(UndefinedMetricError):
            cls({})


def test_joint_distribution_chain():
    _, _, gr = chain_graph()
    joint = joint_degree_distribution(gr)
    assert joint.n == 5
    assert joint.counts == {
        (1, 2): 2,  # end people
        (2, 4): 1,  # middle person
        (2, 0): 2,  # both movies
    }


def test_joint_distribution_two_people_one_movie():
    g = BipartiteRatings([(1, 10), (2, 10)])
    gr = RecommenderGraph(g, apply_jump(g, 1))
    joint = joint_degree_distribution(gr)
    assert joint.counts == {(1, 2): 2, (2, 0): 1}
    assert joint.n == 3


def test_joint_distribution_balance_and_sinks():
    for seed in range(40):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, 2))
        for largest_only in (False, True):
            joint = joint_degree_distribution(gr, largest_only=largest_only)
            pull = sum(j * c for (j, _), c in joint.counts.items())
            push = sum(k * c for (_, k), c in joint.counts.items())
            assert pull == push
        # the whole graph's arcs: two per social edge, one per rating
        push = sum(k * c for (_, k), c in joint_degree_distribution(gr).counts.items())
        assert push == 2 * gr.social.edge_count + g.edge_count


def test_joint_distribution_matches_loop_oracle():
    for seed in range(80):
        g = random_ratings(seed)
        for w in (1, 2, 3):
            gr = RecommenderGraph(g, apply_jump(g, w))
            report = connected_components(gr)
            for largest_only, people, movies in (
                    (False, g.people.tolist(), g.movies.tolist()),
                    (True, report.giant_people, report.giant_movies)):
                got = joint_degree_distribution(gr, largest_only=largest_only)
                expected = joint_degree_loop(gr, people, movies)
                assert got.counts == expected, \
                    f"seed {seed} w {w} largest_only {largest_only}"


# -- path lengths vs Floyd-Warshall -----------------------------------------------


@contextlib.contextmanager
def recorded_passes():
    """(rows, sources, levels) of every distance pass run in the block, in order."""
    runs = []
    kernel = metrics._bfs_levels

    def recorded(rows, n_people, src_idx):
        runs.append((rows, src_idx, kernel(rows, n_people, src_idx)))
        return runs[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_bfs_levels", recorded)
        yield runs


def test_l_pp_matches_floyd_warshall_oracle():
    # 120 random graphs, giant restriction included
    for seed in range(120):
        gs = random_social(seed, max_n=45)
        ids = [int(v) for v in gs.vertices]
        index = {v: i for i, v in enumerate(ids)}
        dist = floyd_warshall(len(ids), [(index[u], index[v]) for u, v in social_edges(gs)],
                              directed=False)
        giant = sorted(index[v] for v in giant_people_oracle(gs))
        expected, count = mean_over_pairs(dist, giant, giant)
        if count == 0:
            with pytest.raises(UndefinedMetricError):
                measure_l_pp(gs)
            continue
        with recorded_passes() as passes:
            stats = measure_l_pp(gs)
        assert stats.pairs_pp == count, f"seed {seed}"
        assert abs(stats.l_pp - expected) < 1e-9, f"seed {seed}"
        assert not stats.sampled
        ((_, _, levels),) = passes
        assert levels == distance_histogram(dist, giant, len(ids)), f"seed {seed}"


def recommender_distances(gr):
    """Directed Floyd-Warshall over people then movies, with the person index."""
    g = gr.ratings
    people = [int(p) for p in g.people]
    movies = [int(m) for m in g.movies]
    pix = {p: i for i, p in enumerate(people)}
    mix = {m: len(people) + j for j, m in enumerate(movies)}
    arcs = []
    for u, v in social_edges(gr.social):
        arcs.append((pix[u], pix[v]))
        arcs.append((pix[v], pix[u]))
    for p, m in edge_ids(g):
        arcs.append((pix[p], mix[m]))
    return pix, floyd_warshall(len(people) + len(movies), arcs, directed=True)


def test_l_r_l_pm_match_floyd_warshall_oracle():
    # directed oracle over the combined person+movie index space
    for seed in range(120):
        g = random_ratings(seed, max_people=14, max_movies=12)
        gr = RecommenderGraph(g, apply_jump(g, 2))
        people = [int(p) for p in g.people]
        movies = [int(m) for m in g.movies]
        pix, dist = recommender_distances(gr)

        report = connected_components(gr)
        if not report.giant_people:
            with pytest.raises(UndefinedMetricError):
                measure_l_r_l_pm(gr)
            continue
        sources = [pix[p] for p in report.giant_people]
        exp_pp, n_pp = mean_over_pairs(dist, sources, list(range(len(people))))
        exp_pm, n_pm = mean_over_pairs(
            dist, sources, list(range(len(people), len(people) + len(movies))))
        with recorded_passes() as passes:
            stats = measure_l_r_l_pm(gr)
        assert stats.pairs_pp == n_pp, f"seed {seed}"
        assert stats.pairs_pm == n_pm, f"seed {seed}"
        if n_pp:
            assert abs(stats.l_pp - exp_pp) < 1e-9
        if n_pm:
            assert abs(stats.l_pm - exp_pm) < 1e-9
        ((_, _, levels),) = passes
        assert levels == distance_histogram(dist, sources, len(people)), f"seed {seed}"


@pytest.mark.parametrize("block_bytes", [None, 1])
@pytest.mark.parametrize("giant", [63, 64, 65, 130])
def test_path_means_match_floyd_warshall_past_one_word(giant, block_bytes, monkeypatch):
    # 63..65 sources straddle one 64-bit word and 130 span three; a 1-byte
    # budget leaves one word per block, so 65 or more sources run in blocks.
    # Isolated people, a group outside the giant, movies only outsiders rate
    # and unrated movies are never reached; max_sources takes the sampled path.
    # With no slab word-levels every block of more than one word pulls
    # through the slabs from its first level.
    if block_bytes is not None:
        monkeypatch.setattr(metrics, "BITSET_BLOCK_BYTES", block_bytes)
    for seed, slab_levels in itertools.product(range(2), (metrics.BFS_SLAB_WORD_LEVELS, 0)):
        monkeypatch.setattr(metrics, "BFS_SLAB_WORD_LEVELS", slab_levels)
        g = ratings_with_giant(seed, giant)
        gs = apply_jump(g, 1)
        gr = RecommenderGraph(g, gs)
        ids = [int(v) for v in gs.vertices]
        index = {v: i for i, v in enumerate(ids)}
        social = floyd_warshall(len(ids), [(index[u], index[v]) for u, v in social_edges(gs)],
                                directed=False)
        pix, directed = recommender_distances(gr)
        n_p, n_all = g.n_people, g.n_people + g.n_movies
        assert len(connected_components(gs).giant_people) == giant
        for max_sources in (None, 40, 100):
            sources, sampled = _pick_sources(connected_components(gs).giant_people,
                                             max_sources, seed)
            exp_pp, n_pp = mean_over_pairs(social, [index[v] for v in sources], range(n_p))
            with recorded_passes() as passes:
                stats = measure_l_pp(gs, max_sources=max_sources, seed=seed)
            assert (stats.l_pp, stats.pairs_pp) == (exp_pp, n_pp)
            assert (stats.sources, stats.sampled) == (len(sources), sampled)
            ((_, _, levels),) = passes
            assert levels == distance_histogram(social, [index[v] for v in sources], n_p)

            sources, sampled = _pick_sources(connected_components(gr).giant_people,
                                             max_sources, seed)
            rows = [pix[p] for p in sources]
            exp_pp, n_pp = mean_over_pairs(directed, rows, range(n_p))
            exp_pm, n_pm = mean_over_pairs(directed, rows, range(n_p, n_all))
            exp_r, _ = mean_over_pairs(directed, rows, range(n_all))
            with recorded_passes() as passes:
                stats = measure_l_r_l_pm(gr, max_sources=max_sources, seed=seed)
            assert (stats.pairs_pp, stats.pairs_pm) == (n_pp, n_pm)
            assert (stats.l_pp, stats.l_pm, stats.l_r) == (exp_pp, exp_pm, exp_r)
            assert (stats.sources, stats.sampled) == (len(sources), sampled)
            ((_, _, levels),) = passes
            assert levels == distance_histogram(directed, rows, n_p)


@pytest.mark.parametrize("block_bytes", [None, 1])
@pytest.mark.parametrize("n, k", [(65, 4), (130, 6), (1000, 10)])
def test_ring_lattice_l_pp_closed_form(n, k, block_bytes, monkeypatch):
    # r ring steps away takes ceil(r / (k/2)) hops; the default budget runs
    # every source in one block of 2, 3 or 16 words, past the slab switch
    # (16, 22 and 100 levels), and a 1-byte budget one word per block
    if block_bytes is not None:
        monkeypatch.setattr(metrics, "BITSET_BLOCK_BYTES", block_bytes)
    hops = sum(-(-min(r, n - r) // (k // 2)) for r in range(1, n))
    stats = measure_l_pp(generate_wreath(n, k))
    assert (stats.l_pp, stats.pairs_pp) == (hops / (n - 1), n * (n - 1))


@pytest.mark.parametrize("slab_word_levels", [None, 0])
def test_slab_pull_matches_floyd_warshall_on_mixed_row_lengths(slab_word_levels, monkeypatch):
    # a 130-ring of degree 10, with chords across it at 0..19 and 65..84 and
    # every other ring edge dropped at 100..119, has rows of 9, 10 and 11:
    # three slabs.  The 130 sources run as one 3-word block, which switches
    # to the slab pull at level 6, or at level 1 with no slab word-levels.
    # Then a recommender graph whose people and movie rows share lengths
    # runs the same way.
    if slab_word_levels is not None:
        monkeypatch.setattr(metrics, "BFS_SLAB_WORD_LEVELS", slab_word_levels)
    n = 130
    dropped = {(i, i + 1) for i in range(100, 120, 2)}
    ring = [(i, (i + r) % n) for i in range(n) for r in range(1, 6)]
    edges = [e for e in ring if e not in dropped] + [(i, i + 65) for i in range(20)]
    gs = social_graph(range(n), [(min(e), max(e)) for e in edges])
    assert sorted(set(gs.degrees().tolist())) == [9, 10, 11]
    degrees = gs.degrees()
    assert [(len(slab), rows.tolist()) for rows, slab in metrics._slabs(gs.adjacency_csr())] == [
        (d, np.flatnonzero(degrees == d).tolist()) for d in (9, 10, 11)]
    dist = floyd_warshall(n, [(u, v) for u, v in social_edges(gs)], directed=False)
    expected, count = mean_over_pairs(dist, range(n), range(n))
    stats = measure_l_pp(gs)
    assert (stats.l_pp, stats.pairs_pp) == (expected, count)

    # movie m is rated by people m..m+5 around the ring, all but person m for
    # m = 100, 103, ..., 118, so at width 3 people have degree 4, 5 or 6 and
    # movies 5 or 6 raters: the slabs of 5 and 6 hold person and movie rows.
    # Person 130 rates movie 130 alone, and movie 131 is unrated.
    pairs = [(p % n, m) for m in range(n) for p in range(m, m + 6)
             if not (m in range(100, 120, 3) and p == m)]
    g = BipartiteRatings(pairs + [(n, n)], people=range(n + 1), movies=range(n + 2))
    gr = RecommenderGraph(g, apply_jump(g, 3))
    assert sorted(set(gr.social.degrees().tolist())) == [0, 4, 5, 6]
    assert sorted(set(np.diff(g.rater_csr().indptr).tolist())) == [0, 1, 5, 6]
    pix, directed = recommender_distances(gr)
    sources = [pix[p] for p in connected_components(gr).giant_people]
    assert len(sources) == n
    exp_pp, n_pp = mean_over_pairs(directed, sources, range(n + 1))
    exp_pm, n_pm = mean_over_pairs(directed, sources, range(n + 1, 2 * n + 3))
    stats = measure_l_r_l_pm(gr)
    assert (stats.l_pp, stats.pairs_pp, stats.l_pm, stats.pairs_pm) == (exp_pp, n_pp,
                                                                        exp_pm, n_pm)


def ws_lattices():
    """The 28 rewired lattices that `ws --n 1000 --k 10 --mode both --trials 3`
    measures at seed 0 (a trial that moves no edge reuses the lattice)."""
    lattice = generate_wreath(1000, 10)
    graphs = []
    for (i, p), mode, t in itertools.product(enumerate((0.0001, 0.001, 0.01, 0.1, 1.0), 1),
                                             ("uniform", "preferential"), range(3)):
        graph, _ = rewire(lattice, p, mode, seed=f"0:{t}:{i}")
        if graph is not lattice:
            graphs.append(graph)
    assert len(graphs) == 28
    return graphs


def density_bound(rows, src_idx, levels):
    """(largest person level, hop sum over person pairs less its density bound).

    The pairs at distance 1 are the sources' degree sum, read off their rows,
    and every other reachable person is at least 2 hops away, so the hop sum
    is at least 2 * pairs - degree sum, with equality exactly when no person
    is 3 or more hops from a source.
    """
    people = [pp for pp, _ in levels]
    adjacent = int(np.diff(rows.indptr)[src_idx].sum())
    assert people[0] == adjacent
    excess = sum(d * pp for d, pp in enumerate(people, 1)) - (2 * sum(people) - adjacent)
    largest = max(d for d, pp in enumerate(people, 1) if pp)
    assert excess >= 0 and (excess == 0) == (largest <= 2)
    return largest, excess


def test_person_hop_sums_meet_the_density_bound(standin):
    # both passes of stand-in widths on either side of the first 3-hop pair,
    # then the rewired lattices, whose searches run ~50 levels.  Movies
    # never carry the search, so G_r's person levels are the social ones
    g = load_ratings(standin)
    social = []
    for w in (1, 15, 16, 17, 25, 30):
        gs = apply_jump(g, w)
        with recorded_passes() as passes:
            measure_l_pp(gs)
            measure_l_r_l_pm(RecommenderGraph(g, gs))
        social.append(density_bound(*passes[0]))
        assert density_bound(*passes[1]) == social[-1]
    assert social == [(2, 0), (2, 0), (3, 2), (3, 36), (3, 1292), (3, 2092)]
    for graph in ws_lattices():
        with recorded_passes() as passes:
            measure_l_pp(graph)
        assert density_bound(*passes[0])[0] > 2


def test_slabs_hold_each_listed_entry_once():
    # the 28 rewired lattices of `ws`, then the pull table of a recommender
    # graph: its people rows, then its movie rows, with empty rows among both
    tables = [graph.adjacency_csr() for graph in ws_lattices()]
    g = ratings_with_giant(0, 130)
    tables.append(metrics._over_raters(apply_jump(g, 1).adjacency_csr(), g))
    for rows in tables:
        lengths = np.diff(rows.indptr)
        slabs = metrics._slabs(rows)
        assert [len(slab) for _, slab in slabs] == np.unique(lengths[lengths > 0]).tolist()
        members = np.concatenate([m for m, _ in slabs])
        assert np.array_equal(np.sort(members), np.flatnonzero(lengths))
        assert sum(slab.size for _, slab in slabs) == len(rows.indices)
        for m, slab in slabs:
            for r, column in zip(m.tolist(), slab.T):
                assert np.array_equal(column, rows.indices[rows.indptr[r]:rows.indptr[r + 1]])


def test_mixture_identity_exact():
    for seed in range(60):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, 1))
        try:
            stats = measure_l_r_l_pm(gr)
        except UndefinedMetricError:
            continue
        total = stats.pairs_pp + stats.pairs_pm
        if not total:
            continue
        lhs = stats.l_r * total
        rhs = ((stats.l_pp or 0.0) * stats.pairs_pp
               + (stats.l_pm or 0.0) * stats.pairs_pm)
        assert abs(lhs - rhs) < 1e-9


def test_l_pp_fixtures():
    k5 = social_graph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert measure_l_pp(k5).l_pp == 1.0
    path = social_graph([1, 2, 3], [(1, 2), (2, 3)])
    assert abs(measure_l_pp(path).l_pp - 4 / 3) < 1e-12
    wreath = generate_wreath(12, 4)
    assert abs(measure_l_pp(wreath).l_pp - 21 / 11) < 1e-9


def test_chain_fixture_all_means():
    _, gs, gr = chain_graph()
    assert abs(measure_l_pp(gs).l_pp - 4 / 3) < 1e-12
    stats = measure_l_r_l_pm(gr)
    assert abs(stats.l_pp - 4 / 3) < 1e-12
    assert abs(stats.l_pm - 4 / 3) < 1e-12
    assert abs(stats.l_r - 4 / 3) < 1e-12


def test_path_stats_fields_per_graph_kind():
    # a social graph has no movies: l_pm and l_r stay None and pairs_pm 0
    _, gs, _ = chain_graph()
    stats = measure_l_pp(gs)
    assert (stats.l_pm, stats.l_r, stats.pairs_pm) == (None, None, 0)
    assert (stats.pairs_pp, stats.sources, stats.sampled) == (6, 3, False)
    # a giant whose people rate nothing reaches no movie, and l_r is still l_pp
    g = BipartiteRatings([(3, 10)], people=[1, 2, 3])
    gr = RecommenderGraph(g, social_graph([1, 2, 3], [(1, 2)]))
    stats = measure_l_r_l_pm(gr)
    assert (stats.l_pp, stats.l_pm, stats.l_r) == (1.0, None, 1.0)
    assert (stats.pairs_pp, stats.pairs_pm, stats.sources) == (2, 0, 2)


def test_rater_rows_list_each_movies_raters():
    # tables with more people than movies and with more movies than people
    for seed in range(40):
        g = random_ratings(seed, max_people=6 + seed % 20, max_movies=26 - seed % 20)
        rows = g.rater_csr()
        assert g.rater_csr() is rows
        assert len(rows.indptr) == g.n_movies + 1
        raters = people_by_movie(g)
        for j, movie in enumerate(g.movies.tolist()):
            listed = rows.indices[rows.indptr[j]:rows.indptr[j + 1]]
            assert (np.diff(listed) > 0).all()
            assert set(g.people[listed].tolist()) == raters[movie]


def test_l_pp_undefined_on_singleton_giant():
    gs = social_graph([1, 2, 3], [])
    with pytest.raises(UndefinedMetricError):
        measure_l_pp(gs)


def test_sampled_sources_deterministic():
    wreath = generate_wreath(60, 4)
    a = measure_l_pp(wreath, max_sources=10, seed=3)
    b = measure_l_pp(wreath, max_sources=10, seed=3)
    c = measure_l_pp(wreath, max_sources=10, seed=4)
    assert a.sampled and a.sources == 10
    assert a == b
    assert c.sampled
    exact = measure_l_pp(wreath)
    # ring symmetry: every source sees the same mean, sampling is exact here
    assert abs(a.l_pp - exact.l_pp) < 1e-9


def test_sampled_sources_in_recommender_graph():
    g = random_ratings(5, max_people=12)
    gr = RecommenderGraph(g, apply_jump(g, 1))
    full = measure_l_r_l_pm(gr)
    if full.sources > 2:
        part = measure_l_r_l_pm(gr, max_sources=2, seed=1)
        assert part.sampled and part.sources == 2


# -- clustering ---------------------------------------------------------------------


def test_clustering_fixtures():
    triangle = social_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert clustering_coefficient(triangle) == 1.0
    star = social_graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    assert clustering_coefficient(star) == 0.0
    assert clustering_coefficient(generate_wreath(12, 4)) == 0.5
    with pytest.raises(UndefinedMetricError):
        clustering_coefficient(social_graph([], []))
    assert clustering_coefficient(social_graph([1, 2], [])) == 0.0


def test_clustering_matches_direct_count(monkeypatch):
    graphs = [random_social(seed, max_n=25) for seed in range(40)]
    rng = random.Random("clustering")
    for n in (63, 64, 65, 130):  # bitset rows of one word, a full word, a word and a bit
        ids = [3 + 2 * i for i in range(n)]
        graphs.append(social_graph(ids, [(u, v) for i, u in enumerate(ids)
                                         for v in ids[i + 1:] if rng.random() < 0.15]))
    # the default budget, then one word and one edge per block, then two
    # words (a 130-vertex graph's last column range holds 2 columns)
    for block_bytes in (metrics.BITSET_BLOCK_BYTES, 8, 2080):
        monkeypatch.setattr(metrics, "BITSET_BLOCK_BYTES", block_bytes)
        for gs in graphs:
            adj = adjacency(gs)
            total = 0.0
            for v in adj:
                nbrs = sorted(adj[v])
                d = len(nbrs)
                if d < 2:
                    continue
                links = sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
                            if b in adj[a])
                total += 2.0 * links / (d * (d - 1))
            assert abs(clustering_coefficient(gs) - total / len(adj)) < 1e-12


# -- report utilities ----------------------------------------------------------------


def test_degree_cdf_basic():
    dist = DegreeDistribution({2: 5, 1: 5})
    assert degree_cdf(dist) == [(1, 10), (2, 5)]


def test_degree_cdf_single_vertex():
    dist = DegreeDistribution({0: 1})
    assert degree_cdf(dist) == [(0, 1)]


def test_degree_cdf_first_entry_is_n():
    for seed in range(25):
        gs = random_social(seed)
        entries = degree_cdf(degree_distribution(gs))
        assert entries[0][1] == gs.n
        counts = [c for _, c in entries]
        assert counts == sorted(counts, reverse=True)


def test_degree_cdf_log_scale():
    dist = DegreeDistribution({1: 50, 2: 50})
    entries = degree_cdf(dist, log_scale=True)
    assert entries[0] == (1, 2.0)
    assert abs(entries[1][1] - np.log10(50)) < 1e-12


def test_linf_discrepancy():
    assert linf_discrepancy([1, 2, 3], [1, 2, 3]) == 0
    assert linf_discrepancy([1, 2, 3], [1, 4, 3]) == 2
    assert linf_discrepancy([1, None, 3], [9, 5, 3.5]) == 8
    with pytest.raises(ValueError):
        linf_discrepancy([1], [1, 2])
    with pytest.raises(UndefinedMetricError):
        linf_discrepancy([None], [1.0])


def test_linf_matches_scan_oracle():
    import random as _random
    rng = _random.Random("linf")
    for _ in range(30):
        n = rng.randint(1, 25)
        a = [rng.uniform(-5, 5) for _ in range(n)]
        b = [rng.uniform(-5, 5) for _ in range(n)]
        best = max(abs(x - y) for x, y in zip(a, b))
        assert abs(linf_discrepancy(a, b) - best) < 1e-12
