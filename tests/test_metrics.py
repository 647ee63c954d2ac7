import numpy as np
import pytest

from recgraph import (
    BipartiteRatings,
    DegreeDistribution,
    JumpSpec,
    RecommenderGraph,
    SocialGraph,
    UndefinedMetricError,
    apply_jump,
    clustering_coefficient,
    connected_components,
    degree_cdf,
    degree_distribution,
    generate_wreath,
    joint_degree_distribution,
    linf_discrepancy,
    measure_l_pp,
    measure_l_r_l_pm,
)
from recgraph.metrics import csv_float, degree_cdf_csv

from oracles import (
    floyd_warshall,
    giant_people_oracle,
    joint_degree_loop,
    mean_over_pairs,
    random_ratings,
    random_social,
    social_partition,
)


def chain_graph():
    """p1 - m1 - p2 - m2 - p3 under the weakest jump."""
    g = BipartiteRatings([(1, 101), (2, 101), (2, 102), (3, 102)])
    gs = apply_jump(g, JumpSpec.skip())
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
        lonely = sum(1 for v in gs.vertices if not gs.neighbors(int(v)))
        assert report.isolated_people == lonely


def test_isolated_people_counted():
    gs = SocialGraph([1, 2, 3, 4, 5], [(1, 2)])
    report = connected_components(gs)
    assert report.isolated_people == 3
    assert report.component_sizes == ((2, 0), (1, 0), (1, 0), (1, 0))
    assert report.shattered


def test_not_shattered_when_secondary_component_has_edges():
    gs = SocialGraph([1, 2, 3, 4, 5], [(1, 2), (1, 3), (4, 5)])
    report = connected_components(gs)
    assert set(report.giant_people) == {1, 2, 3}
    assert not report.shattered


def test_movie_assignment_follows_bigger_people_component():
    # at w=2 the lone shared movie 50 links no people, so the social
    # components stay {1,2,3} and {4,5}; its raters span both and the
    # 3-person component wins the movie
    g = BipartiteRatings(
        [(1, 10), (1, 11), (2, 10), (2, 11), (3, 10), (3, 11),
         (4, 20), (4, 21), (5, 20), (5, 21),
         (1, 50), (4, 50)])
    gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(2)))
    report = connected_components(gr)
    assert set(report.giant_people) == {1, 2, 3}
    assert 50 in report.giant_movies


def test_movie_assignment_tie_breaks_to_smaller_person_id():
    # two 2-person components each contribute one rater to movie 99
    g = BipartiteRatings(
        [(1, 10), (1, 11), (2, 10), (2, 11),
         (3, 20), (3, 21), (4, 20), (4, 21),
         (2, 99), (3, 99)])
    gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(2)))
    report = connected_components(gr)
    comps = {(p, m) for p, m in report.component_sizes}
    assert comps == {(2, 3), (2, 2)}
    assert set(report.giant_people) == {1, 2}  # movie 99 breaks the tie
    assert set(report.giant_movies) == {10, 11, 99}


def test_unrated_movie_is_own_component():
    g = BipartiteRatings([(1, 10)], people=[1], movies=[10, 11])
    gr = RecommenderGraph(g, apply_jump(g, JumpSpec.skip()))
    report = connected_components(gr)
    assert (0, 1) in report.component_sizes
    assert 11 not in report.giant_movies


def test_two_person_toy_splits_at_width_two():
    g = BipartiteRatings([(1, 10), (2, 10)])
    for w, expected in ((1, 1), (2, 2)):
        gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(w)))
        assert len(connected_components(gr).component_sizes) == expected


def test_components_conserve_people_and_movies():
    for seed in range(60):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(2)))
        report = connected_components(gr)
        assert sum(p for p, _ in report.component_sizes) == g.n_people
        assert sum(m for _, m in report.component_sizes) == g.n_movies


def test_component_type_check():
    with pytest.raises(TypeError):
        connected_components("not a graph")


# -- degree distributions ---------------------------------------------------------


def test_degree_distribution_star():
    gs = SocialGraph([0, 1, 2, 3, 4], [(0, i) for i in range(1, 5)])
    dist = degree_distribution(gs)
    assert dist.probabilities == {1: 0.8, 4: 0.2}
    assert dist.counts() == {1: 4, 4: 1}


def test_degree_distribution_handshake():
    for seed in range(40):
        gs = random_social(seed)
        dist = degree_distribution(gs)
        z1n = sum(k * p for k, p in dist.probabilities.items()) * dist.n
        assert round(z1n) == 2 * gs.edge_count


def test_degree_distribution_largest_only():
    gs = SocialGraph([1, 2, 3, 4, 5], [(1, 2), (2, 3)])
    dist = degree_distribution(gs, largest_only=True)
    assert dist.n == 3
    assert dist.probabilities == {1: 2 / 3, 2: 1 / 3}


def test_degree_distribution_empty_graph():
    with pytest.raises(UndefinedMetricError):
        degree_distribution(SocialGraph([], []))


def test_distribution_mass_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({1: 0.4, 2: 0.4}, 10)


def test_joint_distribution_chain():
    _, _, gr = chain_graph()
    joint = joint_degree_distribution(gr)
    assert joint.n == 5
    assert joint.probabilities == {
        (1, 2): 2 / 5,  # end people
        (2, 4): 1 / 5,  # middle person
        (2, 0): 2 / 5,  # both movies
    }


def test_joint_distribution_two_people_one_movie():
    g = BipartiteRatings([(1, 10), (2, 10)])
    gr = RecommenderGraph(g, apply_jump(g, JumpSpec.skip()))
    joint = joint_degree_distribution(gr)
    assert joint.probabilities == {(1, 2): 2 / 3, (2, 0): 1 / 3}


def test_joint_distribution_balance_and_sinks():
    for seed in range(40):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(2)))
        joint = joint_degree_distribution(gr)
        pull = sum(j * p for (j, _), p in joint.probabilities.items())
        push = sum(k * p for (_, k), p in joint.probabilities.items())
        assert abs(pull - push) < 1e-12
        joint_giant = joint_degree_distribution(gr, largest_only=True)
        pull = sum(j * p for (j, _), p in joint_giant.probabilities.items())
        push = sum(k * p for (_, k), p in joint_giant.probabilities.items())
        assert abs(pull - push) < 1e-12


def test_joint_distribution_matches_loop_oracle_in_order():
    # key order matters: moments_directed sums in dict order
    for seed in range(80):
        g = random_ratings(seed)
        for w in (1, 2, 3):
            gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(w)))
            report = connected_components(gr)
            for largest_only, people, movies in (
                    (False, g.people.tolist(), g.movies.tolist()),
                    (True, report.giant_people, report.giant_movies)):
                got = joint_degree_distribution(gr, largest_only=largest_only)
                expected = joint_degree_loop(gr, people, movies)
                assert list(got.probabilities.items()) == list(expected.items()), \
                    f"seed {seed} w {w} largest_only {largest_only}"


# -- path lengths vs Floyd-Warshall -----------------------------------------------


def test_l_pp_matches_floyd_warshall_oracle():
    # 120 random graphs, giant restriction included
    for seed in range(120):
        gs = random_social(seed, max_n=45)
        ids = [int(v) for v in gs.vertices]
        index = {v: i for i, v in enumerate(ids)}
        dist = floyd_warshall(len(ids), [(index[u], index[v]) for u, v in gs.edge_ids()],
                              directed=False)
        giant = sorted(index[v] for v in giant_people_oracle(gs))
        expected, count = mean_over_pairs(dist, giant, giant)
        if count == 0:
            with pytest.raises(UndefinedMetricError):
                measure_l_pp(gs)
            continue
        stats = measure_l_pp(gs)
        assert stats.pairs_pp == count, f"seed {seed}"
        assert abs(stats.l_pp - expected) < 1e-9, f"seed {seed}"
        assert not stats.sampled


def test_l_r_l_pm_match_floyd_warshall_oracle():
    # directed oracle over the combined person+movie index space
    for seed in range(120):
        g = random_ratings(seed, max_people=14, max_movies=12)
        gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(2)))
        people = [int(p) for p in g.people]
        movies = [int(m) for m in g.movies]
        pix = {p: i for i, p in enumerate(people)}
        mix = {m: len(people) + j for j, m in enumerate(movies)}
        arcs = []
        for u, v in gr.social.edge_ids():
            arcs.append((pix[u], pix[v]))
            arcs.append((pix[v], pix[u]))
        for p, m in g.edge_ids():
            arcs.append((pix[p], mix[m]))
        dist = floyd_warshall(len(people) + len(movies), arcs, directed=True)

        report = connected_components(gr)
        if not report.giant_people:
            with pytest.raises(UndefinedMetricError):
                measure_l_r_l_pm(gr)
            continue
        sources = [pix[p] for p in report.giant_people]
        exp_pp, n_pp = mean_over_pairs(dist, sources, list(range(len(people))))
        exp_pm, n_pm = mean_over_pairs(
            dist, sources, list(range(len(people), len(people) + len(movies))))
        stats = measure_l_r_l_pm(gr)
        assert stats.pairs_pp == n_pp, f"seed {seed}"
        assert stats.pairs_pm == n_pm, f"seed {seed}"
        if n_pp:
            assert abs(stats.l_pp - exp_pp) < 1e-9
        if n_pm:
            assert abs(stats.l_pm - exp_pm) < 1e-9


def test_mixture_identity_exact():
    for seed in range(60):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, JumpSpec.skip()))
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
    k5 = SocialGraph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert measure_l_pp(k5).l_pp == 1.0
    path = SocialGraph([1, 2, 3], [(1, 2), (2, 3)])
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


def test_l_pp_undefined_on_singleton_giant():
    gs = SocialGraph([1, 2, 3], [])
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
    gr = RecommenderGraph(g, apply_jump(g, JumpSpec.skip()))
    full = measure_l_r_l_pm(gr)
    if full.sources > 2:
        part = measure_l_r_l_pm(gr, max_sources=2, seed=1)
        assert part.sampled and part.sources == 2


# -- clustering ---------------------------------------------------------------------


def test_clustering_fixtures():
    triangle = SocialGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert clustering_coefficient(triangle) == 1.0
    star = SocialGraph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    assert clustering_coefficient(star) == 0.0
    assert clustering_coefficient(generate_wreath(12, 4)) == 0.5
    with pytest.raises(UndefinedMetricError):
        clustering_coefficient(SocialGraph([], []))
    assert clustering_coefficient(SocialGraph([1, 2], [])) == 0.0


def test_clustering_matches_direct_count():
    for seed in range(40):
        gs = random_social(seed, max_n=25)
        ids = [int(v) for v in gs.vertices]
        total = 0.0
        for v in ids:
            nbrs = sorted(gs.neighbors(v))
            d = len(nbrs)
            if d < 2:
                continue
            links = sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
                        if gs.has_edge(a, b))
            total += 2.0 * links / (d * (d - 1))
        assert abs(clustering_coefficient(gs) - total / len(ids)) < 1e-12


# -- report utilities ----------------------------------------------------------------


def test_degree_cdf_basic():
    dist = DegreeDistribution({1: 0.5, 2: 0.5}, 10)
    assert degree_cdf(dist) == [(1, 10), (2, 5)]


def test_degree_cdf_single_vertex():
    dist = DegreeDistribution({0: 1.0}, 1)
    assert degree_cdf(dist) == [(0, 1)]


def test_degree_cdf_first_entry_is_n():
    for seed in range(25):
        gs = random_social(seed)
        entries = degree_cdf(degree_distribution(gs))
        assert entries[0][1] == gs.n
        counts = [c for _, c in entries]
        assert counts == sorted(counts, reverse=True)


def test_degree_cdf_log_scale():
    dist = DegreeDistribution({1: 0.5, 2: 0.5}, 100)
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


def test_csv_float():
    assert csv_float(None) == ""
    assert csv_float(2) == "2"
    assert csv_float(1.234567890) == "1.23457"
    assert csv_float(2.0) == "2"


def test_csv_renderers():
    cdf_text = degree_cdf_csv([(1, 10), (2, 5)])
    assert cdf_text == "degree,count\n1,10\n2,5\n"
    log_text = degree_cdf_csv([(1, 2.0)], log_scale=True)
    assert log_text.splitlines()[0] == "degree,log10_count"
