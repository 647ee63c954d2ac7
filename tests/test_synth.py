import math
import random

import numpy as np
import pytest

from recgraph import (
    SynthConfig,
    generate_power_law_bipartite,
    generate_wreath,
    measure_l_pp,
    rewire,
    synth,
)
from recgraph.dataset import is_connected_bipartite, sparsity
from recgraph.metrics import clustering_coefficient
from recgraph.synth import (
    PREFERENTIAL,
    UNIFORM,
    WreathConfig,
    _Fenwick,
    _preferential_target,
    calibrate_epsilon,
    initial_degree,
    small_world_curve,
)

from oracles import (
    _oracle_preferential_target,
    adjacency,
    edge_ids,
    generate_oracle,
    giant_people_oracle,
    movies_by_person,
    random_social,
    rewire_oracle,
    social_edges,
    social_graph,
)


def set_rewire_odds(monkeypatch, threshold, outcomes=11):
    """Rewire a generated rating when a draw from range(outcomes) is below threshold."""
    monkeypatch.setattr(synth, "REWIRE_THRESHOLD", threshold)
    monkeypatch.setattr(synth, "REWIRE_OUTCOMES", outcomes)


# -- generator --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_people=0)
    with pytest.raises(ValueError):
        SynthConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(epsilon=math.nan)


def test_initial_degree_formula():
    assert initial_degree(1, 0.7, 75) == 75
    assert initial_degree(500, 0.7, 75) == 1
    assert initial_degree(500, 0.27, 75) == 15
    assert initial_degree(3, 0.0, 75) == 75  # epsilon 0 caps at every movie


def test_deterministic_for_seed():
    cfg = SynthConfig(n_people=80, n_movies=30, epsilon=0.5, seed=11)
    a, _ = generate_power_law_bipartite(cfg)
    b, _ = generate_power_law_bipartite(cfg)
    assert edge_ids(a) == edge_ids(b)
    c, _ = generate_power_law_bipartite(SynthConfig(
        n_people=80, n_movies=30, epsilon=0.5, seed=12))
    assert edge_ids(a) != edge_ids(c)


def test_string_seeds_are_accepted():
    g, _ = generate_power_law_bipartite(SynthConfig(n_people=20, n_movies=10,
                                                    epsilon=0.4, seed="trial:3"))
    assert g.edge_count > 0


def test_degrees_survive_rewiring():
    # rewiring moves movie endpoints only, so person degrees stay put
    cfg = SynthConfig(n_people=120, n_movies=40, epsilon=0.6, seed=5)
    g, _ = generate_power_law_bipartite(cfg)
    for b, degree in zip(g.people.tolist(), g.person_degrees().tolist()):
        assert degree == initial_degree(b, 0.6, 40)


def test_edge_count_is_seed_independent():
    expected = sum(initial_degree(b, 0.7, 75) for b in range(1, 501))
    assert expected == 1694
    for seed in (0, 1, "x"):
        g, _ = generate_power_law_bipartite(SynthConfig(seed=seed))
        assert g.edge_count == 1694
    g27, _ = generate_power_law_bipartite(SynthConfig(epsilon=0.27, seed=9))
    assert g27.edge_count == sum(initial_degree(b, 0.27, 75) for b in range(1, 501))
    assert g27.edge_count == 9796


def test_top_person_rates_everything_and_graph_connects():
    for seed in range(6):
        g, _ = generate_power_law_bipartite(SynthConfig(
            n_people=60, n_movies=25, epsilon=0.5, seed=seed))
        assert movies_by_person(g)[1] == set(range(1, 26))
        assert is_connected_bipartite(g)


def test_epsilon_zero_without_rewiring_is_complete(monkeypatch):
    set_rewire_odds(monkeypatch, 0)
    cfg = SynthConfig(n_people=12, n_movies=8, epsilon=0.0)
    g, _ = generate_power_law_bipartite(cfg)
    assert g.edge_count == 12 * 8
    assert sparsity(g) == 0.0


def test_rewiring_changes_layout_but_not_counts(monkeypatch):
    cfg = SynthConfig(n_people=40, n_movies=20, epsilon=0.5, seed=3)
    set_rewire_odds(monkeypatch, 0)
    g0, _ = generate_power_law_bipartite(cfg)
    set_rewire_odds(monkeypatch, 5)
    g1, _ = generate_power_law_bipartite(cfg)
    assert g0.edge_count == g1.edge_count
    assert set(edge_ids(g0)) != set(edge_ids(g1))


def test_skipped_rewires_counted_when_person_saturated(monkeypatch):
    # a single-movie world: nobody has an unseen movie to rewire to
    set_rewire_odds(monkeypatch, 11)
    cfg = SynthConfig(n_people=5, n_movies=1, epsilon=0.1, seed=2)
    g, diag = generate_power_law_bipartite(cfg)
    assert diag.skipped_rewires == 5
    assert g.edge_count == 5


def test_repair_pass_reports_zero_on_connected_output():
    _, diag = generate_power_law_bipartite(SynthConfig(n_people=30, n_movies=10,
                                                       epsilon=0.4, seed=1))
    assert diag.repair_edges == 0


def test_unrated_people_get_movie_one():
    # at epsilon 130 the counts of the 192 least active people underflow to zero
    cfg = SynthConfig(epsilon=130, seed=3)
    unrated = [b for b in range(1, 501) if initial_degree(b, 130, 75) == 0]
    assert len(unrated) == 192
    g, diag = generate_power_law_bipartite(cfg)
    assert diag.repair_edges == len(unrated)
    rated = movies_by_person(g)
    for b in unrated:
        assert rated[b] == {1}
    assert is_connected_bipartite(g)


_ORACLE_GRID = [
    # (n_people, n_movies, epsilon, REWIRE_THRESHOLD, REWIRE_OUTCOMES)
    (500, 75, 0.7, 2, 11),
    (500, 75, 0.27, 5, 11),
    (500, 75, 130, 2, 11),
    (500, 75, 130, 11, 11),
    (200, 30, 400, 1, 1),
    (60, 25, 0.0, 0, 11),
    (60, 25, 1.5, 11, 11),
    (40, 12, 0.4, 1, 1),
    (1, 1, 0.7, 11, 11),
    (5, 1, 0.1, 11, 11),
    (5, 1, 200, 2, 11),
]


@pytest.mark.parametrize("n_people,n_movies,epsilon,threshold,outcomes", _ORACLE_GRID)
def test_generator_matches_dict_of_sets_oracle(monkeypatch, n_people, n_movies, epsilon,
                                              threshold, outcomes):
    set_rewire_odds(monkeypatch, threshold, outcomes)
    for seed in (0, 7, "3:15:2"):
        cfg = SynthConfig(n_people=n_people, n_movies=n_movies, epsilon=epsilon, seed=seed)
        got, diag = generate_power_law_bipartite(cfg)
        want, skipped, repair = generate_oracle(cfg)
        for name in ("people", "movies", "edge_person_idx", "edge_movie_idx"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, cfg)
        assert got.duplicate_count == want.duplicate_count
        assert (diag.skipped_rewires, diag.repair_edges) == (skipped, repair), cfg


# -- calibration -------------------------------------------------------------------


def test_calibration_hits_requested_minimum():
    for kappa in range(1, 76):
        eps = calibrate_epsilon(kappa)
        assert initial_degree(500, eps, 75) == kappa, f"kappa {kappa}"


def test_calibration_known_values():
    assert abs(calibrate_epsilon(1) - 0.70) <= 0.01
    assert abs(calibrate_epsilon(15) - 0.27) <= 0.01


def test_calibration_generated_min_degree_round_trip():
    for kappa in (1, 4, 15, 40, 75):
        eps = calibrate_epsilon(kappa)
        g, _ = generate_power_law_bipartite(SynthConfig(epsilon=eps, seed=0))
        assert int(g.person_degrees().min()) == kappa


def test_calibration_monotone_decreasing():
    values = [calibrate_epsilon(k) for k in range(1, 76)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_calibration_everyone_rates_everything():
    eps = calibrate_epsilon(75)
    assert 0 <= eps < math.log(75 / 74) / math.log(500)


def test_calibration_rejects_bad_kappa():
    with pytest.raises(ValueError):
        calibrate_epsilon(0)
    with pytest.raises(ValueError):
        calibrate_epsilon(76)
    with pytest.raises(ValueError):
        calibrate_epsilon(5, n_people=1)


# -- wreath lattices ---------------------------------------------------------------


def test_wreath_twelve_four():
    g = generate_wreath(12, 4)
    assert g.n == 12
    assert g.edge_count == 24
    adj = adjacency(g)
    assert all(len(adj[v]) == 4 for v in range(12))
    assert adj[0] == {1, 2, 10, 11}


def test_wreath_cycle():
    g = generate_wreath(5, 2)
    assert g.edge_count == 5
    assert all(len(nbrs) == 2 for nbrs in adjacency(g).values())


def test_wreath_rows_match_edge_list_oracle():
    for n, k in ((3, 2), (4, 2), (5, 4), (12, 4), (65, 4), (1000, 10)):
        got = generate_wreath(n, k)
        want = social_graph(range(n), [(i, (i + j) % n) for i in range(n)
                                       for j in range(1, k // 2 + 1)])
        for name, a, b in [("vertices", got.vertices, want.vertices),
                           *zip(("indptr", "indices"), got.adjacency_csr(),
                                want.adjacency_csr())]:
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, n, k)


def test_wreath_validation():
    with pytest.raises(ValueError):
        generate_wreath(4, 4)
    with pytest.raises(ValueError):
        generate_wreath(10, 3)
    with pytest.raises(ValueError):
        generate_wreath(2, 2)
    with pytest.raises(ValueError):
        WreathConfig(n=12, k=4, mode="bogus")


# -- rewiring ----------------------------------------------------------------------


def test_rewire_p_zero_is_identity():
    g = generate_wreath(20, 4)
    r, skipped = rewire(g, 0.0)
    assert r is g
    assert skipped == 0


@pytest.mark.parametrize("mode", [UNIFORM, PREFERENTIAL])
def test_rewire_that_selects_no_edge_returns_the_graph_itself(mode):
    # at p = 1e-4 seed 3 selects none of the lattice's 5000 edges; seed 0 one
    lattice = generate_wreath(1000, 10)
    r, skipped = rewire(lattice, 1e-4, mode, seed=3)
    assert r is lattice and skipped == 0
    r, _ = rewire(lattice, 1e-4, mode, seed=0)
    assert r is not lattice
    assert set(social_edges(r)) != set(social_edges(lattice))


def test_rewire_preserves_edge_count_and_simplicity():
    for seed in range(10):
        g = generate_wreath(30, 6)
        for p in (0.2, 1.0):
            for mode in (UNIFORM, PREFERENTIAL):
                r, _ = rewire(g, p, mode, seed=seed)
                assert r.edge_count == g.edge_count
                assert sorted(int(v) for v in r.vertices) == list(range(30))
                for u, v in social_edges(r):
                    assert u != v
                assert r.degrees().sum() == 2 * r.edge_count


def test_rewire_p_one_touches_the_lattice():
    g = generate_wreath(40, 4)
    r, _ = rewire(g, 1.0, UNIFORM, seed=0)
    assert set(social_edges(r)) != set(social_edges(g))


def test_rewire_deterministic_per_seed():
    g = generate_wreath(25, 4)
    a, _ = rewire(g, 0.5, PREFERENTIAL, seed="s")
    b, _ = rewire(g, 0.5, PREFERENTIAL, seed="s")
    c, _ = rewire(g, 0.5, PREFERENTIAL, seed="t")
    assert set(social_edges(a)) == set(social_edges(b))
    assert set(social_edges(a)) != set(social_edges(c))


def test_rewire_complete_graph_skips_everything():
    k5 = generate_wreath(5, 4)  # complete graph on 5 vertices
    for mode in (UNIFORM, PREFERENTIAL):
        r, skipped = rewire(k5, 1.0, mode, seed=1)
        assert skipped == 10
        assert r is k5


def _assert_rewire_matches_oracle(g, p, mode, seed):
    # nothing checks the rows a graph is built from, so compare them raw
    got, skipped = rewire(g, p, mode, seed=seed)
    want, want_skipped = rewire_oracle(g, p, mode, seed=seed)
    assert skipped == want_skipped
    for name, a, b in [("vertices", got.vertices, want.vertices),
                       *zip(("indptr", "indices"), got.adjacency_csr(), want.adjacency_csr())]:
        assert a.dtype == b.dtype and np.array_equal(a, b), (name, p, mode, seed)


@pytest.mark.parametrize("mode", [UNIFORM, PREFERENTIAL])
@pytest.mark.parametrize("p", [1e-3, 1e-2, 0.05, 0.5, 1.0])
def test_rewire_matches_id_space_oracle(p, mode):
    # random_social ids are often non-contiguous, so an index taken for an id
    # shows here; in a lattice every id equals its index
    for seed in range(40):
        _assert_rewire_matches_oracle(random_social(seed), p, mode, seed)


@pytest.mark.parametrize("mode", [UNIFORM, PREFERENTIAL])
@pytest.mark.parametrize("missing", ["matching", "ring"])
def test_rewire_matches_oracle_when_rejection_starves(mode, missing):
    # K_60 minus a perfect matching (or minus a ring) leaves one or two valid
    # targets per rewired edge, so 64 uniform draws often miss them all and
    # the pool scan picks instead; pools of two, where the scan order decides
    # the pick, come mostly from the ring
    n = 60
    gap = {(i, (i + 1) % n) for i in range(0, n, 2 if missing == "matching" else 1)}
    ids = [7 + 3 * i for i in range(n)]
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
             if (i, j) not in gap and (j, i) not in gap]
    g = social_graph(ids, edges)
    for p in (0.05, 0.5, 1.0):
        for seed in range(3):
            _assert_rewire_matches_oracle(g, p, mode, seed)


@pytest.mark.parametrize("mode", [UNIFORM, PREFERENTIAL])
@pytest.mark.parametrize("p", [1e-3, 1e-2])
def test_rewire_matches_oracle_when_few_lattice_rows_move(p, mode):
    # a few moved edges among thousands that keep their place in the edge list
    lattice = generate_wreath(1000, 10)
    for seed in range(3):
        _assert_rewire_matches_oracle(lattice, p, mode, seed)


@pytest.mark.parametrize("mode", [UNIFORM, PREFERENTIAL])
def test_rewire_matches_oracle_when_every_edge_is_skipped(mode):
    _assert_rewire_matches_oracle(generate_wreath(5, 4), 1.0, mode, 1)


class _FixedDraw:
    """A random source whose random() always returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _draw_both(make_rng, degrees, u, taken):
    """(Fenwick pick, cumsum oracle pick), each from its own fresh rng."""
    n = len(degrees)
    got_rng, want_rng = make_rng(), make_rng()
    got = _preferential_target(got_rng, _Fenwick(degrees), u, set(taken))
    want = _oracle_preferential_target(want_rng, list(range(n)), {i: i for i in range(n)},
                                       np.array(degrees, dtype=np.int64), u, set(taken))
    if isinstance(got_rng, random.Random):
        assert got_rng.getstate() == want_rng.getstate()
    return got, want


def test_preferential_draw_matches_cumsum_oracle():
    # zero degrees, and u or its neighbours at either end of the index range
    for seed in range(400):
        r = random.Random(seed)
        n = r.randint(2, 40)
        degrees = [r.choice((0, 0, 1, 2, 3, 7, 20)) for _ in range(n)]
        u = r.choice((0, n - 1, r.randrange(n)))
        others = [x for x in range(n) if x != u]
        taken = set(r.sample(others, r.randint(0, len(others))))
        taken |= {x for x in (0, n - 1) if x != u and r.random() < 0.5}
        got, want = _draw_both(lambda: random.Random(f"draw:{seed}"), degrees, u, taken)
        assert got == want, (degrees, u, taken)


def test_preferential_draw_none_when_everything_is_excluded():
    for degrees, u, taken in (([2, 0, 3], 0, {2}), ([1, 1, 1, 1], 3, {0, 1, 2}),
                              ([0, 0, 0], 1, set()), ([5], 0, set())):
        got, want = _draw_both(lambda: random.Random(7), degrees, u, taken)
        assert got is want is None


def test_preferential_draw_on_cumulative_boundaries():
    # u = 7 and taken = {2} leave weights 3, 0, 0, 2, 4, 7, 0, 0 summing to
    # 16, so cut = value * 16 is exact and lands on the prefixes 3, 5 and 9;
    # side="right" picks the next weighted index, a hair below the one before
    degrees, u, taken = [3, 0, 5, 2, 4, 7, 0, 1], 7, {2}
    cases = {0.0: 0, 3 / 16: 3, 5 / 16: 4, 9 / 16: 5, math.nextafter(1.0, 0.0): 5}
    cases.update({math.nextafter(c / 16, 0.0): pick
                  for c, pick in ((3, 0), (5, 3), (9, 4), (16, 5))})
    for value, pick in cases.items():
        assert _draw_both(lambda: _FixedDraw(value), degrees, u, taken) == (pick, pick), value


def test_rewire_validation():
    g = generate_wreath(10, 2)
    with pytest.raises(ValueError):
        rewire(g, 1.5)
    with pytest.raises(ValueError):
        rewire(g, 0.5, mode="bogus")


def test_preferential_rewiring_builds_hubs():
    # degree-proportional targeting should spread degrees wider than uniform
    g = generate_wreath(200, 4)
    uni, _ = rewire(g, 1.0, UNIFORM, seed=7)
    pref, _ = rewire(g, 1.0, PREFERENTIAL, seed=7)
    assert int(pref.degrees().max()) > int(uni.degrees().max())


# -- small-world curves ---------------------------------------------------------------


def test_curve_p_zero_is_exactly_one_one():
    cfg = WreathConfig(n=30, k=4, seed=0)
    points = small_world_curve(cfg, [0.0], trials=3)
    assert len(points) == 1
    assert points[0].p == 0.0
    assert points[0].l_ratio == 1.0 and points[0].c_ratio == 1.0


def test_curve_unscaled_base_values():
    lattice = generate_wreath(12, 4)
    assert abs(measure_l_pp(lattice).l_pp - 21 / 11) < 1e-9
    assert clustering_coefficient(lattice) == 0.5


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 4), (7, 6), (12, 4), (30, 4), (65, 4),
                                  (100, 6), (999, 12), (1000, 10)])
def test_lattice_path_length_is_the_distance_pass_float(n, k):
    assert synth._lattice_path_length(n, k) == measure_l_pp(generate_wreath(n, k)).l_pp


def test_curve_measures_only_trials_that_move_an_edge(monkeypatch):
    # at p = 1e-4 trials 0, 1 and 2 of seed 0 select 0, 2 and 1 of the
    # lattice's 5000 edges; the lattice itself is never measured
    calls = []
    measure = synth.measure_l_pp
    monkeypatch.setattr(synth, "measure_l_pp", lambda g: calls.append(g) or measure(g))
    cfg = WreathConfig(n=1000, k=10, seed=0)
    point = small_world_curve(cfg, [0.0, 1e-4], trials=3)[1]
    assert len(calls) == 2
    lattice = generate_wreath(1000, 10)
    base_l = measure(lattice).l_pp
    rewired = [rewire(lattice, 1e-4, seed=f"0:{t}:1")[0] for t in (1, 2)]
    assert rewire(lattice, 1e-4, seed="0:0:1")[0] is lattice
    l_total = base_l + measure(rewired[0]).l_pp + measure(rewired[1]).l_pp
    assert point.l_ratio == (l_total / 3) / base_l


def giant_clustering_oracle(gs):
    """Mean over the giant's people of 2 * triangles / (d * (d - 1)), by brute force."""
    adj = adjacency(gs)
    giant = giant_people_oracle(gs)
    total = 0.0
    for v in giant:
        nbrs = sorted(adj[v])
        d = len(nbrs)
        links = sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:] if b in adj[a])
        total += 2.0 * links / (d * (d - 1)) if d >= 2 else 0.0
    return total / len(giant)


def test_giant_clustering_ignores_the_rest_of_a_disconnected_graph():
    # a K4 on the smallest ids (every vertex clustered 1), a 7-vertex giant
    # of two triangles on a path, and two isolated vertices
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    giant = [(10, 11), (11, 12), (10, 12), (12, 13), (13, 14), (14, 15), (13, 15), (15, 16)]
    gs = social_graph([1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16, 30, 31], k4 + giant)
    expected = giant_clustering_oracle(gs)
    assert abs(synth._giant_clustering(gs) - expected) < 1e-12
    # (1 + 1 + 1/3 + 1/3 + 1 + 1/3 + 0) / 7 over the giant; (4 + 4) / 13 over all
    assert abs(expected - 4 / 7) < 1e-12
    assert abs(clustering_coefficient(gs) - 8 / 13) < 1e-12
    for seed in range(60):
        gs = random_social(seed)
        assert abs(synth._giant_clustering(gs) - giant_clustering_oracle(gs)) < 1e-12


def test_curve_is_deterministic_and_ordered():
    cfg = WreathConfig(n=60, k=4, seed=9)
    ps = [0.0, 0.3, 0.8]
    a = small_world_curve(cfg, ps, trials=2)
    b = small_world_curve(cfg, ps, trials=2)
    assert a == b
    assert [pt.p for pt in a] == ps
    for pt in a:
        assert pt.l_ratio > 0 and pt.c_ratio >= 0


def test_curve_requires_at_least_one_trial():
    with pytest.raises(ValueError):
        small_world_curve(WreathConfig(n=20, k=4), [0.1], trials=0)


def test_preferential_shortens_paths_at_full_rewiring():
    # hub formation under degree-proportional targets cuts the mean length
    uni_cfg = WreathConfig(n=500, k=8, seed=42, mode=UNIFORM)
    pref_cfg = WreathConfig(n=500, k=8, seed=42, mode=PREFERENTIAL)
    uni = small_world_curve(uni_cfg, [1.0], trials=12)[0]
    pref = small_world_curve(pref_cfg, [1.0], trials=12)[0]
    assert pref.l_ratio < uni.l_ratio
