"""End-to-end acceptance checks; each test prints one PASS/FAIL/SKIP line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
dataset-dependent checks skip when the corresponding files are absent (see
conftest for the expected locations).
"""
import time

import pytest

from conftest import eachmovie_path, movielens_path
from recgraph import (
    DegenerateModelError,
    DegreeDistribution,
    JumpSpec,
    RecommenderGraph,
    SynthConfig,
    UndirectedModelInput,
    WreathConfig,
    apply_jump,
    bfs_reach_count,
    clustering_coefficient,
    fit_power_law,
    generate_power_law_bipartite,
    generate_wreath,
    joint_degree_distribution,
    load_ratings,
    measure_l_pp,
    predict_l_pp,
    predict_l_r,
    reorder_hits_buffs,
    small_world_curve,
    sparsity,
)
from recgraph.cli import sweep_rows
from recgraph.nsw import DirectedModelInput
from recgraph.synth import UNIFORM


def _report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} {detail}"


def _skip(tag, reason):
    print(f"{tag} SKIP: {reason}")
    pytest.skip(reason)


_CACHE = {}


def _ml100k():
    if "ml" not in _CACHE:
        t0 = time.perf_counter()
        g = load_ratings(movielens_path(), "movielens_tab")
        _CACHE["ml"] = (g, time.perf_counter() - t0)
    return _CACHE["ml"]


def _ml_sweep():
    if "sweep" not in _CACHE:
        g, _ = _ml100k()
        t0 = time.perf_counter()
        rows = sweep_rows(g, 1, 30)
        _CACHE["sweep"] = (rows, time.perf_counter() - t0)
    return _CACHE["sweep"]


def test_ac01_small_fixture_prediction():
    from test_jumps import four_person_fixture
    g = four_person_fixture()
    gs = apply_jump(g, JumpSpec.hammock(25))
    gr = RecommenderGraph(g, gs)
    joint = joint_degree_distribution(gr)
    value = predict_l_r(DirectedModelInput(joint, g.n_people, g.n_movies))
    _report("AC01", abs(value - 4.24) <= 0.01,
            f"predicted mean recommender distance {value:.6f} (target 4.24 +/- 0.01)")


def test_ac02_movielens_shape():
    if movielens_path() is None:
        _skip("AC02", "MovieLens-100k not present; run scripts/fetch_ml100k.py")
    g, elapsed = _ml100k()
    s = sparsity(g)
    from recgraph import is_connected_bipartite
    connected = is_connected_bipartite(g)
    ok = (g.n_people == 943 and g.n_movies == 1682
          and abs(s - 0.9370) <= 0.0005 and connected and elapsed < 5.0)
    _report("AC02", ok,
            f"{g.n_people} people, {g.n_movies} movies, sparsity {100 * s:.4f}%, "
            f"connected={connected}, loaded in {elapsed:.2f}s")


def test_ac03_movielens_width_sweep():
    if movielens_path() is None:
        _skip("AC03", "MovieLens-100k not present; run scripts/fetch_ml100k.py")
    g, _ = _ml100k()
    rows, elapsed = _ml_sweep()
    w_star = 0
    for row in rows:
        if row.components != 1:
            break
        w_star = row.w
    isolated_only = all(row.components == 1 + row.isolated_people
                        for row in rows if row.w <= 28)
    movies_attached = all(row.giant_movies == g.n_movies
                          for row in rows if row.w <= 29)
    ok = (elapsed < 600 and 15 <= w_star <= 19 and isolated_only and movies_attached)
    _report("AC03", ok,
            f"single component through w={w_star} (target 15..19), "
            f"splits are lone people through w=28: {isolated_only}, "
            f"all movies in giant through w=29: {movies_attached}, "
            f"sweep took {elapsed:.1f}s")


def test_ac04_movielens_recommender_lengths():
    if movielens_path() is None:
        _skip("AC04", "MovieLens-100k not present; run scripts/fetch_ml100k.py")
    rows, _ = _ml_sweep()
    single = [row for row in rows if row.components == 1]
    values = [row.l_r_measured for row in single]
    ok = bool(values) and all(v is not None and 1.0 <= v <= 2.0 for v in values)
    span = (f"{min(values):.4f}..{max(values):.4f}"
            if values and all(v is not None for v in values) else "undefined")
    _report("AC04", ok,
            f"measured recommender distance spans {span} over {len(single)} "
            "single-component widths (target within [1, 2])")


def test_ac05_movielens_prediction_underestimates():
    if movielens_path() is None:
        _skip("AC05", "MovieLens-100k not present; run scripts/fetch_ml100k.py")
    rows, _ = _ml_sweep()
    compared = [(row.w, row.l_pp_predicted, row.l_pp_measured)
                for row in rows
                if row.l_pp_predicted is not None and row.l_pp_measured is not None]
    ok = bool(compared) and all(p < m for _, p, m in compared)
    worst = max(compared, key=lambda t: t[1] - t[2], default=None)
    _report("AC05", ok,
            f"prediction stays below measurement at {len(compared)} widths; "
            f"closest at w={worst[0]}: {worst[1]:.4f} vs {worst[2]:.4f}" if compared
            else "no widths with both values defined")


def test_ac06_synthetic_sparsity_calibration():
    details = []
    ok = True
    targets = [(0.70, 1, 95.5, 1.0), (0.27, 15, 76.63, 2.0)]
    for eps, kappa, target, tol in targets:
        g = generate_power_law_bipartite(SynthConfig(epsilon=eps, seed=0))
        observed = 100 * sparsity(g)
        min_degree = int(g.person_degrees().min())
        clause = (min_degree == kappa and abs(observed - target) <= tol)
        ok = ok and clause
        details.append(f"eps={eps}: min degree {min_degree} (target {kappa}), "
                       f"sparsity {observed:.4f}% (target {target} +/- {tol})")
    _report("AC06", ok, "; ".join(details))


def test_ac07_randomized_oracle_suites():
    import test_jumps
    import test_metrics
    suites = [
        ("pair-overlap threshold vs brute force",
         test_jumps.test_hammock_equals_bruteforce_oracle),
        ("component partition vs union-find",
         test_metrics.test_partition_matches_union_find_oracle),
        ("person distances vs dense all-pairs",
         test_metrics.test_l_pp_matches_floyd_warshall_oracle),
        ("directed distances vs dense all-pairs",
         test_metrics.test_l_r_l_pm_match_floyd_warshall_oracle),
    ]
    failed = []
    for name, fn in suites:
        try:
            fn()
        except AssertionError:
            failed.append(name)
    _report("AC07", not failed,
            "4 randomized cross-checks, 120 seeds each, all agree"
            if not failed else f"disagreement in: {', '.join(failed)}")


def test_ac08_reference_graph_values():
    exact = all(
        predict_l_pp(UndirectedModelInput(
            DegreeDistribution({n - 1: 1.0}, n), n)) == 1.0
        for n in range(4, 51))
    try:
        predict_l_pp(UndirectedModelInput(DegreeDistribution({2: 1.0}, 24), 24))
        cycle_degenerate = False
    except DegenerateModelError:
        cycle_degenerate = True
    lattice = generate_wreath(12, 4)
    l_value = measure_l_pp(lattice).l_pp
    c_value = clustering_coefficient(lattice)
    ok = (exact and cycle_degenerate
          and abs(l_value - 21 / 11) <= 1e-9 and abs(c_value - 0.5) <= 1e-9)
    _report("AC08", ok,
            f"complete graphs predict exactly 1.0 for n=4..50: {exact}, "
            f"cycles rejected as degenerate: {cycle_degenerate}, "
            f"ring lattice L={l_value:.9f} (21/11), C={c_value:.9f} (0.5)")


def test_ac09_rewired_lattice_ratios():
    t0 = time.perf_counter()
    cfg = WreathConfig(n=1000, k=10, seed=0, mode=UNIFORM)
    points = small_world_curve(cfg, [0.0, 0.1], trials=20)
    elapsed = time.perf_counter() - t0
    base, probe = points
    ok = (base.l_ratio == 1.0 and base.c_ratio == 1.0
          and probe.l_ratio < 0.5 and probe.c_ratio > 0.8 and elapsed < 120)
    _report("AC09", ok,
            f"p=0.1: L ratio {probe.l_ratio:.6f} (target < 0.5), "
            f"C ratio {probe.c_ratio:.6f} (target > 0.8), {elapsed:.1f}s")


def test_ac10_eachmovie_shape():
    if eachmovie_path() is None:
        _skip("AC10", "EachMovie data not present ($RECGRAPH_DATA/eachmovie.csv)")
    g = load_ratings(eachmovie_path(), "generic_csv")
    order = reorder_hits_buffs(g)
    top = order.buff_rank[0]
    degree = int(dict(zip(g.people.tolist(), g.person_degrees().tolist()))[top])
    reach = bfs_reach_count(g, top, 2, mode="person")
    degrees = sorted(g.person_degrees().tolist(), reverse=True)
    fit = fit_power_law(degrees)
    ok = (degree == 1455 and reach == 62705
          and abs(fit.alpha - 1.3) <= 0.26
          and fit.tau is not None and abs(fit.tau - 10000) <= 2000)
    _report("AC10", ok,
            f"top person rates {degree} movies (target 1455), two-step reach "
            f"{reach} (target 62705), fit alpha={fit.alpha:.3f} tau={fit.tau:.0f}")
