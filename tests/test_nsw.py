import math
import random

import pytest

from recgraph import (
    DegenerateModelError,
    InvalidDistributionError,
    RecommenderGraph,
    apply_jump,
    joint_degree_distribution,
    predict_l_r,
)
from recgraph.metrics import DegreeDistribution, JointDegreeDistribution, degree_distribution
from recgraph.nsw import (
    ModelMoments,
    moments_directed,
    moments_undirected,
    predict_l_pm,
    predict_l_pp,
)

from oracles import random_social
from test_jumps import four_person_fixture


def four_person_joint():
    """Joint degree distribution over the 75 vertices of the dense fixture."""
    return JointDegreeDistribution({
        (1, 0): 23,
        (2, 0): 16,
        (3, 0): 13,
        (4, 0): 19,
        (2, 31): 1,
        (2, 65): 1,
        (3, 37): 1,
        (3, 47): 1,
    })


# -- moments -----------------------------------------------------------------


def test_moments_undirected():
    m = moments_undirected(DegreeDistribution({4: 5}))
    assert m.z1 == 4 and m.z2 == 12
    m = moments_undirected(DegreeDistribution({1: 5, 3: 5}))
    assert m.z1 == 2 and m.z2 == 3


def test_moments_undirected_handshake():
    for seed in range(30):
        gs = random_social(seed)
        if gs.edge_count == 0:
            continue
        dist = degree_distribution(gs)
        assert sum(k * c for k, c in dist.counts.items()) == 2 * gs.edge_count
        assert moments_undirected(dist).z1 == 2 * gs.edge_count / dist.n


def test_moments_directed_fixture():
    # arcs 31 + 65 + 37 + 47 = 180; j k sums 62 + 130 + 111 + 141 = 444
    m = moments_directed(four_person_joint())
    assert (m.z1, m.z2) == (180 / 75, 444 / 75)


def test_moments_directed_trivial():
    m = moments_directed(JointDegreeDistribution({(1, 1): 4}))
    assert m.z1 == 1 and m.z2 == 1


def test_moments_directed_rejects_imbalance():
    with pytest.raises(InvalidDistributionError):
        moments_directed(JointDegreeDistribution({(2, 1): 4}))
    # one arc too many among 2e9 + 1 vertices: a mean gap of 5e-10
    with pytest.raises(InvalidDistributionError):
        moments_directed(JointDegreeDistribution({(1, 0): 1, (0, 0): 2 * 10**9}))


# -- length predictions -----------------------------------------------------------


def test_undirected_fixture_value():
    dist = DegreeDistribution({1: 5, 3: 5})
    value = predict_l_pp(dist)
    assert abs(value - 2.906920898424682) < 1e-12


def test_complete_graph_collapses_to_one():
    for n in range(4, 40):
        dist = DegreeDistribution({n - 1: n})
        assert predict_l_pp(dist) == 1.0


def test_complete_graph_three_vertices_is_degenerate():
    # n=3 gives z2 = z1 = 2: the formula is 0/0 there
    dist = DegreeDistribution({2: 3})
    with pytest.raises(DegenerateModelError):
        predict_l_pp(dist)


def test_cycle_distribution_is_degenerate():
    dist = DegreeDistribution({2: 50})
    with pytest.raises(DegenerateModelError):
        predict_l_pp(dist)


def test_no_edges_is_degenerate():
    dist = DegreeDistribution({0: 5})
    with pytest.raises(DegenerateModelError):
        predict_l_pp(dist)


def test_directed_fixture_value():
    value = predict_l_r(four_person_joint())
    assert abs(value - 4.24) <= 0.01
    assert abs(value - 4.245871941059724) < 1e-12


def test_directed_fixture_from_constructed_graph():
    # the same joint distribution arises from an actual dataset
    g = four_person_fixture()
    gr = RecommenderGraph(g, apply_jump(g, 25))
    joint = joint_degree_distribution(gr)
    assert joint == four_person_joint()
    value = predict_l_r(joint)
    assert abs(value - 4.245871941059724) < 1e-12


def test_directed_degenerate():
    joint = JointDegreeDistribution({(1, 1): 6})
    with pytest.raises(DegenerateModelError):
        predict_l_r(joint)


def test_complete_digraph_collapses_to_one():
    for n in (4, 7, 12):
        joint = JointDegreeDistribution({(n - 1, n - 1): n})
        assert predict_l_r(joint) == 1.0


def test_input_validation():
    # one vertex has no pair to measure, whatever its moments say
    with pytest.raises(InvalidDistributionError):
        predict_l_pp(DegreeDistribution({3: 1}))
    with pytest.raises(InvalidDistributionError):
        predict_l_r(JointDegreeDistribution({(2, 2): 1}))


# -- person-movie mean ------------------------------------------------------------


def test_l_pm_trivial_mixtures():
    assert predict_l_pm(1.0, 1.0, 10, 5) == 1.0
    assert predict_l_pm(1.0, 1.0, 2, 1) == 1.0
    assert predict_l_pm(1.5, 1.0, 2, 1) == 2.0


def test_l_pm_inverts_the_mixture():
    rng = random.Random("mix")
    for _ in range(50):
        n_p = rng.randint(2, 500)
        n_m = rng.randint(1, 500)
        l_pp = rng.uniform(1.0, 6.0)
        l_pm = rng.uniform(1.0, 6.0)
        c_pp = n_p * (n_p - 1)
        c_pm = n_p * n_m
        l_r = (l_pp * c_pp + l_pm * c_pm) / (c_pp + c_pm)
        back = predict_l_pm(l_r, l_pp, n_p, n_m)
        assert abs(back - l_pm) < 1e-9


def test_l_pm_requires_movies_and_people():
    with pytest.raises(DegenerateModelError):
        predict_l_pm(1.5, 1.2, 5, 0)
    with pytest.raises(InvalidDistributionError):
        predict_l_pm(1.5, 1.2, 1, 5)


# -- structural properties ----------------------------------------------------------


def test_prediction_depends_only_on_moments():
    # same z1/z2 through different histograms gives the same length
    a = DegreeDistribution({1: 4, 3: 4})        # z1=2, z2=3
    b = DegreeDistribution({0: 1, 2: 6, 4: 1})  # same moments over the same 8 vertices
    assert moments_undirected(a) == moments_undirected(b) == ModelMoments(z1=2, z2=3)
    assert predict_l_pp(a) == predict_l_pp(b)


def test_prediction_agrees_with_neighborhood_growth():
    # the smallest l with 1 + sum_m z_m >= N never strays from ceil(prediction),
    # where z_m = (z2 / z1)**(m - 1) * z1 vertices sit exactly m steps out
    rng = random.Random("growth")
    checked = 0
    while checked < 60:
        z1 = rng.uniform(0.2, 8.0)
        z2 = z1 * rng.uniform(1.01, 4.0)
        n = rng.randint(3, 100000)
        formula = math.log(((n - 1) * (z2 - z1) + z1 * z1) / (z1 * z1)) / math.log(z2 / z1)
        total = 1.0
        steps = 0
        while total < n and steps < 10000:
            steps += 1
            total += (z2 / z1) ** (steps - 1) * z1
        assert abs(steps - math.ceil(formula)) <= 1
        checked += 1
