import math
import random

import pytest

from recgraph import (
    DegenerateModelError,
    DegreeDistribution,
    DirectedModelInput,
    InvalidDistributionError,
    JointDegreeDistribution,
    JumpSpec,
    RecommenderGraph,
    UndirectedModelInput,
    apply_jump,
    degree_distribution,
    joint_degree_distribution,
    moments_directed,
    moments_undirected,
    neighbors_at_distance,
    predict_l_pm,
    predict_l_pp,
    predict_l_r,
)

from oracles import random_social
from test_jumps import four_person_fixture


def four_person_joint():
    """Joint degree distribution over the 75 vertices of the dense fixture."""
    probs = {
        (1, 0): 23 / 75,
        (2, 0): 16 / 75,
        (3, 0): 13 / 75,
        (4, 0): 19 / 75,
        (2, 31): 1 / 75,
        (2, 65): 1 / 75,
        (3, 37): 1 / 75,
        (3, 47): 1 / 75,
    }
    return JointDegreeDistribution(probs, 75)


# -- moments -----------------------------------------------------------------


def test_moments_undirected():
    m = moments_undirected(DegreeDistribution({4: 1.0}, 5))
    assert m.z1 == 4 and m.z2 == 12
    m = moments_undirected(DegreeDistribution({1: 0.5, 3: 0.5}, 10))
    assert m.z1 == 2 and m.z2 == 3


def test_moments_undirected_handshake():
    for seed in range(30):
        gs = random_social(seed)
        if gs.edge_count == 0:
            continue
        dist = degree_distribution(gs)
        m = moments_undirected(dist)
        assert round(m.z1 * dist.n) == 2 * gs.edge_count


def test_moments_directed_fixture():
    m = moments_directed(four_person_joint())
    assert abs(m.z1 - 2.4) < 1e-12
    assert abs(m.z2 - 5.92) < 1e-12


def test_moments_directed_trivial():
    m = moments_directed(JointDegreeDistribution({(1, 1): 1.0}, 4))
    assert m.z1 == 1 and m.z2 == 1


def test_moments_directed_rejects_imbalance():
    with pytest.raises(InvalidDistributionError):
        moments_directed(JointDegreeDistribution({(2, 1): 1.0}, 4))


# -- neighbors at distance -------------------------------------------------------


def test_neighbors_at_distance():
    from recgraph import ModelMoments
    m = ModelMoments(z1=2.0, z2=3.0)
    assert neighbors_at_distance(m, 1) == 2.0
    assert neighbors_at_distance(m, 3) == 4.5
    flat = ModelMoments(z1=2.0, z2=2.0)
    for step in (1, 2, 5):
        assert neighbors_at_distance(flat, step) == 2.0
    with pytest.raises(ValueError):
        neighbors_at_distance(m, 0)
    with pytest.raises(DegenerateModelError):
        neighbors_at_distance(ModelMoments(z1=0.0, z2=0.0), 1)


# -- length predictions -----------------------------------------------------------


def test_undirected_fixture_value():
    dist = DegreeDistribution({1: 0.5, 3: 0.5}, 10)
    value = predict_l_pp(UndirectedModelInput(dist, 10))
    assert abs(value - 2.906920898424682) < 1e-12


def test_complete_graph_collapses_to_one():
    for n in range(4, 40):
        dist = DegreeDistribution({n - 1: 1.0}, n)
        assert predict_l_pp(UndirectedModelInput(dist, n)) == 1.0


def test_complete_graph_three_vertices_is_degenerate():
    # n=3 gives z2 = z1 = 2: the formula is 0/0 there
    dist = DegreeDistribution({2: 1.0}, 3)
    with pytest.raises(DegenerateModelError):
        predict_l_pp(UndirectedModelInput(dist, 3))


def test_cycle_distribution_is_degenerate():
    dist = DegreeDistribution({2: 1.0}, 50)
    with pytest.raises(DegenerateModelError):
        predict_l_pp(UndirectedModelInput(dist, 50))


def test_no_edges_is_degenerate():
    dist = DegreeDistribution({0: 1.0}, 5)
    with pytest.raises(DegenerateModelError):
        predict_l_pp(UndirectedModelInput(dist, 5))


def test_directed_fixture_value():
    value = predict_l_r(DirectedModelInput(four_person_joint(), 4, 71))
    assert abs(value - 4.24) <= 0.01
    assert abs(value - 4.245871941059724) < 1e-12


def test_directed_fixture_from_constructed_graph():
    # the same joint distribution arises from an actual dataset
    g = four_person_fixture()
    gr = RecommenderGraph(g, apply_jump(g, JumpSpec.hammock(25)))
    joint = joint_degree_distribution(gr)
    assert joint.probabilities == four_person_joint().probabilities
    value = predict_l_r(DirectedModelInput(joint, g.n_people, g.n_movies))
    assert abs(value - 4.245871941059724) < 1e-12


def test_directed_degenerate():
    joint = JointDegreeDistribution({(1, 1): 1.0}, 6)
    with pytest.raises(DegenerateModelError):
        predict_l_r(DirectedModelInput(joint, 3, 3))


def test_complete_digraph_collapses_to_one():
    for n in (4, 7, 12):
        joint = JointDegreeDistribution({(n - 1, n - 1): 1.0}, n)
        assert predict_l_r(DirectedModelInput(joint, n, 0)) == 1.0


def test_input_validation():
    dist = DegreeDistribution({1: 1.0}, 2)
    with pytest.raises(InvalidDistributionError):
        UndirectedModelInput(dist, 1)
    joint = JointDegreeDistribution({(1, 1): 1.0}, 2)
    with pytest.raises(InvalidDistributionError):
        DirectedModelInput(joint, 1, 0)
    with pytest.raises(InvalidDistributionError):
        DirectedModelInput(joint, 0, 5)


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
    a = DegreeDistribution({1: 0.5, 3: 0.5}, 10)             # z1=2, z2=3
    b = DegreeDistribution({0: 0.125, 2: 0.75, 4: 0.125}, 10)  # same moments
    ma, mb = moments_undirected(a), moments_undirected(b)
    assert abs(ma.z1 - mb.z1) < 1e-12 and abs(ma.z2 - mb.z2) < 1e-12
    va = predict_l_pp(UndirectedModelInput(a, 10))
    vb = predict_l_pp(UndirectedModelInput(b, 10))
    assert abs(va - vb) < 1e-12


def test_prediction_agrees_with_neighborhood_growth():
    # the smallest l with 1 + sum_m z_m >= N never strays from ceil(prediction)
    rng = random.Random("growth")
    from recgraph import ModelMoments
    checked = 0
    while checked < 60:
        z1 = rng.uniform(0.2, 8.0)
        z2 = z1 * rng.uniform(1.01, 4.0)
        n = rng.randint(3, 100000)
        m = ModelMoments(z1=z1, z2=z2)
        formula = math.log(((n - 1) * (z2 - z1) + z1 * z1) / (z1 * z1)) / math.log(z2 / z1)
        total = 1.0
        steps = 0
        while total < n and steps < 10000:
            steps += 1
            total += neighbors_at_distance(m, steps)
        assert abs(steps - math.ceil(formula)) <= 1
        checked += 1
