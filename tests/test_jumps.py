import pytest

from recgraph import (
    BipartiteRatings,
    GraphMismatchError,
    JumpSpec,
    RecommenderGraph,
    SocialGraph,
    UnknownNodeError,
    apply_jump,
    co_rating_pairs,
    common_artifacts_count,
)
from recgraph.jumps import HAMMOCK, SKIP

from oracles import hammock_edges_bruteforce, random_ratings


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


# -- JumpSpec -------------------------------------------------------------------


def test_spec_validation():
    assert JumpSpec.skip().width == 1
    assert JumpSpec.hammock(3).width == 3
    with pytest.raises(ValueError):
        JumpSpec(kind=HAMMOCK, width=0)
    with pytest.raises(ValueError):
        JumpSpec(kind=SKIP, width=2)
    with pytest.raises(ValueError):
        JumpSpec(kind="teleport", width=1)
    with pytest.raises(ValueError):
        JumpSpec(kind=HAMMOCK, width=1.5)


def test_skip_equals_hammock_one():
    for seed in range(25):
        g = random_ratings(seed)
        a = apply_jump(g, JumpSpec.skip())
        b = apply_jump(g, JumpSpec.hammock(1))
        assert set(a.edge_ids()) == set(b.edge_ids())


# -- SocialGraph ------------------------------------------------------------------


def test_social_graph_basics():
    gs = SocialGraph([1, 2, 3], [(1, 2), (2, 1), (2, 3)])
    assert gs.n == 3
    assert gs.edge_count == 2  # (1,2) deduplicated across orientations
    assert gs.neighbors(2) == frozenset({1, 3})
    assert gs.has_edge(1, 2) and gs.has_edge(2, 1)
    assert not gs.has_edge(1, 3)
    assert gs.degree_of(2) == 2


def test_social_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        SocialGraph([1, 2], [(1, 1)])
    with pytest.raises(UnknownNodeError):
        SocialGraph([1, 2], [(1, 9)])


def test_subgraph_is_induced():
    gs = SocialGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    sub = gs.subgraph([1, 2, 3])
    assert set(sub.edge_ids()) == {(1, 2), (2, 3)}
    assert sub.n == 3


# -- hammock correctness ------------------------------------------------------------


def test_threshold_semantics():
    g = BipartiteRatings([(1, 10), (1, 11), (1, 12), (2, 10), (2, 11), (2, 12)])
    for w in (1, 2, 3):
        gs = apply_jump(g, JumpSpec.hammock(w))
        assert gs.has_edge(1, 2)
    gs4 = apply_jump(g, JumpSpec.hammock(4))
    assert not gs4.has_edge(1, 2)
    assert gs4.n == 2  # isolated people stay


def test_common_artifacts_count():
    g = BipartiteRatings([(1, 10), (1, 11), (1, 12), (2, 11), (2, 12), (2, 13)])
    assert common_artifacts_count(g, 1, 2) == 2
    with pytest.raises(UnknownNodeError):
        common_artifacts_count(g, 1, 99)


def test_common_artifacts_matches_bruteforce():
    for seed in range(30):
        g = random_ratings(seed, max_people=10, max_movies=10)
        people = [int(p) for p in g.people]
        for i, u in enumerate(people):
            for v in people[i + 1:]:
                expected = len(g.movies_of(u) & g.movies_of(v))
                assert common_artifacts_count(g, u, v) == expected


def test_hammock_equals_bruteforce_oracle():
    # the heart of the jump module: 120 random datasets, widths 1..5
    for seed in range(120):
        g = random_ratings(seed, max_people=30, max_movies=25)
        for w in (1, 2, 3, 5):
            gs = apply_jump(g, JumpSpec.hammock(w))
            assert set(gs.edge_ids()) == hammock_edges_bruteforce(g, w), (
                f"seed {seed} width {w}")


def test_hammock_monotone_in_width():
    for seed in range(40):
        g = random_ratings(seed)
        prev = None
        for w in range(1, 6):
            edges = set(apply_jump(g, JumpSpec.hammock(w)).edge_ids())
            if prev is not None:
                assert edges <= prev
            prev = edges


def test_precomputed_pairs_match():
    for seed in range(20):
        g = random_ratings(seed)
        pairs = co_rating_pairs(g)
        for w in (1, 2, 3):
            spec = JumpSpec.hammock(w)
            assert (set(apply_jump(g, spec, pairs).edge_ids())
                    == set(apply_jump(g, spec).edge_ids()))


def test_two_step_reachability_is_composed_jumps():
    # distance 2 in the social graph means exactly: no direct edge, but a
    # shared neighbor exists
    for seed in range(25):
        g = random_ratings(seed)
        gs = apply_jump(g, JumpSpec.skip())
        people = [int(p) for p in g.people]
        for i, u in enumerate(people):
            for v in people[i + 1:]:
                via = any(gs.has_edge(u, x) and gs.has_edge(x, v)
                          for x in people if x not in (u, v))
                two_apart = not gs.has_edge(u, v) and via
                if two_apart:
                    assert gs.neighbors(u) & gs.neighbors(v)


def test_four_person_fixture_edges():
    g = four_person_fixture()
    gs = apply_jump(g, JumpSpec.hammock(25))
    assert set(gs.edge_ids()) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    assert gs.degree_of(1) == 3
    assert gs.degree_of(4) == 2


# -- recommender graph ---------------------------------------------------------------


def test_arc_counts():
    g = BipartiteRatings([(1, 10), (2, 10)])
    gs = apply_jump(g, JumpSpec.skip())
    gr = RecommenderGraph(g, gs)
    assert gr.person_arc_count == 2
    assert gr.movie_arc_count == 2


def test_arc_counts_random():
    for seed in range(25):
        g = random_ratings(seed)
        gs = apply_jump(g, JumpSpec.hammock(2))
        gr = RecommenderGraph(g, gs)
        assert gr.person_arc_count == 2 * gs.edge_count
        assert gr.movie_arc_count == g.edge_count


def test_movies_are_sinks_and_person_arcs_paired():
    for seed in range(15):
        g = random_ratings(seed)
        gr = RecommenderGraph(g, apply_jump(g, JumpSpec.skip()))
        out = gr.out_csr()
        n_people = gr.n_people
        assert out.shape == (n_people + gr.n_movies,) * 2
        assert out[n_people:].nnz == 0  # nothing ever leaves a movie
        person_block = out[:n_people, :n_people]
        assert person_block.nnz == gr.person_arc_count
        assert (person_block != person_block.T).nnz == 0


def test_mismatched_social_graph_rejected():
    g = BipartiteRatings([(1, 10), (2, 10)])
    other = SocialGraph([1, 2, 3], [(1, 2)])
    with pytest.raises(GraphMismatchError):
        RecommenderGraph(g, other)
