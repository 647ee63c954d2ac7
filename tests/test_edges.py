import numpy as np
import pytest

from recgraph import generate_wreath
from recgraph.edges import component_labels, csr

from oracles import random_social, social_partition


def assert_numbered_by_smallest_vertex(labels):
    """Labels are 0..k-1 and label j first appears before label j + 1."""
    values, first = np.unique(labels, return_index=True)
    assert values.tolist() == list(range(len(values)))
    assert (np.diff(first) > 0).all()


def test_labels_match_union_find():
    for seed in range(300):
        gs = random_social(seed)
        labels = component_labels(gs.n, *gs.edges())
        assert labels.dtype == np.int64
        assert_numbered_by_smallest_vertex(labels)
        groups = {}
        for vertex, label in zip(gs.vertices.tolist(), labels.tolist()):
            groups.setdefault(label, set()).add(vertex)
        assert {frozenset(g) for g in groups.values()} == social_partition(gs)


N_PATH = 100_000


def _zigzag(n):
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return order


@pytest.mark.parametrize("order", [
    np.arange(N_PATH),
    np.arange(N_PATH)[::-1],
    _zigzag(N_PATH),
    np.random.default_rng(0).permutation(N_PATH),
], ids=["ascending", "descending", "zigzag", "random"])
def test_long_path_is_one_component(order):
    labels = component_labels(N_PATH, order[:-1], order[1:])
    assert not labels.any()


def test_shapes():
    ring = generate_wreath(50, 2)
    assert not component_labels(ring.n, *ring.edges()).any()
    leaves = np.arange(999)
    star = component_labels(1000, leaves, np.full(999, 999))  # the hub has the largest id
    assert not star.any()
    isolated = component_labels(7, [5, 1, 4], [1, 3, 6])
    assert isolated.tolist() == [0, 1, 2, 1, 3, 1, 3]
    assert component_labels(4, [], []).tolist() == [0, 1, 2, 3]
    assert component_labels(0, [], []).tolist() == []


def test_csr_rows_sorted():
    for seed in range(40):
        gs = random_social(seed)
        eu, ev = gs.edges()
        tails = np.concatenate([eu, eu])
        heads = np.concatenate([ev, (ev + 1) % gs.n])
        arcs = sorted(set(zip(tails.tolist(), heads.tolist())))
        tails, heads = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
        rows = csr(gs.n, tails, heads)
        assert len(rows.indptr) == gs.n + 1
        listed = [(i, int(j)) for i in range(gs.n)
                  for j in rows.indices[rows.indptr[i]:rows.indptr[i + 1]]]
        assert listed == arcs


def test_csr_heads_past_n():
    # two rows whose heads index a larger vertex set, as a movie's raters do
    rows = csr(2, [1, 0, 1, 0], [7, 5, 0, 9])
    assert rows.indptr.tolist() == [0, 2, 4]
    assert rows.indices.tolist() == [5, 9, 0, 7]
    assert csr(0, [], []).indptr.tolist() == [0]
