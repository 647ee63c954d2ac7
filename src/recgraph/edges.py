"""Graph primitives on integer edge arrays: CSR rows and component labels.

Vertices are the indices 0..n-1, and a graph is given by two equal-length
integer arrays of arc tails and heads (or of edge endpoints).  ``csr``
builds a movie's raters, G_r's out-arcs and a rewired graph's rows; the
other social graphs' rows come from their producers, each of which writes
them sorted (see ``jumps.SocialGraph``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Csr(NamedTuple):
    """Compressed sparse rows: row i lists ``indices[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray


def csr(n, tails, heads) -> Csr:
    """Rows 0..n-1 of the distinct arcs tails[i] -> heads[i].

    Heads may index another vertex set than the n tails do, as a movie's
    raters do.  One sort of the keys ``tail * span + head``, with span past
    every head and at least n, orders the arcs by tail and, within a row, by
    head; the row pointers are the running tail counts.
    """
    heads = np.asarray(heads, dtype=np.int64)
    span = max(n, int(heads.max(initial=0)) + 1)
    keys = np.sort(np.asarray(tails, dtype=np.int64) * span + heads)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return Csr(indptr, keys % span)


def component_labels(n, u, v) -> np.ndarray:
    """Component label of each vertex of the undirected graph with edges u[i]-v[i].

    Labels are numbered by smallest vertex: the component of vertex 0 is 0,
    the component of the smallest vertex outside it is 1, and so on.  Hook
    and compress (Shiloach & Vishkin 1982): across every edge that still
    joins two trees, the larger root hooks to the smallest root it meets;
    pointer jumping then flattens each tree onto its root.  A vertex hooks
    only to a smaller one, so each root is the smallest vertex of its tree.
    """
    parent = np.arange(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    while True:
        # every tree is flat here, so parent[] of an endpoint is its root
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            break
        # edges inside one tree stay inside it; drop them
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return np.cumsum(parent == np.arange(n))[parent] - 1
