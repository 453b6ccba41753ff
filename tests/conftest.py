"""Shared fixtures: the three pedagogical example graphs, a seeded random
digraph suite, and dense oracle helpers used to derive expected values."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hubauth import from_edges, spmv
from hubauth.quadrature import P_START

# three small example digraphs with known score tables (stored 0-based)
EX1_EDGES = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 1)]
EX2_EDGES = [(0, 2), (1, 0), (1, 3), (2, 1), (3, 1)]
EX3_EDGES = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (5, 2), (5, 3), (5, 4)]

RANDOM_SUITE_SEED = 987654321
RANDOM_SUITE_SIZE = 50


@pytest.fixture(scope="session")
def ex1():
    return from_edges(EX1_EDGES)


@pytest.fixture(scope="session")
def ex2():
    return from_edges(EX2_EDGES)


@pytest.fixture(scope="session")
def ex3():
    return from_edges(EX3_EDGES)


def path_graph(n):
    return from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def edgeless_graph(n):
    return from_edges([], n=n)


def zipf_offset_graph(n, d, seed, a=1.5):
    """Node u points at (u + Z) mod n for d distinct draws Z ~ Zipf(a), Z mod n != 0.

    Mostly local edges with a few long ones and in-degrees near d: the
    family the benchmark's top-k workload is drawn from.
    """
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        targets = set()
        while len(targets) < d:
            targets.add((u + (int(rng.zipf(a)) - 1) % (n - 1) + 1) % n)
        edges.extend((u, v) for v in sorted(targets))
    return from_edges(edges, n=n)


def both_sides(ranker, g, **params):
    """(hub, authority): a ranker's two one-side calls with the same params."""
    return ranker(g, "hub", **params), ranker(g, "authority", **params)


def order_three_first_round(pool, nodes, zero_degree, k, tie_tol):
    """``topk._first_round`` without the order-1 pass: every node straight to P_START."""
    pool.advance(nodes, P_START)


def random_digraph(rng):
    """One random simple digraph: n <= 40, edge probability 0.1 to 0.5."""
    n = int(rng.integers(2, 41))
    density = rng.uniform(0.1, 0.5)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    return from_edges(edges, n=n)


@pytest.fixture(scope="session")
def random_suite():
    rng = np.random.default_rng(RANDOM_SUITE_SEED)
    return [random_digraph(rng) for _ in range(RANDOM_SUITE_SIZE)]


# ---------------------------------------------------------------------------
# dense oracles (independent of the implementation paths they check)
# ---------------------------------------------------------------------------


def dense_adjacency(g):
    """A from the CSR arrays through SciPy, not through the graph's own toarray."""
    A = g.forward
    return scipy.sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).toarray()


def dense_bipartite(g):
    """Assemble [[0, A], [A^T, 0]] directly from the adjacency matrix."""
    A = dense_adjacency(g)
    n = g.n
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = A
    M[n:, :n] = A.T
    return M


def scipy_expm(M):
    """Third-party exponential of the 2n x 2n matrix, independent of the SVD path."""
    return scipy.linalg.expm(M)


def svd_block_oracle(g):
    """Blocks of the bipartite exponential straight from the SVD of A.

    Returns (hub_block, authority_block, cross_block) where the full
    exponential is [[hub, cross], [cross^T, authority]].
    """
    A = dense_adjacency(g)
    U, s, Vt = np.linalg.svd(A)
    hub = (U * np.cosh(s)) @ U.T
    authority = (Vt.T * np.cosh(s)) @ Vt
    cross = (U * np.sinh(s)) @ Vt
    return hub, authority, cross


def google_stationary_dense(g, alpha):
    """Stationary vector of the damped walk matrix by a dense linear solve."""
    A = dense_adjacency(g)
    n = g.n
    row_sums = A.sum(axis=1)
    P = np.where(row_sums[:, None] > 0, A / np.where(row_sums[:, None] > 0, row_sums[:, None], 1.0), 1.0 / n)
    G = alpha * P + (1 - alpha) / n
    # solve x^T G = x^T with sum(x) = 1
    M = G.T - np.eye(n)
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(M, rhs)


def permuted_graph(g, perm):
    """Relabel nodes by perm (perm[old] = new)."""
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges()]
    return from_edges(edges, n=g.n, weighted=g.weighted)


def pagerank_reference(g, alpha=0.85, tol=1e-12, max_iter=20000, reverse=False):
    """(scores, iterations) of PageRank's power iteration with A^T y taken by
    ``spmv`` on the rows of A^T: the reference ``rankers.pagerank``, which
    scatters from the rows of A instead, must equal bit for bit."""
    work = g.reversed() if reverse else g
    n = work.n
    out_strength = work.out_strengths()
    dangling = out_strength == 0.0
    inv_out = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_strength))
    x = np.ones(n) / n
    iterations = 0
    for _ in range(max_iter):
        contrib = work.reverse @ (x * inv_out)
        dangling_mass = float(x[dangling].sum())
        x_new = alpha * (contrib + dangling_mass / n) + (1.0 - alpha) / n
        x_new /= x_new.sum()
        iterations += 1
        delta = np.linalg.norm(x_new - x, 1)
        x = x_new
        if delta < tol:
            break
    return x, iterations
