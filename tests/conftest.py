"""Shared fixtures: the three pedagogical example graphs, a seeded random
digraph suite, and dense oracle helpers used to derive expected values."""

import importlib.util
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hubauth import from_edges, spmv, topk
from hubauth.graph import GramOperator, degrees
from hubauth.quadrature import COSH_SQRT, BracketPool, NodeBounds, spectrum_interval
from hubauth.rankers import TIE_REL_TOL

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


def benchmark_zipf_offset_graph(n, d, seed):
    """``perfbench/graphs.py``'s zipf-offset digraph, the benchmark's own generator."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "graphs.py")
    spec = importlib.util.spec_from_file_location("perfbench_graphs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    src, dst = module.zipf_offset(n, d, seed)
    return from_edges(list(zip(src.tolist(), dst.tolist())), n=n)


def reference_top_k(g, k, m=None, side="hub", p_max=64, exclude_degree_one=False, tie_tol=TIE_REL_TOL):
    """``topk``'s selection under the plainest pruning policy, as a ``TopKReport``.

    Every eligible node with edges goes straight to order P_START, and each
    round then steps every survivor: no order-1 pass and no running cut.
    The cut after each round, the member refinement, the members (chosen
    once, from the final candidates) and the certificate follow the rules
    ``identify_top_k`` documents, with and without ``m``.
    """
    out_deg, in_deg = degrees(g)
    degree_one = (out_deg == 1) & (in_deg == 1)
    eligible = [v for v in range(g.n) if not (exclude_degree_one and degree_one[v])]
    relevant_deg = out_deg if side == "hub" else in_deg
    pool = BracketPool(GramOperator(g, side), spectrum_interval(g), COSH_SQRT)
    zero_degree = [v for v in eligible if relevant_deg[v] == 0]
    for v in zero_degree:
        pool.bounds[v] = NodeBounds(v, 1.0, 1.0, p=0, exact=True)

    def steppable(nodes):
        return [v for v in nodes if not pool.bounds[v].exact and pool.bounds[v].p < p_max]

    def slack(x):
        return tie_tol * max(1.0, abs(x))

    candidates, todo = eligible, [v for v in eligible if relevant_deg[v] != 0]
    while True:
        pool.advance(todo, p_max)
        kth = sorted((pool.bounds[v].lower for v in candidates), reverse=True)[k - 1]
        candidates = [v for v in candidates if pool.bounds[v].upper >= kth - slack(kth)]
        todo = steppable(candidates)
        if len(candidates) <= (k if m is None else m) or not todo:
            break
    # the certificate over the members chosen before the member refinement, which cannot change it
    first = topk._select_members(candidates, pool, k, tie_tol)[0]
    member_lower = min(pool.bounds[v].lower for v in first)
    outside = [pool.bounds[v].upper for v in eligible if v not in first]
    certified = all(member_lower >= upper - slack(member_lower) for upper in outside)

    def ordered(members):
        pairs = zip(members, members[1:])
        return all(pool.bounds[a].lower >= pool.bounds[b].upper - slack(pool.bounds[a].lower) for a, b in pairs)

    if m is None:  # step the k members until the k chosen from the candidates are ordered
        while not ordered(topk._select_members(candidates, pool, k, tie_tol)[0]) and steppable(candidates):
            pool.advance(steppable(candidates), p_max)
    members, ties_note = topk._select_members(candidates, pool, k, tie_tol)
    fully_ordered = m is None and ordered(members)
    return topk.TopKReport(
        k=k,
        side=side,
        members=members,
        certified=certified,
        fully_ordered=fully_ordered,
        bounds={v: pool.bounds[v] for v in eligible},
        candidates=candidates,
        excluded_zero_degree=len(zero_degree),
        excluded_degree_one=int(np.count_nonzero(degree_one)) if exclude_degree_one else 0,
        ties_note=ties_note,
        m=m,
        params={"p_max": p_max, "exclude_degree_one": exclude_degree_one},
    )


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
