"""Deterministic digraph generators and the oracles the benchmark checks against.

Everything here uses numpy/scipy only and never imports ``hubauth``: the
oracles must stay independent of the code they check.  Edge lists are written
0-based as ``u v`` lines, one distinct edge per line, no self-loops.
"""

import numpy as np
import scipy.sparse as sp
from scipy.stats import kendalltau

# Scores closer than this (relative to max(1, score)) form one tie group.
# The CLI documents the same rule; the oracle ranking reimplements it.
TIE_REL_TOL = 1e-8


def zipf_offset(n, d, seed, a=1.5):
    """Node u points at (u + Z) mod n for d distinct draws Z ~ Zipf(a).

    Offsets are heavy-tailed, so most edges are local and a few span the
    ring.  In-degrees stay near d, which keeps the top scores close together
    and the top-k pruning non-trivial.
    """
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), d)
    dst = np.empty_like(src)
    todo = np.arange(src.size)
    keys = np.full(src.size, -1, dtype=np.int64)
    while todo.size:
        # offsets in [1, n-1]: no self-loops; redraw duplicates of one source
        off = (rng.zipf(a, size=todo.size) - 1) % (n - 1) + 1
        dst[todo] = (src[todo] + off) % n
        keys[todo] = src[todo] * n + dst[todo]
        _, first = np.unique(keys, return_index=True)
        dup = np.ones(src.size, dtype=bool)
        dup[first] = False
        todo = np.nonzero(dup)[0]
        keys[todo] = -1 - todo
    order = np.argsort(keys, kind="stable")
    return src[order], dst[order]


def erdos_renyi(n, m, seed):
    """m distinct directed edges drawn uniformly among the n(n-1) non-loops."""
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = rng.integers(0, n * (n - 1), size=m - keys.size + m // 64 + 16)
        keys = np.unique(np.concatenate([keys, draw]))
    keys = np.sort(rng.permutation(keys)[:m])
    src, rest = np.divmod(keys, n - 1)
    dst = rest + (rest >= src)  # skip the diagonal
    return src, dst


def write_edges(path, src, dst):
    lines = np.char.add(np.char.add(src.astype(str), " "), dst.astype(str))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines.tolist()))
        fh.write("\n")


def adjacency(n, src, dst):
    return sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))


def exp_scores(n, src, dst):
    """Diagonal of e^{[[0,A],[A^T,0]]} from the SVD of A: (hub, authority).

    hub_i = sum_k cosh(s_k) U_ik^2 and authority_i = sum_k cosh(s_k) V_ik^2.
    Also returns the absolute rounding scale of those sums, 64 n ulps of
    the largest term cosh(s_1).
    """
    A = adjacency(n, src, dst).toarray()
    U, s, Vt = np.linalg.svd(A)
    c = np.cosh(s)
    hub = (U**2) @ c
    authority = (Vt.T**2) @ c
    return hub, authority, 64 * np.finfo(float).eps * n * float(c[0])


def spectral_scores(n, src, dst):
    """Leading-term spectral scores 0.5 e^{s_1} U_1^2 and 0.5 e^{s_1} V_1^2.

    When s_1 is repeated (within TIE_REL_TOL), the scores average over its
    singular vectors, which does not depend on the basis LAPACK picks.
    """
    A = adjacency(n, src, dst).toarray()
    U, s, Vt = np.linalg.svd(A)
    size = 1
    while size < s.size and s[size - 1] - s[size] <= TIE_REL_TOL * max(1.0, s[0]):
        size += 1
    w = 0.5 * np.exp(s[0]) / size
    return w * (U[:, :size] ** 2).sum(axis=1), w * (Vt[:size] ** 2).sum(axis=0)


def pagerank(n, src, dst, alpha=0.85, tol=1e-15, max_iter=10000):
    """Damped random-walk stationary vector by power iteration on scipy.sparse.

    Dangling nodes spread their mass uniformly.  These are the authority-side
    scores; the hub side would walk the reversed edges.
    """
    A = adjacency(n, src, dst)
    out = np.asarray(A.sum(axis=1)).ravel()
    dangling = out == 0
    P = sp.diags(np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out))) @ A
    PT = P.T.tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = alpha * (PT @ x + x[dangling].sum() / n) + (1.0 - alpha) / n
        y /= y.sum()
        if np.abs(y - x).sum() < tol:
            return y
        x = y
    raise RuntimeError("oracle PageRank did not converge")


def rank_order(scores, tie_tol=TIE_REL_TOL):
    """Best-first order with tie groups sorted by id, plus competition ranks.

    A node joins the previous node's group when the score gap is at most
    tie_tol * max(1, |previous score|).
    """
    order = np.lexsort((np.arange(scores.size), -scores))
    s = scores[order]
    new_group = np.ones(s.size, dtype=bool)
    new_group[1:] = (s[:-1] - s[1:]) > tie_tol * np.maximum(1.0, np.abs(s[:-1]))
    group = np.cumsum(new_group) - 1
    starts = np.nonzero(new_group)[0]
    ranks = np.empty(s.size, dtype=np.int64)
    ranks[order] = starts[group] + 1
    # ids ascending inside each group
    flat = order[np.lexsort((order, group))]
    return flat, ranks


def kendall_tau_b(ranks_a, ranks_b):
    if np.array_equal(ranks_a, ranks_b):
        return 1.0
    tau = float(kendalltau(ranks_a, ranks_b)[0])
    return 0.0 if np.isnan(tau) else tau
