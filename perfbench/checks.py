"""Output checks, one per workload: the CLI's output against the oracles.

Each check takes the bytes the CLI produced and the oracle arrays, and raises
``CheckFailed`` naming the first property that does not hold.  The checks
compare against values computed independently from the generated edges
(see ``graphs.py``), or against properties the method must have; never
against a saved copy of earlier output.
"""

import json

import numpy as np

import graphs

# exp-quad refines each bracket until width <= WIDTH_TOL * max(1, lower);
# this is the CLI's default for the method and it echoes it in "params".
WIDTH_TOL = 1e-8
# The CLI's PageRank stops once an L1 step is below 1e-12 (alpha 0.85), which
# bounds its L1 error, and so each node's, by 1e-12 * alpha / (1 - alpha).
# The oracle iterates to 1e-15.  PAGERANK_RTOL covers the 12 printed digits.
PAGERANK_ATOL = 1e-12 * 0.85 / 0.15
PAGERANK_RTOL = 1e-9
# compare prints tau to full double precision; both sides call the same
# kendalltau on the same tie-grouped ranks.
TAU_ATOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _check_ranked_rows(n, nodes, scores, ranks):
    """Rows are one per node, best-first, with competition ranks.

    A rank equal to the previous row's marks a tie group, whose ids must
    ascend.  A new group starts at rank = row position, and every score in
    it is at most every score of the group before.
    """
    _require(nodes.size == n, f"expected {n} rows, got {nodes.size}")
    _require(np.array_equal(np.sort(nodes), np.arange(n)), "rows do not list every node exactly once")
    _require(ranks[0] == 1, "first row is not rank 1")
    same = ranks[1:] == ranks[:-1]
    pos = np.arange(2, n + 1)
    _require(np.all(same | (ranks[1:] == pos)), "ranks are not competition ranks of the row order")
    _require(np.all(~same | (nodes[1:] > nodes[:-1])), "ids do not ascend inside a tie group")
    starts = np.concatenate([[0], np.nonzero(~same)[0] + 1])
    group_min = np.minimum.reduceat(scores, starts)
    group_max = np.maximum.reduceat(scores, starts)
    _require(np.all(group_min[:-1] >= group_max[1:]), "scores do not descend from one tie group to the next")


def check_quad_rank(out, oracle):
    """``rank --method exp-quad --json``: brackets contain the SVD oracle.

    ``oracle["scores"]`` is the exact score per node, ``oracle["err"]`` the
    absolute rounding scale of that oracle.
    """
    exact, err = oracle["scores"], float(oracle["err"])
    payload = json.loads(out)
    n = exact.size
    rows = payload["rows"]
    nodes = np.array([r["node"] for r in rows], dtype=np.int64)
    scores = np.array([r["score"] for r in rows], dtype=float)
    ranks = np.array([r["rank"] for r in rows], dtype=np.int64)
    _check_ranked_rows(n, nodes, scores, ranks)
    _require(payload["params"].get("width_tol") == WIDTH_TOL, "unexpected width_tol")
    _require(payload["diagnostics"]["unresolved"] == [], "some brackets did not reach width_tol")
    bounds = payload["diagnostics"]["bounds"]
    _require(len(bounds) == n, f"expected {n} brackets, got {len(bounds)}")
    lower = np.array([b["lower"] for b in bounds])
    upper = np.array([b["upper"] for b in bounds])
    outside = (exact < lower - err) | (exact > upper + err)
    _require(not outside.any(), f"bracket of node {np.argmax(outside)} misses the oracle")
    off = np.abs(scores - exact[nodes]) > WIDTH_TOL * np.maximum(1.0, exact[nodes]) + err
    _require(not off.any(), f"score of node {nodes[np.argmax(off)]} is off by more than width_tol")


def check_topk(out, oracle, k):
    """``topk --json``: certified, the oracle's top k, brackets contain it."""
    exact, err = oracle["scores"], float(oracle["err"])
    payload = json.loads(out)
    _require(payload["certified"] is True, "top-k not certified")
    members = payload["members"]
    _require(len(members) == k, f"expected {k} members, got {len(members)}")
    got = [m["node"] for m in members]
    order, _ = graphs.rank_order(exact)
    want = order[:k].tolist()
    _require(sorted(got) == sorted(want), f"members {got} differ from oracle top {k} {want}")
    if payload["fully_ordered"]:
        _require(got == want, f"member order {got} differs from oracle order {want}")
    _require([m["rank"] for m in members] == list(range(1, k + 1)), "member ranks are not 1..k")
    for m in members:
        x = exact[m["node"]]
        _require(m["lower"] - err <= x <= m["upper"] + err, f"bracket of node {m['node']} misses the oracle")


def check_compare(out, oracle, ks):
    """``compare --method exp-exact --method spectral --json``.

    Top members at every depth in ``ks`` must be the oracle's (ties by
    ascending id).  The deepest depth is n, so the full exp-exact and
    spectral orders are checked: each step down the order may rise in
    oracle score by at most the tie tolerance.  Kendall tau-b must match
    the one computed from the oracle rankings.
    """
    exp_exact, spectral = oracle["exp"], oracle["spectral"]
    payload = json.loads(out)
    _require(payload["method_a"] == "exp-exact/authority", "method_a is not exp-exact/authority")
    _require(payload["method_b"] == "spectral/authority", "method_b is not spectral/authority")
    orders = []
    for name, exact, side in (("exp-exact", exp_exact, "a"), ("spectral", spectral, "b")):
        order, ranks = graphs.rank_order(exact)
        orders.append(ranks)
        for k in ks:
            got = payload["top_members"][str(k)][side]
            if k < exact.size:
                _require(got == order[:k].tolist(), f"{name} top {k} differs from the oracle")
            else:
                got = np.asarray(got, dtype=np.int64)
                _require(np.array_equal(np.sort(got), np.arange(exact.size)), f"{name} order is not a permutation")
                s = exact[got]
                slack = 2 * graphs.TIE_REL_TOL * np.maximum(1.0, np.abs(s[:-1])) + float(oracle["err"])
                _require(np.all(s[1:] <= s[:-1] + slack), f"{name} order disagrees with the oracle scores")
    tau = graphs.kendall_tau_b(*orders)
    _require(abs(payload["kendall_tau_b"] - tau) <= TAU_ATOL, f"tau {payload['kendall_tau_b']} != oracle {tau}")


def check_pagerank(out, oracle):
    """``rank --method pagerank --precision full`` CSV: sums to 1, matches."""
    exact = oracle["scores"]
    lines = out.decode("ascii").splitlines()
    _require(lines and lines[0] == "node,score,rank", "missing CSV header")
    body = np.array([ln.split(",") for ln in lines[1:]]) if len(lines) > 1 else np.empty((0, 3))
    _require(body.ndim == 2 and body.shape[1] == 3, "CSV rows are not node,score,rank")
    nodes = body[:, 0].astype(np.int64)
    scores = body[:, 1].astype(float)
    ranks = body[:, 2].astype(np.int64)
    _check_ranked_rows(exact.size, nodes, scores, ranks)
    _require(abs(scores.sum() - 1.0) <= 1e-9, f"scores sum to {scores.sum()!r}, not 1")
    off = np.abs(scores - exact[nodes]) > PAGERANK_ATOL + PAGERANK_RTOL * exact[nodes]
    _require(not off.any(), f"score of node {nodes[np.argmax(off)]} differs from the oracle PageRank")
