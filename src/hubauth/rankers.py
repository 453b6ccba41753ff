"""Hub/authority scoring schemes behind a uniform ScoreVector interface.

Every ranker returns nonnegative per-node scores plus diagnostics; the
tie-aware RankTable derived from a ScoreVector is what rankings and
comparisons operate on.  Hub scores always live on the original node ids;
the bipartite doubling is internal.

Each ranker imports what it needs of ``linalg`` and ``quadrature`` when it
runs, so degree and PageRank rankings load neither module.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, ParameterError, SizeLimitError
from .graph import GramOperator, degrees, spmv

__all__ = [
    "TIE_REL_TOL",
    "ScoreVector",
    "RankTable",
    "rank_table",
    "hits",
    "exp_centrality_exact",
    "exp_centrality_quadrature",
    "truncated_spectral_scores",
    "katz_row_col",
    "resolvent_bipartite",
    "expA_row_col_sums",
    "pagerank",
    "degree_scores",
    "communicability",
]

# Scores closer than this (relative to max(1, score)) are treated as tied.
TIE_REL_TOL = 1e-8


@dataclass
class ScoreVector:
    """Per-node scores for one method and one side of the hub/authority pair."""

    method: str
    side: str
    scores: np.ndarray
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if not np.all(np.isfinite(self.scores)):
            raise ConvergenceError(f"{self.method}/{self.side}: non-finite scores (floating-point overflow)")


@dataclass
class RankTable:
    """Descending-score node ordering with explicit tie groups.

    ``order`` lists node ids best-first (ids ascending inside a tie group);
    ``ranks[v]`` is the competition rank of node v (tied nodes share the
    rank of their group's first slot).
    """

    order: list
    ranks: np.ndarray
    groups: list
    source: ScoreVector

    def same_ranking(self, other):
        return np.array_equal(self.ranks, other.ranks)

    def top(self, k):
        return self.order[:k]


def rank_table(sv, tie_tol=TIE_REL_TOL):
    """Build the tie-aware ranking induced by a score vector.

    Nodes are sorted by descending score, ids ascending on equal scores.  A
    node joins its predecessor's tie group when the gap between them is at
    most ``tie_tol`` (>= 0) ``* max(1, |predecessor's score|)``, so ties chain.
    """
    if not tie_tol >= 0:
        raise ParameterError(f"tie_tol must be >= 0, got {tie_tol}")
    scores = sv.scores
    n = len(scores)
    # equal scores may come out in any order: they share a tie group, and the
    # groups are put in id order below
    by_score = np.argsort(-scores)
    s = scores[by_score]
    heads = np.ones(n, dtype=bool)
    heads[1:] = s[:-1] - s[1:] > tie_tol * np.maximum(1.0, np.abs(s[:-1]))
    group = np.cumsum(heads) - 1
    starts = np.flatnonzero(heads)
    flat = np.sort(group * n + by_score) % n  # by group, then id; n^2 < 2^62 fits int64
    ranks = np.zeros(n, dtype=int)
    ranks[flat] = starts[group] + 1
    order = flat.tolist()
    bounds = starts.tolist() + [n]
    groups = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    return RankTable(order=order, ranks=ranks, groups=groups, source=sv)


def _sum_normalize(v):
    s = v.sum()
    return v / s if s > 0 else v


def hits(g, tol=1e-10, max_iter=1000, init=None):
    """Kleinberg's alternating iteration for hub and authority weights.

    Starting from a constant authority vector (or ``init``), repeat
    y <- A x and x <- A^T y with 2-norm normalization after each half-step
    until the max-norm change of both iterates drops below ``tol``.
    Reported scores are rescaled to sum 1.  When the dominant eigenvalue of
    A^T A is (near-)degenerate the result depends on the start vector; the
    ``degenerate`` diagnostic flags that condition.
    """
    from .linalg import power_singular_pair

    if g.m < 1:
        raise ParameterError("HITS requires at least one edge")
    n = g.n
    if init is None:
        x = np.ones(n) / math.sqrt(n)
    else:
        x = np.asarray(init, dtype=float)
        if x.shape != (n,) or np.any(x < 0) or not x.any():
            raise ParameterError("init must be a nonnegative nonzero vector of length n")
        x = x / np.linalg.norm(x)
    y = np.zeros(n)
    converged = False
    iterations = 0
    change = math.inf
    for _ in range(max_iter):
        y_new = spmv(g, x)
        ny = np.linalg.norm(y_new)
        if ny == 0.0:
            break
        y_new /= ny
        x_new = spmv(g, y_new, transpose=True)
        nx = np.linalg.norm(x_new)
        if nx == 0.0:
            break
        x_new /= nx
        iterations += 1
        change = max(
            np.linalg.norm(x_new - x, np.inf),
            np.linalg.norm(y_new - y, np.inf),
        )
        x, y = x_new, y_new
        if change < tol:
            converged = True
            break
    est = power_singular_pair(g, tol=min(tol, 1e-10))
    degenerate = est.sigma1 - est.sigma2 < max(tol, 1e-12) * est.sigma1 if est.sigma1 > 0 else True
    diag = {
        "iterations": iterations,
        "residual": change,
        "converged": converged,
        "degenerate": degenerate,
        "sigma1": est.sigma1,
        "sigma2": est.sigma2,
    }
    params = {"tol": tol, "max_iter": max_iter}
    hub = ScoreVector("hits", "hub", _sum_normalize(y), params, dict(diag))
    authority = ScoreVector("hits", "authority", _sum_normalize(x), params, dict(diag))
    return hub, authority


def exp_centrality_exact(g, side=None):
    """Exponential hub/authority centrality: the diagonal of e^{[[0,A],[A^T,0]]}.

    The hub block is cosh(sqrt(A A^T)) and the authority block
    cosh(sqrt(A^T A)); with a side's Gram matrix Q diag(lambda) Q^T
    (``dense_gram``), node i scores sum_k cosh(sqrt(lambda_k)) Q_ik^2.
    Returns (hub, authority), or with ``side`` set only that side's
    ScoreVector, computed without factoring the other Gram matrix.
    """
    from .linalg import DENSE_DIM_LIMIT, dense_gram
    from .quadrature import COSH_SQRT

    if 2 * g.n > DENSE_DIM_LIMIT:
        raise SizeLimitError(f"dense path limited to 2n <= {DENSE_DIM_LIMIT}")
    vectors = []
    for name in _sides(side):
        lam, Q = dense_gram(g, name)
        with np.errstate(invalid="ignore"):  # an overflowed cosh times 0; ScoreVector reports it
            scores = (Q**2) @ COSH_SQRT(lam)
        vectors.append(ScoreVector("exp-exact", name, scores))
    return tuple(vectors) if side is None else vectors[0]


def _sides(side):
    if side is None:
        return ("hub", "authority")
    if side not in ("hub", "authority"):
        raise ParameterError(f"side must be 'hub' or 'authority', got '{side}'")
    return (side,)


def _refine_sides(g, iv, f, p_max, width_tol, sides):
    """Brackets for every node on the given sides: one (bounds, unresolved) pair per side.

    Hub i is e_i^T f(A A^T) e_i and authority i is e_i^T f(A^T A) e_i, with
    f the Gram form of the kernel and brackets on ``iv`` = [0, b^2];
    brackets carry the bipartite index of their node (i for hub i, n + i
    for authority i).  Nodes are refined in blocks of ``block_width(n)``
    start vectors; a node leaves its block once its bracket is exact,
    narrower than ``width_tol`` relative to the score, or at ``p_max``, and
    each block's run is dropped before the next block starts.
    """
    from .quadrature import BracketRun, block_width

    n = g.n
    width = block_width(n)

    def settled(b):
        return b.exact or b.width <= width_tol * max(1.0, abs(b.lower))

    results = []
    for side in sides:
        op = GramOperator(g, side)
        bounds = [None] * n
        for first in range(0, n, width):
            block = BracketRun(op, np.arange(first, min(first + width, n)), iv, f)
            while True:
                brackets = block.refine(p_max)
                for b in brackets:
                    bounds[b.node] = b
                if not block.refinable(p_max):
                    break
                block.retain([j for j, b in enumerate(brackets) if not settled(b)])
                if not block.run.columns:
                    break
        unresolved = [i for i, b in enumerate(bounds) if not settled(b)]
        if side == "authority":
            bounds = [replace(b, node=n + b.node) for b in bounds]
        results.append((bounds, unresolved))
    return results


def exp_centrality_quadrature(g, p_max=40, width_tol=1e-8, side=None):
    """Exponential centrality scored by certified Gauss-Radau brackets.

    The hub block of e^B is cosh(sqrt(A A^T)) and the authority block
    cosh(sqrt(A^T A)), so each score is a Radau integral over a Gram matrix.
    Per node the bracket is refined (orders p = 3, 5, ..., where one order
    costs one product with A and one with A^T) until its width falls below
    ``width_tol`` relative to the score or ``p_max`` is reached; the
    reported score is the bracket midpoint and the bracket itself lands in
    the diagnostics.  Nodes whose brackets stay wide are flagged, never
    dropped.  Returns (hub, authority), or with ``side`` set only that
    side's ScoreVector, computed without touching the other half.
    """
    from .quadrature import COSH_SQRT, check_p_max, spectrum_interval

    sides = _sides(side)
    check_p_max(p_max)
    iv = spectrum_interval(g)
    params = {"p_max": p_max, "width_tol": width_tol}
    vectors = []
    for name, (bounds, unresolved) in zip(sides, _refine_sides(g, iv, COSH_SQRT, p_max, width_tol, sides)):
        diag = {"bounds": bounds, "unresolved": unresolved}
        vectors.append(ScoreVector("exp-quad", name, np.array([b.midpoint for b in bounds]), params, diag))
    return tuple(vectors) if side is None else vectors[0]


def truncated_spectral_scores(g, k, tol=TIE_REL_TOL, side=None):
    """Centrality from the k leading eigenpairs of the bipartite operator.

    The bipartite eigenvalues are the signed singular values of A; summing
    e^lambda * (eigvec entries)^2 over the k largest interpolates between
    HITS (k=1, squared dominant singular vectors) and the full exponential
    centrality (k=2n).  When the cut falls inside a group of (numerically)
    equal eigenvalues, the whole group enters with fractional weight: the
    group projector is basis-independent, so the scores stay deterministic
    and permutation-equivariant even for degenerate spectra (which are
    still flagged).

    Up to DENSE_DIM_LIMIT nodes a side's singular vectors are the
    eigenvectors q_t of its Gram matrix (``dense_gram``), with sigma_t =
    ||A q_t|| for authorities and ||A^T q_t|| for hubs: sqrt(lambda_t) is
    only good to about sqrt(n eps) sigma_1 near 0, coarser than the group
    rule.  Returns (hub, authority), or with ``side`` set only that side's
    ScoreVector, computed without factoring the other Gram matrix.  The
    diagnostics (``eigenvalues``, ``degenerate``, ``cut_ambiguous``) are
    per side: each comes from that side's own sigma_t, so the hub and
    authority copies need not be identical.
    """
    from .linalg import DENSE_DIM_LIMIT, _ramp_start, dense_gram

    n = g.n
    if not 1 <= k <= 2 * n:
        raise ParameterError(f"k must be in [1, {2 * n}], got {k}")
    sides = _sides(side)
    if n <= DENSE_DIM_LIMIT:
        triplets = []
        for name in sides:
            Q = dense_gram(g, name)[1]
            s = np.linalg.norm((g.reverse if name == "hub" else g.forward) @ Q, axis=0)
            desc = np.argsort(-s, kind="stable")
            triplets.append((s[desc], Q[:, desc]))
    else:
        if k >= n - 8:
            raise SizeLimitError("full singular spectrum of a large graph is out of reach")
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        A = sp.csr_matrix((g.forward.data, g.forward.indices, g.forward.indptr), shape=g.forward.shape)
        try:
            # a fixed start vector: ARPACK's default is random, and so would the scores be
            U, s, Vt = spla.svds(A, k=min(k + 8, n - 1), v0=_ramp_start(n))
        except Exception as exc:  # pragma: no cover - solver specific
            raise ConvergenceError(f"singular-triplet solver failed: {exc}") from exc
        desc = np.argsort(-s)
        triplets = [(s[desc], U[:, desc] if name == "hub" else Vt[desc].T) for name in sides]
    vectors = [_spectral_side(name, s, Q, k, tol) for name, (s, Q) in zip(sides, triplets)]
    return tuple(vectors) if side is None else vectors[0]


def _spectral_side(side, s, vectors, k, tol):
    """One side's truncated spectral scores from sigma descending and that side's singular vectors.

    With all n singular values the bipartite spectrum is +-sigma; with fewer
    (the sparse solver's leading triplets) only the leading +sigma are known.
    """
    n = vectors.shape[0]
    lams = np.concatenate([s, -s[::-1]]) if len(s) == n else s
    group_tol = tol * max(1.0, float(s[0]) if len(s) else 1.0)
    weights = np.zeros(len(lams))
    cut_ambiguous = False
    filled = 0
    t = 0
    while filled < k:
        t_end = t + 1
        while t_end < len(lams) and abs(lams[t_end] - lams[t_end - 1]) <= group_tol:
            t_end += 1
        if t_end == len(lams) and len(lams) < 2 * n:
            raise ConvergenceError(
                "eigenvalue group at the truncation cut extends beyond the computed triplets"
            )
        size = t_end - t
        slots = min(k - filled, size)
        weights[t:t_end] = slots / size
        cut_ambiguous = cut_ambiguous or slots < size
        filled += slots
        t = t_end
    # bipartite term t has the singular vector of sigma_t (t < n) or of sigma_{2n-1-t} (-sigma)
    terms = np.arange(len(lams))
    with np.errstate(over="ignore", invalid="ignore"):  # ScoreVector reports the overflow
        coef = np.bincount(np.minimum(terms, 2 * n - 1 - terms), weights=0.5 * weights * np.exp(lams), minlength=len(s))
        scores = (vectors**2) @ coef
    degenerate = len(s) > 1 and s[0] - s[1] < tol * max(s[0], 1e-300)
    diag = {
        "degenerate": bool(degenerate),
        "cut_ambiguous": bool(cut_ambiguous),
        "eigenvalues": lams[: min(k, len(lams))].tolist(),
    }
    return ScoreVector("spectral", side, scores, {"k": k}, diag)


def katz_row_col(g, c=None, tol=1e-10, max_iter=200000):
    """Katz hub/authority scores from (I - cA) y = 1 and (I - cA^T) x = 1.

    Solved by the fixed-point iteration y <- 1 + cAy (a Neumann series);
    converges for 0 < c < 1/rho(A).  Default c = 1/(rho(A) + 0.1).
    """
    from .linalg import spectral_radius

    rad = spectral_radius(g)
    if c is None:
        c = 1.0 / (rad.value + 0.1)
    if c <= 0 or (rad.value > 0 and c >= 1.0 / rad.value):
        raise ParameterError(
            f"katz parameter must satisfy 0 < c < 1/rho(A) ~= {1.0 / rad.value if rad.value > 0 else math.inf:.6g}, got {c}"
        )

    def solve(transpose):
        ones = np.ones(g.n)
        y = ones.copy()
        for _ in range(max_iter):
            y_new = ones + c * spmv(g, y, transpose=transpose)
            resid = np.linalg.norm(y_new - y, np.inf)
            y = y_new
            if not np.all(np.isfinite(y)) or np.linalg.norm(y, np.inf) > 1e150:
                raise ConvergenceError("katz iteration diverged; parameter c too large")
            if resid <= tol * max(np.linalg.norm(y, np.inf), 1.0):
                return y
        raise ConvergenceError("katz iteration did not converge")

    hub_scores = solve(False)
    auth_scores = solve(True)
    params = {"c": c, "tol": tol}
    diag = {"rho_estimate": rad.value, "rho_converged": rad.converged}
    return (
        ScoreVector("katz", "hub", hub_scores, params, dict(diag)),
        ScoreVector("katz", "authority", auth_scores, params, dict(diag)),
    )


def resolvent_bipartite(g, c=None, mode="auto", p_max=40, width_tol=1e-9, side=None):
    """Diagonals of (I - c^2 A A^T)^{-1} (hubs) and (I - c^2 A^T A)^{-1} (authorities).

    These are the diagonal blocks of the bipartite resolvent (I - c op)^{-1},
    so both paths apply the kernel 1/(1 - c^2 x) to the Gram matrices: the
    quadrature path through the Radau machinery (orders up to ``p_max``),
    the dense path through their eigendecompositions.  Requires
    0 < c < 1/sigma_1.  Returns (hub, authority), or with ``side`` set only
    that side's ScoreVector (either path then skips the other half).
    """
    from .linalg import DENSE_DIM_LIMIT, dense_gram, leading_singular_pair
    from .quadrature import ResolventKernel, check_p_max, spectrum_interval

    n = g.n
    sides = _sides(side)
    est = leading_singular_pair(g)
    if c is None:
        c = 0.9 / est.sigma1 if est.sigma1 > 0 else 0.5
    if c <= 0 or (est.sigma1 > 0 and c >= 1.0 / est.sigma1):
        raise ParameterError(
            f"resolvent parameter must satisfy 0 < c < 1/sigma_1 ~= {1.0 / est.sigma1 if est.sigma1 > 0 else math.inf:.6g}, got {c}"
        )
    if mode not in ("auto", "dense", "quadrature"):
        raise ParameterError(f"unknown mode '{mode}'")
    if mode == "auto":
        mode = "dense" if 2 * n <= DENSE_DIM_LIMIT else "quadrature"
    params = {"c": c, "mode": mode}
    kernel = ResolventKernel(c**2)
    vectors = []
    if mode == "dense":
        if 2 * n > DENSE_DIM_LIMIT:
            raise SizeLimitError(f"dense path limited to 2n <= {DENSE_DIM_LIMIT}")
        for name in sides:
            lam, Q = dense_gram(g, name)
            vectors.append(ScoreVector("resolvent", name, (Q**2) @ kernel(lam), params))
    else:
        check_p_max(p_max)
        iv = spectrum_interval(g, estimate=est)
        for name, (bounds, _) in zip(sides, _refine_sides(g, iv, kernel, p_max, width_tol, sides)):
            scores = np.array([b.midpoint for b in bounds])
            vectors.append(ScoreVector("resolvent", name, scores, params, {"bounds": bounds}))
    return tuple(vectors) if side is None else vectors[0]


def expA_row_col_sums(g):
    """Row sums of e^A as hub scores, column sums as authority scores."""
    from .linalg import expm_action

    ones = np.ones(g.n)
    hub = expm_action(g, ones)
    authority = expm_action(g, ones, transpose=True)
    return (
        ScoreVector("expsum", "hub", hub),
        ScoreVector("expsum", "authority", authority),
    )


def pagerank(g, alpha=0.85, tol=1e-12, max_iter=20000, reverse=False):
    """Stationary distribution of the damped random-walk matrix.

    Rows of the walk matrix are out-edge distributions; dangling rows are
    replaced by the uniform distribution.  ``reverse=True`` runs the same
    computation on the edge-reversed graph, which ranks hubs.
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    work = g.reversed() if reverse else g
    n = work.n
    out_strength = work.out_strengths()
    dangling = out_strength == 0.0
    inv_out = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_strength))
    dangling_nodes = np.flatnonzero(dangling)
    x = np.ones(n) / n
    converged = False
    iterations = 0
    for _ in range(max_iter):
        dangling_mass = float(x[dangling_nodes].sum())
        # not in place: with no edges the product is integer zeros
        x_new = spmv(work, x * inv_out, transpose=True) + dangling_mass / n
        x_new *= alpha
        x_new += (1.0 - alpha) / n
        x_new /= x_new.sum()
        iterations += 1
        delta = np.linalg.norm(x_new - x, 1)
        x = x_new
        if delta < tol:
            converged = True
            break
    side = "hub" if reverse else "authority"
    return ScoreVector(
        "pagerank",
        side,
        x,
        {"alpha": alpha, "tol": tol, "reverse": reverse},
        {"iterations": iterations, "converged": converged},
    )


def degree_scores(g):
    """Out-degree as hub score, in-degree as authority score."""
    out_deg, in_deg = degrees(g)
    return (
        ScoreVector("degree", "hub", out_deg.astype(float)),
        ScoreVector("degree", "authority", in_deg.astype(float)),
    )


def communicability(g, i, j, kind="hub_authority", mode="dense", p=20):
    """One off-diagonal entry of the bipartite exponential.

    kind selects the block: 'hub' compares i and j as hubs, 'authority'
    as authorities, 'hub_authority' couples i's hub role to j's authority
    role.  Both modes evaluate a kernel of a Gram matrix: e_i^T
    cosh(sqrt(A A^T)) e_j for hubs, the same on A^T A for authorities, and
    (A^T e_i)^T g(A^T A) e_j with g(x) = sinh(sqrt(x)) / sqrt(x) for the
    coupling block A g(A^T A).  Dense mode applies the kernel to the
    eigenvalues of that Gram matrix (``dense_gram``); quadrature mode
    estimates the form by polarization, with p Lanczos steps per quadratic
    form.  Raises ConvergenceError when the entry overflows double precision.
    """
    from .linalg import DENSE_DIM_LIMIT, dense_gram
    from .quadrature import COSH_SQRT, SINHC_SQRT, bilinear_estimate

    n = g.n
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError("node ids out of range")
    if kind not in ("hub", "authority", "hub_authority"):
        raise ParameterError(f"unknown communicability kind '{kind}'")
    if i == j and kind != "hub_authority":
        raise ParameterError("communicability needs two distinct nodes; use centrality for i == j")
    if mode not in ("dense", "quadrature"):
        raise ParameterError(f"unknown mode '{mode}'")
    if mode == "dense" and 2 * n > DENSE_DIM_LIMIT:
        raise SizeLimitError(f"dense path limited to 2n <= {DENSE_DIM_LIMIT}")
    u, v = np.zeros(n), np.zeros(n)
    u[i], v[j] = 1.0, 1.0
    f = COSH_SQRT
    if kind == "hub_authority":
        u, f = spmv(g, u, transpose=True), SINHC_SQRT
    side = "hub" if kind == "hub" else "authority"
    # an overflowed kernel value times a zero weight is NaN, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "quadrature":
            value = float(bilinear_estimate(GramOperator(g, side), u, v, p, f))
        else:
            lam, Q = dense_gram(g, side)
            value = float(((u @ Q) * f(lam)) @ Q[j])
    if not math.isfinite(value):
        raise ConvergenceError(f"communicability ({kind}, {mode}): non-finite value (floating-point overflow)")
    return value
