"""Gauss, Gauss-Radau, and Gauss-Lobatto estimates for entries of f(op).

A bilinear form e_i^T f(op) e_i is a Stieltjes integral against the spectral
measure seen from e_i; running Lanczos from e_i yields the Jacobi matrix
whose eigenpairs are the Gauss nodes and weights for that measure.
Prescribing one endpoint of the spectrum (Radau) or both (Lobatto) turns the
estimates into one-sided bounds for functions with sign-definite derivatives,
which is what makes certified score brackets possible.

The rankers integrate over the Gram matrices A A^T (hubs) and A^T A
(authorities), whose spectra lie in [0, sigma_1^2]: the hub block of the
bipartite exponential is cosh(sqrt(A A^T)), the resolvent's is
(I - c^2 A A^T)^{-1}.  The left Radau node is then exactly 0, and the right
one is the square of the proved bound from ``spectrum_interval``.

Only the exponential, its Gram form cosh(sqrt(x)) and the resolvent are
admitted: their derivatives are all positive on the relevant interval, so
the bound directions are fixed (Gauss and Radau-at-a from below, Radau-at-b
and Lobatto from above).  Arbitrary callables are rejected because no bound
direction is justified.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .graph import bipartite_operator, spmv
from .linalg import BREAKDOWN_RTOL, LanczosRun, JacobiMatrix, leading_singular_pair

__all__ = [
    "EXP",
    "COSH_SQRT",
    "ExpKernel",
    "CoshSqrtKernel",
    "ResolventKernel",
    "SpectrumInterval",
    "NodeBounds",
    "spectrum_interval",
    "gram_interval",
    "block_width",
    "check_p_max",
    "gauss_estimate",
    "radau_bounds",
    "radau_bounds_from_run",
    "first_lanczos_step",
    "order_one_bounds",
    "BracketRun",
    "lobatto_bound",
    "bilinear_estimate",
]

# Bracket order schedule: P_START, then +P_STEP per refinement step.
P_START = 3
P_STEP = 2

# A block run holds about this many vector entries per basis vector (4 MB).
BLOCK_ENTRIES = 2**19


@dataclass(frozen=True)
class ExpKernel:
    """f(x) = e^x."""

    name = "exp"

    def __call__(self, x):
        return np.exp(x)

    def check_nodes(self, nodes):
        return None


@dataclass(frozen=True)
class ResolventKernel:
    """f(x) = 1 / (1 - c x), the resolvent weight with parameter c > 0."""

    c: float
    name = "resolvent"

    def __post_init__(self):
        if self.c <= 0:
            raise ParameterError(f"resolvent parameter must be positive, got {self.c}")

    @property
    def pole(self):
        return 1.0 / self.c

    def __call__(self, x):
        return 1.0 / (1.0 - self.c * np.asarray(x))

    def check_nodes(self, nodes):
        if len(nodes) and nodes.min() <= self.pole <= nodes.max():
            raise ParameterError(
                f"resolvent pole 1/c = {self.pole:.6g} lies inside the node interval "
                f"[{nodes.min():.6g}, {nodes.max():.6g}]; parameter c is too large"
            )


@dataclass(frozen=True)
class CoshSqrtKernel:
    """f(x) = cosh(sqrt(x)) = sum_k x^k / (2k)!: the exponential through a Gram matrix.

    The series defines f on all of R (cos(sqrt(-x)) for x < 0), so a Ritz
    value that roundoff puts just below 0 is still integrated exactly.
    """

    name = "cosh-sqrt"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        root = np.sqrt(np.abs(x))
        return np.where(x >= 0, np.cosh(root), np.cos(root))

    def check_nodes(self, nodes):
        return None


EXP = ExpKernel()
COSH_SQRT = CoshSqrtKernel()


def _require_kernel(f):
    if not isinstance(f, (ExpKernel, CoshSqrtKernel, ResolventKernel)):
        raise ParameterError(
            "only the exponential and resolvent kernels carry certified bound directions"
        )
    return f


@dataclass(frozen=True)
class SpectrumInterval:
    """Interval [a, b] guaranteed to contain the operator spectrum."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a <= self.b):
            raise ValueError(f"invalid spectrum interval [{self.a}, {self.b}]")


@dataclass(frozen=True)
class NodeBounds:
    """Certified bracket [lower, upper] for one node's score."""

    node: int
    lower: float
    upper: float
    p: int
    exact: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"non-finite bracket for node {self.node}")
        if self.lower > self.upper:
            raise ValueError(f"inverted bracket for node {self.node}: [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)


def spectrum_interval(g, estimate=None):
    """Symmetric interval [-b, b] proved to contain the bipartite spectrum.

    b^2 bounds sigma_1^2 = lambda_max(A^T A) by the smaller of two facts:
    the Collatz-Wielandt bound max_i (A^T A x)_i / x_i, which holds for
    every positive x because A^T A is nonnegative (x is the power iterate
    ``estimate.vector`` of a ``LeadingPair`` or ``SpectralEstimate``, floored
    at 1e-12; ``leading_singular_pair(g)`` by default), and
    ||A||_1 ||A||_inf.  Both are computed from sums of at most d nonnegative
    terms (d = largest in-degree plus largest out-degree), so roundoff
    understates them by at most about d + 3 unit roundoffs; b^2 is inflated
    by four times that, which also covers rounding b = sqrt(b^2) and
    squaring it back.
    """
    if estimate is None:
        estimate = leading_singular_pair(g)
    norms = float(g.in_strengths().max(initial=0.0) * g.out_strengths().max(initial=0.0))
    x = np.ones(g.n) if estimate.vector is None else np.maximum(np.abs(estimate.vector), 1e-12)
    bound = min(float(np.max(spmv(g, spmv(g, x), transpose=True) / x)), norms)
    if bound == 0.0:
        return SpectrumInterval(-1.0, 1.0)
    d = int(g.in_degrees().max() + g.out_degrees().max())
    b = math.sqrt(bound * (1.0 + 2 * (d + 4) * np.finfo(float).eps))
    return SpectrumInterval(-b, b)


def gram_interval(iv):
    """[0, b^2]: contains the spectra of A A^T and A^T A when [-b, b] contains the bipartite one."""
    return SpectrumInterval(0.0, iv.b**2)


def block_width(dim):
    """Columns per block run on operators of dimension ``dim``."""
    return max(1, BLOCK_ENTRIES // dim)


def check_p_max(p_max):
    """Reject a maximum order below the schedule's first one."""
    if p_max < P_START:
        raise ParameterError(f"p_max must be at least {P_START}, got {p_max}")


def gauss_estimate(J, f):
    """Plain Gauss rule: e_1^T f(J) e_1 via the Jacobi eigenpairs.

    For the exponential this is a lower bound on the true bilinear form.
    """
    f = _require_kernel(f)
    return float(_gauss_stacked(J.alpha[None], J.beta[None], f)[0])


def _solve_tridiagonal(J, tau, rhs):
    # order-p systems with p <= ~64: a dense pivoted solve is cheap and robust
    dense = J.dense() - tau * np.eye(J.order)
    return np.linalg.solve(dense, rhs)


def _stacked(alpha, beta):
    """Dense symmetric tridiagonal matrices (m, p, p) from alpha (m, p) and beta (m, p-1)."""
    m, p = alpha.shape
    J = np.zeros((m, p, p))
    i = np.arange(p)
    J[:, i, i] = alpha
    J[:, i[:-1], i[1:]] = beta
    J[:, i[1:], i[:-1]] = beta
    return J


def _gauss_stacked(alpha, beta, f):
    """Gauss rule e_1^T f(J) e_1 for each of a stack of Jacobi matrices.

    The nodes are J's eigenvalues and the weights the squared first
    entries of its eigenvectors.
    """
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ConvergenceError("Gauss rule given non-finite Jacobi entries")
    nodes, vectors = np.linalg.eigh(_stacked(alpha, beta))
    f.check_nodes(nodes.ravel())
    return np.einsum("mk,mk->m", vectors[:, 0, :] ** 2, f(nodes))


def _radau_stacked(alpha, beta, ritz, tau, f, iv):
    """Radau-modified estimates with node tau prescribed; alpha, beta (m, p).

    beta[:, p-1] is the coupling gamma_p to step p+1.  A column whose Ritz
    values hit tau pushes its node outward once.
    """
    m, p = alpha.shape
    span = max(iv.b - iv.a, 1.0)
    tau = np.full(m, float(tau))
    for attempt in range(2):
        hit = np.min(np.abs(ritz - tau[:, None]), axis=1) <= 1e-13 * span
        if not hit.any():
            break
        if attempt:
            raise ParameterError(f"prescribed node {tau[hit][0]} collides with a Ritz value")
        tau[hit] += np.copysign(1e-8 * span, tau[hit] - ritz[hit].mean(axis=1))
    shifted = _stacked(alpha - tau[:, None], beta[:, :-1])
    rhs = np.zeros((m, p, 1))
    rhs[:, -1, 0] = beta[:, -1] ** 2
    delta = np.linalg.solve(shifted, rhs)[:, -1, 0]
    return _gauss_stacked(np.column_stack([alpha, tau + delta]), beta, f)


def _radau_pair(alpha, beta, iv, f):
    """Lower and upper Gauss-Radau estimates from alpha, beta (m, p), one per row."""
    ritz = np.linalg.eigvalsh(_stacked(alpha, beta[:, :-1]))
    low = _radau_stacked(alpha, beta, ritz, iv.a, f, iv)
    high = _radau_stacked(alpha, beta, ritz, iv.b, f, iv)
    # the two can only cross through roundoff once the bracket has collapsed
    return np.minimum(low, high), np.maximum(low, high)


def _node_bounds(nodes, lower, upper, order, exact):
    columns = (np.asarray(a).tolist() for a in (nodes, lower, upper, order, exact))
    return [NodeBounds(v, lo, up, p=p, exact=ex) for v, lo, up, p, ex in zip(*columns)]


def radau_bounds_from_run(run, p, iv, f):
    """Gauss-Radau brackets at order p for every column of a (re-usable) Lanczos run.

    The run is extended to p+1 steps because the modification needs the
    off-diagonal coupling gamma_p.  A column that breaks down within those
    steps has its whole Krylov space: its Gauss value is exact and the
    bracket collapses.  The brackets of the other columns come from stacked
    eigensolves and solves.  Returns one NodeBounds for a run started from
    one index or vector, else a list in column order.
    """
    f = _require_kernel(f)
    run.extend(p + 1)
    exact = run.broken & (run.lengths <= p + 1)
    lower = np.empty(run.columns)
    upper = np.empty(run.columns)
    order = np.where(exact, run.lengths, p)
    # ascending distinct lengths; np.unique would import numpy.ma (NumPy 2.4)
    for length in np.flatnonzero(np.bincount(run.lengths[exact])):
        cols = exact & (run.lengths == length)
        alpha, beta = run.coefficients(length)
        lower[cols] = upper[cols] = _gauss_stacked(alpha[cols], beta[cols, : length - 1], f)
    if not exact.all():
        alpha, beta = run.coefficients(p)
        lower[~exact], upper[~exact] = _radau_pair(alpha[~exact], beta[~exact], iv, f)
    bounds = _node_bounds(np.atleast_1d(run.start_index), lower, upper, order, exact)
    return bounds[0] if np.ndim(run.start_index) == 0 else bounds


def first_lanczos_step(op, nodes):
    """alpha_1, beta_1 and the breakdown flag of a Lanczos run from each node's unit vector.

    ``op`` is a ``GramOperator``.  The columns M e_j are added up from its
    ``column_pairs`` into one reused block of rows, in chunks that keep the
    rows within BLOCK_ENTRIES and the pair terms within an eighth of it (at
    least one node per chunk); fresh arrays of that size cost page faults.
    alpha_1 = M_jj; with that entry zeroed, beta_1 is the norm of the rest.
    This is the arithmetic of ``LanczosRun``'s first step, whose
    reorthogonalization subtracts 0, so the three arrays equal
    ``LanczosRun(op, nodes).extend(1)``'s bit for bit.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    alpha = np.empty(nodes.size)
    beta = np.empty(nodes.size)
    pairs = np.concatenate([[0], np.cumsum(op.pair_counts()[nodes])])
    width = min(block_width(op.dim), nodes.size)
    block = np.zeros((width, op.dim))
    flat = block.reshape(-1)
    lo = 0
    while lo < nodes.size:
        fits = int(np.searchsorted(pairs, pairs[lo] + BLOCK_ENTRIES // 8, side="right")) - 1
        hi = max(lo + 1, min(lo + width, fits))
        chunk = nodes[lo:hi]
        bins, terms = op.column_pairs(chunk)
        np.add.at(flat, bins, terms)  # in order, as np.bincount adds
        W = block[: chunk.size]
        diagonal = (np.arange(chunk.size), chunk)
        alpha[lo:hi] = W[diagonal]
        W[diagonal] = 0.0
        beta[lo:hi] = np.sqrt(np.einsum("ji,ji->j", W, W))
        flat[bins] = 0.0
        lo = hi
    # with n = 1 the zeroed row is empty, beta_1 = 0 and the run breaks down
    return alpha, beta, beta <= BREAKDOWN_RTOL * np.maximum(np.abs(alpha), beta)


def order_one_bounds(op, nodes, iv, f):
    """Order-1 Gauss-Radau brackets for ``nodes`` from one sparse first Lanczos step each.

    The same brackets, bit for bit, as ``radau_bounds_from_run`` at p = 1
    gives a run that stops after its first step: a node whose run breaks
    down there gets its exact value f(alpha_1).  Costs no block run: see
    ``first_lanczos_step``.
    """
    f = _require_kernel(f)
    alpha, beta, exact = first_lanczos_step(op, nodes)
    alpha, beta = alpha[:, None], beta[:, None]
    lower = np.empty(exact.size)
    upper = np.empty(exact.size)
    if exact.any():
        lower[exact] = upper[exact] = _gauss_stacked(alpha[exact], beta[exact, :0], f)
    if not exact.all():
        lower[~exact], upper[~exact] = _radau_pair(alpha[~exact], beta[~exact], iv, f)
    return _node_bounds(nodes, lower, upper, np.ones(exact.size, dtype=int), exact)


def _intersect(old, new):
    if old.lower <= new.lower and new.upper <= old.upper:
        return new  # nested, as the schedule's brackets are in exact arithmetic
    lower = max(old.lower, new.lower)
    upper = min(old.upper, new.upper)
    if lower > upper:
        lower = upper = 0.5 * (lower + upper)
    return NodeBounds(new.node, lower, upper, new.p, new.exact)


class BracketRun:
    """Radau brackets for a block of start nodes, refined along one schedule.

    ``start`` is what ``LanczosRun`` takes.  For one index, ``refine`` and
    ``bounds`` give one NodeBounds; for a sequence, one per column.  Each
    ``refine`` step takes the next order of the schedule (P_START first or
    after any order below it, then +P_STEP capped at p_max) on every
    column and intersects each new bracket with the node's old one,
    which keeps brackets monotone under roundoff jitter; a crossed pair
    collapses to its midpoint.  A column whose run breaks down takes the
    exact step, whatever p_max is.

    ``bounds`` and ``p`` resume a rebuilt run: the brackets and the order
    its nodes already reached (a run rebuilt from the same start vectors
    repeats the same recurrence), such as ``order_one_bounds``' at p = 1.
    ``retain`` drops the columns that need no further step.
    """

    def __init__(self, op, start, iv, f, bounds=None, p=0):
        self.run = LanczosRun(op, start)
        self.iv = iv
        self.f = f
        self.p = p
        self._bounds = bounds

    @property
    def bounds(self):
        if self._bounds is not None and np.ndim(self.run.start_index) == 0:
            return self._bounds[0]
        return self._bounds

    def refinable(self, p_max):
        """Whether a further ``refine`` step can tighten some bracket."""
        if self._bounds is not None and all(b.exact for b in self._bounds):
            return False
        return self.p < p_max

    def refine(self, p_max):
        """Take one schedule step on every column and return the tightened brackets."""
        p = P_START if self.p < P_START else min(self.p + P_STEP, p_max)
        new = radau_bounds_from_run(self.run, p, self.iv, self.f)
        new = [new] if isinstance(new, NodeBounds) else new
        if self._bounds is not None:
            new = [_intersect(old, nb) for old, nb in zip(self._bounds, new)]
        self.p = p
        self._bounds = new
        return self.bounds

    def retain(self, keep):
        """Keep only the columns listed in ``keep``, in that order."""
        self.run.retain(keep)
        self._bounds = [self._bounds[j] for j in keep]


def radau_bounds(op, node, p, iv, f):
    """Lower and upper Gauss-Radau bounds for e_node^T f(op) e_node."""
    if p < 1:
        raise ParameterError("quadrature order p must be >= 1")
    run = LanczosRun(op, node)
    return radau_bounds_from_run(run, p, iv, f)


def lobatto_bound(op, node, p, iv, f):
    """Gauss-Lobatto value with both endpoints prescribed (upper bound for exp)."""
    f = _require_kernel(f)
    if p < 1:
        raise ParameterError("quadrature order p must be >= 1")
    run = LanczosRun(op, node).extend(p)
    if run.breakdown and run.steps <= p:
        return gauss_estimate(run.jacobi(), f)
    J = run.jacobi(p)
    e_p = np.zeros(p)
    e_p[-1] = 1.0
    delta = _solve_tridiagonal(J, iv.a, e_p)
    mu = _solve_tridiagonal(J, iv.b, e_p)
    denom = delta[-1] - mu[-1]
    if denom <= 0:
        raise ParameterError("spectrum interval does not enclose the Ritz values")
    gamma_sq = (iv.b - iv.a) / denom
    omega = (delta[-1] * iv.b - mu[-1] * iv.a) / denom
    modified = JacobiMatrix(np.append(J.alpha, omega), np.append(J.beta, np.sqrt(gamma_sq)))
    return gauss_estimate(modified, f)


def bilinear_estimate(op, u_node, v_node, p, f, graph=None):
    """Estimate e_u^T f(op) e_v by polarization of two quadratic forms.

    q(w) = w^T f(op) w is Gauss-estimated with Lanczos started at w/|w| and
    rescaled by |w|^2; the off-diagonal entry is (q(e_u+e_v) - q(e_u-e_v))/4.
    """
    f = _require_kernel(f)
    if u_node == v_node:
        raise ParameterError("bilinear estimate needs two distinct indices")
    op = op if hasattr(op, "matvec") else bipartite_operator(op)
    total = 0.0
    for sign in (1.0, -1.0):
        w = np.zeros(op.dim)
        w[u_node] = 1.0
        w[v_node] = sign
        q = _quadratic_form(op, w, p, f)
        total += sign * q
    return total / 4.0


def _quadratic_form(op, w, p, f):
    norm_sq = float(w @ w)
    run = LanczosRun(op, w / np.sqrt(norm_sq)).extend(p)
    return norm_sq * gauss_estimate(run.jacobi(), f)
