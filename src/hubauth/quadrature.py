"""Gauss, Gauss-Radau, and Gauss-Lobatto estimates for entries of f(op).

A bilinear form e_i^T f(op) e_i is a Stieltjes integral against the spectral
measure seen from e_i; running Lanczos from e_i yields the Jacobi matrix
whose eigenpairs are the Gauss nodes and weights for that measure.
Prescribing one endpoint of the spectrum (Radau) or both (Lobatto) turns the
estimates into one-sided bounds for functions with sign-definite derivatives,
which is what makes certified score brackets possible.

Only the exponential and the resolvent are admitted: their derivatives are
all positive on the relevant interval, so the bound directions are fixed
(Gauss and Radau-at-a from below, Radau-at-b and Lobatto from above).
Arbitrary callables are rejected because no bound direction is justified.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import bipartite_operator
from .linalg import LanczosRun, JacobiMatrix, tridiag_eigen, power_singular_pair

__all__ = [
    "EXP",
    "ExpKernel",
    "ResolventKernel",
    "SpectrumInterval",
    "NodeBounds",
    "spectrum_interval",
    "gauss_estimate",
    "radau_bounds",
    "radau_bounds_from_run",
    "BracketRun",
    "lobatto_bound",
    "bilinear_estimate",
]

# Bracket order schedule: P_START, then +P_STEP per refinement step.
P_START = 3
P_STEP = 2


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


EXP = ExpKernel()


def _require_kernel(f):
    if not isinstance(f, (ExpKernel, ResolventKernel)):
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
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"non-finite bracket for node {self.node}")
        if self.lower > self.upper:
            raise ValueError(f"inverted bracket for node {self.node}: [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)


def spectrum_interval(g, estimate=None, pad=0.01):
    """Symmetric interval [-b, b] containing the bipartite spectrum.

    b is the smaller of the padded singular-value estimate and the
    Gershgorin row-sum bound of the bipartite matrix (which is always valid,
    padding or not).
    """
    if estimate is None:
        estimate = power_singular_pair(g)
    gersh = float(max(g.out_strengths().max(initial=0.0), g.in_strengths().max(initial=0.0)))
    if estimate.sigma1 == 0.0 and gersh == 0.0:
        return SpectrumInterval(-1.0, 1.0)
    b = min((1.0 + pad) * estimate.sigma1, gersh)
    if b <= 0.0:
        b = max(estimate.sigma1, gersh)
    return SpectrumInterval(-b, b)


def gauss_estimate(J, f):
    """Plain Gauss rule: e_1^T f(J) e_1 via the Jacobi eigenpairs.

    For the exponential this is a lower bound on the true bilinear form.
    """
    f = _require_kernel(f)
    nodes, weights = tridiag_eigen(J)
    f.check_nodes(nodes)
    return float(weights @ f(nodes))


def _solve_tridiagonal(J, tau, rhs):
    # order-p systems with p <= ~64: a dense pivoted solve is cheap and robust
    dense = J.dense() - tau * np.eye(J.order)
    return np.linalg.solve(dense, rhs)


def _radau_matrix(J, gamma_next, tau):
    """Extend J by one row so that tau becomes an eigenvalue (prescribed node)."""
    p = J.order
    rhs = np.zeros(p)
    rhs[-1] = gamma_next**2
    delta = _solve_tridiagonal(J, tau, rhs)
    alpha = np.append(J.alpha, tau + delta[-1])
    beta = np.append(J.beta, gamma_next)
    return JacobiMatrix(alpha, beta)


def _prescribed_estimate(J, ritz, gamma_next, tau, f, iv):
    """Radau-modified estimate with one retry when tau hits a Ritz value of J."""
    span = max(iv.b - iv.a, 1.0)
    if np.min(np.abs(ritz - tau)) <= 1e-13 * span:
        # prescribed node collides with a Ritz value: push it outward once
        tau = tau + np.copysign(1e-8 * span, tau - np.mean(ritz))
        if np.min(np.abs(ritz - tau)) <= 1e-13 * span:
            raise ParameterError(f"prescribed node {tau} collides with a Ritz value")
    return gauss_estimate(_radau_matrix(J, gamma_next, tau), f)


def radau_bounds_from_run(run, p, iv, f):
    """Gauss-Radau bracket at order p from a (re-usable) Lanczos run.

    The run is extended to p+1 steps because the modification needs the
    off-diagonal coupling gamma_p.  On breakdown at or before p the Gauss
    value is exact and the bracket collapses.
    """
    f = _require_kernel(f)
    run.extend(p + 1)
    if run.breakdown and run.steps <= p:
        value = gauss_estimate(run.jacobi(), f)
        return NodeBounds(run.start_index, value, value, p=run.steps, exact=True)
    J = run.jacobi(p)
    gamma_next = run.next_offdiag(p)
    ritz, _ = tridiag_eigen(J)
    lower = _prescribed_estimate(J, ritz, gamma_next, iv.a, f, iv)
    upper = _prescribed_estimate(J, ritz, gamma_next, iv.b, f, iv)
    if lower > upper:
        # only possible through roundoff once the bracket has collapsed
        lower, upper = min(lower, upper), max(lower, upper)
    return NodeBounds(run.start_index, lower, upper, p=p, exact=False)


class BracketRun:
    """One node's Lanczos run and the tightest Radau bracket seen so far.

    Each ``refine`` step takes the next order of the schedule (P_START first,
    then +P_STEP capped at p_max) and intersects the new bracket with the old
    one, which keeps the bracket monotone under roundoff jitter.  Once the
    run has broken down, the next step uses the whole Krylov space and is
    exact, whatever p_max is.
    """

    def __init__(self, op, index, iv, f):
        self.run = LanczosRun(op, index)
        self.iv = iv
        self.f = f
        self.p = 0
        self.bounds = None

    def refinable(self, p_max):
        """Whether a further ``refine`` step can tighten the bracket."""
        if self.bounds is not None and self.bounds.exact:
            return False
        return self.run.breakdown or self.p < p_max

    def refine(self, p_max):
        """Take one schedule step and return the tightened bracket."""
        if self.run.breakdown:
            p = self.run.steps
        elif self.p == 0:
            p = P_START
        else:
            p = min(self.p + P_STEP, p_max)
        nb = radau_bounds_from_run(self.run, p, self.iv, self.f)
        old = self.bounds
        if old is not None:
            lower = max(old.lower, nb.lower)
            upper = min(old.upper, nb.upper)
            if lower > upper:
                lower = upper = 0.5 * (lower + upper)
            nb = NodeBounds(nb.node, lower, upper, nb.p, nb.exact)
        self.p = p
        self.bounds = nb
        return nb


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
    run = _LanczosFromVector(op, w / np.sqrt(norm_sq)).extend(p)
    return norm_sq * gauss_estimate(run.jacobi(), f)


class _LanczosFromVector(LanczosRun):
    """Lanczos run whose start vector is arbitrary instead of a coordinate axis."""

    def __init__(self, op, v0):
        super().__init__(op, 0)
        self._basis[:, 0] = np.asarray(v0, dtype=float)
        self.start_index = -1
