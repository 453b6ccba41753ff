"""Gauss and Gauss-Radau estimates for entries of f(M) on the Gram matrices.

A bilinear form e_i^T f(M) e_i is a Stieltjes integral against the spectral
measure seen from e_i; running Lanczos from e_i yields the Jacobi matrix
whose eigenpairs are the Gauss nodes and weights for that measure.
Prescribing one endpoint of the spectrum (Radau) turns the estimates into
one-sided bounds for functions with sign-definite derivatives, which is
what makes certified score brackets possible.

Every rule runs on M = A A^T (hubs) or A^T A (authorities), whose spectra
lie in [0, sigma_1^2]; an order p costs p Lanczos steps on M, each one
product with A and one with A^T.  Each rule is evaluated for a stack of
Jacobi matrices at once, read from a ``LanczosRun``'s (b, p) coefficient
arrays: Gauss by ``_gauss_stacked``, the Radau pair by ``_radau_pair``.

The blocks of the bipartite exponential e^B, B = [[0, A], [A^T, 0]], are
functions of M: the hub block is cosh(sqrt(A A^T)), the authority block
cosh(sqrt(A^T A)) and the coupling block A g(A^T A) with
g(x) = sinh(sqrt(x)) / sqrt(x); the resolvent's hub block is
(I - c^2 A A^T)^{-1}.  The left Radau node is exactly 0, and the
right one is the proved bound from ``spectrum_interval``.  Off-diagonal
entries come from polarization (``bilinear_estimate``).

Only these kernels are admitted: their derivatives are all positive on the
relevant interval, so the bound directions are fixed (Gauss and Radau-at-a
from below, Radau-at-b from above).  Arbitrary callables are rejected
because no bound direction is justified.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .graph import spmv
from .linalg import BREAKDOWN_RTOL, LanczosRun, leading_singular_pair

__all__ = [
    "COSH_SQRT",
    "SINHC_SQRT",
    "CoshSqrtKernel",
    "SinhcSqrtKernel",
    "ResolventKernel",
    "SpectrumInterval",
    "NodeBounds",
    "spectrum_interval",
    "block_width",
    "check_p_max",
    "radau_bounds_from_run",
    "first_lanczos_step",
    "BracketPool",
    "bilinear_estimate",
]

# Bracket order schedule: P_START, then +P_STEP per refinement step.
P_START = 3
P_STEP = 2

# A block run holds about this many vector entries per basis vector (4 MB).
BLOCK_ENTRIES = 2**19


@dataclass(frozen=True)
class ResolventKernel:
    """f(x) = 1 / (1 - c x), the resolvent weight with parameter c > 0."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        root = np.sqrt(np.abs(x))
        with np.errstate(over="ignore"):  # an overflow is caught where scores are checked
            return np.where(x >= 0, np.cosh(root), np.cos(root))

    def check_nodes(self, nodes):
        return None


@dataclass(frozen=True)
class SinhcSqrtKernel:
    """f(x) = sinh(sqrt(x)) / sqrt(x) = sum_k x^k / (2k+1)!: the coupling block of e^B is A f(A^T A).

    The series defines f on all of R (sin(sqrt(-x)) / sqrt(-x) for x < 0,
    and f(0) = 1), so a Ritz value that roundoff puts just below 0 is still
    integrated exactly.
    """

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        root = np.sqrt(np.abs(x))
        safe = np.where(root > 0, root, 1.0)
        with np.errstate(over="ignore"):  # an overflow is caught where scores are checked
            return np.where(root > 0, np.where(x >= 0, np.sinh(root), np.sin(root)) / safe, 1.0)

    def check_nodes(self, nodes):
        return None


COSH_SQRT = CoshSqrtKernel()
SINHC_SQRT = SinhcSqrtKernel()


def _require_kernel(f):
    if not isinstance(f, (CoshSqrtKernel, SinhcSqrtKernel, ResolventKernel)):
        raise ParameterError(
            "only the exponential's Gram kernels and the resolvent kernel carry certified bound directions"
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
            raise ConvergenceError(f"non-finite bracket for node {self.node} (floating-point overflow)")
        if self.lower > self.upper:
            raise ValueError(f"inverted bracket for node {self.node}: [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)


def spectrum_interval(g, estimate=None):
    """Interval [0, b^2] proved to contain the spectra of A A^T and A^T A.

    b^2 bounds sigma_1^2 = lambda_max(A^T A) by the smaller of two facts:
    the Collatz-Wielandt bound max_i (A^T A x)_i / x_i, which holds for
    every positive x because A^T A is nonnegative (x is the power iterate
    ``estimate.vector`` of a ``LeadingPair`` or ``SpectralEstimate``, floored
    at 1e-12; ``leading_singular_pair(g)`` by default), and
    ||A||_1 ||A||_inf.  Both are computed from sums of at most d nonnegative
    terms (d = largest in-degree plus largest out-degree), so roundoff
    understates them by at most about d + 3 unit roundoffs; b^2 is inflated
    by four times that, which also covers rounding b = sqrt(b^2) and
    squaring it back.  Every Radau rule prescribes the nodes 0 and b^2.
    """
    if estimate is None:
        estimate = leading_singular_pair(g)
    norms = float(g.in_strengths().max(initial=0.0) * g.out_strengths().max(initial=0.0))
    x = np.ones(g.n) if estimate.vector is None else np.maximum(np.abs(estimate.vector), 1e-12)
    bound = min(float(np.max(spmv(g, spmv(g, x), transpose=True) / x)), norms)
    if bound == 0.0:
        return SpectrumInterval(0.0, 1.0)
    d = int(g.in_degrees().max() + g.out_degrees().max())
    b = math.sqrt(bound * (1.0 + 2 * (d + 4) * np.finfo(float).eps))
    return SpectrumInterval(0.0, b**2)


def block_width(dim):
    """Columns per block run on operators of dimension ``dim``."""
    return max(1, BLOCK_ENTRIES // dim)


def check_p_max(p_max):
    """Reject a maximum order below the schedule's first one."""
    if p_max < P_START:
        raise ParameterError(f"p_max must be at least {P_START}, got {p_max}")


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


def _brackets(nodes, alpha, beta, lengths, exact, p, iv, f):
    """One NodeBounds per column from its Jacobi entries alpha, beta (m, >= p).

    A column in ``exact`` has its whole Krylov space within its length: its
    Gauss value at that length is exact and the bracket collapses.  Every
    other column gets the Gauss-Radau pair at order p.
    """
    lower = np.empty(exact.size)
    upper = np.empty(exact.size)
    # ascending distinct lengths; np.unique would import numpy.ma (NumPy 2.4)
    for length in np.flatnonzero(np.bincount(lengths[exact])):
        cols = exact & (lengths == length)
        lower[cols] = upper[cols] = _gauss_stacked(alpha[cols, :length], beta[cols, : length - 1], f)
    if not exact.all():
        lower[~exact], upper[~exact] = _radau_pair(alpha[~exact, :p], beta[~exact, :p], iv, f)
    columns = (np.asarray(a).tolist() for a in (nodes, lower, upper, np.where(exact, lengths, p), exact))
    return [NodeBounds(v, lo, up, p=order, exact=ex) for v, lo, up, order, ex in zip(*columns)]


def radau_bounds_from_run(run, p, iv, f):
    """Gauss-Radau brackets at order p for every column of a (re-usable) Lanczos run.

    The run is started from a sequence of node indices and is extended to
    p steps: step p gives the Jacobi matrix J_p and its coupling gamma_p
    = beta_p, all that the modification reads.  A column that breaks down
    within those steps has its whole Krylov space: its Gauss value is exact
    and the bracket collapses.  The brackets of the other columns come from
    stacked eigensolves and solves.  Returns one NodeBounds per column, in
    column order.
    """
    f = _require_kernel(f)
    run.extend(p)
    return _brackets(run.start_index, *run.coefficients(run.steps), run.lengths, run.broken, p, iv, f)


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


def _intersect(old, new):
    if old.lower <= new.lower and new.upper <= old.upper:
        return new  # nested, as the schedule's brackets are in exact arithmetic
    # clamp both ends into the old bracket; one that roundoff moved wholly
    # past it collapses onto the old bracket's nearer end
    lower = min(max(old.lower, new.lower), old.upper)
    upper = max(min(old.upper, new.upper), old.lower)
    return NodeBounds(new.node, lower, upper, new.p, new.exact)


class BracketPool:
    """Each node's bracket (``bounds``, None until it has one) on ``op``.

    Brackets follow one schedule of orders: P_START first (or after any
    order below it), then +P_STEP per step, capped at p_max.  A bracket's
    order ``p`` is the Lanczos steps it read: p for a Radau bracket, the
    run's length for an exact one.  Each new bracket is intersected with the
    node's stored one, which keeps brackets monotone under roundoff jitter;
    a new bracket wholly outside the stored one collapses onto its nearer
    end.  A column whose run breaks down within its order's steps takes the
    exact value.

    Runs live only inside ``advance``, one block of ``width`` nodes at a
    time, so memory stays at one block's basis whatever the dimension.  A
    column's arithmetic depends neither on its block nor on the rebuild that
    resumes it (a run rebuilt from the same start vectors repeats the same
    recurrence), so neither do the brackets.
    """

    def __init__(self, op, iv, f):
        self.op = op
        self.iv = iv
        self.f = _require_kernel(f)
        self.width = block_width(op.dim)
        self.bounds = [None] * op.dim

    def first_pass(self, nodes):
        """Order-1 brackets for ``nodes`` from one sparse first Lanczos step each; returns them.

        The same brackets, bit for bit, as ``radau_bounds_from_run`` at
        p = 1: a node whose run breaks down at its first step gets its exact
        value f(alpha_1).  Costs no block run: see ``first_lanczos_step``.
        """
        alpha, beta, exact = first_lanczos_step(self.op, nodes)
        bounds = _brackets(nodes, alpha[:, None], beta[:, None], np.ones_like(exact, int), exact, 1, self.iv, self.f)
        for b in bounds:
            self.bounds[b.node] = b
        return bounds

    def advance(self, nodes, p_max, done=lambda b: True):
        """Take ``nodes`` one schedule step, then on until each bracket is ``done`` or at p_max.

        Each block of ``width`` nodes, which share one order, is rebuilt from
        its start vectors and resumes at its first node's stored order.  A
        block stops once every column is exact or at p_max; otherwise the
        columns whose bracket is ``done`` leave it.  By default every node
        takes one step.
        """
        nodes = list(nodes)
        for first in range(0, len(nodes), self.width):
            chunk = nodes[first : first + self.width]
            run = LanczosRun(self.op, chunk)
            p = 0 if self.bounds[chunk[0]] is None else self.bounds[chunk[0]].p
            while run.columns:
                p = P_START if p < P_START else min(p + P_STEP, p_max)
                new = radau_bounds_from_run(run, p, self.iv, self.f)
                for b in new:
                    old = self.bounds[b.node]
                    self.bounds[b.node] = b if old is None else _intersect(old, b)
                if p >= p_max or all(b.exact for b in new):
                    break
                run.retain([j for j, b in enumerate(new) if not done(self.bounds[b.node])])


def bilinear_estimate(op, u, v, p, f):
    """Estimate u^T f(op) v by polarization of two quadratic forms.

    q(w) = w^T f(op) w is the order-p Gauss estimate (p Lanczos steps on
    ``op``) from w/|w|, rescaled by |w|^2; u^T f(op) v is
    (q(u + v) - q(u - v)) / 4.  Raises ParameterError for p < 1.
    """
    f = _require_kernel(f)
    if not p >= 1:
        raise ParameterError(f"p must be at least 1, got {p}")
    return (_quadratic_form(op, u + v, p, f) - _quadratic_form(op, u - v, p, f)) / 4.0


def _quadratic_form(op, w, p, f):
    norm_sq = float(w @ w)
    if norm_sq == 0.0:
        return 0.0  # u = v: q(u - v) is a form of the zero vector
    run = LanczosRun(op, (w / np.sqrt(norm_sq))[None]).extend(p)
    alpha, beta = run.coefficients(run.steps)
    return norm_sq * float(_gauss_stacked(alpha, beta[:, :-1], f)[0])
