"""Numerical kernels: block Lanczos, tridiagonal eigensolver, the shared dense
Gram eigendecompositions, matrix exponentials, and power-iteration spectral
estimates.

A ``LanczosRun`` starts from node indices or from a block of unit rows and
hands out its Jacobi matrices as (b, p) coefficient arrays; the Gauss rules
of ``quadrature`` and ``tridiag_eigen`` read them from there.

Everything here is deterministic: start vectors are fixed (unit vectors for
Lanczos, normalized ones for power iterations) so repeated runs produce
bit-identical results.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, SizeLimitError
from .graph import spmv

__all__ = [
    "DENSE_DIM_LIMIT",
    "LanczosRun",
    "LeadingPair",
    "SpectralEstimate",
    "SpectralRadiusEstimate",
    "tridiag_eigen",
    "dense_expm",
    "dense_gram",
    "expm_action",
    "leading_singular_pair",
    "power_singular_pair",
    "radius_bound",
    "spectral_radius",
]

# Dense fallbacks and oracles are restricted to this matrix dimension.
DENSE_DIM_LIMIT = 4000

# Relative off-diagonal size below which Lanczos is declared broken down.
BREAKDOWN_RTOL = 1e-12


def _start_block(start, dim):
    """(start vectors as the rows of a b x dim array, start_index) for LanczosRun."""
    start = np.asarray(start)
    if start.dtype.kind == "f" and start.ndim == 2 and start.shape[0]:
        if start.shape[1] != dim:
            raise ValueError(f"start rows must have length {dim}, got shape {start.shape}")
        return start.copy(), None
    if start.dtype.kind not in "iu" or start.ndim != 1 or start.size == 0:
        raise ValueError("start must be a sequence of node indices or a b x dim block of unit rows")
    bad = start[(start < 0) | (start >= dim)]
    if bad.size:
        raise ValueError(f"start index {bad[0]} outside [0, {dim})")
    block = np.zeros((start.size, dim))
    block[np.arange(start.size), start] = 1.0
    return block, start


class LanczosRun:
    """Incremental Lanczos tridiagonalization with full reorthogonalization.

    A run advances b independent recurrences together, one column per start
    vector: each step applies the symmetric operator ``op`` (such as
    ``graph.GramOperator``) once to the dim x b block of current vectors
    (``op.matmat``), reorthogonalizes every column against its own basis
    only (stacked matrix products over the columns), and lets each column
    break down on its own.  ``start`` is a sequence of node indices (one
    column from each unit coordinate vector; ``start_index`` holds them) or
    a b x dim float block of unit rows (``start_index`` is None).

    ``steps`` counts block steps; ``lengths`` and ``broken`` hold each
    column's completed steps and breakdown flag, and ``coefficients`` the
    Jacobi entries.  The basis is retained so a run can be extended to a
    higher order later without recomputation.
    """

    def __init__(self, op, start):
        self.op = op
        block, self.start_index = _start_block(start, self.op.dim)
        self.columns = block.shape[0]
        self._basis = block[:, None]  # (b, vectors, dim): each column's basis is contiguous
        self.alpha = []  # one length-b array per step
        self.beta = []
        self.lengths = np.zeros(self.columns, dtype=int)
        self.broken = np.zeros(self.columns, dtype=bool)
        self._scale = np.zeros(self.columns)

    @property
    def steps(self):
        return len(self.alpha)

    @property
    def breakdown(self):
        """Whether every column has broken down."""
        return bool(self.broken.all())

    def extend(self, p):
        """Run Lanczos until every column has p steps or has broken down.

        Requests beyond the operator dimension are capped there: once the
        basis spans the whole space the factorization is exact and the
        column reports breakdown.  A broken column carries zero vectors from
        then on, so it changes no other column's arithmetic.
        """
        p = min(p, self.op.dim)
        if self._basis.shape[1] <= p:  # grow once to p + 1 vectors, copying those held
            grown = np.zeros((self.columns, p + 1, self.op.dim))
            grown[:, : self.steps + 1] = self._basis[:, : self.steps + 1]
            self._basis = grown
        while self.steps < p and not self.breakdown:
            j = self.steps
            V = self._basis[:, j]
            W = np.ascontiguousarray(self.op.matmat(V.T).T)
            a = np.einsum("ji,ji->j", V, W)
            W -= a[:, None] * V
            if j > 0:
                W -= self.beta[j - 1][:, None] * self._basis[:, j - 1]
            # full reorthogonalization, two passes (second pass scrubs the
            # residual left by cancellation in the first)
            Q = self._basis[:, : j + 1]
            for _ in range(2):
                W -= np.matmul(np.matmul(Q, W[:, :, None]).transpose(0, 2, 1), Q)[:, 0]
            b = np.sqrt(np.einsum("ji,ji->j", W, W))
            live = ~self.broken
            self._scale = np.maximum(self._scale, np.maximum(np.abs(a), b))
            self.lengths[live] += 1
            self.broken |= live & (b <= BREAKDOWN_RTOL * self._scale)
            self.alpha.append(a)
            self.beta.append(b)
            self._basis[:, j + 1] = W / np.where(self.broken, np.inf, b)[:, None]
        self.broken |= self.lengths >= self.op.dim
        return self

    def retain(self, keep):
        """Keep only the columns listed in ``keep``, in that order."""
        keep = np.asarray(keep, dtype=int)
        self._basis = self._basis[keep]
        self.alpha = [a[keep] for a in self.alpha]
        self.beta = [b[keep] for b in self.beta]
        self.lengths = self.lengths[keep]
        self.broken = self.broken[keep]
        self._scale = self._scale[keep]
        self.start_index = None if self.start_index is None else self.start_index[keep]
        self.columns = keep.size

    def coefficients(self, p):
        """alpha and beta of the leading p steps of every column, each (b, p).

        Column c's entries are valid up to its own length; beta[c, p-1]
        couples its order-p matrix to step p+1.
        """
        if not 0 <= p <= self.steps:
            raise ValueError(f"asked for {p} steps; 0 to {self.steps} are available")
        shape = (self.columns, p)
        return np.array(self.alpha[:p]).T.reshape(shape), np.array(self.beta[:p]).T.reshape(shape)


def tridiag_eigen(alpha, beta):
    """Eigenvalues and squared first eigenvector entries of a Jacobi matrix.

    alpha is its diagonal and beta its off-diagonal, one entry shorter.
    LAPACK ``dstev`` (implicit QL/QR) does the eigensolve.  Nodes are
    returned ascending; weights sum to 1.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (max(alpha.size - 1, 0),):
        raise ValueError("beta must have one entry less than alpha")
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ConvergenceError("tridiagonal eigensolve given non-finite entries")
    if alpha.size <= 1:
        return alpha.copy(), np.ones(alpha.size)
    # imported here so that loading the package does not load scipy.linalg
    from scipy.linalg.lapack import dstev

    nodes, vectors, info = dstev(alpha, beta)
    if info != 0:
        raise ConvergenceError(f"LAPACK dstev failed (info={info})")
    return nodes, vectors[0] ** 2


def dense_expm(M):
    """``scipy.linalg.expm`` of a square matrix of dimension at most DENSE_DIM_LIMIT."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if M.shape[0] > DENSE_DIM_LIMIT:
        raise SizeLimitError(f"dense exponential limited to dimension {DENSE_DIM_LIMIT}, got {M.shape[0]}")
    # imported here so that loading the package does not load scipy.linalg
    from scipy.linalg import expm

    return expm(M)


def dense_gram(g, side):
    """(lambda ascending, Q) from ``eigh`` of A A^T (side "hub") or A^T A ("authority").

    Computed once per graph and side, read-only.  Every dense method is a
    function of the Gram matrix of the side it scores: the hub block of the
    bipartite exponential is cosh(sqrt(A A^T)), the authority block
    cosh(sqrt(A^T A)).  Roundoff can leave an eigenvalue slightly below 0.
    Graphs with more than DENSE_DIM_LIMIT nodes raise SizeLimitError.
    """
    if side not in ("hub", "authority"):
        raise ValueError(f"side must be 'hub' or 'authority', got '{side}'")
    if g.n > DENSE_DIM_LIMIT:
        raise SizeLimitError(f"dense path limited to n <= {DENSE_DIM_LIMIT}, got {g.n}")
    key = f"_dense_gram_{side}"
    gram = g.__dict__.get(key)
    if gram is None:
        A = g.forward.toarray()
        gram = np.linalg.eigh(A @ A.T if side == "hub" else A.T @ A)
        for part in gram:
            part.flags.writeable = False
        g.__dict__[key] = gram  # the dataclass is frozen; its __dict__ is not
    return gram


def expm_action(g, v, transpose=False, rel_tol=1e-10):
    """Apply e^A (or e^{A^T}) to a vector by scaled truncated Taylor steps.

    The exponential is split as (e^{A/s})^s.  With d_p = ||A^p||_1^(1/p) and
    alpha_p = max(d_p, d_{p+1}), ||A^j||_1 <= alpha_p^j for all j >= p(p-1)
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011); for A >= 0,
    ||A^p||_1 = ||(A^T)^p 1||_inf.  s is the ceiling of the least alpha_p,
    p = 1..8 (at most ceil(||A||_1)), and p the least index with alpha_p <= s.
    A step stops at a zero term or, from term p(p-1) - 1 on, once that bound
    on all later terms is below rel_tol/(4s) of the least nonzero |entry|.
    A heavy edge costs one step; a path of 8 or more heavy edges still takes
    about its weight in steps.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n,):
        raise ValueError(f"expected vector of length {g.n}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector has non-finite entries")
    # (A^T)^p 1 from the column sums A^T 1 = in-strengths (out-strengths if transposed)
    x = g.out_strengths() if transpose else g.in_strengths()
    d = [float(x.max(initial=0.0))]
    with np.errstate(over="ignore"):  # an overflowed d_p is never the minimum
        for p in range(2, 10):
            x = spmv(g, x, transpose=not transpose)
            d.append(float(x.max(initial=0.0)) ** (1.0 / p))
    alpha = list(map(max, d[:-1], d[1:]))
    s = max(1, math.ceil(min(alpha)))
    p = next(p for p, a in enumerate(alpha, 1) if a <= s)
    r, step_tol, w = alpha[p - 1] / s, rel_tol / (4.0 * s), v.copy()
    for _ in range(s):
        term, acc, tail = w.copy(), w.copy(), 2.0 * r * np.abs(w).sum()
        for k in range(1, 1000):
            term = spmv(g, term, transpose=transpose) / (s * k)
            acc += term
            tail *= r / (k + 1)  # 2 ||w||_1 r^(k+1)/(k+1)! bounds the terms after k, as r <= 1
            a = np.abs(acc)
            if not term.any() or (k + 1 >= p * (p - 1) and tail <= step_tol * a[a > 0].min(initial=math.inf)):
                break
        else:
            raise ConvergenceError("Taylor series for the exponential action did not converge")
        w = acc
    return w


@dataclass
class SpectralEstimate:
    """Leading two singular values of A with convergence diagnostics.

    ``vector`` is the last iterate for the leading right singular vector
    (None when A = 0: no edges, or every weight 0).
    """

    sigma1: float
    sigma2: float
    iterations: int
    converged: bool
    vector: np.ndarray = None


@dataclass
class SpectralRadiusEstimate:
    """Perron-root estimate; value is a conservative upper bound when not converged."""

    value: float
    converged: bool


def _ramp_start(n):
    # generic deterministic start: not orthogonal to "interesting" eigenvectors
    # the way the constant vector can be on symmetric examples
    v = np.linspace(1.0, 2.0, n)
    return v / np.linalg.norm(v)


class LeadingPair(NamedTuple):
    """sigma_1 of A, the power iterate for its right singular vector (None
    when A = 0), the iterations taken and whether they converged."""

    sigma1: float
    vector: np.ndarray
    iterations: int
    converged: bool


def leading_singular_pair(g, tol=1e-10, max_iter=5000):
    """sigma_1 of A by power iteration on A^T A from the normalized constant vector.

    A product of norm 0 stops the iteration.  When |A x| = 0 for the start
    x > 0, sigma_1 = 0, converged, with no vector: A = 0 (no edges, or every
    weight 0), or its weights lie below about 1e-154, where the norm
    underflows.  Otherwise only underflow stops it, unconverged (weights
    below about 1e-77: |A^T A x| >= |Ax|^2 > 0 after a nonzero product).
    The first half of ``power_singular_pair``, for callers that read only
    sigma_1 and the iterate; both give them bit for bit alike.
    """
    x = np.ones(g.n) / math.sqrt(g.n)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        y = spmv(g, spmv(g, x), transpose=True)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        y /= ny
        iterations += 1
        if np.linalg.norm(y - x, np.inf) < tol:
            x = y
            converged = True
            break
        x = y
    sigma1 = float(np.linalg.norm(spmv(g, x)))
    if sigma1 == 0.0 and iterations == 0:
        return LeadingPair(0.0, None, 0, True)
    return LeadingPair(sigma1, x, iterations, converged)


def power_singular_pair(g, tol=1e-10, max_iter=5000):
    """Estimate sigma_1 and sigma_2 of A by alternating power iteration.

    sigma_1 comes from iterating x <- A^T A x from the normalized constant
    vector (``leading_singular_pair``); sigma_2 from the same iteration
    deflated against the converged right singular vector (started from a
    ramp vector, which keeps a component in the secondary eigenspace even
    when the constant vector is orthogonal to it).
    """
    sigma1, x, iterations, converged = leading_singular_pair(g, tol, max_iter)
    if x is None:
        return SpectralEstimate(0.0, 0.0, 0, True)

    # one-shot deflation for the gap diagnostic
    z = _ramp_start(g.n)
    z -= (x @ z) * x
    nz = np.linalg.norm(z)
    sigma2 = 0.0
    if nz > 0:
        z /= nz
        for _ in range(max_iter):
            y = spmv(g, spmv(g, z), transpose=True)
            y -= (x @ y) * x  # deflate: iterate (I - xx^T) A^T A on the complement
            ny = np.linalg.norm(y)
            if ny == 0.0:
                break
            y /= ny
            iterations += 1
            if np.linalg.norm(y - z, np.inf) < tol:
                z = y
                break
            z = y
        sigma2 = float(np.linalg.norm(spmv(g, z)))
    sigma2 = min(sigma2, sigma1)
    return SpectralEstimate(sigma1, sigma2, iterations, converged, x)


def radius_bound(g, tol=1e-10, max_iter=5000):
    """min(max weighted out-degree, sigma_1): a positive bound on rho(A) for a nonempty A >= 0."""
    return float(min(g.out_strengths().max(initial=0.0), leading_singular_pair(g, tol, max_iter).sigma1))


def spectral_radius(g, tol=1e-10, max_iter=5000):
    """Perron root of the nonnegative adjacency matrix by power iteration.

    Uses 1-norm normalization.  An iterate A^k x = 0 from the positive
    start x proves A^k = 0 (A >= 0), so rho = 0 exactly.  When the
    iteration fails to settle, returns the conservative ``radius_bound``
    with converged=False.
    """
    n = g.n
    if g.m == 0:
        return SpectralRadiusEstimate(0.0, True)

    x = np.ones(n) / n
    for _ in range(max_iter):
        y = spmv(g, x)
        ny = float(np.linalg.norm(y, 1))
        if ny == 0.0:
            return SpectralRadiusEstimate(0.0, True)
        y /= ny
        # the ratio alone can repeat while still oscillating (complex
        # subdominant eigenvalues); the iterate direction is the real signal
        if np.linalg.norm(y - x, np.inf) < tol:
            return SpectralRadiusEstimate(ny, True)
        x = y
    return SpectralRadiusEstimate(radius_bound(g, tol, max_iter), False)
