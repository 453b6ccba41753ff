"""Numerical kernels: Lanczos, tridiagonal eigensolver, the shared dense SVD,
matrix exponentials, and power-iteration spectral estimates.

Everything here is deterministic: start vectors are fixed (unit vectors for
Lanczos, normalized ones for power iterations) so repeated runs produce
bit-identical results.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SizeLimitError
from .graph import spmv

__all__ = [
    "DENSE_DIM_LIMIT",
    "JacobiMatrix",
    "LanczosRun",
    "SpectralEstimate",
    "SpectralRadiusEstimate",
    "lanczos",
    "tridiag_eigen",
    "dense_expm",
    "dense_svd",
    "expm_action",
    "power_singular_pair",
    "spectral_radius",
]

# Dense fallbacks and oracles are restricted to this matrix dimension.
DENSE_DIM_LIMIT = 4000

# Relative off-diagonal size below which Lanczos is declared broken down.
BREAKDOWN_RTOL = 1e-12


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix from Lanczos (diagonal alpha, off-diagonal beta)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if len(self.beta) != max(len(self.alpha) - 1, 0):
            raise ValueError("beta must have one entry less than alpha")
        if len(self.beta) and not np.all(self.beta > 0):
            raise ValueError("off-diagonal entries must be strictly positive")

    @property
    def order(self):
        return len(self.alpha)

    def dense(self):
        J = np.diag(self.alpha)
        if self.order > 1:
            J += np.diag(self.beta, 1) + np.diag(self.beta, -1)
        return J


class _DenseOperator:
    """Adapter presenting a square ndarray through the matvec protocol."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operator matrix must be square")

    @property
    def dim(self):
        return self.mat.shape[0]

    def matvec(self, x):
        return self.mat @ x


def _as_operator(op):
    if hasattr(op, "matvec") and hasattr(op, "dim"):
        return op
    return _DenseOperator(op)


class LanczosRun:
    """Incremental Lanczos tridiagonalization with full reorthogonalization.

    The basis is retained so a run can be extended to a higher order later
    without recomputation (the top-k refinement loop relies on this).  All
    runs start from a unit coordinate vector.
    """

    def __init__(self, op, start_index):
        self.op = _as_operator(op)
        if not 0 <= start_index < self.op.dim:
            raise ValueError(f"start index {start_index} outside [0, {self.op.dim})")
        self.start_index = start_index
        v0 = np.zeros(self.op.dim)
        v0[start_index] = 1.0
        # basis grows by column; capacity doubles on demand
        self._basis = np.zeros((self.op.dim, 8))
        self._basis[:, 0] = v0
        self._nvec = 1
        self.alpha = []
        self.beta = []
        self.breakdown = False
        self._scale = 0.0

    @property
    def steps(self):
        return len(self.alpha)

    def _push_vector(self, v):
        if self._nvec == self._basis.shape[1]:
            grown = np.zeros((self.op.dim, 2 * self._basis.shape[1]))
            grown[:, : self._nvec] = self._basis[:, : self._nvec]
            self._basis = grown
        self._basis[:, self._nvec] = v
        self._nvec += 1

    def extend(self, p):
        """Run Lanczos until p steps are complete or breakdown stops it.

        Requests beyond the operator dimension are capped there: once the
        basis spans the whole space the factorization is exact and the run
        reports breakdown.
        """
        p = min(p, self.op.dim)
        while self.steps < p and not self.breakdown:
            j = self.steps
            v = self._basis[:, j]
            w = self.op.matvec(v)
            a = float(v @ w)
            w = w - a * v
            if j > 0:
                w = w - self.beta[j - 1] * self._basis[:, j - 1]
            # full reorthogonalization, two passes (second pass scrubs the
            # residual left by cancellation in the first)
            Q = self._basis[:, : self._nvec]
            for _ in range(2):
                w = w - Q @ (Q.T @ w)
            b = float(np.linalg.norm(w))
            self.alpha.append(a)
            self._scale = max(self._scale, abs(a), b)
            if b <= BREAKDOWN_RTOL * self._scale:
                self.breakdown = True
            else:
                self.beta.append(b)
                self._push_vector(w / b)
        if self.steps >= self.op.dim:
            self.breakdown = True
        return self

    def jacobi(self, p=None):
        """Jacobi matrix of the leading p completed steps."""
        if p is None:
            p = self.steps
        if p > self.steps:
            raise ValueError(f"only {self.steps} steps available, asked for {p}")
        return JacobiMatrix(np.array(self.alpha[:p]), np.array(self.beta[: p - 1] if p > 1 else []))

    def next_offdiag(self, p):
        """The off-diagonal coupling the order-p matrix to step p+1."""
        if len(self.beta) < p:
            raise ValueError("run has not been extended past step p")
        return self.beta[p - 1]

    def basis(self):
        """Orthonormal Lanczos vectors computed so far (columns)."""
        return self._basis[:, : self._nvec].copy()


def lanczos(op, start_node, p_max):
    """Tridiagonalize a symmetric operator from the start_node coordinate vector.

    Returns (JacobiMatrix, breakdown).  Breakdown is a normal outcome: the
    Krylov space became invariant and the returned matrix is exact.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    run = LanczosRun(op, start_node).extend(p_max)
    return run.jacobi(), run.breakdown


def tridiag_eigen(J):
    """Eigenvalues of a Jacobi matrix plus squared first eigenvector entries.

    LAPACK ``dstev`` (implicit QL/QR) does the eigensolve.  Nodes are
    returned ascending; weights sum to 1.
    """
    alpha = np.asarray(J.alpha, dtype=float)
    beta = np.asarray(J.beta, dtype=float)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ConvergenceError("tridiagonal eigensolve given non-finite entries")
    if J.order <= 1:
        return alpha.copy(), np.ones(J.order)
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


def dense_svd(g):
    """Full SVD (U, s, Vt) of the dense A, computed once per graph, read-only.

    Every dense method is a function of s applied through U (hubs) or V (authorities).
    """
    svd = g.__dict__.get("_dense_svd")
    if svd is None:
        svd = np.linalg.svd(g.forward.toarray())
        for part in svd:
            part.flags.writeable = False
        g.__dict__["_dense_svd"] = svd  # the dataclass is frozen; its __dict__ is not
    return svd


def expm_action(g, v, transpose=False, rel_tol=1e-10):
    """Apply e^A (or e^{A^T}) to a vector by scaled truncated Taylor steps.

    The exponential is split as (e^{A/s})^s with s chosen so each factor's
    Taylor series converges fast; each step sums terms until the tail is
    negligible relative to the accumulated result.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n,):
        raise ValueError(f"expected vector of length {g.n}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector has non-finite entries")
    # 1-norm of A = max column sum = max in-strength (out-strength if transposed)
    norm = float((g.out_strengths() if transpose else g.in_strengths()).max(initial=0.0))
    s = max(1, int(math.ceil(norm)))
    step_tol = rel_tol / (4.0 * s)
    w = v.copy()
    for _ in range(s):
        term = w.copy()
        acc = w.copy()
        k = 1
        while True:
            term = spmv(g, term, transpose=transpose) / (s * k)
            acc += term
            tnorm = np.linalg.norm(term, np.inf)
            if tnorm <= step_tol * max(np.linalg.norm(acc, np.inf), 1e-300):
                break
            k += 1
            if k > 1000:
                raise ConvergenceError("Taylor series for the exponential action did not converge")
        w = acc
    return w


@dataclass
class SpectralEstimate:
    """Leading two singular values of A with convergence diagnostics."""

    sigma1: float
    sigma2: float
    iterations: int
    converged: bool
    residual: float


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


def power_singular_pair(g, tol=1e-10, max_iter=5000):
    """Estimate sigma_1 and sigma_2 of A by alternating power iteration.

    sigma_1 comes from iterating x <- A^T A x from the normalized constant
    vector; sigma_2 from the same iteration deflated against the converged
    right singular vector (started from a ramp vector, which keeps a
    component in the secondary eigenspace even when the constant vector is
    orthogonal to it).
    """
    n = g.n
    if g.m == 0:
        return SpectralEstimate(0.0, 0.0, 0, True, 0.0)
    x = np.ones(n) / math.sqrt(n)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        y = spmv(g, spmv(g, x), transpose=True)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            # start vector lies in the null space; fall back to the ramp
            x = _ramp_start(n)
            iterations += 1
            continue
        y /= ny
        iterations += 1
        if np.linalg.norm(y - x, np.inf) < tol:
            x = y
            converged = True
            break
        x = y
    sigma1 = float(np.linalg.norm(spmv(g, x)))
    residual = float(np.linalg.norm(spmv(g, spmv(g, x), transpose=True) - sigma1**2 * x))

    # one-shot deflation for the gap diagnostic
    z = _ramp_start(n)
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
    return SpectralEstimate(sigma1, sigma2, iterations, converged, residual)


def spectral_radius(g, tol=1e-10, max_iter=5000):
    """Perron root of the nonnegative adjacency matrix by power iteration.

    Uses 1-norm normalization.  When the iteration dies (nilpotent A) or
    fails to settle, returns the conservative bound
    min(max weighted out-degree, sigma_1) with converged=False.
    """
    n = g.n
    if g.m == 0:
        return SpectralRadiusEstimate(0.0, True)

    def fallback():
        bound = min(g.out_strengths().max(initial=0.0), power_singular_pair(g, tol, max_iter).sigma1)
        return SpectralRadiusEstimate(float(bound), False)

    x = np.ones(n) / n
    for _ in range(max_iter):
        y = spmv(g, x)
        ny = float(np.linalg.norm(y, 1))
        if ny == 0.0:
            return fallback()
        y /= ny
        # the ratio alone can repeat while still oscillating (complex
        # subdominant eigenvalues); the iterate direction is the real signal
        if np.linalg.norm(y - x, np.inf) < tol:
            return SpectralRadiusEstimate(ny, True)
        x = y
    return fallback()
