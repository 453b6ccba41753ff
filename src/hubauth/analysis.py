"""Cross-method ranking comparison and spectral diagnostics.

The spectral diagnostics import ``linalg`` and ``quadrature`` when they
run, so comparing two rankings loads neither.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SizeLimitError

__all__ = [
    "ComparisonReport",
    "GapReport",
    "compare",
    "spectral_gap",
    "symmetry_fraction",
    "estrada_index",
]


@dataclass
class ComparisonReport:
    """Agreement between two rankings: tie-aware Kendall tau-b plus top-k overlap."""

    method_a: str
    method_b: str
    kendall_tau_b: float
    overlap_at: dict
    top_members: dict = field(default_factory=dict)


@dataclass
class GapReport:
    """Gap between the two leading singular values, with a HITS-reliability note."""

    sigma1: float
    sigma2: float
    relative_gap: float
    annotation: str


def _topk_weights(table, k):
    """Fractional top-k membership: a tie group straddling rank k shares its slots."""
    weights = {}
    filled = 0
    for grp in table.groups:
        if filled >= k:
            break
        slots = min(k - filled, len(grp))
        w = slots / len(grp)
        for v in grp:
            weights[v] = w
        filled += len(grp)
    return weights


def _tied_pairs(*keys):
    """Pairs of positions that agree on every key."""
    rows = np.stack(keys)[:, np.lexsort(keys)]
    runs = np.diff(np.flatnonzero(np.r_[True, (rows[:, 1:] != rows[:, :-1]).any(axis=0), True]))
    return int((runs * (runs - 1) // 2).sum())


def _discordant_pairs(y):
    """Pairs i < j with y[i] > y[j] for integers y >= 0, in O(n log max(y)) time.

    From the top bit b down: within each run of values sharing the bits above
    b (contiguous, in input order), an element with bit b clear is discordant
    with every earlier one that has it set; a stable sort on y >> b then
    forms the runs for the next bit.
    """
    k = np.arange(len(y))
    count = 0
    for b in reversed(range(int(y.max(initial=0)).bit_length())):
        key = y >> b
        bit = key & 1
        first = np.concatenate([[0], np.cumsum(np.bincount(key))])  # first slot of each key once sorted
        head = first[key - bit]  # start of the element's run
        ones = np.cumsum(bit) - bit
        before = ones - ones[head]  # set bits earlier in the same run
        count += int(before[bit == 0].sum())
        sorted_y = np.empty_like(y)
        sorted_y[first[key] + np.where(bit == 1, before, k - head - before)] = y
        y = sorted_y
    return count


def _kendall_tau_b(x, y):
    """Kendall tau-b of two integer vectors, ties as in scipy.stats.kendalltau.

    NaN when either vector is constant.  Knight's method, O(n log n) time and
    O(n) memory: with the pairs sorted by (x, y), the discordant pairs are the
    strict inversions of y.
    """
    x, y = np.asarray(x), np.asarray(y)
    tot = len(x) * (len(x) - 1) // 2
    xtie, ytie = _tied_pairs(x), _tied_pairs(y)
    if xtie == tot or ytie == tot:
        return math.nan
    dis = _discordant_pairs(np.unique(y, return_inverse=True)[1][np.lexsort((y, x))])
    tau = (tot - xtie - ytie + _tied_pairs(x, y) - 2 * dis) / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))


def compare(a, b, ks=(1, 3, 5, 10)):
    """Compare two RankTables over the same node set.

    Kendall tau-b is computed on the tie-grouped rank vectors, so it is
    invariant under any strictly monotone rescaling of either score vector.
    overlap_at[k] weighs straddling tie groups fractionally, which keeps the
    measure deterministic and permutation-fair.
    """
    if len(a.ranks) != len(b.ranks):
        raise ValueError(f"rankings cover different node sets ({len(a.ranks)} vs {len(b.ranks)})")
    n = len(a.ranks)
    tau = 1.0 if np.array_equal(a.ranks, b.ranks) else _kendall_tau_b(a.ranks, b.ranks)
    if math.isnan(tau):
        # one ranking is a single all-tied group: correlation is undefined,
        # report 0 agreement strength
        tau = 0.0
    overlap = {}
    tops = {}
    for k in ks:
        kk = min(k, n)  # beyond n every node is in both top-k sets
        wa = _topk_weights(a, kk)
        wb = _topk_weights(b, kk)
        shared = sum(min(wa.get(v, 0.0), wb.get(v, 0.0)) for v in set(wa) | set(wb))
        overlap[k] = shared / kk
        tops[k] = {"a": a.top(kk), "b": b.top(kk)}
    return ComparisonReport(
        method_a=f"{a.source.method}/{a.source.side}",
        method_b=f"{b.source.method}/{b.source.side}",
        kendall_tau_b=tau,
        overlap_at=overlap,
        top_members=tops,
    )


def spectral_gap(g, tol=1e-10):
    """Relative gap (sigma1 - sigma2) / sigma1 with a plain-language annotation."""
    from .linalg import power_singular_pair

    est = power_singular_pair(g, tol=tol)
    if est.sigma1 <= 0:
        return GapReport(0.0, 0.0, 0.0, "empty spectrum; no meaningful rankings")
    gap = (est.sigma1 - est.sigma2) / est.sigma1
    gap = min(max(gap, 0.0), 1.0)
    if gap < 1e-8:
        note = "degenerate dominant singular value; HITS result depends on the start vector"
    elif gap < 0.05:
        note = "small spectral gap; exponential and HITS rankings may diverge"
    else:
        note = "well-separated dominant singular value; HITS should track the exponential ranking"
    return GapReport(est.sigma1, est.sigma2, gap, note)


def symmetry_fraction(g):
    """Fraction of directed edges whose reverse edge is also present."""
    if g.m == 0:
        return 0.0
    A = g.forward
    rows = np.repeat(np.arange(g.n), np.diff(A.indptr))
    present = A.data != 0  # a zero-weight edge is stored but not present
    u, v = rows[present], A.indices[present]
    mutual = np.count_nonzero(np.isin(v * g.n + u, u * g.n + v))
    return mutual / g.m


def estrada_index(g):
    """Trace of the bipartite exponential: twice the cosh-sum of the singular values.

    The singular values are the square roots of the eigenvalues of A^T A;
    only those eigenvalues are computed, no eigenvectors.  Raises
    ConvergenceError when the index overflows double precision.
    """
    from .linalg import DENSE_DIM_LIMIT
    from .quadrature import COSH_SQRT

    if g.n > DENSE_DIM_LIMIT:
        raise SizeLimitError(f"estrada index needs the dense singular spectrum (n <= {DENSE_DIM_LIMIT})")
    A = g.forward.toarray()
    gram = A.T @ A
    del A  # eigvalsh copies its input; the dense A need not stay alive beside both
    with np.errstate(over="ignore"):  # an overflowed term makes the sum inf, reported below
        index = float(2.0 * COSH_SQRT(np.linalg.eigvalsh(gram)).sum())
    if not math.isfinite(index):
        raise ConvergenceError("estrada index: non-finite trace (floating-point overflow)")
    return index
