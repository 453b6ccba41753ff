"""Gauss and Radau estimates on the Gram operators: bracketing, monotonicity, exactness.

Truth for hub i is E[i, i] and for authority i E[n + i, n + i], with E the
exponential of the 2n x 2n bipartite matrix; the Gram rules integrate
cosh(sqrt(x)) over A A^T and A^T A.
"""

import math

import numpy as np
import pytest

import hubauth.linalg
import hubauth.quadrature
from hubauth import (
    ConvergenceError,
    NodeBounds,
    ParameterError,
    ResolventKernel,
    bilinear_estimate,
    from_edges,
    power_singular_pair,
    spectrum_interval,
)
from hubauth.graph import GramOperator, spmv
from hubauth.linalg import LanczosRun, leading_singular_pair
from hubauth.quadrature import (
    COSH_SQRT,
    P_START,
    P_STEP,
    SINHC_SQRT,
    BracketPool,
    _gauss_stacked,
    radau_bounds_from_run,
)

from conftest import (
    dense_adjacency,
    dense_bipartite,
    edgeless_graph,
    path_graph,
    scipy_expm,
    zipf_offset_graph,
)

SIDES = ("hub", "authority")


def _diagonal(E, g, side):
    """The hub or authority diagonal of the bipartite exponential E."""
    return np.diag(E)[: g.n] if side == "hub" else np.diag(E)[g.n :]


def _radau(op, node, p, iv, f):
    """The order-p bracket of one node from a fresh one-column block run."""
    return radau_bounds_from_run(LanczosRun(op, [node]), p, iv, f)[0]


def _gauss(alpha, beta, f):
    """The Gauss rule of one Jacobi matrix (diagonal alpha, off-diagonal beta)."""
    return float(_gauss_stacked(np.array([alpha], dtype=float), np.array([beta], dtype=float), f)[0])


def _run_gauss(run, f, p=None):
    """The Gauss rule at order p (all completed steps by default) of a one-column run."""
    p = run.steps if p is None else p
    alpha, beta = run.coefficients(p)
    return _gauss(alpha[0], beta[0, : p - 1], f)


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


# ---------------------------------------------------------- spectrum_interval


def test_spectrum_interval_two_cycle():
    g = from_edges([(0, 1), (1, 0)])
    iv = spectrum_interval(g)
    # A^T A = I: both bounds give sigma_1^2 = 1 up to the rounding slack
    assert iv.b == pytest.approx(1.0, abs=1e-10)
    assert iv.a == 0.0


def test_spectrum_interval_example3(ex3):
    iv = spectrum_interval(ex3)
    # sigma_1 = 2 exactly (dense SVD oracle) and ||A||_1 ||A||_inf = 4^2: the
    # Collatz-Wielandt bound is sigma_1^2 up to its rounding slack, no padding
    assert 4.0 <= iv.b <= 4.0 * (1 + 1e-13) ** 2


def test_spectrum_interval_contains_dense_spectrum():
    g = path_graph(5)
    iv = spectrum_interval(g)
    A = dense_adjacency(g)
    for gram in (A @ A.T, A.T @ A):
        eigs = np.linalg.eigvalsh(gram)
        assert iv.a <= eigs.min() and eigs.max() <= iv.b


def test_spectrum_interval_runs_only_the_sigma1_iteration(monkeypatch):
    # the deflated sigma_2 iteration of power_singular_pair feeds nothing here;
    # the leading iterate, and so the bound, must be bit for bit the same
    g = zipf_offset_graph(300, 4, seed=5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return spmv(*args, **kwargs)

    for module in (hubauth.linalg, hubauth.quadrature):
        monkeypatch.setattr(module, "spmv", counted)
    iv = spectrum_interval(g)
    used = len(calls)
    lead = leading_singular_pair(g)
    # two products per power step, one for sigma_1, two for the Collatz-Wielandt bound
    assert used == 2 * lead.iterations + 1 + 2
    calls.clear()
    est = power_singular_pair(g)
    assert est.iterations > lead.iterations
    assert used < len(calls)
    assert est.sigma1 == lead.sigma1 and np.array_equal(est.vector, lead.vector)
    assert spectrum_interval(g, est) == iv


# ------------------------------------------------------------------ Gauss rule


def test_gauss_estimate_scalar_exp():
    assert _gauss([4.0], [], COSH_SQRT) == pytest.approx(math.cosh(2.0), abs=1e-12)
    assert _gauss([4.0], [], SINHC_SQRT) == pytest.approx(math.sinh(2.0) / 2.0, abs=1e-12)


def test_gauss_estimate_symmetric_pair_is_cosh():
    # the 2-cycle, a symmetric pair: A A^T = I, so node 0's hub score is cosh(1), printed 1.5431
    run = LanczosRun(GramOperator(from_edges([(0, 1), (1, 0)]), "hub"), [0]).extend(4)
    assert run.breakdown and run.steps == 1
    assert _run_gauss(run, COSH_SQRT) == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert _run_gauss(run, COSH_SQRT) == pytest.approx(1.5431, abs=5e-5)


def test_gauss_estimate_lower_bounds_dense_truth(ex1):
    E = scipy_expm(dense_bipartite(ex1))
    for side in SIDES:
        run = LanczosRun(GramOperator(ex1, side), [0]).extend(2)
        value = _run_gauss(run, COSH_SQRT, 2)
        assert value <= _diagonal(E, ex1, side)[0] + 1e-12


def test_cosh_sqrt_kernel_is_its_series_on_both_sides_of_zero():
    x = np.array([-3.0, -1e-20, 0.0, 1e-20, 0.5, 4.0])
    series = sum(x**k / math.factorial(2 * k) for k in range(40))
    np.testing.assert_allclose(COSH_SQRT(x), series, rtol=1e-15)
    assert _gauss([4.0], [], COSH_SQRT) == pytest.approx(math.cosh(2.0))


def test_sinhc_sqrt_kernel_is_its_series_on_both_sides_of_zero():
    x = np.array([-3.0, -1e-20, 0.0, 1e-20, 0.5, 4.0])
    series = sum(x**k / math.factorial(2 * k + 1) for k in range(40))
    np.testing.assert_allclose(SINHC_SQRT(x), series, rtol=1e-15)
    assert SINHC_SQRT(0.0) == 1.0


def test_gauss_estimate_rejects_foreign_functions(ex1):
    op = GramOperator(ex1, "hub")
    with pytest.raises(ParameterError, match="kernel"):
        _radau(op, 0, 2, spectrum_interval(ex1), np.exp)
    with pytest.raises(ParameterError, match="kernel"):
        bilinear_estimate(op, _unit(4, 0), _unit(4, 1), 2, np.exp)
    with pytest.raises(ParameterError, match="kernel"):
        BracketPool(op, spectrum_interval(ex1), np.exp)


def test_resolvent_pole_inside_interval_rejected():
    with pytest.raises(ParameterError, match="pole"):
        _gauss([0.0, 0.0], [2.0], ResolventKernel(1.0))  # nodes at +-2


def test_node_bounds_report_overflow_as_a_numerical_failure():
    # a non-finite end comes from an overflowed kernel; an inverted one is a caller's error
    for lower, upper in ((1.0, math.inf), (math.nan, 2.0)):
        with pytest.raises(ConvergenceError, match="overflow"):
            NodeBounds(0, lower, upper, p=3)
    with pytest.raises(ValueError, match="inverted"):
        NodeBounds(0, 2.0, 1.0, p=3)


# -------------------------------------------------------- radau_bounds_from_run


def test_radau_breakdown_is_exact_star_hub(ex3):
    # node 5 points at 1..4, which share no out-neighbour with it: e_5 is an
    # eigenvector of A A^T with eigenvalue 4
    nb = _radau(GramOperator(ex3, "hub"), 5, 6, spectrum_interval(ex3), COSH_SQRT)
    assert nb.exact
    assert nb.lower == nb.upper
    assert nb.lower == pytest.approx(math.cosh(2.0), abs=1e-10)
    assert nb.lower == pytest.approx(3.7622, abs=5e-5)


def test_radau_edgeless_node_scores_one():
    g = edgeless_graph(3)
    iv = spectrum_interval(g)
    for side in SIDES:
        for node in range(3):
            nb = _radau(GramOperator(g, side), node, 4, iv, COSH_SQRT)
            assert nb.exact
            assert nb.lower == pytest.approx(1.0, abs=1e-12)


def test_radau_brackets_shrink_and_contain(ex1):
    E = scipy_expm(dense_bipartite(ex1))
    iv = spectrum_interval(ex1)
    for side in SIDES:
        truth = _diagonal(E, ex1, side)[0]
        prev_width = math.inf
        for p in range(1, 4):
            nb = _radau(GramOperator(ex1, side), 0, p, iv, COSH_SQRT)
            assert nb.lower - 1e-12 <= truth <= nb.upper + 1e-12
            width = nb.upper - nb.lower
            assert width <= prev_width + 1e-12
            prev_width = width


def test_radau_reused_run_matches_fresh(ex1):
    iv = spectrum_interval(ex1)
    for side in SIDES:
        op = GramOperator(ex1, side)
        run = LanczosRun(op, [1])
        for p in (1, 2, 3):
            incremental = radau_bounds_from_run(run, p, iv, COSH_SQRT)[0]
            fresh = _radau(op, 1, p, iv, COSH_SQRT)
            assert incremental.lower == pytest.approx(fresh.lower, abs=1e-13)
            assert incremental.upper == pytest.approx(fresh.upper, abs=1e-13)


# ----------------------------------------------------------------- BracketPool


def test_bracket_pool_schedule_tightens_to_the_exact_value():
    # every Gram run on this graph takes several scheduled orders before its exact step;
    # each advance takes one step, resuming a rebuilt run at the stored order
    g = zipf_offset_graph(12, 3, 0)
    iv = spectrum_interval(g)
    E = scipy_expm(dense_bipartite(g))
    for side in SIDES:
        op = GramOperator(g, side)
        truth = _diagonal(E, g, side)
        for index in range(g.n):
            pool = BracketPool(op, iv, COSH_SQRT)
            orders, prev = [], None
            while prev is None or not (prev.exact or prev.p >= 64):
                pool.advance([index], 64)
                nb = pool.bounds[index]
                orders.append(nb.p)
                if prev is not None:
                    assert prev.lower <= nb.lower <= nb.upper <= prev.upper
                prev = nb
            assert len(orders) >= 3
            assert nb.exact and nb.lower == nb.upper
            assert nb.lower == pytest.approx(truth[index], rel=1e-12)
            scheduled = [P_START + P_STEP * j for j in range(len(orders))]
            # every order follows the schedule, except a final exact step at the run's
            # length, which the last scheduled order's steps reach and the one before does not
            assert orders[:-1] == scheduled[:-1]
            assert orders[-1] == LanczosRun(op, [index]).extend(64).lengths[0]
            assert scheduled[-2] < orders[-1] <= scheduled[-1]


def test_bracket_pool_takes_order_one_then_goes_on_to_the_schedule():
    # the sparse order-1 brackets are a one-step run's, bit for bit; a run
    # resumed from them ends where a direct run does, and the order-P_START
    # brackets nest in the order-1 ones
    g = zipf_offset_graph(200, 5, 0)
    iv = spectrum_interval(g)
    nodes = np.arange(g.n)
    for side in SIDES:
        op = GramOperator(g, side)
        pool = BracketPool(op, iv, COSH_SQRT)
        coarse = pool.first_pass(nodes)
        assert [nb.node for nb in coarse] == list(nodes) and all(nb.p == 1 for nb in coarse)
        assert pool.bounds == coarse
        run = LanczosRun(op, nodes)
        # radau_bounds_from_run at order 1 reads the one step first_pass takes
        assert coarse == radau_bounds_from_run(run, 1, iv, COSH_SQRT)
        assert run.steps == 1
        pool.advance(nodes, 64)
        fine = pool.bounds
        assert all(nb.p == P_START and not nb.exact for nb in fine)
        direct = BracketPool(op, iv, COSH_SQRT)
        direct.advance(nodes, 64)
        assert fine == direct.bounds
        for a, b in zip(coarse, fine):
            assert a.lower <= b.lower <= b.upper <= a.upper


def test_bracket_pool_intersects_brackets_through_the_module_radau(ex1, monkeypatch):
    # roundoff can move a later bracket outward or wholly past the earlier
    # one; a bracket past it collapses onto its nearer end, so each step nests
    scripted = iter([(1.0, 3.0), (1.5, 3.5), (3.2, 4.0), (2.0, 2.5)])
    orders, stored = [], []

    def radau(run, p, iv, f):
        orders.append(p)
        lower, upper = next(scripted)
        return [NodeBounds(int(run.start_index[0]), lower, upper, p=p)]

    def done(b):
        stored.append((b.lower, b.upper))
        return False

    monkeypatch.setattr(hubauth.quadrature, "radau_bounds_from_run", radau)
    pool = BracketPool(GramOperator(ex1, "hub"), spectrum_interval(ex1), COSH_SQRT)
    pool.advance([0], P_START + 3 * P_STEP, done)
    stored.append((pool.bounds[0].lower, pool.bounds[0].upper))
    assert stored == [(1.0, 3.0), (1.5, 3.0), (3.0, 3.0), (3.0, 3.0)]
    assert orders == [P_START + P_STEP * j for j in range(4)]
    assert pool.bounds[0].p == P_START + 3 * P_STEP


def test_bracket_pool_stops_at_p_max():
    # every run on this graph breaks down only at step 11 or later, so p_max = 4
    # ends it at order 4 (4 Lanczos steps) after two schedule steps, however
    # many ``done`` lets go on
    g = zipf_offset_graph(12, 3, 0)
    iv = spectrum_interval(g)
    for side in SIDES:
        pool = BracketPool(GramOperator(g, side), iv, COSH_SQRT)
        pool.advance(range(g.n), 4, done=lambda b: False)
        assert all(nb.p == 4 and not nb.exact for nb in pool.bounds)
        assert not LanczosRun(GramOperator(g, side), np.arange(g.n)).extend(10).broken.any()


# ----------------------------------------------------------- bilinear_estimate


def test_bilinear_hub_authority_on_path():
    # path 0 -> 1 -> 2: u = A^T e_0 = e_1 = v, so q(u - v) is the zero vector's form
    g = path_graph(3)
    E = scipy_expm(dense_bipartite(g))
    u = spmv(g, _unit(3, 0), transpose=True)
    assert np.array_equal(u, _unit(3, 1))
    got = bilinear_estimate(GramOperator(g, "authority"), u, _unit(3, 1), 8, SINHC_SQRT)
    assert got == pytest.approx(E[0, g.n + 1], abs=1e-12)


def test_bilinear_disconnected_nodes_are_zero():
    g = from_edges([], n=4)
    got = bilinear_estimate(GramOperator(g, "hub"), _unit(4, 0), _unit(4, 1), 4, COSH_SQRT)
    assert got == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("p", [0, -1])
def test_bilinear_rejects_orders_below_one(ex1, p):
    with pytest.raises(ParameterError, match="p must be at least 1"):
        bilinear_estimate(GramOperator(ex1, "hub"), _unit(4, 0), _unit(4, 1), p, COSH_SQRT)


def test_bilinear_hub_block_matches_dense(ex1):
    E = scipy_expm(dense_bipartite(ex1))
    got = bilinear_estimate(GramOperator(ex1, "hub"), _unit(4, 0), _unit(4, 1), 10, COSH_SQRT)
    assert got == pytest.approx(E[0, 1], abs=1e-12)


# ------------------------------------------------------- bounded-rule sanity


def test_gauss_below_radau_upper_at_equal_p(ex1):
    iv = spectrum_interval(ex1)
    for side in SIDES:
        op = GramOperator(ex1, side)
        for p in (1, 2, 3):
            run = LanczosRun(op, [0]).extend(p + 1)
            gauss = _run_gauss(run, COSH_SQRT, p)
            upper = _radau(op, 0, p, iv, COSH_SQRT).upper
            assert gauss <= upper + 1e-12


def test_resolvent_brackets_reproduce_dense_diagonal(ex1):
    sigma1 = power_singular_pair(ex1).sigma1
    c = 0.9 / sigma1
    kernel = ResolventKernel(c**2)
    A = dense_adjacency(ex1)
    iv = spectrum_interval(ex1)
    for side, gram in (("hub", A @ A.T), ("authority", A.T @ A)):
        truth = np.linalg.inv(np.eye(ex1.n) - c**2 * gram)
        for node in range(ex1.n):
            nb = _radau(GramOperator(ex1, side), node, 10, iv, kernel)
            assert nb.lower - 1e-8 <= truth[node, node] <= nb.upper + 1e-8
            assert nb.upper - nb.lower < 1e-6


def test_breakdown_gauss_matches_dense(ex3):
    # star center: Krylov space exhausts quickly, the estimate must be exact
    E = scipy_expm(dense_bipartite(ex3))
    run = LanczosRun(GramOperator(ex3, "hub"), [5]).extend(12)
    assert run.breakdown
    value = _run_gauss(run, COSH_SQRT)
    assert value == pytest.approx(E[5, 5], abs=1e-10)
