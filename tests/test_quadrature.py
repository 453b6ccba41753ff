"""Gauss/Radau/Lobatto estimates: bracketing, monotonicity, exactness."""

import math

import numpy as np
import pytest

import hubauth.linalg
import hubauth.quadrature
from hubauth import (
    EXP,
    JacobiMatrix,
    NodeBounds,
    ParameterError,
    ResolventKernel,
    bilinear_estimate,
    bipartite_operator,
    from_edges,
    gauss_estimate,
    lobatto_bound,
    power_singular_pair,
    radau_bounds,
    spectrum_interval,
)
from hubauth.graph import GramOperator, spmv
from hubauth.linalg import LanczosRun, leading_singular_pair
from hubauth.quadrature import (
    COSH_SQRT,
    P_START,
    P_STEP,
    BracketRun,
    gram_interval,
    order_one_bounds,
    radau_bounds_from_run,
)

from conftest import dense_bipartite, edgeless_graph, path_graph, scipy_expm, zipf_offset_graph


# ---------------------------------------------------------- spectrum_interval


def test_spectrum_interval_two_cycle():
    g = from_edges([(0, 1), (1, 0)])
    iv = spectrum_interval(g)
    # A^T A = I: both bounds give sigma_1 = 1 up to the rounding slack
    assert iv.b == pytest.approx(1.0, abs=1e-10)
    assert iv.a == -iv.b


def test_spectrum_interval_example3(ex3):
    iv = spectrum_interval(ex3)
    # sigma_1 = 2 exactly (dense SVD oracle) and ||A||_1 ||A||_inf = 4^2: the
    # Collatz-Wielandt bound is sigma_1 up to its rounding slack, no padding
    assert 2.0 <= iv.b <= 2.0 * (1 + 1e-13)


def test_spectrum_interval_contains_dense_spectrum():
    g = path_graph(5)
    iv = spectrum_interval(g)
    eigs = np.linalg.eigvalsh(dense_bipartite(g))
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


# -------------------------------------------------------------- gauss_estimate


def test_gauss_estimate_scalar_exp():
    J = JacobiMatrix(np.array([2.0]), np.array([]))
    assert gauss_estimate(J, EXP) == pytest.approx(math.exp(2.0), abs=1e-12)


def test_gauss_estimate_symmetric_pair_is_cosh():
    # two symmetric nodes +-1 with equal weights: the node-0 hub score of the
    # 2-cycle, and the printed value 1.5431
    J = JacobiMatrix(np.zeros(2), np.array([1.0]))
    assert gauss_estimate(J, EXP) == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert gauss_estimate(J, EXP) == pytest.approx(1.5431, abs=5e-5)


def test_gauss_estimate_lower_bounds_dense_truth(ex1):
    truth = scipy_expm(dense_bipartite(ex1))[0, 0]
    run = LanczosRun(bipartite_operator(ex1), 0).extend(3)
    value = gauss_estimate(run.jacobi(3), EXP)
    assert value <= truth + 1e-12


def test_cosh_sqrt_kernel_is_its_series_on_both_sides_of_zero():
    x = np.array([-3.0, -1e-20, 0.0, 1e-20, 0.5, 4.0])
    series = sum(x**k / math.factorial(2 * k) for k in range(40))
    np.testing.assert_allclose(COSH_SQRT(x), series, rtol=1e-15)
    assert gauss_estimate(JacobiMatrix(np.array([4.0]), np.array([])), COSH_SQRT) == pytest.approx(math.cosh(2.0))


def test_gauss_estimate_rejects_foreign_functions():
    J = JacobiMatrix(np.array([0.0]), np.array([]))
    with pytest.raises(ParameterError, match="kernel"):
        gauss_estimate(J, np.exp)


def test_resolvent_pole_inside_interval_rejected():
    J = JacobiMatrix(np.array([0.0, 0.0]), np.array([2.0]))  # nodes at +-2
    with pytest.raises(ParameterError, match="pole"):
        gauss_estimate(J, ResolventKernel(1.0))


# ---------------------------------------------------------------- radau_bounds


def test_radau_breakdown_is_exact_star_hub(ex3):
    op = bipartite_operator(ex3)
    iv = spectrum_interval(ex3)
    nb = radau_bounds(op, 5, 6, iv, EXP)
    assert nb.exact
    assert nb.lower == nb.upper
    assert nb.lower == pytest.approx(math.cosh(2.0), abs=1e-10)
    assert nb.lower == pytest.approx(3.7622, abs=5e-5)


def test_radau_edgeless_node_scores_one():
    g = edgeless_graph(3)
    op = bipartite_operator(g)
    iv = spectrum_interval(g)
    for node in range(6):
        nb = radau_bounds(op, node, 4, iv, EXP)
        assert nb.exact
        assert nb.lower == pytest.approx(1.0, abs=1e-12)


def test_radau_brackets_shrink_and_contain(ex1):
    truth = scipy_expm(dense_bipartite(ex1))[0, 0]
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    prev_width = math.inf
    for p in range(2, 7):
        nb = radau_bounds(op, 0, p, iv, EXP)
        assert nb.lower - 1e-12 <= truth <= nb.upper + 1e-12
        width = nb.upper - nb.lower
        assert width <= prev_width + 1e-12
        prev_width = width


def test_radau_reused_run_matches_fresh(ex1):
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    run = LanczosRun(op, 1)
    for p in (2, 3, 4):
        incremental = radau_bounds_from_run(run, p, iv, EXP)
        fresh = radau_bounds(op, 1, p, iv, EXP)
        assert incremental.lower == pytest.approx(fresh.lower, abs=1e-13)
        assert incremental.upper == pytest.approx(fresh.upper, abs=1e-13)


# ------------------------------------------------------------------ BracketRun


def test_bracket_run_schedule_tightens_to_the_exact_value(ex1):
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    E = scipy_expm(dense_bipartite(ex1))
    for index in range(op.dim):
        node = BracketRun(op, index, iv, EXP)
        orders, prev = [], None
        while node.refinable(64):
            nb = node.refine(64)
            orders.append(node.p)
            if prev is not None:
                assert prev.lower <= nb.lower <= nb.upper <= prev.upper
            prev = nb
        assert nb.exact and nb.lower == nb.upper
        assert nb.lower == pytest.approx(E[index, index], rel=1e-12)
        scheduled = [P_START + P_STEP * j for j in range(len(orders))]
        # every order follows the schedule, except a final exact step at the run's length
        assert orders[:-1] == scheduled[:-1]
        assert orders[-1] in (scheduled[-1], node.run.steps)


def test_bracket_run_takes_order_one_then_goes_on_to_the_schedule():
    # the sparse order-1 brackets are a one-step run's, bit for bit; a run
    # resumed from them ends where a direct run does, and the order-P_START
    # brackets nest in the order-1 ones
    g = zipf_offset_graph(200, 5, 0)
    iv = gram_interval(spectrum_interval(g))
    nodes = np.arange(g.n)
    for side in ("hub", "authority"):
        op = GramOperator(g, side)
        coarse = order_one_bounds(op, nodes, iv, COSH_SQRT)
        assert [nb.node for nb in coarse] == list(nodes) and all(nb.p == 1 for nb in coarse)
        run = LanczosRun(op, nodes)
        # radau_bounds_from_run at order 1 also reads step 2, so it makes exact
        # the runs that break down there; none does on this graph
        assert coarse == radau_bounds_from_run(run, 1, iv, COSH_SQRT)
        assert not (run.broken & (run.lengths == 2)).any()
        block = BracketRun(op, nodes, iv, COSH_SQRT, bounds=coarse, p=1)
        fine = block.refine(64)
        assert block.p == P_START and block.run.steps == P_START + 1
        assert fine == BracketRun(op, nodes, iv, COSH_SQRT).refine(64)
        for a, b in zip(coarse, fine):
            assert a.lower <= b.lower <= b.upper <= a.upper


def test_bracket_run_intersects_brackets_through_the_module_radau(ex1, monkeypatch):
    # roundoff can move a later bracket outward or past the earlier one
    scripted = iter([(1.0, 3.0), (1.5, 3.5), (3.2, 4.0)])

    def radau(run, p, iv, f):
        lower, upper = next(scripted)
        return NodeBounds(run.start_index, lower, upper, p=p)

    monkeypatch.setattr(hubauth.quadrature, "radau_bounds_from_run", radau)
    node = BracketRun(bipartite_operator(ex1), 0, spectrum_interval(ex1), EXP)
    for expected in ((1.0, 3.0), (1.5, 3.0), (3.1, 3.1)):
        b = node.refine(64)
        assert (b.lower, b.upper) == expected
    assert node.p == P_START + 2 * P_STEP


def test_bracket_run_stops_at_p_max(ex1):
    # every run on ex1 breaks down only at step 8, so p_max = 4 ends it at order 4
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    for index in range(op.dim):
        node = BracketRun(op, index, iv, EXP)
        node.refine(4)
        node.refine(4)
        assert node.p == 4
        assert not node.bounds.exact
        assert not node.refinable(4)


# --------------------------------------------------------------- lobatto_bound


def test_lobatto_trivial_operator():
    iv = spectrum_interval(edgeless_graph(2))
    assert lobatto_bound(np.array([[0.0]]), 0, 3, iv, EXP) == pytest.approx(1.0, abs=1e-12)


def test_lobatto_upper_bounds_truth(ex1):
    truth = scipy_expm(dense_bipartite(ex1))[0, 0]
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    assert lobatto_bound(op, 0, 4, iv, EXP) >= truth - 1e-12
    assert truth == pytest.approx(2.3319, abs=5e-5)


def test_lobatto_versus_radau_upper(ex1):
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    for p in (2, 3, 4, 5):
        radau_upper = radau_bounds(op, 0, p, iv, EXP).upper
        lob = lobatto_bound(op, 0, p, iv, EXP)
        assert lob >= radau_upper - 1e-12


# ----------------------------------------------------------- bilinear_estimate


def test_bilinear_hub_authority_on_path():
    g = path_graph(3)
    op = bipartite_operator(g)
    E = scipy_expm(dense_bipartite(g))
    got = bilinear_estimate(op, 0, g.n + 1, 8, EXP)
    assert got == pytest.approx(E[0, g.n + 1], abs=1e-10)


def test_bilinear_disconnected_nodes_are_zero():
    g = from_edges([], n=4)
    op = bipartite_operator(g)
    assert bilinear_estimate(op, 0, 1, 4, EXP) == pytest.approx(0.0, abs=1e-14)


def test_bilinear_hub_block_matches_dense(ex1):
    op = bipartite_operator(ex1)
    E = scipy_expm(dense_bipartite(ex1))
    got = bilinear_estimate(op, 0, 1, 10, EXP)
    assert got == pytest.approx(E[0, 1], abs=1e-8)


def test_bilinear_rejects_equal_indices(ex1):
    with pytest.raises(ParameterError, match="distinct"):
        bilinear_estimate(bipartite_operator(ex1), 2, 2, 4, EXP)


# ------------------------------------------------------- bounded-rule sanity


def test_gauss_below_radau_upper_at_equal_p(ex1):
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    for p in (2, 3, 4):
        run = LanczosRun(op, 0).extend(p + 1)
        gauss = gauss_estimate(run.jacobi(p), EXP)
        upper = radau_bounds(op, 0, p, iv, EXP).upper
        assert gauss <= upper + 1e-12


def test_resolvent_brackets_reproduce_dense_diagonal(ex1):
    sigma1 = power_singular_pair(ex1).sigma1
    c = 0.9 / sigma1
    kernel = ResolventKernel(c)
    M = dense_bipartite(ex1)
    truth = np.linalg.inv(np.eye(2 * ex1.n) - c * M)
    op = bipartite_operator(ex1)
    iv = spectrum_interval(ex1)
    for node in range(2 * ex1.n):
        nb = radau_bounds(op, node, 10, iv, kernel)
        assert nb.lower - 1e-8 <= truth[node, node] <= nb.upper + 1e-8
        assert nb.upper - nb.lower < 1e-6


def test_breakdown_gauss_matches_dense(ex3):
    # star center: Krylov space exhausts quickly, the estimate must be exact
    E = scipy_expm(dense_bipartite(ex3))
    op = bipartite_operator(ex3)
    run = LanczosRun(op, 5).extend(12)
    assert run.breakdown
    value = gauss_estimate(run.jacobi(), EXP)
    assert value == pytest.approx(E[5, 5], abs=1e-10)
