"""Lanczos, tridiagonal eigensolver, matrix exponentials, spectral estimates."""

import math
import time

import numpy as np
import pytest

import hubauth.linalg
from hubauth import (
    BipartiteOperator,
    ConvergenceError,
    LanczosRun,
    SizeLimitError,
    dense_expm,
    expm_action,
    from_edges,
    power_singular_pair,
    spectral_radius,
    tridiag_eigen,
)

from hubauth.graph import GramOperator

from conftest import dense_adjacency, dense_bipartite, path_graph, scipy_expm, zipf_offset_graph


# --------------------------------------------------------------------- lanczos


class _OneByOne:
    """The 1 x 1 operator [2]."""

    dim = 1

    def matmat(self, X):
        return 2.0 * X


def _jacobi(run, col=0):
    """alpha and beta of one column's Jacobi matrix over its completed steps."""
    p = int(run.lengths[col])
    alpha, beta = run.coefficients(p)
    return alpha[col], beta[col, : p - 1]


def _dense(alpha, beta):
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def test_lanczos_one_dimensional_operator():
    run = LanczosRun(_OneByOne(), [0]).extend(5)
    alpha, beta = _jacobi(run)
    assert run.breakdown
    assert alpha.size == 1 and beta.size == 0
    assert alpha[0] == pytest.approx(2.0)


def test_lanczos_two_cycle_hand_values():
    # bipartite operator of the 2-cycle: Krylov space from e_0 is 2-dimensional,
    # J = [[0, 1], [1, 0]], eigenvalues -1 and +1
    g = from_edges([(0, 1), (1, 0)])
    run = LanczosRun(BipartiteOperator(g), [0]).extend(8)
    alpha, beta = _jacobi(run)
    assert run.breakdown
    assert np.allclose(alpha, [0.0, 0.0], atol=1e-14)
    assert np.allclose(beta, [1.0], atol=1e-14)
    nodes, _ = tridiag_eigen(alpha, beta)
    assert np.allclose(nodes, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("p", [-1, 3])
def test_lanczos_coefficients_outside_the_steps_taken_are_refused(p):
    # a negative p would slice from the end and hand back the wrong steps
    run = LanczosRun(BipartiteOperator(from_edges([(0, 1), (1, 2)])), [0]).extend(2)
    assert [a.shape for a in run.coefficients(0)] == [(1, 0), (1, 0)]
    with pytest.raises(ValueError, match=f"asked for {p} steps; 0 to 2 are available"):
        run.coefficients(p)


def test_lanczos_ritz_values_within_spectrum(ex1):
    M = dense_bipartite(ex1)
    spectrum = np.linalg.eigvalsh(M)
    ritz, _ = tridiag_eigen(*_jacobi(LanczosRun(BipartiteOperator(ex1), [0]).extend(8)))
    assert ritz.min() >= spectrum.min() - 1e-10
    assert ritz.max() <= spectrum.max() + 1e-10


def test_lanczos_basis_orthonormal_and_similar(ex1):
    op = BipartiteOperator(ex1)
    run = LanczosRun(op, [2]).extend(6)
    Q = run._basis[0, : run.steps].T
    assert np.allclose(Q.T @ Q, np.eye(run.steps), atol=1e-10)
    M = dense_bipartite(ex1)
    assert np.allclose(Q.T @ M @ Q, _dense(*_jacobi(run)), atol=1e-10)


def test_lanczos_block_columns_match_one_column_runs():
    # node 30 has no edges: its column breaks down at the first step
    g = from_edges(list(zipf_offset_graph(30, 3, 1).edges()), n=31)
    op = GramOperator(g, "hub")
    nodes = [30, 0, 17, 5]
    block = LanczosRun(op, nodes).extend(6)
    assert block.steps == 6
    assert list(block.lengths) == [1, 6, 6, 6]
    assert list(block.broken) == [True, False, False, False]
    assert _jacobi(block, 0)[0][0] == 0.0
    for col, node in enumerate(nodes):
        alone = LanczosRun(op, [node]).extend(6)
        assert block.lengths[col] == alone.steps
        assert bool(block.broken[col]) == alone.breakdown
        for mine, theirs in zip(_jacobi(block, col), _jacobi(alone)):
            np.testing.assert_allclose(mine, theirs, rtol=1e-13, atol=1e-15)
        count = alone.steps + (not alone.breakdown)
        np.testing.assert_allclose(block._basis[col, :count], alone._basis[0, :count], atol=1e-13)


def test_lanczos_retain_keeps_the_listed_columns():
    op = GramOperator(from_edges([(0, 1), (1, 2), (2, 0), (0, 2), (3, 1)], n=4), "authority")
    run = LanczosRun(op, [0, 1, 2]).extend(2)
    run.retain([2, 0])
    assert list(run.start_index) == [2, 0]
    run.extend(3)
    for col, node in enumerate([2, 0]):
        alone = LanczosRun(op, [node]).extend(3)
        np.testing.assert_allclose(_jacobi(run, col)[0], _jacobi(alone)[0], rtol=1e-13, atol=1e-15)


def test_lanczos_extend_in_two_calls_equals_one():
    op = GramOperator(zipf_offset_graph(300, 5, 0), "authority")
    run = LanczosRun(op, np.arange(20)).extend(2).extend(4)
    plain = LanczosRun(op, np.arange(20)).extend(4)
    for resumed, direct in zip(run.coefficients(4), plain.coefficients(4)):
        assert np.array_equal(resumed, direct)
    assert np.array_equal(run._basis, plain._basis)


def test_lanczos_from_a_unit_vector(ex1):
    op = BipartiteOperator(ex1)
    rows = np.zeros((2, op.dim))
    rows[0, 2] = rows[1, 5] = 1.0
    from_rows = LanczosRun(op, rows).extend(5)
    from_index = LanczosRun(op, [2, 5]).extend(5)
    assert from_rows.start_index is None
    for a, b in zip(from_rows.coefficients(5), from_index.coefficients(5)):
        assert np.array_equal(a, b)
    # the retired start forms: a scalar index and a 1-D float vector
    for start in (2, np.int64(2), rows[0], [], np.zeros((0, op.dim))):
        with pytest.raises(ValueError, match="start must be"):
            LanczosRun(op, start)
    with pytest.raises(ValueError, match="length"):
        LanczosRun(op, np.ones((1, 3)))
    with pytest.raises(ValueError, match="outside"):
        LanczosRun(op, [0, op.dim])


def test_lanczos_isolated_node_breaks_down_immediately():
    g = from_edges([(0, 1)], n=3)
    run = LanczosRun(BipartiteOperator(g), [2]).extend(10)
    alpha, beta = _jacobi(run)
    assert run.breakdown
    assert alpha.size == 1 and beta.size == 0
    assert alpha[0] == 0.0


# --------------------------------------------------------------- tridiag_eigen


def test_tridiag_eigen_symmetric_two_by_two():
    nodes, weights = tridiag_eigen(np.zeros(2), np.array([1.0]))
    assert np.allclose(nodes, [-1.0, 1.0])
    assert np.allclose(weights, [0.5, 0.5])


def test_tridiag_eigen_scalar():
    nodes, weights = tridiag_eigen(np.array([2.0]), np.array([]))
    assert np.allclose(nodes, [2.0])
    assert np.allclose(weights, [1.0])


def test_tridiag_eigen_matches_dense_solver():
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(25):
        p = int(rng.integers(2, 9))
        cases.append((rng.normal(size=p), np.abs(rng.normal(size=p - 1)) + 0.05))
    for p in (2, 5, 17, 41):
        # graded: entries fall by a decade every two rows
        cases.append((10.0 ** (-np.arange(p) / 2.0), 10.0 ** (-(np.arange(p - 1) + 0.5) / 2.0)))
        # near-deflating: some couplings down to 1e-14 of the diagonal scale
        alpha = rng.normal(size=p)
        beta = np.abs(rng.normal(size=p - 1)) + 0.05
        tiny = rng.random(p - 1) < 0.3
        beta[tiny] = np.abs(alpha).max() * 10.0 ** rng.uniform(-14, -8, size=int(tiny.sum()))
        beta[-1] = 1e-14 * np.abs(alpha).max()
        cases.append((alpha, beta))
    for alpha, beta in cases:
        nodes, weights = tridiag_eigen(alpha, beta)
        w, Q = np.linalg.eigh(_dense(alpha, beta))
        scale = np.abs(w).max()
        assert np.abs(nodes - w).max() <= 1e-12 * scale
        assert np.abs(weights - Q[0] ** 2).max() <= 1e-12
        assert abs(weights.sum() - 1.0) < 1e-12


def test_tridiag_eigen_rejects_non_finite_entries():
    with pytest.raises(ConvergenceError):
        tridiag_eigen(np.array([np.nan, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="one entry less"):
        tridiag_eigen(np.zeros(3), np.ones(3))


def test_tridiag_eigen_interlacing():
    rng = np.random.default_rng(5)
    alpha = rng.normal(size=8)
    beta = np.abs(rng.normal(size=7)) + 0.1
    full, _ = tridiag_eigen(alpha, beta)
    lead, _ = tridiag_eigen(alpha[:7], beta[:6])
    for i, t in enumerate(lead):
        assert full[i] <= t + 1e-12 <= full[i + 1] + 2e-12


# ------------------------------------------------------------------ dense_expm


def test_dense_expm_zero_matrix():
    assert np.allclose(dense_expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_dense_expm_directed_path_factorials():
    g = path_graph(5)
    E = dense_expm(dense_adjacency(g))
    for i in range(5):
        for j in range(5):
            expected = 1.0 / math.factorial(j - i) if j >= i else 0.0
            assert E[i, j] == pytest.approx(expected, abs=1e-12)


def test_dense_expm_bipartite_diagonal_is_hub_table(ex1):
    E = dense_expm(dense_bipartite(ex1))
    assert np.allclose(np.diag(E)[:4], [2.3319, 2.2289, 2.2812, 1.6414], atol=5e-4)


def test_dense_expm_inverse_identity(ex1):
    M = dense_bipartite(ex1)
    assert np.allclose(dense_expm(M) @ dense_expm(-M), np.eye(8), atol=1e-10)


def test_dense_expm_matches_scipy():
    # dense_expm is scipy's expm; both oracles below are computed without it
    rng = np.random.default_rng(13)
    for scale in (0.5, 3.0, 20.0):
        X = rng.normal(size=(12, 12))
        S = scale * (X + X.T) / 2
        lam, Q = np.linalg.eigh(S)
        assert np.allclose(dense_expm(S), (Q * np.exp(lam)) @ Q.T, rtol=1e-10, atol=1e-10)
    M = 0.5 * rng.normal(size=(12, 12))
    taylor = term = np.eye(12)
    for j in range(1, 60):
        term = term @ M / j
        taylor = taylor + term
    assert np.allclose(dense_expm(M), taylor, rtol=1e-10, atol=1e-10)


def test_dense_expm_trace_identity(ex1):
    # trace of the bipartite exponential is twice the cosh-sum of singular values
    s = np.linalg.svd(dense_adjacency(ex1), compute_uv=False)
    E = dense_expm(dense_bipartite(ex1))
    assert np.trace(E) == pytest.approx(2 * np.cosh(s).sum(), abs=1e-8)


def test_dense_expm_size_guard(monkeypatch):
    monkeypatch.setattr(hubauth.linalg, "DENSE_DIM_LIMIT", 4)
    with pytest.raises(SizeLimitError):
        dense_expm(np.zeros((5, 5)))


# ----------------------------------------------------------------- expm_action


def test_expm_action_path_first_column():
    g = path_graph(4)
    e1 = np.eye(4)[0]
    assert np.allclose(expm_action(g, e1), [1, 0, 0, 0], atol=1e-12)


def test_expm_action_path_row_sums():
    g = path_graph(3)
    assert np.allclose(expm_action(g, np.ones(3)), [2.5, 2.0, 1.0], atol=1e-10)


def test_expm_action_matches_dense(ex1):
    E = dense_expm(dense_adjacency(ex1))
    ones = np.ones(ex1.n)
    assert np.allclose(expm_action(ex1, ones), E @ ones, atol=1e-10)
    assert np.allclose(expm_action(ex1, ones, transpose=True), E.T @ ones, atol=1e-10)


@pytest.mark.parametrize("edges", [
    [(0, 1, 1e7)],
    [(0, 1, 1e7), (1, 2, 1e7), (2, 3, 1e7)],
    # term 2 (2e-7) is below the tolerance, term 3 (A^3 1/6 = 6.7e-4 on node 0) is not
    [(0, 1, 1e4), (1, 2, 4e-11), (2, 3, 1e4)],
    [(0, 1, 1e8), (1, 2, 1e-11), (2, 3, 1e8)],
    # not nilpotent: ||A^p||_1 = 1 for p >= 2 gives s = 1 with ||A||_1 = 1e7, and the
    # cycle's entries (about e) must keep their own 12 digits beside the heavy one
    [(0, 1, 1e7), (2, 3, 1.0), (3, 2, 1.0)],
])
def test_expm_action_scales_heavy_weights_by_the_powers_of_a(edges):
    # ||A||_1 would take that many Taylor steps; ||A^p||_1^(1/p) past the path's length takes one
    g = from_edges(edges, weighted=True)
    A = dense_adjacency(g)
    ones = np.ones(g.n)
    start = time.perf_counter()
    for transpose, E in ((False, scipy_expm(A)), (True, scipy_expm(A.T))):
        np.testing.assert_allclose(expm_action(g, ones, transpose=transpose), E @ ones, rtol=1e-12)
    assert time.perf_counter() - start < 1.0


def test_expm_action_rejects_non_finite(ex1):
    with pytest.raises(ValueError, match="finite"):
        expm_action(ex1, np.array([1.0, np.nan, 0.0, 0.0]))


# --------------------------------------------------------- spectral estimates


def test_power_singular_pair_example2_degenerate(ex2):
    est = power_singular_pair(ex2)
    assert est.sigma1 == pytest.approx(math.sqrt(2), abs=1e-8)
    assert est.sigma2 == pytest.approx(est.sigma1, abs=1e-8)
    assert est.converged


def test_power_singular_pair_example1(ex1):
    est = power_singular_pair(ex1)
    assert est.sigma1**2 == pytest.approx(3.9563, abs=5e-4)
    assert est.sigma1 >= est.sigma2 >= 0


def test_power_singular_pair_zero_matrix():
    g = from_edges([], n=3)
    est = power_singular_pair(g)
    assert est.sigma1 == 0.0
    assert est.converged


def test_zero_weight_graph_stops_the_power_iteration_at_once():
    # every stored weight is 0, so A = 0 although m > 0: sigma_1 = 0 exactly, no vector
    g = from_edges([(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)])
    assert g.m == 3
    assert hubauth.linalg.leading_singular_pair(g) == (0.0, None, 0, True)
    est = power_singular_pair(g)
    assert (est.sigma1, est.sigma2, est.iterations, est.converged, est.vector) == (0.0, 0.0, 0, True, None)


def test_underflowing_product_stops_the_power_iteration_unconverged():
    # weights 1e-90: the norm of A^T A x underflows to 0 at the first product, that of A x does not
    g = from_edges([(0, 1, 1e-90), (1, 0, 1e-90)])
    lead = hubauth.linalg.leading_singular_pair(g)
    assert (lead.iterations, lead.converged) == (0, False)
    assert lead.sigma1 == pytest.approx(1e-90, rel=1e-12)
    assert lead.vector is not None


def test_power_singular_pair_matches_svd(random_suite):
    for g in random_suite[:10]:
        if g.m == 0:
            continue
        s = np.linalg.svd(dense_adjacency(g), compute_uv=False)
        est = power_singular_pair(g)
        assert est.sigma1 == pytest.approx(s[0], rel=1e-8)
        if len(s) > 1:
            assert est.sigma2 <= s[0] + 1e-10
            assert est.sigma2 >= s[1] - 1e-6 if est.converged else True


def test_spectral_radius_two_cycle():
    g = from_edges([(0, 1), (1, 0)])
    est = spectral_radius(g)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_spectral_radius_nilpotent_is_exactly_zero():
    # A^3 x = 0 from a positive x proves A^3 = 0 for A >= 0, so rho = 0
    g = path_graph(4)
    est = spectral_radius(g)
    assert est.converged
    assert est.value == 0.0


def test_spectral_radius_falls_back_when_the_iteration_oscillates():
    # the star 0 <-> {1, 2} has eigenvalues +-sqrt(2): the iterate alternates
    # between (2, 1, 1)/4 and (1, 1, 1)/3 and never settles
    g = from_edges([(0, 1), (0, 2), (1, 0), (2, 0)])
    est = spectral_radius(g, max_iter=50)
    assert not est.converged
    # fallback is the conservative bound min(max out-strength, sigma_1) = min(2, sqrt(2))
    assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_spectral_radius_example1_matches_dense(ex1):
    true_rho = max(abs(np.linalg.eigvals(dense_adjacency(ex1))))
    est = spectral_radius(ex1)
    assert est.converged
    assert est.value == pytest.approx(true_rho, abs=1e-8)


def test_sigma1_dominates_ritz_values(ex1, random_suite):
    for g in [ex1] + random_suite[:5]:
        if g.m == 0:
            continue
        sigma1 = power_singular_pair(g).sigma1
        op = BipartiteOperator(g)
        for node in range(min(4, 2 * g.n)):
            ritz, _ = tridiag_eigen(*_jacobi(LanczosRun(op, [node]).extend(9)))
            assert ritz.max() <= sigma1 * (1 + 1e-8) + 1e-12
