"""Golden score tables, oracle cross-checks, and ranking mechanics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubauth import (
    ConvergenceError,
    ParameterError,
    ScoreVector,
    communicability,
    degree_scores,
    expA_row_col_sums,
    exp_centrality_exact,
    exp_centrality_quadrature,
    from_edges,
    hits,
    katz_row_col,
    pagerank,
    power_singular_pair,
    rank_table,
    resolvent_bipartite,
    truncated_spectral_scores,
)
from hubauth.rankers import TIE_REL_TOL

from conftest import (
    dense_adjacency,
    dense_bipartite,
    edgeless_graph,
    google_stationary_dense,
    pagerank_reference,
    path_graph,
    random_digraph,
    scipy_expm,
    svd_block_oracle,
    zipf_offset_graph,
)

EX1_EXP_HUB = [2.3319, 2.2289, 2.2812, 1.6414]
EX1_EXP_AUTH = [1.5906, 3.0209, 2.2796, 1.5922]
EX1_HITS_HUB = [0.3383, 0.1729, 0.2798, 0.2091]
EX1_HITS_AUTH = [0.0965, 0.4618, 0.2854, 0.1562]
EX2_EXP_HUB = [1.5431, 2.1782, 1.5891, 1.5891]
EX2_EXP_AUTH = [1.5891, 2.1782, 1.5431, 1.5891]
EX2_HITS_HUB = [0.0, 0.5, 0.25, 0.25]
EX2_HITS_AUTH = [1 / 3, 1 / 3, 0.0, 1 / 3]
EX3_EXP_HUB = [1.0, 1.6905, 1.6905, 1.6905, 1.6905, 3.7622]
EX3_HITS_HUB = [0.0, 0.125, 0.125, 0.125, 0.125, 0.5]
EX3_HITS_AUTH = [0.2, 0.2, 0.2, 0.2, 0.2, 0.0]


# ------------------------------------------------------------------ rank_table


def test_rank_table_ties_and_competition_ranks():
    sv_scores = np.array([3.0, 1.0, 3.0, 2.0])
    table = rank_table(degree_scores(from_edges([(0, 1)], n=4))[0].__class__("t", "hub", sv_scores))
    assert table.order == [0, 2, 3, 1]
    assert table.groups == [[0, 2], [3], [1]]
    assert list(table.ranks) == [1, 4, 1, 3]


def test_rank_table_relative_tie_tolerance():
    from hubauth import ScoreVector

    scores = np.array([2.0, 2.0 + 1e-10, 1.0])
    table = rank_table(ScoreVector("t", "hub", scores))
    assert table.groups == [[0, 1], [2]]
    # equal scores always share a group, which puts them in id order
    with pytest.raises(ParameterError):
        rank_table(ScoreVector("t", "hub", scores), tie_tol=-1e-9)


def _rank_table_loop(scores, tie_tol=TIE_REL_TOL):
    """The element-by-element rank_table that the array version must match."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    groups = []
    current = [order[0]] if n else []
    for prev, node in zip(order, order[1:]):
        gap = scores[prev] - scores[node]
        if gap <= tie_tol * max(1.0, abs(scores[prev])):
            current.append(node)
        else:
            groups.append(sorted(current))
            current = [node]
    if current:
        groups.append(sorted(current))
    flat = [v for grp in groups for v in grp]
    ranks = np.zeros(n, dtype=int)
    pos = 1
    for grp in groups:
        for v in grp:
            ranks[v] = pos
        pos += len(grp)
    return flat, groups, ranks


# scores a few multiples of the tie tolerance away from one base (above, at
# and below 1, negative), so that gaps fall on both sides of the cut and chain
_NEAR_TIES = st.sampled_from([-3.0, -1e-3, 0.0, 1e-6, 0.25, 1.0, 2.0, 7.5, 1e5]).flatmap(
    lambda base: st.lists(
        st.builds(
            lambda k, factor: base + k * factor * TIE_REL_TOL * max(1.0, abs(base)),
            st.integers(-3, 3),
            st.sampled_from([0.5, 1 - 1e-8, 1 - 5e-9, 1.0, 1 + 5e-9, 1.000001, 2.0]),
        ),
        min_size=1,
        max_size=40,
    )
)
_SCORES = st.one_of(
    st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0]), min_size=0, max_size=40),
    _NEAR_TIES,
    st.builds(lambda x, n: [x] * n, st.floats(-1e6, 1e6), st.integers(1, 20)),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SCORES)
@example([1e-8, 0.0])  # a gap of exactly the tolerance is a tie
@example([2.0, 2.0 - (1 - 1e-8) * 2e-8])  # the scale is the predecessor's score
def test_rank_table_matches_the_loop(scores):
    table = rank_table(ScoreVector("t", "hub", np.array(scores, dtype=float)))
    order, groups, ranks = _rank_table_loop(np.array(scores, dtype=float))
    assert table.order == order
    assert table.groups == groups
    assert table.ranks.dtype == ranks.dtype and np.array_equal(table.ranks, ranks)


# ------------------------------------------------------------------------ hits


def test_hits_example1_tables(ex1):
    hub, auth = hits(ex1)
    assert np.allclose(hub.scores, EX1_HITS_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX1_HITS_AUTH, atol=5e-4)
    assert not hub.diagnostics["degenerate"]
    assert hub.diagnostics["converged"]
    assert rank_table(hub).order == [0, 2, 3, 1]
    assert rank_table(auth).order == [1, 2, 3, 0]


def test_hits_example2_degenerate_tables(ex2):
    hub, auth = hits(ex2)
    assert np.allclose(hub.scores, EX2_HITS_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX2_HITS_AUTH, atol=5e-4)
    assert hub.diagnostics["degenerate"]


def test_hits_example3_tables(ex3):
    hub, auth = hits(ex3)
    assert np.allclose(hub.scores, EX3_HITS_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX3_HITS_AUTH, atol=5e-4)
    # the authority table cannot separate node 0 from nodes 1..4
    assert rank_table(auth).groups == [[0, 1, 2, 3, 4], [5]]


def test_hits_iteration_cap_flags(ex1):
    hub, _ = hits(ex1, tol=1e-15, max_iter=2)
    assert not hub.diagnostics["converged"]
    assert hub.diagnostics["iterations"] == 2


def test_hits_requires_edges():
    with pytest.raises(ParameterError):
        hits(edgeless_graph(3))


def test_hits_custom_init(ex1):
    hub_default, _ = hits(ex1)
    hub_custom, _ = hits(ex1, init=np.array([1.0, 2.0, 3.0, 4.0]))
    # simple dominant eigenvalue: the limit is start-independent
    assert np.allclose(hub_default.scores, hub_custom.scores, atol=1e-8)


# -------------------------------------------------------- exponential, exact


def test_exp_exact_example1_tables(ex1):
    hub, auth = exp_centrality_exact(ex1)
    assert np.allclose(hub.scores, EX1_EXP_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX1_EXP_AUTH, atol=5e-4)
    assert rank_table(hub).order == [0, 2, 1, 3]
    assert rank_table(auth).order == [1, 2, 3, 0]


def test_exp_exact_example2_tables(ex2):
    hub, auth = exp_centrality_exact(ex2)
    assert np.allclose(hub.scores, EX2_EXP_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX2_EXP_AUTH, atol=5e-4)
    # authority table has a clear winner, unlike the HITS three-way tie
    assert rank_table(auth).groups == [[1], [0, 3], [2]]


def test_exp_exact_directed_path_endpoints():
    g = path_graph(4)
    hub, auth = exp_centrality_exact(g)
    auth_t = rank_table(auth)
    hub_t = rank_table(hub)
    assert auth_t.groups[-1] == [0]  # node 1 strictly least authoritative
    assert hub_t.groups[-1] == [3]  # last node strictly lowest hub
    assert auth_t.groups[0] == [1, 2, 3]
    assert hub_t.groups[0] == [0, 1, 2]


def test_exp_exact_matches_svd_formula(ex1):
    hub, auth = exp_centrality_exact(ex1)
    hub_block, auth_block, _ = svd_block_oracle(ex1)
    assert np.allclose(hub.scores, np.diag(hub_block), atol=1e-10)
    assert np.allclose(auth.scores, np.diag(auth_block), atol=1e-10)


def test_exp_exact_trace_split(ex1):
    hub, auth = exp_centrality_exact(ex1)
    # both diagonal blocks carry the same trace
    assert hub.scores.sum() == pytest.approx(auth.scores.sum(), abs=1e-10)
    s = np.linalg.svd(dense_adjacency(ex1), compute_uv=False)
    assert hub.scores.sum() + auth.scores.sum() == pytest.approx(2 * np.cosh(s).sum(), abs=1e-8)


def test_exp_exact_scores_at_least_one(ex1, ex2, ex3):
    for g in (ex1, ex2, ex3):
        hub, auth = exp_centrality_exact(g)
        assert np.all(hub.scores >= 1.0 - 1e-12)
        assert np.all(auth.scores >= 1.0 - 1e-12)


def test_exp_exact_shift_preserves_ranking(ex1):
    from hubauth import ScoreVector

    hub, _ = exp_centrality_exact(ex1)
    shifted = ScoreVector("exp-shift", "hub", hub.scores - 1.0)
    assert rank_table(shifted).order == rank_table(hub).order
    assert rank_table(shifted).groups == rank_table(hub).groups


# --------------------------------------------------- exponential, quadrature


def test_exp_quadrature_example3_tables(ex3):
    hub, auth = exp_centrality_quadrature(ex3)
    assert np.allclose(hub.scores, EX3_EXP_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX3_EXP_HUB[::-1], atol=5e-4)
    assert hub.diagnostics["unresolved"] == []


def test_exp_quadrature_edgeless_is_one():
    hub, auth = exp_centrality_quadrature(edgeless_graph(4))
    assert np.allclose(hub.scores, 1.0, atol=1e-12)
    assert np.allclose(auth.scores, 1.0, atol=1e-12)


def test_exp_quadrature_matches_exact_ranking(ex1):
    hub_q, auth_q = exp_centrality_quadrature(ex1)
    hub_e, auth_e = exp_centrality_exact(ex1)
    assert np.allclose(hub_q.scores, hub_e.scores, atol=1e-7)
    assert rank_table(hub_q).same_ranking(rank_table(hub_e))
    assert rank_table(auth_q).same_ranking(rank_table(auth_e))


def test_exp_quadrature_brackets_contain_truth(ex1):
    hub, _ = exp_centrality_quadrature(ex1)
    E = scipy_expm(dense_bipartite(ex1))
    for i, nb in enumerate(hub.diagnostics["bounds"]):
        assert nb.lower - 1e-10 <= E[i, i] <= nb.upper + 1e-10


def test_exp_quadrature_flags_unresolved_nodes():
    # a hopeless width target with almost no refinement budget (on ex1 every
    # Gram run spans its whole 4-dimensional space by order 3, so n = 20 here)
    g = random_digraph(np.random.default_rng(1))
    hub, _ = exp_centrality_quadrature(g, p_max=3, width_tol=1e-15)
    assert len(hub.diagnostics["unresolved"]) > 0
    for nb in hub.diagnostics["bounds"]:
        assert nb.lower <= nb.upper


def _side_cases(ex1, ex2, ex3):
    rng = np.random.default_rng(2024)
    return [ex1, ex2, ex3, edgeless_graph(3)] + [random_digraph(rng) for _ in range(4)]


def test_exp_quadrature_one_side_equals_half_of_both(ex1, ex2, ex3):
    for g in _side_cases(ex1, ex2, ex3):
        both = exp_centrality_quadrature(g)
        for side, full in zip(("hub", "authority"), both):
            one = exp_centrality_quadrature(g, side=side)
            assert one.side == side
            assert np.array_equal(one.scores, full.scores)
            assert one.diagnostics == full.diagnostics


def test_resolvent_one_side_equals_half_of_both(ex1, ex2, ex3):
    for g in _side_cases(ex1, ex2, ex3):
        for mode in ("quadrature", "dense"):
            both = resolvent_bipartite(g, mode=mode)
            for side, full in zip(("hub", "authority"), both):
                one = resolvent_bipartite(g, mode=mode, side=side)
                assert one.side == side
                assert np.array_equal(one.scores, full.scores)
                assert one.diagnostics == full.diagnostics
                if mode == "quadrature":
                    offset = 0 if side == "hub" else g.n
                    assert [nb.node for nb in one.diagnostics["bounds"]] == list(range(offset, offset + g.n))


def test_quadrature_rankers_reject_p_max_below_the_first_order(ex1):
    # the first bracket is already at order P_START = 3
    with pytest.raises(ParameterError, match="p_max"):
        exp_centrality_quadrature(ex1, p_max=2)
    with pytest.raises(ParameterError, match="p_max"):
        resolvent_bipartite(ex1, mode="quadrature", p_max=2)
    exp_centrality_quadrature(ex1, p_max=3)
    resolvent_bipartite(ex1, mode="dense", p_max=2)  # no quadrature order on the dense path


def test_quadrature_rankers_reject_unknown_side(ex1):
    with pytest.raises(ParameterError):
        exp_centrality_quadrature(ex1, side="both")
    with pytest.raises(ParameterError):
        resolvent_bipartite(ex1, side="both")


# ----------------------------------------------------------- spectral truncation


def test_truncated_k1_reproduces_hits_ranking(ex1):
    hub_t, auth_t = truncated_spectral_scores(ex1, 1)
    hub_h, auth_h = hits(ex1)
    assert rank_table(hub_t).same_ranking(rank_table(hub_h))
    assert rank_table(auth_t).same_ranking(rank_table(auth_h))


def test_truncated_full_spectrum_equals_exact(ex1):
    hub_t, auth_t = truncated_spectral_scores(ex1, 2 * ex1.n)
    hub_e, auth_e = exp_centrality_exact(ex1)
    assert np.allclose(hub_t.scores, hub_e.scores, atol=1e-10)
    assert np.allclose(auth_t.scores, auth_e.scores, atol=1e-10)
    assert rank_table(hub_t).same_ranking(rank_table(hub_e))


def test_truncated_degenerate_flag(ex2):
    hub, _ = truncated_spectral_scores(ex2, 1)
    assert hub.diagnostics["degenerate"]


def test_truncated_sparse_path_is_deterministic():
    # above DENSE_DIM_LIMIT the triplets come from svds, which must not start from a random vector
    g = zipf_offset_graph(4500, 5, seed=3)
    first, again = truncated_spectral_scores(g, 3), truncated_spectral_scores(g, 3)
    for a, b in zip(first, again):
        assert np.array_equal(a.scores, b.scores)


def test_truncated_k_range(ex1):
    with pytest.raises(ParameterError):
        truncated_spectral_scores(ex1, 0)
    with pytest.raises(ParameterError):
        truncated_spectral_scores(ex1, 2 * ex1.n + 1)


# ------------------------------------------------------------------------ katz


def test_katz_edgeless_is_ones():
    hub, auth = katz_row_col(edgeless_graph(3), c=0.5)
    assert np.allclose(hub.scores, 1.0)
    assert np.allclose(auth.scores, 1.0)


def test_katz_path_neumann_series():
    hub, auth = katz_row_col(path_graph(3), c=0.5)
    assert np.allclose(hub.scores, [1.75, 1.5, 1.0], atol=1e-9)
    assert np.allclose(auth.scores, [1.0, 1.5, 1.75], atol=1e-9)


def test_katz_default_parameter_matches_dense_solve(ex1):
    hub, auth = katz_row_col(ex1)
    c = hub.params["c"]
    A = dense_adjacency(ex1)
    expected_hub = np.linalg.solve(np.eye(ex1.n) - c * A, np.ones(ex1.n))
    expected_auth = np.linalg.solve(np.eye(ex1.n) - c * A.T, np.ones(ex1.n))
    assert np.allclose(hub.scores, expected_hub, atol=1e-8)
    assert np.allclose(auth.scores, expected_auth, atol=1e-8)


def test_katz_residual_invariant(ex1):
    hub, _ = katz_row_col(ex1)
    c = hub.params["c"]
    A = dense_adjacency(ex1)
    resid = np.linalg.norm((np.eye(ex1.n) - c * A) @ hub.scores - 1.0, np.inf)
    assert resid <= 1e-9 * np.linalg.norm(hub.scores, np.inf)
    assert np.all(hub.scores >= 1.0 - 1e-12)


def test_katz_rejects_out_of_range_c(ex1):
    with pytest.raises(ParameterError):
        katz_row_col(ex1, c=10.0)
    with pytest.raises(ParameterError):
        katz_row_col(ex1, c=-0.1)


# ------------------------------------------------------------------- resolvent


def test_resolvent_edgeless_is_ones():
    hub, auth = resolvent_bipartite(edgeless_graph(3), c=0.5)
    assert np.allclose(hub.scores, 1.0)
    assert np.allclose(auth.scores, 1.0)


def test_resolvent_two_cycle_hand_inverse():
    g = from_edges([(0, 1), (1, 0)])
    hub, _ = resolvent_bipartite(g, c=0.5)
    assert np.allclose(hub.scores, 4.0 / 3.0, atol=1e-12)


def test_resolvent_dense_vs_quadrature(ex1):
    sigma1 = power_singular_pair(ex1).sigma1
    c = 0.9 / sigma1
    dense_hub, dense_auth = resolvent_bipartite(ex1, c=c, mode="dense")
    quad_hub, quad_auth = resolvent_bipartite(ex1, c=c, mode="quadrature")
    assert np.allclose(dense_hub.scores, quad_hub.scores, atol=1e-8)
    assert np.allclose(dense_auth.scores, quad_auth.scores, atol=1e-8)


def test_resolvent_rejects_out_of_range_c(ex1):
    sigma1 = power_singular_pair(ex1).sigma1
    with pytest.raises(ParameterError):
        resolvent_bipartite(ex1, c=1.1 / sigma1)


# ---------------------------------------------------------------- expsum


def test_expsum_path():
    hub, auth = expA_row_col_sums(path_graph(3))
    assert np.allclose(hub.scores, [2.5, 2.0, 1.0], atol=1e-10)
    assert np.allclose(auth.scores, [1.0, 2.0, 2.5], atol=1e-10)


def test_expsum_edgeless():
    hub, auth = expA_row_col_sums(edgeless_graph(3))
    assert np.allclose(hub.scores, 1.0)
    assert np.allclose(auth.scores, 1.0)


def test_expsum_matches_dense(ex1):
    hub, auth = expA_row_col_sums(ex1)
    E = scipy_expm(dense_adjacency(ex1))
    assert np.allclose(hub.scores, E.sum(axis=1), atol=1e-10)
    assert np.allclose(auth.scores, E.sum(axis=0), atol=1e-10)


# -------------------------------------------------------------------- pagerank


def test_pagerank_single_node():
    sv = pagerank(from_edges([], n=1))
    assert np.allclose(sv.scores, [1.0])


def test_pagerank_two_cycle_symmetric():
    sv = pagerank(from_edges([(0, 1), (1, 0)]))
    assert np.allclose(sv.scores, [0.5, 0.5], atol=1e-12)


def test_pagerank_star_with_dangling_matches_dense():
    # 1 <- 2, 1 <- 3 with node 1 dangling
    g = from_edges([(1, 0), (2, 0)], n=3)
    sv = pagerank(g, alpha=0.85)
    expected = google_stationary_dense(g, 0.85)
    assert np.allclose(sv.scores, expected, atol=1e-10)


def test_pagerank_properties(ex1):
    sv = pagerank(ex1)
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(sv.scores > 0)
    assert sv.diagnostics["converged"]


def test_pagerank_reverse_is_reversed_graph(ex1):
    rev_sv = pagerank(ex1, reverse=True)
    manual = pagerank(ex1.reversed())
    assert np.allclose(rev_sv.scores, manual.scores, atol=1e-14)
    assert rev_sv.side == "hub"


def test_pagerank_alpha_range(ex1):
    with pytest.raises(ParameterError):
        pagerank(ex1, alpha=1.0)


@st.composite
def _pagerank_graphs(draw):
    """Digraphs with duplicate edges, self-loops and dangling nodes; weighted
    ones with zero weights (a dangling row that stores an entry) too."""
    n = draw(st.integers(1, 30))
    weight = st.sampled_from([1.0, 1.0, 0.0, 0.5, 2.0, 3.25]) if draw(st.booleans()) else st.just(1.0)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight), max_size=4 * n))
    return from_edges(edges, n=n, weighted=any(w != 1.0 for _, _, w in edges))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pagerank_graphs(), st.booleans(), st.sampled_from([0.5, 0.85, 0.99]))
def test_pagerank_equals_the_reference_loop_bit_for_bit(g, reverse, alpha):
    sv = pagerank(g, alpha=alpha, reverse=reverse)
    scores, iterations = pagerank_reference(g, alpha=alpha, reverse=reverse)
    assert np.array_equal(sv.scores, scores)
    assert sv.diagnostics["iterations"] == iterations


# ---------------------------------------------------------------------- degree


def test_degree_rankings_example1(ex1):
    hub, auth = degree_scores(ex1)
    assert rank_table(hub).groups == [[0, 1, 2], [3]]
    assert rank_table(auth).groups == [[1], [2], [0, 3]]


def test_degree_rankings_example3(ex3):
    hub, auth = degree_scores(ex3)
    assert rank_table(auth).groups == [[0], [1, 2, 3, 4], [5]]
    assert rank_table(hub).groups == [[5], [1, 2, 3, 4], [0]]


def test_degree_edgeless_zero():
    hub, auth = degree_scores(edgeless_graph(3))
    assert np.allclose(hub.scores, 0.0)
    assert np.allclose(auth.scores, 0.0)


# ------------------------------------------------------------- communicability


def test_communicability_disconnected_zero():
    g = from_edges([(0, 1)], n=4)
    assert communicability(g, 2, 3, kind="hub") == pytest.approx(0.0, abs=1e-14)


def test_communicability_transpose_identity(ex1):
    E = scipy_expm(dense_bipartite(ex1))
    n = ex1.n
    for i, j in [(0, 1), (2, 3), (1, 1)]:
        got = communicability(ex1, i, j, kind="hub_authority")
        assert got == pytest.approx(E[i, n + j], abs=1e-12)
        assert got == pytest.approx(E[n + j, i], abs=1e-12)


def test_communicability_dense_matches_oracle(ex1):
    E = scipy_expm(dense_bipartite(ex1))
    n = ex1.n
    assert communicability(ex1, 0, 1, kind="hub") == pytest.approx(E[0, 1], abs=1e-12)
    assert communicability(ex1, 0, 1, kind="authority") == pytest.approx(E[n, n + 1], abs=1e-12)


@pytest.mark.parametrize("kind", ["hub", "authority", "hub_authority"])
def test_communicability_quadrature_matches_dense(ex1, kind):
    # path 0 -> 1 -> 2 with i = 0, j = 1: the coupling kind polarizes A^T e_0 = e_1
    # against e_1, so one of its two vectors is zero
    graphs = [ex1, path_graph(3), edgeless_graph(2), zipf_offset_graph(60, 5, 0)]
    for g in graphs:
        nodes = range(min(g.n, 8))
        pairs = [(i, j) for i in nodes for j in nodes if i != j or kind == "hub_authority"]
        for i, j in pairs:
            dense = communicability(g, i, j, kind=kind, mode="dense")
            quad = communicability(g, i, j, kind=kind, mode="quadrature", p=20)
            assert quad == pytest.approx(dense, rel=1e-12, abs=1e-12), (g.n, i, j)


@pytest.mark.parametrize("mode", ["dense", "quadrature"])
@pytest.mark.parametrize("kind", ["hub", "authority", "hub_authority"])
def test_communicability_overflow_raises_convergence_error(kind, mode):
    # sigma_1 = 1000: cosh(1000) overflows double precision, which must not
    # come back as NaN or pass by as a NumPy warning
    g = from_edges([(0, 1, 1000.0), (1, 0, 2.0)], weighted=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflow"):
            communicability(g, 0, 1, kind=kind, mode=mode, p=2)


def test_communicability_rejects_same_node_hub_kind(ex1):
    with pytest.raises(ParameterError):
        communicability(ex1, 1, 1, kind="hub")
