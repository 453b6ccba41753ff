"""Golden score tables, oracle cross-checks, and ranking mechanics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hubauth.linalg
from hubauth import cli, rankers
from hubauth import (
    ConvergenceError,
    ParameterError,
    ScoreVector,
    SizeLimitError,
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
    quadrature,
    rank_table,
    resolvent_bipartite,
    truncated_spectral_scores,
)
from hubauth.linalg import dense_gram
from hubauth.rankers import TIE_REL_TOL

from conftest import (
    both_sides,
    dense_adjacency,
    dense_bipartite,
    edgeless_graph,
    google_stationary_dense,
    pagerank_reference,
    path_graph,
    permuted_graph,
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


# ---------------------------------------------------------- uniform interface


def _mirror_cases():
    """Two zipf-offset digraphs and a weighted random one."""
    rng = np.random.default_rng(31)
    weighted = [(u, v, float(rng.uniform(0.1, 2.0))) for u in range(60) for v in range(60) if u != v and rng.random() < 0.04]
    return [zipf_offset_graph(150, 3, 1), zipf_offset_graph(150, 4, 2), from_edges(weighted, n=60, weighted=True)]


# c within 1/rho(A) and 1/sigma_1 of every case.  The two HITS runs start
# from different vectors and stop within about tol / (1 - (sigma_2/sigma_1)^2)
# of the limit: 8e-9 for the weighted case (sigma_2/sigma_1 = 0.97) at the
# default tol of 1e-10, 8e-11 at 1e-12.
MIRROR_PARAMS = {"katz": {"c": 0.05}, "resolvent": {"c": 0.05}, "hits": {"tol": 1e-12}}
MIRROR_RTOL = {"hits": 1e-8}


@pytest.mark.parametrize("method", cli.METHODS)
def test_every_ranker_scores_hubs_as_the_authorities_of_the_reversed_graph(method):
    ranker = getattr(rankers, cli.METHODS[method][0])
    params = MIRROR_PARAMS.get(method, {})
    rtol = MIRROR_RTOL.get(method, 1e-12)
    for g in _mirror_cases():
        hub = ranker(g, "hub", **params)
        mirror = ranker(g.reversed(), "authority", **params)
        assert (hub.side, mirror.side) == ("hub", "authority")
        np.testing.assert_allclose(hub.scores, mirror.scores, rtol=rtol, atol=rtol * np.abs(mirror.scores).max())


@pytest.mark.parametrize("method", cli.METHODS)
def test_every_ranker_checks_its_side_first(method):
    # hits refuses an edgeless graph and spectral a k of 0, but only after the side
    ranker = getattr(rankers, cli.METHODS[method][0])
    with pytest.raises(ParameterError, match="side must be 'hub' or 'authority', got 'both'"):
        ranker(edgeless_graph(3), "both", **({"k": 0} if method == "spectral" else {}))


# ------------------------------------------------------------------ rank_table


def test_rank_table_ties_and_competition_ranks():
    sv_scores = np.array([3.0, 1.0, 3.0, 2.0])
    table = rank_table(ScoreVector("t", "hub", sv_scores))
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
    hub, auth = both_sides(hits, ex1)
    assert np.allclose(hub.scores, EX1_HITS_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX1_HITS_AUTH, atol=5e-4)
    assert not hub.diagnostics["degenerate"]
    assert hub.diagnostics["converged"]
    assert rank_table(hub).order == [0, 2, 3, 1]
    assert rank_table(auth).order == [1, 2, 3, 0]


def test_hits_example2_degenerate_tables(ex2):
    hub, auth = both_sides(hits, ex2)
    assert np.allclose(hub.scores, EX2_HITS_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX2_HITS_AUTH, atol=5e-4)
    assert hub.diagnostics["degenerate"]


def test_hits_example3_tables(ex3):
    hub, auth = both_sides(hits, ex3)
    assert np.allclose(hub.scores, EX3_HITS_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX3_HITS_AUTH, atol=5e-4)
    # the authority table cannot separate node 0 from nodes 1..4
    assert rank_table(auth).groups == [[0, 1, 2, 3, 4], [5]]


def test_hits_iteration_cap_flags(ex1):
    hub = hits(ex1, "hub", tol=1e-15, max_iter=2)
    assert not hub.diagnostics["converged"]
    assert hub.diagnostics["iterations"] == 2


def test_hits_requires_edges():
    with pytest.raises(ParameterError):
        hits(edgeless_graph(3), "hub")


@pytest.mark.parametrize(
    "edges,kwargs,message",
    [
        ([(0, 1), (1, 2)], {"max_iter": 0}, "max_iter must be at least 1"),
        ([(0, 1, 0.0), (1, 2, 0.0)], {}, "took no step"),
        # the start vector sits on node 0, which has no in-edge: A x = 0
        ([(0, 1), (1, 2)], {"init": np.array([1.0, 0.0, 0.0])}, "took no step"),
    ],
    ids=["max-iter-0", "zero-weights", "init-without-in-edges"],
)
def test_hits_without_a_step_raises(edges, kwargs, message):
    with pytest.raises(ParameterError, match=message):
        hits(from_edges(edges), "hub", **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hits_rejects_non_finite_init(ex1, bad):
    with pytest.raises(ParameterError, match="init must be a finite"):
        hits(ex1, "hub", init=np.array([bad, 1.0, 1.0, 1.0]))


def test_hits_custom_init(ex1):
    hub_default = hits(ex1, "hub")
    hub_custom = hits(ex1, "hub", init=np.array([1.0, 2.0, 3.0, 4.0]))
    # simple dominant eigenvalue: the limit is start-independent
    assert np.allclose(hub_default.scores, hub_custom.scores, atol=1e-8)


# -------------------------------------------------------- exponential, exact


def test_exp_exact_example1_tables(ex1):
    hub, auth = both_sides(exp_centrality_exact, ex1)
    assert np.allclose(hub.scores, EX1_EXP_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX1_EXP_AUTH, atol=5e-4)
    assert rank_table(hub).order == [0, 2, 1, 3]
    assert rank_table(auth).order == [1, 2, 3, 0]


def test_exp_exact_example2_tables(ex2):
    hub, auth = both_sides(exp_centrality_exact, ex2)
    assert np.allclose(hub.scores, EX2_EXP_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX2_EXP_AUTH, atol=5e-4)
    # authority table has a clear winner, unlike the HITS three-way tie
    assert rank_table(auth).groups == [[1], [0, 3], [2]]


def test_exp_exact_directed_path_endpoints():
    g = path_graph(4)
    hub, auth = both_sides(exp_centrality_exact, g)
    auth_t = rank_table(auth)
    hub_t = rank_table(hub)
    assert auth_t.groups[-1] == [0]  # node 1 strictly least authoritative
    assert hub_t.groups[-1] == [3]  # last node strictly lowest hub
    assert auth_t.groups[0] == [1, 2, 3]
    assert hub_t.groups[0] == [0, 1, 2]


def test_exp_exact_matches_svd_formula(ex1):
    hub, auth = both_sides(exp_centrality_exact, ex1)
    hub_block, auth_block, _ = svd_block_oracle(ex1)
    assert np.allclose(hub.scores, np.diag(hub_block), atol=1e-10)
    assert np.allclose(auth.scores, np.diag(auth_block), atol=1e-10)


def test_exp_exact_trace_split(ex1):
    hub, auth = both_sides(exp_centrality_exact, ex1)
    # both diagonal blocks carry the same trace
    assert hub.scores.sum() == pytest.approx(auth.scores.sum(), abs=1e-10)
    s = np.linalg.svd(dense_adjacency(ex1), compute_uv=False)
    assert hub.scores.sum() + auth.scores.sum() == pytest.approx(2 * np.cosh(s).sum(), abs=1e-8)


def test_exp_exact_scores_at_least_one(ex1, ex2, ex3):
    for g in (ex1, ex2, ex3):
        hub, auth = both_sides(exp_centrality_exact, g)
        assert np.all(hub.scores >= 1.0 - 1e-12)
        assert np.all(auth.scores >= 1.0 - 1e-12)


def test_exp_exact_shift_preserves_ranking(ex1):
    from hubauth import ScoreVector

    hub = exp_centrality_exact(ex1, "hub")
    shifted = ScoreVector("exp-shift", "hub", hub.scores - 1.0)
    assert rank_table(shifted).order == rank_table(hub).order
    assert rank_table(shifted).groups == rank_table(hub).groups


def test_every_dense_entry_takes_n_up_to_the_limit(monkeypatch):
    # the one guard is dense_gram's n <= DENSE_DIM_LIMIT
    monkeypatch.setattr(hubauth.linalg, "DENSE_DIM_LIMIT", 5)
    entries = (
        lambda g: dense_gram(g, "authority"),
        lambda g: exp_centrality_exact(g, "hub"),
        lambda g: communicability(g, 0, 1, kind="hub_authority", mode="dense"),
        lambda g: resolvent_bipartite(g, "authority", mode="dense"),
    )
    for entry in entries:
        entry(path_graph(5))
        with pytest.raises(SizeLimitError):
            entry(path_graph(6))
    # resolvent's auto mode still takes the dense path only up to 2n <= DENSE_DIM_LIMIT
    assert resolvent_bipartite(path_graph(2), "hub").params["mode"] == "dense"
    assert resolvent_bipartite(path_graph(3), "hub").params["mode"] == "quadrature"


# --------------------------------------------------- exponential, quadrature


def test_exp_quadrature_example3_tables(ex3):
    hub, auth = both_sides(exp_centrality_quadrature, ex3)
    assert np.allclose(hub.scores, EX3_EXP_HUB, atol=5e-4)
    assert np.allclose(auth.scores, EX3_EXP_HUB[::-1], atol=5e-4)
    assert hub.diagnostics["unresolved"] == []


def test_exp_quadrature_edgeless_is_one():
    hub, auth = both_sides(exp_centrality_quadrature, edgeless_graph(4))
    assert np.allclose(hub.scores, 1.0, atol=1e-12)
    assert np.allclose(auth.scores, 1.0, atol=1e-12)


def test_exp_quadrature_matches_exact_ranking(ex1):
    hub_q, auth_q = both_sides(exp_centrality_quadrature, ex1)
    hub_e, auth_e = both_sides(exp_centrality_exact, ex1)
    assert np.allclose(hub_q.scores, hub_e.scores, atol=1e-7)
    assert rank_table(hub_q).same_ranking(rank_table(hub_e))
    assert rank_table(auth_q).same_ranking(rank_table(auth_e))


def test_exp_quadrature_brackets_contain_truth(ex1):
    hub = exp_centrality_quadrature(ex1, "hub")
    E = scipy_expm(dense_bipartite(ex1))
    for i, nb in enumerate(hub.diagnostics["bounds"]):
        assert nb.lower - 1e-10 <= E[i, i] <= nb.upper + 1e-10


def test_exp_quadrature_flags_unresolved_nodes():
    # a hopeless width target with almost no refinement budget (on ex1 every
    # Gram run spans its whole 4-dimensional space by order 3, so n = 20 here)
    g = random_digraph(np.random.default_rng(1))
    hub = exp_centrality_quadrature(g, "hub", p_max=3, width_tol=1e-15)
    assert len(hub.diagnostics["unresolved"]) > 0
    for nb in hub.diagnostics["bounds"]:
        assert nb.lower <= nb.upper


def _side_cases(ex1, ex2, ex3):
    rng = np.random.default_rng(2024)
    return [ex1, ex2, ex3, edgeless_graph(3)] + [random_digraph(rng) for _ in range(4)]


def _fresh(g):
    """The same graph as a new object, with none of the per-side state ``g`` caches."""
    return permuted_graph(g, list(range(g.n)))


def test_exp_quadrature_one_side_does_not_depend_on_the_other(ex1, ex2, ex3):
    for g in _side_cases(ex1, ex2, ex3):
        both = both_sides(exp_centrality_quadrature, g)  # hub, then authority on the same graph
        for side, full in zip(("hub", "authority"), both):
            one = exp_centrality_quadrature(_fresh(g), side)
            assert one.side == side
            assert np.array_equal(one.scores, full.scores)
            assert one.diagnostics == full.diagnostics


def test_resolvent_one_side_does_not_depend_on_the_other(ex1, ex2, ex3):
    for g in _side_cases(ex1, ex2, ex3):
        for mode in ("quadrature", "dense"):
            both = both_sides(resolvent_bipartite, g, mode=mode)
            for side, full in zip(("hub", "authority"), both):
                one = resolvent_bipartite(_fresh(g), side, mode=mode)
                assert one.side == side
                assert np.array_equal(one.scores, full.scores)
                assert one.diagnostics == full.diagnostics
                if mode == "quadrature":
                    offset = 0 if side == "hub" else g.n
                    assert [nb.node for nb in one.diagnostics["bounds"]] == list(range(offset, offset + g.n))


def _quadrature_runs(g):
    """Hub and authority ScoreVectors of exp-quad at two settings and of resolvent-quad."""
    return [
        *both_sides(exp_centrality_quadrature, g),
        *both_sides(exp_centrality_quadrature, g, p_max=5, width_tol=1e-12),  # leaves nodes unresolved
        *both_sides(resolvent_bipartite, g, mode="quadrature"),
    ]


@pytest.mark.parametrize("width", [1, 3, "n"])
def test_quadrature_brackets_do_not_depend_on_the_block_width(monkeypatch, width):
    # block_width(n) >= n for n <= 724, so unpatched every graph here is one
    # block; the nodes settle at orders 1 (exact) to 11
    rng = np.random.default_rng(7)
    for g in [random_digraph(rng) for _ in range(4)] + [zipf_offset_graph(200, 3, 2)]:
        reference = _quadrature_runs(g)
        with monkeypatch.context() as patched:
            patched.setattr(quadrature, "block_width", lambda dim: dim if width == "n" else width)
            blocked = _quadrature_runs(g)
        for one, expected in zip(blocked, reference):
            assert np.array_equal(one.scores, expected.scores)
            assert one.diagnostics == expected.diagnostics  # every bracket, bit for bit


def test_quadrature_rankers_reject_p_max_below_the_first_order(ex1):
    # the first bracket is already at order P_START = 3
    with pytest.raises(ParameterError, match="p_max"):
        exp_centrality_quadrature(ex1, "hub", p_max=2)
    for mode in ("quadrature", "dense"):  # the dense path reads no order, but refuses one no path could take
        with pytest.raises(ParameterError, match="p_max"):
            resolvent_bipartite(ex1, "hub", mode=mode, p_max=2)
    exp_centrality_quadrature(ex1, "hub", p_max=3)
    resolvent_bipartite(ex1, "hub", mode="dense", p_max=3)


# ----------------------------------------------------------- spectral truncation


def test_truncated_k1_reproduces_hits_ranking(ex1):
    hub_t, auth_t = both_sides(truncated_spectral_scores, ex1, k=1)
    hub_h, auth_h = both_sides(hits, ex1)
    assert rank_table(hub_t).same_ranking(rank_table(hub_h))
    assert rank_table(auth_t).same_ranking(rank_table(auth_h))


def test_truncated_full_spectrum_equals_exact(ex1):
    hub_t, auth_t = both_sides(truncated_spectral_scores, ex1, k=2 * ex1.n)
    hub_e, auth_e = both_sides(exp_centrality_exact, ex1)
    assert np.allclose(hub_t.scores, hub_e.scores, atol=1e-10)
    assert np.allclose(auth_t.scores, auth_e.scores, atol=1e-10)
    assert rank_table(hub_t).same_ranking(rank_table(hub_e))


def test_truncated_degenerate_flag(ex2):
    hub = truncated_spectral_scores(ex2, "hub", k=1)
    assert hub.diagnostics["degenerate"]


def test_truncated_sparse_path_is_deterministic():
    # above DENSE_DIM_LIMIT the triplets come from svds, which must not start from a random vector
    g = zipf_offset_graph(4500, 5, seed=3)
    first, again = both_sides(truncated_spectral_scores, g, k=3), both_sides(truncated_spectral_scores, g, k=3)
    for a, b in zip(first, again):
        assert np.array_equal(a.scores, b.scores)


def test_truncated_k_range(ex1):
    with pytest.raises(ParameterError):
        truncated_spectral_scores(ex1, "hub", k=0)
    with pytest.raises(ParameterError):
        truncated_spectral_scores(ex1, "hub", k=2 * ex1.n + 1)


# ------------------------------------------------------------------------ katz


def test_katz_edgeless_is_ones():
    hub, auth = both_sides(katz_row_col, edgeless_graph(3), c=0.5)
    assert np.allclose(hub.scores, 1.0)
    assert np.allclose(auth.scores, 1.0)


def test_katz_path_neumann_series():
    hub, auth = both_sides(katz_row_col, path_graph(3), c=0.5)
    assert np.allclose(hub.scores, [1.75, 1.5, 1.0], atol=1e-9)
    assert np.allclose(auth.scores, [1.0, 1.5, 1.75], atol=1e-9)


def test_katz_on_a_dag_takes_any_c():
    # A^3 = 0 on the path, so rho(A) = 0 and the series 1 + cA1 + c^2 A^2 1 is exact for every c
    hub, auth = both_sides(katz_row_col, path_graph(3), c=2.0)
    assert np.array_equal(hub.scores, [7.0, 3.0, 1.0])
    assert np.array_equal(auth.scores, [1.0, 3.0, 7.0])
    # the default keeps the positive scale min(max out-strength, sigma_1) = 1, not rho = 0
    default = katz_row_col(path_graph(3), "hub")
    c = default.params["c"]
    assert c == pytest.approx(1 / 1.1, rel=1e-12)
    assert default.diagnostics == {"rho_estimate": 0.0, "rho_converged": True}
    assert np.allclose(default.scores, [1 + c + c * c, 1 + c, 1.0], rtol=1e-14)
    # so a deep DAG keeps scores near 1 / (1 - c) = 11, far from the 1e150 divergence guard
    deep = katz_row_col(path_graph(151), "hub")
    assert deep.params["c"] == c
    assert deep.scores[0] == pytest.approx(sum(c**k for k in range(151)), rel=1e-12)


def test_katz_sums_a_deep_dag_series_past_the_divergence_guard():
    # rho = 0 is proved, so an explicit c > 0 is refused only when the finite sum overflows
    deep = katz_row_col(path_graph(151), "hub", c=10.0)
    assert deep.scores[0] == pytest.approx(float(sum(10**k for k in range(151))), rel=1e-12)
    assert deep.scores[0] > 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflow"):
            katz_row_col(path_graph(151), "hub", c=1e3)


def test_katz_default_parameter_matches_dense_solve(ex1):
    hub, auth = both_sides(katz_row_col, ex1)
    c = hub.params["c"]
    A = dense_adjacency(ex1)
    expected_hub = np.linalg.solve(np.eye(ex1.n) - c * A, np.ones(ex1.n))
    expected_auth = np.linalg.solve(np.eye(ex1.n) - c * A.T, np.ones(ex1.n))
    assert np.allclose(hub.scores, expected_hub, atol=1e-8)
    assert np.allclose(auth.scores, expected_auth, atol=1e-8)


def test_katz_residual_invariant(ex1):
    hub = katz_row_col(ex1, "hub")
    c = hub.params["c"]
    A = dense_adjacency(ex1)
    resid = np.linalg.norm((np.eye(ex1.n) - c * A) @ hub.scores - 1.0, np.inf)
    assert resid <= 1e-9 * np.linalg.norm(hub.scores, np.inf)
    assert np.all(hub.scores >= 1.0 - 1e-12)


def test_katz_rejects_out_of_range_c(ex1):
    with pytest.raises(ParameterError):
        katz_row_col(ex1, "hub", c=10.0)
    with pytest.raises(ParameterError):
        katz_row_col(ex1, "hub", c=-0.1)
    with pytest.raises(ParameterError):
        katz_row_col(ex1, "hub", c=math.nan)


# ------------------------------------------------------------------- resolvent


def test_resolvent_edgeless_is_ones():
    hub, auth = both_sides(resolvent_bipartite, edgeless_graph(3), c=0.5)
    assert np.allclose(hub.scores, 1.0)
    assert np.allclose(auth.scores, 1.0)


def test_resolvent_two_cycle_hand_inverse():
    g = from_edges([(0, 1), (1, 0)])
    hub = resolvent_bipartite(g, "hub", c=0.5)
    assert np.allclose(hub.scores, 4.0 / 3.0, atol=1e-12)


def test_resolvent_dense_vs_quadrature(ex1):
    sigma1 = power_singular_pair(ex1).sigma1
    c = 0.9 / sigma1
    dense_hub, dense_auth = both_sides(resolvent_bipartite, ex1, c=c, mode="dense")
    quad_hub, quad_auth = both_sides(resolvent_bipartite, ex1, c=c, mode="quadrature")
    assert np.allclose(dense_hub.scores, quad_hub.scores, atol=1e-8)
    assert np.allclose(dense_auth.scores, quad_auth.scores, atol=1e-8)


def test_resolvent_rejects_out_of_range_c(ex1):
    sigma1 = power_singular_pair(ex1).sigma1
    with pytest.raises(ParameterError):
        resolvent_bipartite(ex1, "hub", c=1.1 / sigma1)
    with pytest.raises(ParameterError):
        resolvent_bipartite(ex1, "hub", c=math.nan)


# ---------------------------------------------------------------- expsum


def test_expsum_path():
    hub, auth = both_sides(expA_row_col_sums, path_graph(3))
    assert np.allclose(hub.scores, [2.5, 2.0, 1.0], atol=1e-10)
    assert np.allclose(auth.scores, [1.0, 2.0, 2.5], atol=1e-10)


def test_expsum_edgeless():
    hub, auth = both_sides(expA_row_col_sums, edgeless_graph(3))
    assert np.allclose(hub.scores, 1.0)
    assert np.allclose(auth.scores, 1.0)


def test_expsum_matches_dense(ex1):
    hub, auth = both_sides(expA_row_col_sums, ex1)
    E = scipy_expm(dense_adjacency(ex1))
    assert np.allclose(hub.scores, E.sum(axis=1), atol=1e-10)
    assert np.allclose(auth.scores, E.sum(axis=0), atol=1e-10)


# -------------------------------------------------------------------- pagerank


def test_pagerank_single_node():
    sv = pagerank(from_edges([], n=1), "authority")
    assert np.allclose(sv.scores, [1.0])


def test_pagerank_two_cycle_symmetric():
    sv = pagerank(from_edges([(0, 1), (1, 0)]), "authority")
    assert np.allclose(sv.scores, [0.5, 0.5], atol=1e-12)


def test_pagerank_star_with_dangling_matches_dense():
    # 1 <- 2, 1 <- 3 with node 1 dangling
    g = from_edges([(1, 0), (2, 0)], n=3)
    sv = pagerank(g, "authority", alpha=0.85)
    expected = google_stationary_dense(g, 0.85)
    assert np.allclose(sv.scores, expected, atol=1e-10)


def test_pagerank_properties(ex1):
    sv = pagerank(ex1, "authority")
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(sv.scores > 0)
    assert sv.diagnostics["converged"]


def test_pagerank_reverse_is_reversed_graph(ex1):
    rev_sv = pagerank(ex1, "hub")
    manual = pagerank(ex1.reversed(), "authority")
    assert np.allclose(rev_sv.scores, manual.scores, atol=1e-14)
    assert rev_sv.side == "hub"
    assert rev_sv.params["reverse"] and not manual.params["reverse"]


def test_pagerank_alpha_range(ex1):
    with pytest.raises(ParameterError):
        pagerank(ex1, "authority", alpha=1.0)


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
    sv = pagerank(g, "hub" if reverse else "authority", alpha=alpha)
    scores, iterations = pagerank_reference(g, alpha=alpha, reverse=reverse)
    assert np.array_equal(sv.scores, scores)
    assert sv.diagnostics["iterations"] == iterations


# ---------------------------------------------------------------------- degree


def test_degree_rankings_example1(ex1):
    hub, auth = both_sides(degree_scores, ex1)
    assert rank_table(hub).groups == [[0, 1, 2], [3]]
    assert rank_table(auth).groups == [[1], [2], [0, 3]]


def test_degree_rankings_example3(ex3):
    hub, auth = both_sides(degree_scores, ex3)
    assert rank_table(auth).groups == [[0], [1, 2, 3, 4], [5]]
    assert rank_table(hub).groups == [[5], [1, 2, 3, 4], [0]]


def test_degree_hub_never_forms_the_transpose(ex1):
    g = _fresh(ex1)  # the fixture's A^T may be cached
    assert np.array_equal(degree_scores(g, "hub").scores, [2.0, 2.0, 2.0, 1.0])
    assert "reverse" not in vars(g)  # functools.cached_property stores A^T there once built


def test_degree_edgeless_zero():
    hub, auth = both_sides(degree_scores, edgeless_graph(3))
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


@pytest.mark.parametrize("p", [0, -1])
def test_communicability_quadrature_rejects_p_below_one(p):
    g = path_graph(3)
    with pytest.raises(ParameterError, match="p must be at least 1"):
        communicability(g, 0, 1, kind="hub_authority", mode="quadrature", p=p)


def test_communicability_rejects_same_node_hub_kind(ex1):
    with pytest.raises(ParameterError):
        communicability(ex1, 1, 1, kind="hub")
