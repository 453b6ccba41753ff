"""Property tests of the exp-quad brackets, top-k and the dense scores.

Graphs are small random digraphs (n <= 12; n <= 40 for the top-k pruning
and sparse first-step tests), edgeless and reducible ones included.  The
bracket oracle is hub_i = sum_k cosh(sigma_k) U_ik^2 (authorities: V), read
straight off the full SVD of A.  The dense scores, which are computed from
the eigendecompositions of A A^T and A^T A, are checked against scipy's expm
of the 2n x 2n bipartite matrix, the inverse of the n x n Gram matrices and
an SVD reference built in the test (G(n, p) graphs up to n = 40, weighted,
with zero weights, and rank-deficient).
"""

import contextlib
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hubauth import (
    ScoreVector,
    communicability,
    estrada_index,
    exp_centrality_exact,
    exp_centrality_quadrature,
    from_edges,
    identify_top_k,
    power_singular_pair,
    rank_table,
    resolvent_bipartite,
    spectrum_interval,
    truncated_spectral_scores,
)
from hubauth import graph, quadrature
from hubauth.graph import GramOperator
from hubauth.linalg import LanczosRun
from hubauth.quadrature import (
    COSH_SQRT,
    BracketPool,
    ResolventKernel,
    first_lanczos_step,
    radau_bounds_from_run,
)
from hubauth.rankers import TIE_REL_TOL

from conftest import both_sides, dense_adjacency, dense_bipartite, edgeless_graph, scipy_expm

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    if draw(st.booleans()):
        # reducible: keep only edges pointing from lower to higher ids (a DAG)
        edges = [(u, v) for u, v in edges if u < v]
    return from_edges(edges, n=n)


@st.composite
def gnp_digraphs(draw, max_n=40):
    """Each pair (self-loops too) an edge with a drawn probability; half of them DAGs."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.sampled_from([0.03, 0.08, 0.15, 0.3]))
    if draw(st.booleans()):
        mask = np.triu(mask, 1)
    return from_edges([(int(u), int(v)) for u, v in zip(*np.nonzero(mask))], n=n)


@st.composite
def weighted_gnp_digraphs(draw, max_n=40):
    """G(n, p) pairs listed once or twice in shuffled order, self-loops too, a third of the weights 0."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us, vs = np.nonzero(rng.random((n, n)) < draw(st.sampled_from([0.03, 0.08, 0.15, 0.3])))
    copies = rng.integers(1, 3, size=us.size)
    us, vs = np.repeat(us, copies), np.repeat(vs, copies)
    ws = np.where(rng.random(us.size) < 1 / 3, 0.0, rng.uniform(0.1, 3.0, size=us.size))
    order = rng.permutation(us.size)
    return from_edges([(int(us[e]), int(vs[e]), float(ws[e])) for e in order], n=n, weighted=True)


@st.composite
def weighted_digraphs(draw):
    g = draw(digraphs())
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=g.m, max_size=g.m))
    return from_edges([(u, v, w) for (u, v, _), w in zip(g.edges(), weights)], n=g.n, weighted=True)


def svd_oracle(g):
    """Diagonal of the bipartite exponential: hub entries, then authority entries."""
    U, s, Vt = np.linalg.svd(dense_adjacency(g))
    cosh = np.cosh(s)
    return np.concatenate([(U**2) @ cosh, (Vt.T**2) @ cosh])


def _slack(x):
    return 1e-10 * max(1.0, abs(x))


@SETTINGS
@given(digraphs())
def test_exp_quad_brackets_contain_svd_oracle(g):
    truth = svd_oracle(g)
    hub, authority = both_sides(exp_centrality_quadrature, g)
    bounds = hub.diagnostics["bounds"] + authority.diagnostics["bounds"]
    for index, nb in enumerate(bounds):
        assert nb.node == index
        assert nb.lower - _slack(truth[index]) <= truth[index] <= nb.upper + _slack(truth[index])


@SETTINGS
@given(digraphs(), st.data())
def test_radau_bracket_never_widens_on_a_reused_run(g, data):
    # index i < n is hub i on A A^T, index n + i authority i on A^T A
    truth = svd_oracle(g)
    index = data.draw(st.integers(0, 2 * g.n - 1))
    side, node = divmod(index, g.n)
    run = LanczosRun(GramOperator(g, ("hub", "authority")[side]), [node])
    iv = spectrum_interval(g)
    prev_width = math.inf
    for p in range(1, g.n + 2):
        (nb,) = radau_bounds_from_run(run, p, iv, COSH_SQRT)
        assert nb.lower - _slack(truth[index]) <= truth[index] <= nb.upper + _slack(truth[index])
        assert nb.width <= prev_width + 1e-12 * max(1.0, nb.upper)
        prev_width = nb.width
        if nb.exact:
            break


@SETTINGS
@given(digraphs(), st.data())
def test_topk_brackets_certificate_and_relaxed_candidates_are_sound(g, data):
    n = g.n
    k = data.draw(st.integers(1, min(3, n)))
    # p_max = 3 leaves wide brackets, so certification has something to decide
    p_max = data.draw(st.sampled_from([3, 64]))
    truth_both = svd_oracle(g)
    sigma1 = np.linalg.norm(dense_adjacency(g), 2)
    slack = 64 * np.finfo(float).eps * n * math.cosh(sigma1)
    for offset, side in ((0, "hub"), (n, "authority")):
        truth = truth_both[offset : offset + n]
        report = identify_top_k(g, k, side=side, p_max=p_max)
        relaxed = identify_top_k(g, k, side=side, p_max=p_max, m=min(2 * k, n))
        for r in (report, relaxed):
            for v, nb in r.bounds.items():
                assert nb.lower - slack <= truth[v] <= nb.upper + slack
        if report.certified:
            worst = min(truth[v] for v in report.members)
            worst_lower = min(report.bounds[v].lower for v in report.members)
            for v in set(range(n)) - set(report.members):
                assert truth[v] <= worst + TIE_REL_TOL * max(1.0, worst) + 2 * slack
                # the certificate's own claim: the brackets separate
                assert report.bounds[v].upper <= worst_lower + TIE_REL_TOL * max(1.0, abs(worst_lower))
        kth = np.sort(truth)[::-1][k - 1]
        assert {v for v in range(n) if truth[v] > kth} <= set(relaxed.candidates)


def _cut(t):
    """The prune cut below a k-th lower bound t, with the engine's tie slack."""
    return t - TIE_REL_TOL * max(1.0, abs(t))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gnp_digraphs(), st.integers(1, 5), st.sampled_from([2, 7, None]))
def test_topk_order_one_pruning_is_sound_against_the_exact_scores(g, k_wanted, width):
    # width: columns per block run (None: the default, one block here), so the
    # running cut also meets earlier blocks' brackets
    n = g.n
    hub, authority = both_sides(exp_centrality_exact, g)
    sigma1 = np.linalg.norm(dense_adjacency(g), 2)
    slack = 64 * np.finfo(float).eps * n * math.cosh(sigma1)
    degree_one = (g.out_degrees() == 1) & (g.in_degrees() == 1)
    patch = mock.patch.object(quadrature, "block_width", lambda dim: width) if width else contextlib.nullcontext()
    with patch:
        for side, truth in (("hub", hub.scores), ("authority", authority.scores)):
            for exclude in (False, True):
                eligible = [v for v in range(n) if not (exclude and degree_one[v])]
                if not eligible:
                    continue
                k = min(k_wanted, len(eligible))
                m = min(2 * k, len(eligible))
                kth = np.sort(truth[eligible])[::-1][k - 1]
                tol = TIE_REL_TOL * max(1.0, kth) + 2 * slack
                for report in (
                    identify_top_k(g, k, side=side, exclude_degree_one=exclude),
                    identify_top_k(g, k, side=side, exclude_degree_one=exclude, m=m),
                ):
                    assert sorted(report.bounds) == eligible
                    for v in report.members:
                        nb = report.bounds[v]
                        assert nb.lower - slack <= truth[v] <= nb.upper + slack
                    if report.certified:
                        # the oracle's top k, up to scores tied with the k-th
                        assert all(truth[v] >= kth - tol for v in report.members)
                        assert all(truth[v] <= kth + tol for v in set(eligible) - set(report.members))
                    kth_lower = sorted((nb.lower for nb in report.bounds.values()), reverse=True)[k - 1]
                    member_lower = min(report.bounds[v].lower for v in report.members)
                    for v in eligible:
                        nb = report.bounds[v]
                        if report.iterations[v] == 1:
                            assert nb.p == 1
                        if nb.p != 1 or nb.exact:
                            continue
                        # dropped at order 1: one step, and below the engine's own first cut
                        assert report.iterations[v] == 1
                        assert v not in report.candidates
                        assert nb.upper < _cut(kth_lower)
                        if len(report.candidates) == k:
                            assert nb.upper < _cut(member_lower)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_gnp_digraphs(), st.data(), st.sampled_from([7, 64, None]), st.booleans())
def test_sparse_first_step_equals_the_block_run_bit_for_bit(g, data, entries, scipy_kernel):
    # entries: BLOCK_ENTRIES for the chunks (7 puts one or two nodes in each);
    # scipy_kernel: SciPy's csr_matvecs computes the reference block products
    nodes = np.array(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n)))
    with contextlib.ExitStack() as patches:
        if entries:
            patches.enter_context(mock.patch.object(quadrature, "BLOCK_ENTRIES", entries))
        if scipy_kernel:
            patches.enter_context(mock.patch.object(graph, "NUMPY_BLOCK_LIMIT", 0))
        for side in ("hub", "authority"):
            op = GramOperator(g, side)
            alpha, beta, broken = first_lanczos_step(op, nodes)
            run = LanczosRun(op, nodes).extend(1)
            run_alpha, run_beta = run.coefficients(1)
            assert np.array_equal(alpha, run_alpha[:, 0])
            assert np.array_equal(beta, run_beta[:, 0])
            assert np.array_equal(broken, run.broken)


def _assert_close(got, expected):
    # 1e-12 relative; the absolute floor only matters for entries that are zero
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(st.one_of(digraphs(), weighted_digraphs()))
def test_dense_scores_match_expm_and_gram_inverse(g):
    n = g.n
    E = scipy_expm(dense_bipartite(g))
    hub, authority = both_sides(exp_centrality_exact, g)
    _assert_close(np.concatenate([hub.scores, authority.scores]), np.diag(E))

    pairs = [(i, j) for i in range(n) for j in range(n)]
    _assert_close([communicability(g, i, j, kind="hub_authority") for i, j in pairs], [E[i, n + j] for i, j in pairs])
    pairs = [(i, j) for i, j in pairs if i != j]
    _assert_close([communicability(g, i, j, kind="hub") for i, j in pairs], [E[i, j] for i, j in pairs])
    _assert_close([communicability(g, i, j, kind="authority") for i, j in pairs], [E[n + i, n + j] for i, j in pairs])

    A = dense_adjacency(g)
    sigma1 = np.linalg.norm(A, 2)
    c = 0.9 / sigma1 if sigma1 > 0 else 0.5
    hub, authority = both_sides(resolvent_bipartite, g, c=c, mode="dense")
    _assert_close(hub.scores, np.diag(np.linalg.inv(np.eye(n) - c**2 * A @ A.T)))
    _assert_close(authority.scores, np.diag(np.linalg.inv(np.eye(n) - c**2 * A.T @ A)))


@SETTINGS
@given(st.one_of(digraphs(), weighted_digraphs(), st.integers(1, 12).map(edgeless_graph)))
def test_spectrum_interval_squared_bounds_sigma1_squared(g):
    # the Gram brackets' right Radau node: random, DAG-only, weighted and edgeless
    # graphs, from a converged power iterate and from one stopped after two steps
    sigma1 = np.linalg.norm(dense_adjacency(g), 2)
    for estimate in (power_singular_pair(g), power_singular_pair(g, max_iter=2)):
        assert spectrum_interval(g, estimate).b >= sigma1**2


def _histories(pool, nodes, p_max, done=lambda b: False):
    """Each node's stored bracket after every step of one ``pool.advance`` to p_max."""
    history = {v: [] for v in nodes}

    def record(b):
        history[b.node].append(b)
        return done(b)

    pool.advance(nodes, p_max, record)
    for v in nodes:
        # the last step's brackets reach ``done`` only when the block goes on
        if not history[v] or history[v][-1] is not pool.bounds[v]:
            history[v].append(pool.bounds[v])
    return history


@SETTINGS
@given(st.one_of(digraphs(), weighted_digraphs()), st.sampled_from([3, 5, 40]))
def test_gram_brackets_contain_svd_oracle_for_exp_and_resolvent(g, p_max):
    U, s, Vt = np.linalg.svd(dense_adjacency(g))
    c = 0.9 / s[0] if s[0] > 0 else 0.5
    iv = spectrum_interval(g)
    for weights, kernel in ((np.cosh(s), COSH_SQRT), (1.0 / (1.0 - c**2 * s**2), ResolventKernel(c**2))):
        for side, vectors in (("hub", U), ("authority", Vt.T)):
            truth = (vectors**2) @ weights
            pool = BracketPool(GramOperator(g, side), iv, kernel)
            for v, brackets in _histories(pool, range(g.n), p_max).items():
                t = truth[v]
                for nb in brackets:
                    assert nb.lower - _slack(t) <= t <= nb.upper + _slack(t), (side, kernel, nb)


@SETTINGS
@given(digraphs(), st.sampled_from(["hub", "authority"]), st.data())
def test_bracket_is_the_same_alone_and_in_a_block_with_zero_degree_columns(g, side, data):
    # two appended isolated nodes break down at the first step in the block
    g = from_edges(list(g.edges()), n=g.n + 2)
    order = data.draw(st.permutations(range(g.n)))
    iv = spectrum_interval(g)
    op = GramOperator(g, side)
    block = BracketPool(op, iv, COSH_SQRT)
    alone = BracketPool(op, iv, COSH_SQRT)
    alone.width = 1
    assert block.width >= g.n
    # exact columns leave the block, as in the rankers
    in_block = _histories(block, order, 9, lambda b: b.exact)
    by_itself = _histories(alone, order, 9, lambda b: b.exact)
    for v in range(g.n):
        assert len(by_itself[v]) == len(in_block[v])
        for a, b in zip(by_itself[v], in_block[v]):
            assert (a.p, a.exact) == (b.p, b.exact)
            assert abs(a.lower - b.lower) <= 1e-13 * abs(a.lower)
            assert abs(a.upper - b.upper) <= 1e-13 * abs(a.upper)
    assert [nb.p for nb in block.bounds] == [nb.p for nb in alone.bounds]


@st.composite
def twin_digraphs(draw):
    """A G(n, p) digraph, weighted or not, where a few nodes copy another's out-edges: A is rank-deficient."""
    g = draw(st.one_of(gnp_digraphs(), weighted_gnp_digraphs()))
    A = dense_adjacency(g)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for u, v in rng.integers(0, g.n, size=(draw(st.integers(1, 3)), 2)):
        A[v] = A[u]
    return from_edges([(int(u), int(v), float(A[u, v])) for u, v in zip(*np.nonzero(A))], n=g.n, weighted=True)


def _spectral_reference(s, vectors, k):
    """Truncated spectral scores of one side and whether the cut splits a group, written out from the SVD."""
    n = len(s)
    lams = np.concatenate([s, -s[::-1]])
    heads = np.r_[True, np.abs(np.diff(lams)) > TIE_REL_TOL * max(1.0, s[0])]
    group = np.cumsum(heads) - 1
    start = np.flatnonzero(heads)[group]
    size = np.bincount(group)[group]
    weights = np.clip((k - start) / size, 0.0, 1.0)
    columns = np.r_[np.arange(n), np.arange(n)[::-1]]  # the vector of +sigma_t, then of -sigma_t
    scores = (vectors[:, columns] ** 2) @ (0.5 * weights * np.exp(lams))
    return scores, bool(np.any((start < k) & (k < start + size)))


@SETTINGS
@given(st.one_of(gnp_digraphs(), weighted_gnp_digraphs(), twin_digraphs()))
def test_dense_methods_match_an_svd_reference(g):
    n = g.n
    A = dense_adjacency(g)
    U, s, Vt = np.linalg.svd(A)
    c = 0.9 / s[0] if s[0] > 0 else 0.5
    for side, vectors in (("hub", U), ("authority", Vt.T)):
        _assert_close(exp_centrality_exact(g, side).scores, (vectors**2) @ np.cosh(s))
        _assert_close(resolvent_bipartite(g, side, c=c, mode="dense").scores, (vectors**2) @ (1 / (1 - c**2 * s**2)))
        for k in sorted({1, max(1, n - 1), n, n + 1, 2 * n}):
            got = truncated_spectral_scores(g, side, k=k)
            scores, ambiguous = _spectral_reference(s, vectors, k)
            # sigma = sqrt(lambda) would split the zero group, clearing the flag at a cut inside it
            assert got.diagnostics["cut_ambiguous"] == ambiguous
            if not ambiguous:
                assert np.array_equal(rank_table(got).ranks, rank_table(ScoreVector("spectral", side, scores)).ranks)
    assert math.isclose(estrada_index(g), 2 * np.cosh(s).sum(), rel_tol=1e-12)

    blocks = {
        "hub": (U * np.cosh(s)) @ U.T,
        "authority": (Vt.T * np.cosh(s)) @ Vt,
        "hub_authority": (U * np.sinh(s)) @ Vt,
    }
    # an entry of f(M) is good to about eps * ||f(M)||, not to eps of itself
    for kind, block in blocks.items():
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j or kind == "hub_authority"]
        got = [communicability(g, i, j, kind=kind) for i, j in pairs]
        np.testing.assert_allclose(got, [block[i, j] for i, j in pairs], rtol=0, atol=1e-12 * max(1.0, np.abs(block).max()))
