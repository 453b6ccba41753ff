"""Ranking comparison, spectral gap, symmetry, and the trace index."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from hubauth import (
    ScoreVector,
    compare,
    degree_scores,
    estrada_index,
    exp_centrality_exact,
    from_edges,
    hits,
    rank_table,
    spectral_gap,
    symmetry_fraction,
)
from hubauth.analysis import _kendall_tau_b

from conftest import both_sides, dense_bipartite, edgeless_graph, path_graph, scipy_expm


def table_of(scores):
    return rank_table(ScoreVector("t", "hub", np.asarray(scores, dtype=float)))


def test_compare_identical_tables():
    t = table_of([4.0, 3.0, 2.0, 1.0])
    rep = compare(t, t, ks=[1, 2, 4])
    assert rep.kendall_tau_b == 1.0
    assert all(v == 1.0 for v in rep.overlap_at.values())


def test_compare_reversed_orderings():
    a = table_of([4.0, 3.0, 2.0, 1.0])
    b = table_of([1.0, 2.0, 3.0, 4.0])
    rep = compare(a, b, ks=[2])
    assert rep.kendall_tau_b == pytest.approx(-1.0)
    assert rep.overlap_at[2] == 0.0


def test_compare_example1_exp_vs_hits_authority(ex1):
    auth_exp = exp_centrality_exact(ex1, "authority")
    auth_hits = hits(ex1, "authority")
    rep = compare(rank_table(auth_exp), rank_table(auth_hits), ks=[4])
    assert rep.overlap_at[4] == 1.0
    assert rep.kendall_tau_b == 1.0  # same ranking {2;3;4;1}


def test_compare_fractional_tie_overlap(ex1):
    # degree hubs tie nodes {0,1,2} at the top; at k=2 each carries weight 2/3,
    # while the exact table puts 0 and 2 on top with weight 1
    hub_deg = degree_scores(ex1, "hub")
    hub_exp = exp_centrality_exact(ex1, "hub")
    rep = compare(rank_table(hub_deg), rank_table(hub_exp), ks=[2])
    assert rep.overlap_at[2] == pytest.approx((2 / 3 + 2 / 3) / 2)


def test_compare_tau_invariant_under_monotone_transform(ex1):
    hub = exp_centrality_exact(ex1, "hub")
    warped = ScoreVector("t", "hub", np.exp(hub.scores))
    rep = compare(rank_table(hub), rank_table(warped), ks=[2])
    assert rep.kendall_tau_b == 1.0


@st.composite
def rank_pairs(draw):
    """Two integer rank vectors of one length: tie-heavy, identical, reversed or all-tied."""
    n = draw(st.integers(1, 200))
    levels = draw(st.sampled_from([1, 2, 3, 5, 8, n]))
    ints = st.lists(st.integers(1, levels), min_size=n, max_size=n)
    x = np.array(draw(ints))
    partner = draw(st.sampled_from(["random", "identical", "reversed", "tied"]))
    if partner == "random":
        y = np.array(draw(ints))
    elif partner == "identical":
        y = x.copy()
    elif partner == "reversed":
        y = levels + 1 - x
    else:
        y = np.ones(n, dtype=int)
    return x, y


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rank_pairs())
def test_kendall_tau_b_matches_scipy(pair):
    x, y = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on samples shorter than 2
        expected = float(kendalltau(x, y)[0])
    got = _kendall_tau_b(x, y)
    # scores -x, -y give competition ranks in the same order as x, y
    ta, tb = table_of(-x), table_of(-y)
    through_compare = compare(ta, tb, ks=[1]).kendall_tau_b
    if math.isnan(expected):
        assert math.isnan(got)
        assert through_compare == (1.0 if np.array_equal(ta.ranks, tb.ranks) else 0.0)
    else:
        assert abs(got - expected) <= 1e-12
        assert abs(through_compare - expected) <= 1e-12


def test_kendall_tau_b_memory_is_linear():
    # an n x n array of pair signs alone would take 900 MB at this size
    rng = np.random.default_rng(5)
    n = 30000
    x = rng.permutation(n) + 1
    y = rng.integers(1, 100, n)
    tracemalloc.start()
    try:
        tau = _kendall_tau_b(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert abs(tau - float(kendalltau(x, y)[0])) <= 1e-12


def test_compare_all_tied_table_reports_zero_tau():
    flat = table_of([2.0, 2.0, 2.0])
    ordered = table_of([3.0, 2.0, 1.0])
    assert math.isnan(_kendall_tau_b(flat.ranks, ordered.ranks))
    assert compare(flat, ordered, ks=[1]).kendall_tau_b == 0.0


def test_compare_node_set_mismatch():
    with pytest.raises(ValueError, match="node set"):
        compare(table_of([1.0, 2.0]), table_of([1.0, 2.0, 3.0]))


def test_compare_is_symmetric(ex1):
    hub_deg = degree_scores(ex1, "hub")
    hub_exp = exp_centrality_exact(ex1, "hub")
    ab = compare(rank_table(hub_deg), rank_table(hub_exp), ks=[3])
    ba = compare(rank_table(hub_exp), rank_table(hub_deg), ks=[3])
    assert ab.kendall_tau_b == pytest.approx(ba.kendall_tau_b)
    assert ab.overlap_at[3] == pytest.approx(ba.overlap_at[3])


def test_spectral_gap_degenerate_example2(ex2):
    rep = spectral_gap(ex2)
    assert rep.sigma1 == pytest.approx(math.sqrt(2), abs=1e-8)
    assert rep.relative_gap == pytest.approx(0.0, abs=1e-8)
    assert "degenerate" in rep.annotation


def test_spectral_gap_example1_separated(ex1):
    rep = spectral_gap(ex1)
    s = np.linalg.svd(ex1.forward.toarray(), compute_uv=False)
    assert rep.sigma1 == pytest.approx(s[0], abs=1e-8)
    assert rep.sigma2 == pytest.approx(s[1], abs=1e-6)
    assert rep.relative_gap > 0.05
    assert 0.0 <= rep.relative_gap <= 1.0


def test_symmetry_fraction_two_cycle_and_path():
    assert symmetry_fraction(from_edges([(0, 1), (1, 0)])) == 1.0
    assert symmetry_fraction(path_graph(4)) == 0.0


def test_symmetry_fraction_mixed():
    g = from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
    assert symmetry_fraction(g) == pytest.approx(0.5)


def test_estrada_edgeless():
    assert estrada_index(edgeless_graph(3)) == pytest.approx(6.0, abs=1e-12)


def test_estrada_two_cycle():
    g = from_edges([(0, 1), (1, 0)])
    assert estrada_index(g) == pytest.approx(4 * math.cosh(1.0), abs=1e-12)


def test_estrada_matches_dense_trace(ex1):
    E = scipy_expm(dense_bipartite(ex1))
    assert estrada_index(ex1) == pytest.approx(np.trace(E), abs=1e-10)


def test_estrada_equals_centrality_sum(ex1):
    hub, auth = both_sides(exp_centrality_exact, ex1)
    assert estrada_index(ex1) == pytest.approx(hub.scores.sum() + auth.scores.sum(), abs=1e-8)
