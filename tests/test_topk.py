"""Top-k identification: soundness against exact scores, pruning, relaxation."""

import math
import tracemalloc

import numpy as np
import pytest

from hubauth import (
    ParameterError,
    exp_centrality_exact,
    from_edges,
    identify_top_k,
    quadrature,
    rank_table,
    topk,
)
from hubauth.rankers import TIE_REL_TOL, tie_slack

from conftest import benchmark_zipf_offset_graph, edgeless_graph, reference_top_k, zipf_offset_graph


def exact_top(g, k, side):
    return rank_table(exp_centrality_exact(g, side)).order[:k]


def test_example3_top1_hub_exact_bracket(ex3):
    report = identify_top_k(ex3, 1, side="hub")
    assert report.members == [5]
    assert report.certified
    assert report.bounds[5].exact
    assert report.bounds[5].lower == pytest.approx(math.cosh(2.0), abs=1e-10)
    assert report.bounds[5].lower == pytest.approx(3.7622, abs=5e-5)


def test_example1_top2_authorities(ex1):
    report = identify_top_k(ex1, 2, side="authority")
    assert report.members == [1, 2]
    assert report.certified
    assert report.fully_ordered


def test_top_n_returns_every_node_in_exact_order(ex1):
    report = identify_top_k(ex1, ex1.n, side="hub")
    assert report.members == exact_top(ex1, ex1.n, "hub")


@pytest.mark.parametrize("side", ["hub", "authority"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_members_match_exact_scores_on_examples(ex1, ex2, ex3, k, side):
    for g in (ex1, ex2, ex3):
        if k > g.n:
            continue
        report = identify_top_k(g, k, side=side)
        assert report.members == exact_top(g, k, side), (g.n, k, side)


def test_tie_group_admitted_by_ascending_id(ex3):
    report = identify_top_k(ex3, 3, side="hub")
    assert report.members == [5, 1, 2]
    assert report.ties_note is not None


def test_members_of_a_chained_tie_group_keep_the_candidates_id_order():
    # A^T A is rank one (hub 0 alone), so authority j scores 1 + c w_j^2 with c ~ 0.64,
    # exactly from order 3 on.  Authorities 2, 3 and 1 fall 7e-9 apart relative: one
    # chained tie group, though 2 and 1 are 1.4e-8 apart.  The members come from the
    # rank of all three candidates, as rank_table ranks the exact scores, not from a
    # rank of the two members alone
    g = from_edges([(0, 1, 1.0), (0, 2, math.sqrt(1 + 3.6e-8)), (0, 3, math.sqrt(1 + 1.8e-8))])
    report = identify_top_k(g, 2, side="authority")
    assert report.members == [1, 2] == exact_top(g, 2, "authority")
    assert report.candidates == [1, 2, 3]
    assert report.ties_note == "3 candidates tied at the rank-1 boundary; admitted lowest node ids"
    assert report.certified and not report.fully_ordered
    assert all(report.bounds[v].exact for v in report.candidates)
    reference = reference_top_k(g, 2, side="authority")
    assert (reference.members, reference.ties_note) == (report.members, report.ties_note)
    assert reference.certified and not reference.fully_ordered


def test_zero_degree_nodes_skip_lanczos(ex3):
    report = identify_top_k(ex3, 2, side="authority")
    # node 5 has no in-edges: exact score 1 without any Lanczos work
    assert report.excluded_zero_degree == 1
    assert report.iterations[5] == 0
    assert report.bounds[5].exact
    assert report.bounds[5].lower == 1.0


def test_edgeless_graph_all_tied():
    g = edgeless_graph(4)
    report = identify_top_k(g, 2, side="hub")
    assert report.members == [0, 1]
    assert report.ties_note is not None
    assert report.excluded_zero_degree == 4


def test_k_exceeding_eligible_rejected(ex1):
    with pytest.raises(ParameterError, match="eligible"):
        identify_top_k(ex1, 10, side="hub")


def test_degree_one_exclusion_policy(ex2):
    # nodes 0, 2, 3 have in-degree = out-degree = 1
    report = identify_top_k(ex2, 1, side="hub", exclude_degree_one=True)
    assert report.excluded_degree_one == 3
    assert report.members == [1]
    with pytest.raises(ParameterError):
        identify_top_k(ex2, 2, side="hub", exclude_degree_one=True)


def test_top_m_equals_identify_when_m_is_k(ex1):
    a = identify_top_k(ex1, 2, side="hub")
    b = identify_top_k(ex1, 2, side="hub", m=2)
    assert a.members == b.members
    assert a.iterations == b.iterations
    assert a.certified == b.certified


def test_top_m_certifies_at_small_p(ex1):
    report = identify_top_k(ex1, 1, side="hub", m=2)
    assert 0 in report.members
    assert report.max_iterations <= 3  # Gram steps: the order-3 first round


def test_top_m_full_relaxation_stops_immediately(ex1):
    report = identify_top_k(ex1, 1, side="hub", m=ex1.n)
    assert report.max_iterations <= 3  # Gram steps of the first round: nothing to prune when m = n


def test_top_m_contains_true_topk(random_suite):
    for g in random_suite[:12]:
        k = min(3, g.n)
        m = min(2 * k, g.n)
        report = identify_top_k(g, k, side="authority", m=m)
        assert len(report.candidates) <= m
        true_top = exact_top(g, k, "authority")
        assert set(true_top) <= set(report.candidates)


def test_top_m_work_is_antimonotone_in_m(ex1):
    tight = identify_top_k(ex1, 1, side="hub", m=1)
    loose = identify_top_k(ex1, 1, side="hub", m=3)
    for v in tight.iterations:
        assert loose.iterations[v] <= tight.iterations[v]


def test_m_range_validated(ex1):
    with pytest.raises(ParameterError):
        identify_top_k(ex1, 3, side="hub", m=2)
    with pytest.raises(ParameterError):
        identify_top_k(ex1, 1, side="hub", m=10)


def test_k_and_m_are_checked_before_the_spectrum_bound(ex1, monkeypatch):
    # both checks need only the degrees, so a bad k or m runs no power iteration
    def unreachable(g):
        raise AssertionError("spectrum_interval ran before k and m were checked")

    monkeypatch.setattr(topk, "spectrum_interval", unreachable)
    with pytest.raises(ParameterError, match="k must be"):
        identify_top_k(ex1, 0, side="authority")
    with pytest.raises(ParameterError, match="m must be"):
        identify_top_k(ex1, 3, side="hub", m=2)


def test_certification_separates_members_from_rest(ex1):
    report = identify_top_k(ex1, 2, side="authority")
    worst_member_lower = min(report.bounds[v].lower for v in report.members)
    others = [v for v in report.bounds if v not in report.members]
    for v in others:
        assert report.bounds[v].upper <= worst_member_lower + 1e-8


def test_side_validated(ex1):
    with pytest.raises(ParameterError):
        identify_top_k(ex1, 1, side="both")


def test_breakdown_one_step_past_p_max_keeps_the_order_p_bracket():
    # the A A^T runs of hubs 0, 1, 2 and 4 break down at step 4 = p_max + 1: an
    # order-3 bracket reads 3 steps, so at p_max = 3 they keep Radau brackets
    # around the exact value, and at p_max = 5 they are exact after 4 steps
    g = from_edges([(0, 1), (0, 3), (1, 2), (2, 3), (4, 1), (4, 2)], n=5)
    hub = exp_centrality_exact(g, "hub")
    for p_max, order, exact in ((3, 3, False), (5, 4, True)):
        report = identify_top_k(g, 3, side="hub", p_max=p_max)
        for v in (0, 1, 2, 4):
            nb = report.bounds[v]
            assert (nb.p, nb.exact) == (order, exact)
            assert nb.lower - 1e-12 <= hub.scores[v] <= nb.upper + 1e-12
            if exact:
                assert nb.lower == nb.upper
                assert nb.lower == pytest.approx(hub.scores[v], rel=1e-12, abs=1e-12)
        assert {v: report.iterations[v] for v in (0, 1, 2, 4)} == dict.fromkeys((0, 1, 2, 4), order)
        assert report.members == [0, 4, 1]
        assert report.certified and report.fully_ordered
        assert report.ties_note == "2 candidates tied at the rank-3 boundary; admitted lowest node ids"


@pytest.mark.parametrize("side, v", [("authority", 106), ("hub", 27)])
def test_a_near_twin_in_the_top_10_is_ordered_by_the_last_rounds(side, v):
    # node 300 copies v's in-edges (authorities) or out-edges (hubs), the first
    # weighing 1 + 1e-6: the twins' order-3 brackets overlap, so the members
    # take one more round, to order 5, before they are ordered
    g = zipf_offset_graph(300, 5, 0)
    assert rank_table(exp_centrality_exact(g, side)).order[3] == v
    edges = [(a, b, 1.0) for a, b, _ in g.edges()]
    if side == "authority":
        twin = [(a, 300, 1.0) for a, b, _ in edges if b == v]
    else:
        twin = [(300, b, 1.0) for a, b, _ in edges if a == v]
    twin[0] = twin[0][:2] + (1.0 + 1e-6,)
    g = from_edges(edges + twin, n=301)
    report = identify_top_k(g, 10, side=side)
    assert report.members == exact_top(g, 10, side)
    assert report.certified and report.fully_ordered
    assert [report.bounds[u].p for u in report.members] == [5] * 10
    reference = reference_top_k(g, 10, side=side)
    assert report.members == reference.members
    assert [report.bounds[u] for u in report.members] == [reference.bounds[u] for u in reference.members]
    assert (reference.certified, reference.fully_ordered) == (True, True)


def test_overlapping_brackets_at_the_boundary_are_not_certified():
    # hubs 1 and 2 mirror each other (swapping them maps every edge to an edge);
    # at p_max = 3 their brackets overlap and are not exact
    out = {
        0: [1, 2, 5, 6, 7, 8], 1: [3, 4, 6, 7, 8], 2: [3, 4, 6, 7, 8], 3: [1, 2, 5, 8], 4: [1, 2, 9],
        5: [1, 2, 3, 4], 6: [1, 2, 7, 9], 7: [4, 6], 8: [1, 2, 3, 7], 9: [5, 6, 7],
    }
    g = from_edges([(u, v) for u, vs in out.items() for v in vs], n=10)
    report = identify_top_k(g, 2, side="hub", p_max=3)
    assert report.members == [0, 1]
    assert not report.certified
    assert report.ties_note is not None
    assert not report.bounds[2].exact


def test_topk_memory_stays_at_one_block_of_runs():
    # the first round keeps brackets only; a basis per eligible node took about 2 GB here
    g = zipf_offset_graph(4000, 5, 0)
    tracemalloc.start()
    try:
        report = identify_top_k(g, 10, side="authority")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certified
    assert peak < 100 * 2**20


def _assert_same_outcome(report, reference, multi_block=False):
    """``report`` selects as ``reference_top_k`` does; only nodes the cut dropped took fewer steps.

    A later round drops nodes only when its queue spans several blocks
    (``multi_block``); at order 1 the cut drops nodes whatever the width.
    """
    assert report.members == reference.members
    assert report.certified == reference.certified
    assert report.fully_ordered == reference.fully_ordered
    assert report.ties_note == reference.ties_note
    assert report.candidates == reference.candidates
    assert report.excluded_zero_degree == reference.excluded_zero_degree
    assert report.excluded_degree_one == reference.excluded_degree_one
    for v, nb in report.bounds.items():
        if nb.p == 1 and not nb.exact:  # dropped at order 1
            assert v not in report.candidates
            assert report.iterations[v] == 1 < reference.iterations[v]
        elif report.iterations[v] < reference.iterations[v]:  # dropped by a later round's running cut
            assert multi_block
            assert v not in report.candidates
            ref = reference.bounds[v]
            assert nb.p < ref.p and nb.lower <= ref.lower <= ref.upper <= nb.upper
        else:
            assert nb == reference.bounds[v]  # bit for bit
            assert report.iterations[v] == reference.iterations[v]


@pytest.mark.parametrize("width", [3, None])
@pytest.mark.parametrize("side", ["hub", "authority"])
def test_order_one_pass_changes_only_the_dropped_nodes(monkeypatch, random_suite, width, side):
    # width: columns per block run; 3 makes the running cut meet earlier blocks
    if width:
        monkeypatch.setattr(quadrature, "block_width", lambda dim: width)
    for g in random_suite[:12] + [zipf_offset_graph(150, 5, 1)]:
        for k in {1, min(4, g.n)}:
            for m in (None, min(2 * k, g.n)):
                report = identify_top_k(g, k, side=side, m=m)
                _assert_same_outcome(report, reference_top_k(g, k, m, side=side), bool(width))
                # the certificate over every eligible non-member is the one over the candidates
                worst = min(report.bounds[v].lower for v in report.members)
                rest = [report.bounds[v].upper for v in report.candidates if v not in report.members]
                assert report.certified == (worst >= max(rest, default=-math.inf) - tie_slack(worst, TIE_REL_TOL))


@pytest.mark.parametrize("side", ["hub", "authority"])
def test_order_one_cut_keeps_the_tie_slack(side):
    # a wide tie tolerance keeps nodes whose upper bound sits below the k-th
    # lower bound; the running cut must keep them too
    g = zipf_offset_graph(150, 5, 1)
    kwargs = dict(side=side, p_max=7, tie_tol=0.2)
    for k in (1, 5):
        _assert_same_outcome(identify_top_k(g, k, **kwargs), reference_top_k(g, k, **kwargs))


def test_order_one_pass_halves_the_steps_on_sparse_graphs():
    # order 1 rules out all but a few dozen of the 1000 authorities (1 step each, not 4)
    report = identify_top_k(zipf_offset_graph(1000, 5, 0), 10, side="authority")
    assert report.certified
    assert sum(report.iterations.values()) <= 0.3 * 4 * len(report.iterations)


def test_order_one_pass_never_adds_steps_when_it_prunes_nothing():
    # in-degree 20: every order-1 bracket reaches the running cut
    g = zipf_offset_graph(1000, 20, 0)
    report = identify_top_k(g, 10, side="authority")
    reference = reference_top_k(g, 10, side="authority")
    _assert_same_outcome(report, reference)
    assert all(report.iterations[v] <= reference.iterations[v] for v in reference.iterations)


@pytest.mark.parametrize("width", [2, 3])
def test_later_rounds_over_several_blocks_select_as_the_reference(monkeypatch, width):
    # 309 hubs take a second round: with 2 or 3 columns a block, its running
    # cut drops some of them, which then keep their order-3 brackets
    monkeypatch.setattr(quadrature, "block_width", lambda dim: width)
    g = benchmark_zipf_offset_graph(1000, 20, (0, 2))
    report = identify_top_k(g, 10, side="hub")
    reference = reference_top_k(g, 10, side="hub")
    _assert_same_outcome(report, reference, multi_block=True)
    assert all(report.iterations[v] <= reference.iterations[v] for v in reference.iterations)
    assert any(1 < nb.p < reference.bounds[v].p for v, nb in report.bounds.items())


def test_krylov_dimension_two_gets_a_radau_bracket_at_order_one():
    # 0 -> 1 and 0 -> 2: A^T A e_1 = e_1 + e_2, so the runs of authorities 1 and 2
    # span two dimensions and break down at step 2, which order 1 does not reach
    star = [(0, 1), (0, 2)]
    clique = [(u, v) for u in range(3, 9) for v in range(3, 9) if u != v]
    for edges, member in ((star, True), (star + clique, False)):
        g = from_edges(edges)
        truth = exp_centrality_exact(g, "authority").scores
        report = identify_top_k(g, 1, side="authority")
        for v in (1, 2):
            nb = report.bounds[v]
            assert nb.lower - 1e-12 <= truth[v] <= nb.upper + 1e-12
            if member:
                # taken on to order 3, where the run is exact
                assert nb.exact and nb.p == 2
                assert nb.lower == pytest.approx(truth[v], rel=1e-12)
                assert report.iterations[v] == 2
            else:
                assert not nb.exact and nb.p == 1
                assert report.iterations[v] == 1
        assert report.members == ([1] if member else [3])


def test_strongest_first_order_takes_fewer_nodes_past_order_one():
    # hubs prune less at order 1 than authorities; taking the largest upper
    # bounds first raises the cut early.  The order-3 first round took 11990
    # steps, and id order takes 824 nodes past order 1 (7472 steps).
    report = identify_top_k(zipf_offset_graph(5000, 5, 0), 10, side="hub")
    assert report.certified
    assert sum(report.iterations.values()) < 11990
    assert sum(1 for s in report.iterations.values() if s > 1) < 600
