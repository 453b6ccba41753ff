"""Graph construction, file ingestion, degrees, and the bipartite operator."""

import io

import numpy as np
import pytest

from hubauth import (
    GraphFormatError,
    bipartite_operator,
    degrees,
    from_edges,
    load_edge_list,
    load_matrix_market,
    spmv,
    write_edge_list,
)
from hubauth.graph import GramOperator

from conftest import dense_adjacency, edgeless_graph, path_graph

EX1_TEXT = "1 2\n1 3\n2 1\n2 3\n3 2\n3 4\n4 2\n"


def test_two_cycle_one_based():
    g = load_edge_list(io.StringIO("1 2\n2 1\n"), index_base=1)
    assert g.n == 2
    assert g.m == 2
    assert list(g.out_degrees()) == [1, 1]
    assert g.index_base == 1


def test_example1_degree_table():
    g = load_edge_list(io.StringIO(EX1_TEXT), index_base=1)
    out_deg, in_deg = degrees(g)
    assert list(out_deg) == [2, 2, 2, 1]
    assert list(in_deg) == [1, 3, 2, 1]
    assert g.m == 7


def test_self_loop_dropped_with_counter():
    g = load_edge_list(io.StringIO("1 1\n1 2\n"), index_base=1)
    assert g.self_loops_dropped == 1
    assert g.m == 1


def test_duplicate_edges_merge_weights():
    g = load_edge_list(io.StringIO("0 1\n0 1\n0 1 2.5\n"))
    assert g.m == 1
    assert g.forward[0, 1] == pytest.approx(4.5)


def test_comments_and_blank_lines_skipped():
    g = load_edge_list(io.StringIO("# a comment\n\n0 1\n"))
    assert g.m == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1 2 3\n", "line 1"),
        ("0 x\n", "line 1"),
        ("0 1 -2\n", "negative weight"),
        ("0 1 nan\n", "line 1"),
    ],
)
def test_malformed_lines_report_position(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        load_edge_list(io.StringIO(text))


def test_declared_range_enforced():
    with pytest.raises(GraphFormatError, match="declared range"):
        load_edge_list(io.StringIO("0 5\n"), n=3)


def test_one_based_zero_index_rejected():
    with pytest.raises(GraphFormatError, match="below index base"):
        load_edge_list(io.StringIO("0 1\n"), index_base=1)


def test_empty_input_rejected():
    with pytest.raises(GraphFormatError):
        load_edge_list(io.StringIO(""))


def test_isolated_trailing_nodes_preserved():
    g = load_edge_list(io.StringIO("0 1\n"), n=5)
    assert g.n == 5
    assert list(g.out_degrees()) == [1, 0, 0, 0, 0]


def test_edge_list_round_trip():
    g = load_edge_list(io.StringIO("3 1\n0 1\n0 1\n2 2\n"))
    text = write_edge_list(g)
    reloaded = load_edge_list(io.StringIO(text), n=g.n)
    assert reloaded.n == g.n
    assert reloaded.m == g.m
    assert (reloaded.forward != g.forward).nnz == 0
    # canonical form: sorted, deduplicated
    assert text == write_edge_list(reloaded)


def test_matrix_market_pattern_matches_edge_list():
    mm = "%%MatrixMarket matrix coordinate pattern general\n4 4 7\n1 2\n1 3\n2 1\n2 3\n3 2\n3 4\n4 2\n"
    g_mm = load_matrix_market(io.StringIO(mm))
    g_el = load_edge_list(io.StringIO(EX1_TEXT), index_base=1)
    assert g_mm.n == g_el.n
    assert (g_mm.forward != g_el.forward).nnz == 0


def test_matrix_market_symmetric_expands():
    mm = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 1 2.0\n"
    g = load_matrix_market(io.StringIO(mm))
    assert g.m == 4
    assert g.forward[0, 1] == 1.0
    assert g.forward[1, 0] == 1.0
    assert g.forward[2, 0] == 2.0
    assert g.forward[0, 2] == 2.0


@pytest.mark.parametrize(
    "header,fragment",
    [
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1.0 0.0\n", "field"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n", "format"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", "symmetry"),
    ],
)
def test_matrix_market_unsupported_headers(header, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        load_matrix_market(io.StringIO(header))


def test_matrix_market_dimension_mismatch():
    with pytest.raises(GraphFormatError, match="square"):
        load_matrix_market(io.StringIO("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"))
    with pytest.raises(GraphFormatError, match="declares"):
        load_matrix_market(io.StringIO("%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n"))


def test_degrees_example3(ex3):
    out_deg, in_deg = degrees(ex3)
    assert list(out_deg) == [0, 1, 1, 1, 1, 4]
    assert list(in_deg) == [4, 1, 1, 1, 1, 0]


def test_degrees_edgeless():
    g = edgeless_graph(3)
    out_deg, in_deg = degrees(g)
    assert list(out_deg) == [0, 0, 0]
    assert list(in_deg) == [0, 0, 0]


def test_bipartite_unit_vector_matvec(ex1):
    op = bipartite_operator(ex1)
    x = np.zeros(8)
    x[4] = 1.0  # node 0 in its authority role
    out = op.matvec(x)
    assert np.array_equal(out, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=float))


def test_gram_operator_applies_a_a_transpose_and_its_mirror(ex1):
    A = dense_adjacency(ex1)
    X = np.random.default_rng(3).normal(size=(ex1.n, 3))
    for side, G in (("hub", A @ A.T), ("authority", A.T @ A)):
        op = GramOperator(ex1, side)
        assert op.dim == ex1.n
        np.testing.assert_allclose(op.matmat(X), G @ X, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(op.matvec(X[:, 0]), G @ X[:, 0], rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="side"):
        GramOperator(ex1, "both")


def test_bipartite_symmetry(ex2):
    op = bipartite_operator(ex2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=op.dim)
        y = rng.normal(size=op.dim)
        assert abs(op.matvec(x) @ y - x @ op.matvec(y)) < 1e-14


def test_spmv_row_sums(ex1):
    ones = np.ones(ex1.n)
    assert np.array_equal(spmv(ex1, ones), np.array([2, 2, 2, 1], dtype=float))
    assert np.array_equal(spmv(ex1, ones, transpose=True), np.array([1, 3, 2, 1], dtype=float))


def test_spmv_matches_dense(ex1):
    A = dense_adjacency(ex1)
    rng = np.random.default_rng(11)
    x = np.zeros(ex1.n)
    x[rng.integers(0, ex1.n, size=2)] = rng.normal(size=2)
    assert np.allclose(spmv(ex1, x), A @ x, atol=1e-14)
    assert np.allclose(spmv(ex1, x, transpose=True), A.T @ x, atol=1e-14)


def test_spmv_reconstructs_adjacency(ex2):
    A = dense_adjacency(ex2)
    cols = [spmv(ex2, np.eye(ex2.n)[j]) for j in range(ex2.n)]
    assert np.array_equal(np.column_stack(cols), A)


def test_spmv_dimension_mismatch(ex1):
    with pytest.raises(ValueError, match="length"):
        spmv(ex1, np.ones(ex1.n + 1))


def test_negative_weight_rejected_in_edges():
    with pytest.raises(GraphFormatError, match="negative"):
        from_edges([(0, 1, -1.0)])


def test_reversed_graph(ex1):
    rev = ex1.reversed()
    assert np.array_equal(rev.out_degrees(), ex1.in_degrees())
    assert (rev.forward != ex1.reverse).nnz == 0


def test_path_graph_structure():
    g = path_graph(4)
    assert g.n == 4
    assert g.m == 3
    assert list(g.out_degrees()) == [1, 1, 1, 0]
