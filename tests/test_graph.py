"""Graph construction, file ingestion, degrees, and the bipartite operator."""

import io
import os
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubauth import (
    BipartiteOperator,
    GraphFormatError,
    degrees,
    from_edges,
    load_edge_list,
    load_matrix_market,
    spmv,
    write_edge_list,
)
from hubauth import graph, symmetry_fraction
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
    assert g.forward.toarray()[0, 1] == pytest.approx(4.5)


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
        ("0 1 1\n0 2 inf\n", "line 2: non-finite weight inf"),
    ],
)
def test_malformed_lines_report_position(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        load_edge_list(io.StringIO(text))


def _csr(m):
    return m.indptr.tolist(), m.indices.tolist(), m.data.tolist()


def _entries(m):
    """{(row, col): weight} of the stored entries of a CSR matrix."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return dict(zip(zip(rows.tolist(), m.indices.tolist()), m.data.tolist()))


def _outcome(source, load=load_edge_list, **kwargs):
    try:
        g = load(source, **kwargs)
    except GraphFormatError as exc:
        return type(exc).__name__, str(exc)
    return "graph", g.n, g.m, g.weighted, g.self_loops_dropped, [_csr(m) for m in (g.forward, g.reverse)]


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    """A function writing text to one file and returning its path."""
    path = tmp_path_factory.mktemp("edges") / "graph.txt"

    def write(text):
        path.write_bytes(text.encode())
        return str(path)

    return write


# a clean file given by path is read by NumPy from the file, a text stream
# from the text: each route must agree with the per-line loop
_ROUTES = {"stream": lambda text, edge_file: io.StringIO(text), "path": lambda text, edge_file: edge_file(text)}


_ODD_ID = st.sampled_from(
    ["-1", "0", "9", "+2", "1_0", "007", "x", "1.0", "99999999999999999999", "-9223372036854775808"]
)
_WEIGHT = st.sampled_from(["1", "1.0", "2.5", "0", "-0.0", ".5", "1e2", "3"])
_ODD_WEIGHT = st.one_of(
    st.sampled_from(["-1", "nan", "inf", "-inf", "1e400", "w", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_SEP = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _data_line(draw, index_base, weighted, odd, comment="#", weight=_WEIGHT):
    # an odd line has one oddity or two: an unusual id or weight, the other
    # token count, or a fourth token or a comment after its data
    oddities = draw(st.lists(st.sampled_from(["u", "v", "w", "count", "extra"]), min_size=1, max_size=2)) if odd else []
    ids = st.integers(index_base, index_base + 5).map(str)
    tokens = [draw(_ODD_ID if "u" in oddities else ids), draw(_ODD_ID if "v" in oddities else ids)]
    if weighted != ("count" in oddities):
        tokens.append(draw(_ODD_WEIGHT if "w" in oddities else weight))
    if "extra" in oddities:
        tokens.append(draw(st.sampled_from([comment, f"{comment} note", "3", f"{comment}3"])))
    line = tokens[0]
    for tok in tokens[1:]:
        line += draw(_SEP) + tok
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\t"]))


def _non_data(comment):
    return st.sampled_from(["", "   ", "\t", f"{comment} header", f"  {comment} indented", f"\t{comment}", f"{comment}0 1"])


def _join_lines(draw, lines):
    """The lines with LF or CRLF ends, a few lone CRs, sometimes no end on the last."""
    ends = st.sampled_from(["\n", "\r\n"] if draw(st.integers(0, 4)) else ["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def _edge_list_text(draw):
    """(text, load_edge_list, kwargs): mostly well-formed edge lists (2 or 3
    tokens throughout, LF or CRLF ends) with blank and comment lines, a few
    odd lines and lone CRs, sometimes with a declared node count."""
    index_base = draw(st.sampled_from([0, 1]))
    weighted = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        lines.append(draw(_non_data("#")) if kind < 2 else draw(_data_line(index_base, weighted, odd=kind == 9)))
    kwargs = {"index_base": index_base, "n": draw(st.one_of(st.none(), st.integers(0, 8)))}
    return _join_lines(draw, lines), load_edge_list, kwargs


# integer and real Matrix Market weights, across many decades
_MM_WEIGHT = {
    "integer": st.integers(0, 10**12).map(str),
    "real": st.one_of(
        _WEIGHT,
        st.builds("{}.{}e{}".format, st.integers(0, 9), st.integers(0, 10**9), st.integers(-300, 300)),
    ),
}


@st.composite
def _matrix_market_text(draw):
    """(text, load_matrix_market, {}): mostly well-formed Matrix Market files
    of every field and symmetry -- ids 1 to 6, so entries repeat, weights
    across many decades, blank and comment lines, LF or CRLF ends -- with a
    few odd lines and lone CRs, and now and then a wrong entry count or size."""
    field = draw(st.sampled_from(["pattern", "integer", "real"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    weight = _MM_WEIGHT.get(field, _WEIGHT)
    odd = draw(st.booleans())
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        line = _data_line(1, field != "pattern", odd=odd and kind >= 8, comment="%", weight=weight)
        entries.append(draw(_non_data("%")) if kind < 2 else draw(line))
    count = sum(1 for e in entries if e.strip() and not e.strip().startswith("%"))
    n = draw(st.sampled_from([6, 7, 5]))
    size = draw(st.sampled_from([f"{n} {n} {count}", f" {n}\t{n}  {count}"]))
    if odd and draw(st.integers(0, 4)) == 0:
        size = draw(st.sampled_from([f"{n} {n} {count + 1}", f"{n} {n + 1} {count}", f"{n} {n}"]))
    head = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", *draw(st.lists(_non_data("%"), max_size=2)), size]
    return _join_lines(draw, head + entries), load_matrix_market, {}


@pytest.mark.parametrize("route", _ROUTES)
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(_edge_list_text(), _matrix_market_text()))
def test_loader_matches_the_per_line_loop(edge_file, route, case):
    # for edge lists and Matrix Market files alike the per-line loop alone is
    # the reference: the array parser must give the same graph, bit for bit,
    # or the same error for the same first bad line
    text, load, kwargs = case
    outcome = _outcome(_ROUTES[route](text, edge_file), load, **kwargs)
    with mock.patch.object(graph, "_parse_array", return_value=None):
        assert _outcome(_ROUTES[route](text, edge_file), load, **kwargs) == outcome


@pytest.mark.parametrize(
    "text",
    [
        "# source target\n0 1\n1 2\n",
        "0 1\r\n1 2\r\n",
        "0 1\r1 2\n",  # read with universal newlines: a line end on both routes
        "0 1\n1 2 2.5\n",
        "0 1 2.5\n1 2\n",
        "0 x\n1 2\n",
        "0 1\n1 2 w\n",
        f"0 {graph.NODE_LIMIT}\n",
        "\ufeff0 1\n1 2\n",
    ],
    ids=["comment", "crlf", "lone-cr", "mixed-2-3", "mixed-3-2", "bad-id", "bad-weight", "at-limit", "bom"],
)
@pytest.mark.parametrize("name", ["graph.txt", "graph.gz"])
def test_path_and_stream_of_one_file_parse_alike(tmp_path, name, text):
    # "graph.gz" holds plain text: NumPy would decompress a path by its name,
    # so that file must not reach NumPy by path
    path = tmp_path / name
    path.write_bytes(text.encode())
    by_path = _outcome(str(path))
    with open(path, encoding="utf-8") as stream:
        assert _outcome(stream) == by_path
    with mock.patch.object(graph, "_parse_array", return_value=None):
        assert _outcome(str(path)) == by_path


@pytest.mark.parametrize(
    "change",
    [
        lambda path: path.write_bytes(b"5 6\n6 7\n7 8\n"),
        # same size: only the modification time tells
        lambda path: path.write_bytes(b"3 4\n4 5\n") or os.utime(path, ns=(0, 10**9)),
        lambda path: path.unlink(),
    ],
    ids=["rewritten", "same-size", "deleted"],
)
def test_a_file_changed_between_the_two_reads_parses_as_first_read(monkeypatch, tmp_path, change):
    # the text is checked on the first read; rows NumPy reads by path after
    # the file changed must not be used
    path = tmp_path / "graph.txt"
    path.write_bytes(b"0 1\n1 2\n")
    loadtxt, by_path = np.loadtxt, []

    def change_then_load(source, **kw):
        if isinstance(source, str):
            by_path.append(source)
            change(path)
        return loadtxt(source, **kw)

    monkeypatch.setattr(np, "loadtxt", change_then_load)
    g = load_edge_list(str(path))
    assert by_path == [str(path)]
    assert _entries(g.forward) == {(0, 1): 1.0, (1, 2): 1.0} and g.n == 3


def test_an_unchanged_file_numpy_rejects_is_not_parsed_again(monkeypatch, tmp_path):
    # mixed 2/3-token lines are valid but not NumPy's: on to the per-line loop at once
    path = tmp_path / "graph.txt"
    path.write_bytes(b"0 1\n1 2 2.5\n")
    loadtxt, read = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda source, **kw: read.append(source) or loadtxt(source, **kw))
    g = load_edge_list(str(path))
    assert read == [str(path)]
    assert _entries(g.forward) == {(0, 1): 1.0, (1, 2): 2.5}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_given_by_path_is_read_once():
    # a pipe's data is gone once read, so NumPy must not open it again by name
    read_end, write_end = os.pipe()
    os.write(write_end, b"0 1\n1 2\n")
    os.close(write_end)
    try:
        g = load_edge_list(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert _entries(g.forward) == {(0, 1): 1.0, (1, 2): 1.0}


def _refuse_per_line_loop(*args):
    raise AssertionError("well-formed input fell back to the per-line parser")


@pytest.mark.parametrize(
    "text,index_base,n,edges,weighted",
    [
        ("0 1\n1 2\n2 0\n", 0, None, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0}, False),
        ("0 1 0.5\n1 2 2\n0 1 1e-3\n", 0, None, {(0, 1): 0.501, (1, 2): 2.0}, True),
        ("# source target\n  # another\n0 1\n", 0, None, {(0, 1): 1.0}, False),
        ("\n0 1\n\n  \n1 2\n\n", 0, None, {(0, 1): 1.0, (1, 2): 1.0}, False),
        ("0 1\r\n1 2\r\n", 0, None, {(0, 1): 1.0, (1, 2): 1.0}, False),
        ("1 2\n2 3\n3 3\n", 1, None, {(0, 1): 1.0, (1, 2): 1.0}, False),
        # a self-loop's weight marks the graph weighted although the loop is dropped
        ("0 0 2.5\n0 1 1\n", 0, None, {(0, 1): 1.0}, True),
        ("0\t1\n", 0, 5, {(0, 1): 1.0}, False),
        ("# nothing but a comment\n", 0, 3, {}, False),
    ],
)
def test_well_formed_files_never_reach_the_per_line_loop(monkeypatch, tmp_path, text, index_base, n, edges, weighted):
    monkeypatch.setattr(graph, "_parse_lines", _refuse_per_line_loop)
    loadtxt, read = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda source, **kw: read.append(source) or loadtxt(source, **kw))
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode())
    for source in (io.StringIO(text), str(path)):
        read.clear()
        g = load_edge_list(source, index_base=index_base, n=n)
        # NumPy reads a comment-free file given by path from the file, not from the text
        assert [isinstance(r, str) for r in read] == [source == str(path) and "#" not in text] * len(read)
        assert _entries(g.forward) == pytest.approx(edges)
        assert g.n == (n if n is not None else max(max(e) for e in edges) + 1)
        assert g.weighted == weighted


def test_declared_range_enforced():
    with pytest.raises(GraphFormatError, match="declared range"):
        load_edge_list(io.StringIO("0 5\n"), n=3)


def test_one_based_zero_index_rejected():
    with pytest.raises(GraphFormatError, match="below index base"):
        load_edge_list(io.StringIO("0 1\n"), index_base=1)
    # the lowest int64 id would wrap to the highest if the base were taken off first
    with pytest.raises(GraphFormatError, match="line 2: node id below index base"):
        load_edge_list(io.StringIO("1 2\n-9223372036854775808 2\n"), index_base=1)


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
    assert _csr(reloaded.forward) == _csr(g.forward)
    # canonical form: sorted, deduplicated
    assert text == write_edge_list(reloaded)


def test_matrix_market_pattern_matches_edge_list():
    mm = "%%MatrixMarket matrix coordinate pattern general\n4 4 7\n1 2\n1 3\n2 1\n2 3\n3 2\n3 4\n4 2\n"
    g_mm = load_matrix_market(io.StringIO(mm))
    g_el = load_edge_list(io.StringIO(EX1_TEXT), index_base=1)
    assert g_mm.n == g_el.n
    assert _csr(g_mm.forward) == _csr(g_el.forward)


def test_matrix_market_symmetric_expands():
    mm = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 1 2.0\n"
    g = load_matrix_market(io.StringIO(mm))
    assert g.m == 4
    assert _entries(g.forward) == {(0, 1): 1.0, (0, 2): 2.0, (1, 0): 1.0, (2, 0): 2.0}


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


def _mm_text(rng, field, symmetry, n=30, entries=200):
    """A Matrix Market file with comments, blank lines, repeated entries and spread weights."""
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "% generated", f" {n} {n} {entries}"]
    for e in range(entries):
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if symmetry == "symmetric" and u < v:
            u, v = v, u
        weight = {"pattern": "", "integer": f" {int(rng.integers(0, 9))}", "real": f" {rng.exponential()!r}"}[field]
        lines.append(f"{u} {v}{weight}")
        if e % 50 == 7:
            lines.extend(["", "  % a comment line", "\t"])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", ["pattern", "integer", "real"])
@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_well_formed_matrix_market_never_reaches_the_per_line_loop(monkeypatch, field, symmetry):
    monkeypatch.setattr(graph, "_parse_lines", _refuse_per_line_loop)
    rng = np.random.default_rng(5)
    for _ in range(5):
        text = _mm_text(rng, field, symmetry)
        g = load_matrix_market(io.StringIO(text))
        # SciPy's reader takes no blank or comment line among the entries, and
        # sums repeated entries in its own order: equal to rounding
        header, *rest = text.splitlines()
        entries = [line for line in rest if line.strip() and not line.strip().startswith("%")]
        coo = scipy.io.mmread(io.StringIO("\n".join([header, *entries]) + "\n"))
        off = coo.row != coo.col  # self-loops are dropped
        oracle = scipy.sparse.csr_matrix((coo.data[off], (coo.row[off], coo.col[off])), shape=coo.shape)
        assert g.n == oracle.shape[0]
        assert _entries(g.forward) == pytest.approx(_entries(oracle), rel=1e-14)


@pytest.mark.parametrize(
    "body,message",
    [
        ("3 3 2\n1 2\n2 3 % note\n", "line 4: expected 2 tokens, got 4"),
        ("3 3 2\n1 2\n2 x\n", "line 4: invalid literal"),
        ("3 3 2\n1 2\n2 1.0\n", "line 4: invalid literal"),
        ("3 3 2\n1 2\n\n4 1\n", "line 5: node id out of declared range"),
        ("3 3 2\n0 2\n2 1\n", "line 3: node id below index base 1"),
        ("3 3 3\n1 2\n2 1\n", "declares 3 entries, file has 2"),
        ("% only comments\n", "missing size line"),
        ("3 3\n1 2\n", "line 2: bad size line"),
    ],
)
def test_matrix_market_bad_line_keeps_the_line_reader_message(body, message):
    with pytest.raises(GraphFormatError, match=message):
        load_matrix_market(io.StringIO("%%MatrixMarket matrix coordinate pattern general\n" + body))


def test_matrix_market_negative_weight_keeps_its_line():
    text = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.5\n2 3 -2\n"
    with pytest.raises(GraphFormatError, match="line 4: negative weight -2.0"):
        load_matrix_market(io.StringIO(text))


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
    op = BipartiteOperator(ex1)
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
        np.testing.assert_allclose(op.matmat(X[:, 0]), G @ X[:, 0], rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="side"):
        GramOperator(ex1, "both")


def test_bipartite_symmetry(ex2):
    op = BipartiteOperator(ex2)
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


@st.composite
def _edge_arrays(draw):
    """(edges, n, seed): up to 16 weighted edges on a few ids, so duplicates and
    self-loops are common, with up to 3 trailing isolated nodes and empty rows.

    At most 16 edges: SciPy orders a row's entries with std::sort, which keeps
    equal indices in input order (as the graph does) only on rows that short,
    and the summed duplicates are then compared bit for bit.
    """
    ids = draw(st.integers(1, 8))
    node = st.integers(0, ids - 1)
    weight = st.one_of(st.just(1.0), st.just(0.0), st.floats(0, 1e3))
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=16))
    return edges, ids + draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_edge_arrays())
@example(([], 3, 0))
def test_csr_matches_scipy(case):
    edges, n, seed = case
    g = from_edges(edges, n=n)
    kept = [(u, v, w) for u, v, w in edges if u != v]
    us, vs, ws = (np.array([e[k] for e in kept], dtype=dtype) for k, dtype in enumerate((int, int, float)))
    refs = []
    for rows, cols in ((us, vs), (vs, us)):
        ref = scipy.sparse.coo_matrix((ws, (rows, cols)), shape=(n, n)).tocsr()
        ref.sum_duplicates()
        ref.sort_indices()
        refs.append(ref)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    blocks = [rng.standard_normal((n, b)) for b in (1, 3, n + 2)]
    for mat, ref, transposed in zip((g.forward, g.reverse), refs, refs[::-1]):
        for mine, theirs in ((mat.indptr, ref.indptr), (mat.indices, ref.indices), (mat.data, ref.data)):
            assert np.array_equal(mine, theirs)
        assert mat.shape == ref.shape and mat.nnz == ref.nnz
        assert np.array_equal(mat.toarray(), ref.toarray())
        assert np.array_equal(mat @ x, ref @ x)
        assert np.array_equal(mat.rmatvec(x), transposed @ x)
        assert np.array_equal(mat.row_sums(), np.asarray(ref.sum(axis=1)).ravel())
        _assert_block_products_match(mat, ref, blocks)
    forward = refs[0]
    mutual = forward.astype(bool).multiply(refs[1].astype(bool)).nnz
    assert symmetry_fraction(g) == (mutual / forward.nnz if forward.nnz else 0.0)


def test_duplicates_sum_in_input_order_and_long_rows_match_scipy():
    # long rows full of duplicates whose weights span 16 decades, so any other
    # summation order or a row-product order other than SciPy's shows in the bits
    rng = np.random.default_rng(7)
    n = 50
    edges = list(zip(rng.integers(0, 5, 2000).tolist(), rng.integers(0, n, 2000).tolist(), (10.0 ** rng.uniform(-8, 8, 2000)).tolist()))
    g = from_edges(edges, n=n)
    expected = {}
    for u, v, w in edges:
        if u != v:
            expected[(u, v)] = expected.get((u, v), 0.0) + w
    assert _entries(g.forward) == expected
    assert _entries(g.reverse) == {(v, u): w for (u, v), w in expected.items()}
    x = rng.standard_normal(n)
    # spmv's A^T.x, scattered from A, adds in the order of A^T's rows
    assert np.array_equal(spmv(g, x, transpose=True), g.reverse @ x)
    blocks = [rng.standard_normal((n, b)) for b in (1, 7, n + 2)]
    for mat, transposed in ((g.forward, g.reverse), (g.reverse, g.forward)):
        ref = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
        assert np.array_equal(mat @ x, ref @ x)
        assert np.array_equal(mat.rmatvec(x), transposed @ x)
        assert np.array_equal(mat.row_sums(), np.asarray(ref.sum(axis=1)).ravel())
        _assert_block_products_match(mat, ref, blocks)
    # the five rows of A, about 45 entries each, are all tails of the NumPy kernel
    _, diagonals, tails = g.forward._jagged()
    assert not diagonals and len(tails) == 5


@pytest.mark.parametrize("n", [3, 1000, 2**16, 2**16 + 1, 70000, 2**31 - 1])
def test_radix_column_order_equals_the_stable_argsort(n):
    # columns that share their low 16 bits (c and c + 2**16) and repeat, so the
    # high-digit pass and the stability of both passes show in the order
    rng = np.random.default_rng(n)
    low = rng.integers(0, min(n, 40), 3000)
    cols = np.where(rng.random(3000) < 0.5, low, (low + 2**16) % n) if n > 2**16 else low
    cols = np.concatenate([cols, rng.integers(0, n, 3000), [n - 1, 0, n - 1]]).astype(np.int64)
    assert np.array_equal(graph._stable_column_order(cols, n), np.argsort(cols, kind="stable"))


@pytest.mark.parametrize("n", [2**16, 2**16 + 1, 70000])
def test_transpose_equals_scipys_on_both_sides_of_the_high_digit(n):
    rng = np.random.default_rng(n)
    # targets c and c + 2**16 (one low digit) from a few sources, plus random and repeated edges
    us = np.concatenate([rng.integers(0, 30, 2000), rng.integers(0, n, 2000)])
    vs = np.concatenate([(rng.integers(0, 30, 2000) + 2**16 * rng.integers(0, 2, 2000)) % n, rng.integers(0, n, 2000)])
    edges = list(zip(us.tolist(), vs.tolist(), rng.integers(1, 4, us.size).astype(float).tolist()))
    g = from_edges(edges + edges[:500], n=n)
    fwd = scipy.sparse.csr_matrix((g.forward.data, g.forward.indices, g.forward.indptr), shape=(n, n))
    ref = fwd.T.tocsr()
    for mine, theirs in ((g.reverse.indptr, ref.indptr), (g.reverse.indices, ref.indices), (g.reverse.data, ref.data)):
        assert np.array_equal(mine, theirs)


def _assert_block_products_match(mat, ref, blocks):
    """Block products bit for bit equal to SciPy's on both sides of the size rule:
    SciPy's kernel, then NumPy's in one chunk of rows and in chunks of a few rows."""
    numpy_side = mat.shape[0] * mat.nnz
    for limit, chunk in ((-1, graph._CHUNK_ENTRIES), (numpy_side, graph._CHUNK_ENTRIES), (numpy_side, 7)):
        with mock.patch.object(graph, "NUMPY_BLOCK_LIMIT", limit), mock.patch.object(graph, "_CHUNK_ENTRIES", chunk):
            for X in blocks:
                assert np.array_equal(mat @ X, ref @ X)
                assert np.array_equal(mat @ np.asfortranarray(X), ref @ X)


def _ring(n, nnz):
    """nnz edges i -> i + 1 + j (mod n), j = 0, 1, ..., in row order."""
    k = np.arange(nnz)
    return from_edges(list(zip((k % n).tolist(), ((k % n + 1 + k // n) % n).tolist())), n=n)


def test_block_product_kernel_follows_the_size_rule():
    n = 2000
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, 4))
    for nnz, numpy_kernel in ((graph.NUMPY_BLOCK_LIMIT // n, True), (graph.NUMPY_BLOCK_LIMIT // n + 1, False)):
        mat = _ring(n, nnz).forward
        assert (mat.shape[0] * mat.nnz <= graph.NUMPY_BLOCK_LIMIT) == numpy_kernel
        out = mat @ X
        assert (mat._scipy is None) == numpy_kernel
        assert (mat._diagonals is None) != numpy_kernel
        assert np.array_equal(out, mat._jagged_matmul(X))


def test_block_product_on_a_star_runs_few_numpy_lines():
    # in-star on 3000 nodes: A has 2999 one-entry rows, A^T one row of 2999.
    # Each line of the NumPy kernel makes a few NumPy calls, so the lines it
    # runs bound the calls; one pass per row or per diagonal would run thousands.
    n = 3000
    g = from_edges([(i, 0) for i in range(1, n)])
    X = np.random.default_rng(2).standard_normal((n, 8))
    kernel = graph.CSRMatrix._jagged_matmul.__code__
    for mat in (g.forward, g.reverse):
        ref = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
        lines = []

        def trace(frame, event, arg):
            if frame.f_code is kernel:
                lines.append(event)
                return trace
            return None

        sys.settrace(trace)
        try:
            out = mat._jagged_matmul(X)
        finally:
            sys.settrace(None)
        assert np.array_equal(out, ref @ X)
        assert len(lines) <= 30


def test_negative_weight_rejected_in_edges():
    with pytest.raises(GraphFormatError, match="negative"):
        from_edges([(0, 1, -1.0)])


def test_reversed_graph(ex1):
    rev = ex1.reversed()
    assert np.array_equal(rev.out_degrees(), ex1.in_degrees())
    assert _csr(rev.forward) == _csr(ex1.reverse)
    # flipping back needs no sort: A is the reversed graph's A^T
    assert rev.reverse is ex1.forward


def test_path_graph_structure():
    g = path_graph(4)
    assert g.n == 4
    assert g.m == 3
    assert list(g.out_degrees()) == [1, 1, 1, 0]
