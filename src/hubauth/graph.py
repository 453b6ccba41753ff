"""Directed-graph representation, file ingestion, and the operators built on A.

A directed graph is stored in compressed sparse row form: the adjacency
matrix A (``forward``), and its transpose (``reverse``) built from A on first
use, so that both A.x and A^T.x are row-major products over contiguous rows;
a process that never reads A^T never sorts it.  Graphs are immutable after
construction and safe to share across workers.

The CSR arrays are plain NumPy, and so are vector products and the block
products of small matrices.  SciPy's sparse kernel is loaded only for the
block products of a matrix with n * nnz above ``NUMPY_BLOCK_LIMIT``, so
reading a graph, the vector methods, and exp-quad or top-k on a small graph
never import it.  Both block kernels give the same bits.
"""

import functools
import io
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError, ParameterError

__all__ = [
    "DirectedGraph",
    "BipartiteOperator",
    "GramOperator",
    "from_edges",
    "load_graph",
    "load_edge_list",
    "load_matrix_market",
    "write_edge_list",
    "degrees",
    "spmv",
    "CSRMatrix",
    "NODE_LIMIT",
    "NUMPY_BLOCK_LIMIT",
]

# Node ids and Matrix Market dimensions at or above this are rejected while
# parsing, so a node count never exceeds it: the sort keys u * n + v stay inside
# int64, and an id such as 99999999999 fails before an O(n) array is allocated.
NODE_LIMIT = 2**31 - 1

# A block product M @ X runs in NumPy when n * nnz of M is at most this, and in
# SciPy's csr_matvecs above it.  Both give the same bits.  The NumPy kernel is
# 2-4x slower per product but spares a process the scipy.sparse import (about
# 0.27 s); exp-quad's and top-k's work in block products grows with n * nnz,
# and on zipf-offset graphs (5 out-edges per node) a fresh CLI process was
# faster with NumPy up to n * nnz = 8.45e6 and slower from 9.8e6
# (tools/block_kernel_sweep.py).
NUMPY_BLOCK_LIMIT = 8_000_000

# Result entries per row chunk of the NumPy block kernel (256 KiB of float64).
_CHUNK_ENTRIES = 2**15


class CSRMatrix:
    """Read-only compressed sparse rows with sorted, duplicate-free indices.

    Row i holds ``indices[indptr[i]:indptr[i+1]]`` (ascending) with weights
    ``data[...]``.  Every product adds each row's terms in index order,
    starting from 0.0, as SciPy's ``csr_matvec``/``csr_matvecs`` do, so the
    results are bit-identical to SciPy's.  ``M @ x`` for a vector is one
    ``bincount``, and so is ``M.rmatvec(y)``; both skip the multiply by
    ``data`` when every weight is 1.0.  ``M @ X`` for an n x b block runs the
    NumPy jagged-diagonal kernel when ``n * nnz <= NUMPY_BLOCK_LIMIT`` and
    SciPy's sparse kernel on the same arrays (wrapped once, on first use)
    above it.
    """

    def __init__(self, indptr, indices, data, shape):
        self._rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
        for a in (indptr, indices, data, self._rows):
            a.flags.writeable = False
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape
        self._unit = bool((data == 1.0).all())
        self._scipy = None
        self._diagonals = None

    @property
    def nnz(self):
        return self.data.size

    def toarray(self):
        out = np.zeros(self.shape)
        out[self._rows, self.indices] = self.data
        return out

    def transpose(self):
        """M^T, as SciPy's transpose and ``sort_indices`` build it.

        A stable sort of the columns (``_stable_column_order``) lists each
        row of M^T in ascending column order, without duplicates.
        """
        n_rows, n_cols = self.shape
        order = _stable_column_order(self.indices, n_cols)
        return CSRMatrix(_indptr(self.indices, n_cols), self._rows[order], self.data[order], (n_cols, n_rows))

    def row_sums(self):
        """Sum of each row, by the same ``np.add.reduceat`` SciPy's ``sum(axis=1)`` uses."""
        out = np.zeros(self.shape[0])
        nonempty = np.flatnonzero(np.diff(self.indptr))
        if nonempty.size:
            out[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty])
        return out

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        if x.ndim == 1:
            return np.bincount(self._rows, weights=self._terms(x[self.indices]), minlength=self.shape[0])
        if self.shape[0] * self.nnz <= NUMPY_BLOCK_LIMIT:
            return self._jagged_matmul(x)
        if self._scipy is None:
            import scipy.sparse as sp

            self._scipy = sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        return self._scipy @ x

    def rmatvec(self, y):
        """M^T @ y for a vector, without building M^T.

        Each column's terms are scattered into its sum in row order, the
        order in which row j of ``transpose()`` lists them, so the result is
        ``self.transpose() @ y`` bit for bit.
        """
        y = np.asarray(y)
        if y.shape != self.shape[:1]:
            raise ValueError(f"dimension mismatch: {self.shape}.T @ {y.shape}")
        return np.bincount(self.indices, weights=self._terms(y[self._rows]), minlength=self.shape[1])

    def _terms(self, gathered):
        """The product terms data * x of the entries, given x gathered per entry; 1.0 * x is x."""
        return gathered if self._unit else self.data * gathered

    def _jagged(self):
        """(order, diagonals, tails): the rows sorted longest first, cut in jagged diagonals.

        Diagonal k holds entry k of every row longer than k; those rows come
        first in ``order``.  The number of diagonals K minimizes K plus the
        number of rows longer than K, whose entries from K on stay as
        (position in ``order``, start, stop) tails, so a star's hub is one
        tail, not n diagonals.
        """
        if self._diagonals is None:
            lengths = np.diff(self.indptr)
            order = np.argsort(-lengths, kind="stable")
            starts = self.indptr[order]
            longer = lengths.size - np.cumsum(np.bincount(lengths))  # rows with more than k entries
            K = int(np.argmin(np.arange(longer.size) + longer))
            diagonals = []
            for k in range(K):
                at = starts[: longer[k]] + k
                diagonals.append((self.indices[at], self.data[at, None]))
            tails = [(r, starts[r] + K, self.indptr[order[r] + 1]) for r in range(longer[K])]
            self._diagonals = order, diagonals, tails
        return self._diagonals

    def _jagged_matmul(self, X):
        """M @ X for an n x b block in NumPy, adding each row's terms in index order from 0.0.

        The rows covered by the diagonals go in chunks of about
        ``_CHUNK_ENTRIES`` result entries: a chunk's sums run through the
        diagonals in cache and are then written to their rows of the result.
        Each tail row continues its sum with one ``np.add.accumulate``.  A
        product makes a few NumPy calls per diagonal and chunk plus a few per
        tail, whatever n is.
        """
        order, diagonals, tails = self._jagged()
        X = np.ascontiguousarray(X)  # rows of X are gathered whole
        out = np.empty((self.shape[0], X.shape[1]), dtype=np.result_type(self.data, X))
        # rows past `covered` are in no diagonal: empty rows, and with K = 0
        # every row, whose tails then start from these zeros
        covered = diagonals[0][0].size if diagonals else 0
        out[order[covered:]] = 0.0
        step = max(1, _CHUNK_ENTRIES // max(1, X.shape[1]))
        acc, terms = np.empty_like(out[:step]), np.empty_like(out[:step])
        for lo in range(0, covered, step):
            chunk = acc[: min(covered - lo, step)]
            chunk.fill(0.0)
            for idx, w in diagonals:
                if idx.size <= lo:
                    break
                t = terms[: min(idx.size - lo, step)]
                np.multiply(w[lo : lo + step], X[idx[lo : lo + step]], out=t)
                chunk[: t.shape[0]] += t
            out[order[lo : lo + chunk.shape[0]]] = chunk
        for r, start, stop in tails:
            tail = self.data[start:stop, None] * X[self.indices[start:stop]]
            out[order[r]] = np.add.accumulate(np.concatenate([out[order[r], None], tail]))[-1]
        return out


def _csr(us, vs, ws, n):
    """A as a CSRMatrix from edge arrays; duplicates summed in input order.

    The arrays equal what SciPy's coo -> csr, ``sum_duplicates`` and
    ``sort_indices`` build: one stable sort on u * n + v orders A.
    """
    keys = us * n + vs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    # bincount adds each run of equal keys left to right, in input order
    data = np.bincount(np.cumsum(head) - 1, weights=ws[order])
    rows, cols = np.divmod(keys[head], n)
    return CSRMatrix(_indptr(rows, n), cols, data, (n, n))


def _stable_column_order(cols, n):
    """``np.argsort(cols, kind="stable")`` for 0 <= cols < n < 2**31, as an LSD radix sort.

    NumPy sorts 16-bit keys stably by radix sort, so one pass on the low
    16 bits orders the columns when n <= 2**16; above that a second stable
    pass on the high bits keeps the low-digit order within each high digit.
    """
    order = np.argsort(cols.astype(np.uint16), kind="stable")
    if n > 1 << 16:
        high = (cols[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


def _indptr(rows, n):
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable sparse digraph holding A, and A^T once read, in CSR form.

    Attributes
    ----------
    n : int
        Node count (>= 1).  Internal node ids are 0-based.
    forward : CSRMatrix
        Adjacency matrix A; row i lists the out-neighbors of node i.
    reverse : CSRMatrix
        A^T; row i lists the in-neighbors of node i.  Built from ``forward``
        on first use and kept.
    m : int
        Number of directed edges after normalization.
    weighted : bool
        True if the input carried explicit weights.
    self_loops_dropped : int
        How many self-loop entries were discarded during construction.
    index_base : int
        Base (0 or 1) of the node labels in the source file; used only
        for echoing ids back to the user.
    """

    n: int
    forward: CSRMatrix
    m: int
    weighted: bool = False
    self_loops_dropped: int = 0
    index_base: int = 0

    @functools.cached_property
    def reverse(self):
        return self.forward.transpose()

    def out_degrees(self):
        """Structural out-degree of every node (edge counts, not weights)."""
        return np.diff(self.forward.indptr)

    def in_degrees(self):
        return np.diff(self.reverse.indptr)

    def out_strengths(self):
        """Weighted out-degree (row sums of A)."""
        return self.forward.row_sums()

    def in_strengths(self):
        return self.reverse.row_sums()

    def reversed(self):
        """The graph with every edge direction flipped (A <-> A^T)."""
        flipped = DirectedGraph(
            n=self.n,
            forward=self.reverse,
            m=self.m,
            weighted=self.weighted,
            self_loops_dropped=self.self_loops_dropped,
            index_base=self.index_base,
        )
        flipped.__dict__["reverse"] = self.forward  # the cached A^T of A^T
        return flipped

    def edges(self):
        """Iterate canonical (u, v, w) triples in row-major order."""
        A = self.forward
        for u in range(self.n):
            for idx in range(A.indptr[u], A.indptr[u + 1]):
                yield u, int(A.indices[idx]), float(A.data[idx])


@dataclass(frozen=True)
class BipartiteOperator:
    """Symmetric operator [[0, A], [A^T, 0]] of dimension 2n, never formed.

    Index i < n addresses node i in its hub role; index n + i addresses the
    same node in its authority role.  Dense methods work from the
    eigendecomposition of a Gram matrix (``linalg.dense_gram``), and every
    quadrature rule runs on ``GramOperator``.  Lanczos on this operator
    gives ``spectrum --ritz-out`` its Ritz values of B.
    """

    graph: DirectedGraph

    @property
    def dim(self):
        return 2 * self.graph.n

    def matmat(self, X):
        """The operator applied to a vector (2n,) or to each column of a 2n x b block."""
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got shape {X.shape}")
        n = self.graph.n
        return np.concatenate([self.graph.forward @ X[n:], self.graph.reverse @ X[:n]])

    matvec = matmat  # perfbench/tracer.py looks this name up


@dataclass(frozen=True)
class GramOperator:
    """A A^T (side "hub") or A^T A (side "authority") of dimension n, never formed.

    These are the squares of the bipartite operator's diagonal blocks, so the
    hub block of e^B is cosh(sqrt(A A^T)) and the authority block
    cosh(sqrt(A^T A)).  ``matmat`` applies the operator to an n x b block as
    two sparse products; each column gets the same arithmetic as on its own.
    """

    graph: DirectedGraph
    side: str

    def __post_init__(self):
        if self.side not in ("hub", "authority"):
            raise ValueError(f"side must be 'hub' or 'authority', got '{self.side}'")

    @property
    def dim(self):
        return self.graph.n

    def matmat(self, X):
        g = self.graph
        if self.side == "hub":
            return g.forward @ (g.reverse @ X)
        return g.reverse @ (g.forward @ X)

    def _factors(self):
        """(first, second): row j of ``first`` lists the i with a term in M e_j, row i of ``second`` its k."""
        g = self.graph
        return (g.forward, g.reverse) if self.side == "hub" else (g.reverse, g.forward)

    def pair_counts(self):
        """How many pair terms the column M e_j of each node j adds up (see ``column_pairs``)."""
        first, second = self._factors()
        return np.bincount(first._rows, weights=np.diff(second.indptr)[first.indices], minlength=self.dim)

    def column_pairs(self, nodes):
        """(bins, terms): the columns M e_j of ``nodes`` as terms to add, in order, into a len(nodes) x n array.

        Authority side: each in-neighbour i of j (``reverse`` row j) expands
        into its out-row (``forward`` row i), giving the terms A[i,k] A[i,j]
        for row j, column k (flat position ``bins``); the hub side swaps the
        two matrices.  For each (j, k) the terms come in ascending i, the
        order in which both block kernels add them, so adding them in order
        to zeros gives ``matmat`` of the unit block bit for bit.
        """
        first, second = self._factors()
        nodes = np.asarray(nodes, dtype=np.int64)
        pos, counts = _row_positions(first.indptr, nodes)
        pair_pos, pair_counts = _row_positions(second.indptr, first.indices[pos])
        # in place where it can: fresh pair-sized arrays cost page faults
        bins = second.indices[pair_pos]
        bins += np.repeat(np.repeat(np.arange(nodes.size) * self.dim, counts), pair_counts)
        terms = second.data[pair_pos]
        terms *= np.repeat(first.data[pos], pair_counts)
        return bins, terms


def _row_positions(indptr, rows):
    """(positions, counts): where the entries of the given CSR rows sit, row after row, and each row's count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    positions = np.repeat(starts - (ends - counts), counts)
    positions += np.arange(positions.size)
    return positions, counts


def from_edges(edges, n=None, index_base=0, weighted=False):
    """Build a canonical DirectedGraph from (u, v) or (u, v, w) triples.

    Node ids must already be 0-based.  Duplicate edges have their weights
    summed (weight 1 each when unweighted); self-loops are dropped and
    counted.  ``n`` may declare a node count larger than the largest id so
    isolated trailing nodes are preserved.
    """
    edges = list(edges)
    ws = np.array([e[2] if len(e) == 3 else 1.0 for e in edges], dtype=float)
    negative = np.flatnonzero(ws < 0)
    if negative.size:
        u, v, w = edges[negative[0]]
        raise GraphFormatError(f"negative weight {w} on edge ({u}, {v})")
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    return _graph_from_arrays(us, vs, ws, n, index_base, weighted)


def _graph_from_arrays(us, vs, ws, n, index_base, weighted):
    """The DirectedGraph of edge arrays (0-based ids, non-negative weights).

    Self-loops are dropped and counted, duplicates summed; ``n`` is checked
    against the largest id of the kept edges.
    """
    loops = us == vs
    dropped = int(np.count_nonzero(loops))
    if dropped:
        keep = ~loops
        us, vs, ws = us[keep], vs[keep], ws[keep]
    max_id = int(max(us.max(initial=-1), vs.max(initial=-1)))
    n_eff = max(n if n is not None else 0, max_id + 1)
    if n_eff > NODE_LIMIT:
        raise GraphFormatError(f"node count {n_eff} above the limit {NODE_LIMIT}")
    if n_eff < 1:
        raise GraphFormatError("graph has no edges and no declared node count")
    if n is not None and max_id >= n:
        raise GraphFormatError(f"node id {max_id} out of declared range [0, {n})")
    forward = _csr(us, vs, ws, n_eff)
    # merged duplicates can leave non-unit weights even in unweighted input
    weighted = weighted or not forward._unit
    return DirectedGraph(
        n=n_eff,
        forward=forward,
        m=forward.nnz,
        weighted=weighted,
        self_loops_dropped=dropped,
        index_base=index_base,
    )


def _open_text(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8"), True


def load_graph(path, index_base=None):
    """Load the graph file at ``path``, Matrix Market or edge list as its first line says.

    A file whose first line, stripped, starts with ``%%MatrixMarket`` goes
    to ``load_matrix_market`` (the format fixes its ids, so an
    ``index_base`` is a ParameterError), any other to ``load_edge_list``
    with ``index_base`` (default 0).  A regular file is handed on by path,
    so an edge list keeps NumPy's path route; anything else, such as a
    pipe, can be read only once and is handed on as the text read here.
    """
    with open(path, "r", encoding="utf-8") as stream:
        first = stream.readline()
        if not stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
            path = io.StringIO(first + stream.read())
    if _is_matrix_market(first):
        if index_base is not None:
            raise ParameterError("an index base applies to edge lists only; Matrix Market ids are 1-based")
        return load_matrix_market(path)
    return load_edge_list(path, index_base=index_base or 0)


def load_edge_list(source, index_base=0, n=None):
    """Load a whitespace-separated edge list ("u v" or "u v w" per line).

    Parameters
    ----------
    source : path or text stream
    index_base : 0 or 1
        Base of the node labels in the file.
    n : int, optional
        Declared node count; indices at or beyond it are rejected.

    Lines whose first non-blank character is ``#`` and blank lines are
    skipped; a ``#`` after data on a line is an error.  Duplicates are
    merged with weights summed, self-loops dropped with a counter.
    """
    if index_base not in (0, 1):
        raise GraphFormatError(f"index base must be 0 or 1, got {index_base}")
    stream, owned = _open_text(source)
    try:
        file = _plain_file(source, stream) if owned else None
        text = stream.read()
    finally:
        if owned:
            stream.close()
    us, vs, ws = _read_edges(text, "#", index_base, n, (2, 3), 1, file)
    return _graph_from_arrays(us, vs, ws, n, index_base, weighted=bool(np.any(ws != 1.0)))


# np.loadtxt opens a str path through NumPy's DataSource, which decompresses
# these suffixes and would fetch a name that parses as a URL
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _plain_file(source, stream):
    """(absolute path, ``_file_key``) by which NumPy can read ``stream``'s file again, or None.

    None unless ``source`` names a regular file (a pipe cannot be read
    twice) without a compression suffix; being absolute, the path never
    parses as a URL.  Taken before ``stream`` is read, the key changes with
    any later write to the file.
    """
    path = os.fspath(source) if isinstance(source, (str, os.PathLike)) else None
    if not isinstance(path, str) or path.endswith(_COMPRESSED_SUFFIXES):
        return None
    st = os.fstat(stream.fileno())
    if not stat.S_ISREG(st.st_mode):
        return None
    return os.path.abspath(path), _file_key(st)


def _file_key(st):
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


_EDGE_FIELDS = [("u", np.int64), ("v", np.int64), ("w", np.float64)]


def _read_edges(text, comment, base, n, columns, first_line, file=None):
    """Edge arrays (us, vs, ws), 0-based, of the rows of ``text``; raises at the first bad line.

    Blank lines and lines whose first non-blank character is ``comment`` are
    skipped.  Every other line is a row of u, v and an optional weight
    (1.0 when absent), its token count one of ``columns``: ids from
    ``base`` on and below ``base + n`` (below ``NODE_LIMIT`` with ``n``
    None), the weight finite and non-negative.  The first line of ``text``
    is line ``first_line``.  NumPy's reader (``_parse_array``) takes a
    well-formed text, reading ``file`` by path where it can; anything else
    goes to the line reader (``_parse_lines``), which names the bad line.
    """
    return _parse_array(text, comment, base, n, columns, file) or _parse_lines(
        text, comment, base, n, columns, first_line
    )


def _parse_array(text, comment, base, n, columns, file=None):
    """Edge arrays (u, v, w) of a well-formed text (see ``_read_edges``), read by NumPy's C parser.

    ``file`` (``_plain_file``), the file ``text`` was read from, is handed
    to NumPy by path in place of the text when the text has no comment:
    NumPy reads a file in chunks in C, but iterates a text stream line by
    line in Python (12 against 22 ms on 150k edges).  Both read the file
    with universal newlines, so ``text`` holds no carriage return and the
    two routes see the same lines.  Rows read by path are kept only if the
    file is unchanged since ``text`` was read; else ``text`` is parsed.

    Returns None when the text is anything else -- a lone carriage return,
    rows of differing token counts, a token NumPy does not parse (a comment
    after data among them), or a row that fails a check -- and
    ``_parse_lines`` then decides, reporting the first bad line in file
    order.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if comment in text:
        file = None
        text = re.sub(rf"^[^\S\n]*{re.escape(comment)}[^\n]*", "", text, flags=re.MULTILINE)
    first = re.search(r"\S[^\n]*", text)
    if first is None:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    width = len(first.group().split())
    if width not in columns:
        return None
    rows = _load_rows(text, file, _EDGE_FIELDS[:width])
    if rows is None:
        return None
    ws = rows["w"] if width == 3 else np.ones(len(rows))
    if not (np.isfinite(ws).all() and (ws >= 0).all()):
        return None
    # compare before subtracting the base: int64 ids wrap below the minimum
    if min(rows["u"].min(), rows["v"].min()) < base:
        return None
    us = rows["u"] - base
    vs = rows["v"] - base
    bound = NODE_LIMIT if n is None else min(n, NODE_LIMIT)
    if max(us.max(), vs.max()) >= bound:
        return None
    return us, vs, ws


def _load_rows(text, file, dtype):
    """NumPy's rows of ``text``, or None if NumPy does not parse it.

    Read from ``file``'s path, when given, and kept only if the file is
    unchanged since ``text`` was read; else ``text`` itself is parsed.
    """
    kwargs = {"dtype": dtype, "comments": None, "ndmin": 1, "encoding": "utf-8"}
    if file is not None:
        path, key = file
        try:
            rows = np.loadtxt(path, **kwargs)
        except (OSError, ValueError):
            rows = None
        try:
            if _file_key(os.stat(path)) == key:
                return rows
        except OSError:
            pass  # gone since: parse the snapshot
    try:
        return np.loadtxt(io.StringIO(text), **kwargs)
    except ValueError:
        return None


def _parse_lines(text, comment, base, n, columns, first_line):
    """Edge arrays (u, v, w) of a text (see ``_read_edges``) parsed line by line, raising at the first bad line."""
    us, vs, ws = [], [], []
    for lineno, raw in enumerate(text.split("\n"), start=first_line):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        tokens = line.split()
        if len(tokens) not in columns:
            expected = " or ".join(map(str, columns))
            raise GraphFormatError(f"line {lineno}: expected {expected} tokens, got {len(tokens)}")
        try:
            u = int(tokens[0])
            v = int(tokens[1])
            w = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        if not np.isfinite(w):
            raise GraphFormatError(f"line {lineno}: non-finite weight {tokens[2]}")
        if w < 0:
            raise GraphFormatError(f"line {lineno}: negative weight {w}")
        u -= base
        v -= base
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: node id below index base {base}")
        if n is not None and (u >= n or v >= n):
            raise GraphFormatError(f"line {lineno}: node id out of declared range")
        if max(u, v) >= NODE_LIMIT:
            raise GraphFormatError(f"line {lineno}: node id {max(u, v) + base} at or above the limit {NODE_LIMIT}")
        us.append(u)
        vs.append(v)
        ws.append(w)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws, dtype=float)


def _is_matrix_market(header):
    """Whether ``header``, a file's first line, is a Matrix Market banner line."""
    return header.strip().startswith("%%MatrixMarket")


_MM_FIELDS = {"real", "integer", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric"}


def load_matrix_market(source):
    """Load a Matrix Market coordinate file as a directed graph.

    Supports pattern/real/integer fields with general or symmetric symmetry;
    symmetric files are expanded to both edge directions.  Complex fields,
    array format, and non-square matrices are rejected.  The entries after
    the size line are a 1-based edge list with ``%`` comment lines, read as
    ``load_edge_list`` reads its rows; their count must be the declared one.
    """
    stream, owned = _open_text(source)
    try:
        header = stream.readline()
        parts = header.strip().split()
        if len(parts) != 5 or not _is_matrix_market(header):
            raise GraphFormatError("missing MatrixMarket header")
        _, obj, fmt, fld, sym = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise GraphFormatError(f"unsupported MatrixMarket format '{obj} {fmt}' (need matrix coordinate)")
        if fld not in _MM_FIELDS:
            raise GraphFormatError(f"unsupported MatrixMarket field '{fld}'")
        if sym not in _MM_SYMMETRIES:
            raise GraphFormatError(f"unsupported MatrixMarket symmetry '{sym}'")
        lineno, tokens = 1, []
        while not tokens or tokens[0].startswith("%"):
            line = stream.readline()
            if not line:
                raise GraphFormatError("missing size line")
            lineno, tokens = lineno + 1, line.split()
        text = stream.read()
    finally:
        if owned:
            stream.close()
    try:
        nrows, ncols, declared = (int(t) for t in tokens)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad size line") from None
    if nrows != ncols:
        raise GraphFormatError(f"matrix is {nrows}x{ncols}, graphs require square")
    if nrows >= NODE_LIMIT:
        raise GraphFormatError(f"line {lineno}: dimension {nrows} at or above the limit {NODE_LIMIT}")
    us, vs, ws = _read_edges(text, "%", 1, nrows, (2,) if fld == "pattern" else (3,), lineno + 1)
    if us.size != declared:
        raise GraphFormatError(f"size line declares {declared} entries, file has {us.size}")
    if sym == "symmetric":
        # each off-diagonal entry (u, v) is followed by its mirror (v, u)
        keep = np.column_stack([np.ones(us.size, dtype=bool), us != vs]).ravel()
        us, vs = np.column_stack([us, vs]).ravel()[keep], np.column_stack([vs, us]).ravel()[keep]
        ws = np.repeat(ws, 2)[keep]
    return _graph_from_arrays(us, vs, ws, nrows, 0, weighted=bool(np.any(ws != 1.0)))


def write_edge_list(g, target=None):
    """Write the canonical 0-based sorted edge list; returns the text if no target."""
    buf = target if target is not None and hasattr(target, "write") else io.StringIO()
    for u, v, w in g.edges():
        if g.weighted:
            buf.write(f"{u} {v} {w:.17g}\n")
        else:
            buf.write(f"{u} {v}\n")
    if target is None:
        return buf.getvalue()
    if not hasattr(target, "write"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    return None


def degrees(g):
    """Return (out_degrees, in_degrees) as integer vectors."""
    return g.out_degrees(), g.in_degrees()


def spmv(g, x, transpose=False):
    """Sparse product A.x (or A^T.x, scattered from the rows of A); deterministic.

    Both add each output entry's terms in the order the rows of A (A^T)
    list them, so A^T.x needs no A^T and equals ``g.reverse @ x`` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"expected vector of length {g.n}, got {x.shape}")
    return g.forward.rmatvec(x) if transpose else g.forward @ x
