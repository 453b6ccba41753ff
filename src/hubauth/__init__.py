"""hubauth: hub and authority ranking via matrix functions of the bipartite operator.

A directed graph is mirrored into the symmetric operator [[0, A], [A^T, 0]];
diagonal entries of its exponential score every node's hub and authority
roles.  The hub and authority blocks of that exponential are
cosh(sqrt(A A^T)) and cosh(sqrt(A^T A)): small graphs are scored exactly
from the eigendecomposition of the Gram matrix A A^T or A^T A, large ones
through certified Gauss-Radau brackets on the same matrices, which also
drive a top-k selection without resolving all scores.  HITS, Katz,
bipartite resolvent, exponential row/column sums, PageRank, and degree
baselines ride along for comparison.

The names below, and the submodules that define them, are loaded on first
access (PEP 562), so a process imports only the modules it uses:
``hubauth.from_edges`` loads ``graph``, not the Lanczos and quadrature code.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "analysis": (
        "ComparisonReport",
        "GapReport",
        "compare",
        "estrada_index",
        "spectral_gap",
        "symmetry_fraction",
    ),
    "errors": ("ConvergenceError", "GraphFormatError", "ParameterError", "SizeLimitError"),
    "graph": (
        "BipartiteOperator",
        "DirectedGraph",
        "degrees",
        "from_edges",
        "load_edge_list",
        "load_graph",
        "load_matrix_market",
        "spmv",
        "write_edge_list",
    ),
    "linalg": (
        "DENSE_DIM_LIMIT",
        "LanczosRun",
        "SpectralEstimate",
        "dense_expm",
        "expm_action",
        "power_singular_pair",
        "spectral_radius",
        "tridiag_eigen",
    ),
    "quadrature": (
        "NodeBounds",
        "ResolventKernel",
        "SpectrumInterval",
        "bilinear_estimate",
        "spectrum_interval",
    ),
    "rankers": (
        "RankTable",
        "ScoreVector",
        "communicability",
        "degree_scores",
        "expA_row_col_sums",
        "exp_centrality_exact",
        "exp_centrality_quadrature",
        "hits",
        "katz_row_col",
        "pagerank",
        "rank_table",
        "resolvent_bipartite",
        "truncated_spectral_scores",
    ),
    "topk": ("TopKReport", "identify_top_k"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _SOURCES:
        # a submodule, as when this file imported every one of them
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
