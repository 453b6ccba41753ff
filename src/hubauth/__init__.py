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
"""

from .analysis import (
    ComparisonReport,
    GapReport,
    compare,
    estrada_index,
    spectral_gap,
    symmetry_fraction,
)
from .errors import ConvergenceError, GraphFormatError, ParameterError, SizeLimitError
from .graph import (
    BipartiteOperator,
    DirectedGraph,
    degrees,
    from_edges,
    load_edge_list,
    load_matrix_market,
    spmv,
    write_edge_list,
)
from .linalg import (
    DENSE_DIM_LIMIT,
    LanczosRun,
    SpectralEstimate,
    dense_expm,
    expm_action,
    power_singular_pair,
    spectral_radius,
    tridiag_eigen,
)
from .quadrature import (
    NodeBounds,
    ResolventKernel,
    SpectrumInterval,
    bilinear_estimate,
    spectrum_interval,
)
from .rankers import (
    RankTable,
    ScoreVector,
    communicability,
    degree_scores,
    expA_row_col_sums,
    exp_centrality_exact,
    exp_centrality_quadrature,
    hits,
    katz_row_col,
    pagerank,
    rank_table,
    resolvent_bipartite,
    truncated_spectral_scores,
)
from .topk import TopKReport, identify_top_k, rank_in_top_m

__version__ = "0.1.0"
