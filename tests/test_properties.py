"""Property tests of the exp-quad brackets against the SVD oracle.

Graphs are small random digraphs (n <= 12), edgeless and reducible ones
included.  The oracle is hub_i = sum_k cosh(sigma_k) U_ik^2 (authorities:
V), read straight off the full SVD of A.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hubauth import EXP, bipartite_operator, exp_centrality_quadrature, from_edges, spectrum_interval
from hubauth.linalg import LanczosRun
from hubauth.quadrature import radau_bounds_from_run

from conftest import dense_adjacency

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
    hub, authority = exp_centrality_quadrature(g)
    bounds = hub.diagnostics["bounds"] + authority.diagnostics["bounds"]
    for index, nb in enumerate(bounds):
        assert nb.node == index
        assert nb.lower - _slack(truth[index]) <= truth[index] <= nb.upper + _slack(truth[index])


@SETTINGS
@given(digraphs(), st.data())
def test_radau_bracket_never_widens_on_a_reused_run(g, data):
    truth = svd_oracle(g)
    index = data.draw(st.integers(0, 2 * g.n - 1))
    run = LanczosRun(bipartite_operator(g), index)
    iv = spectrum_interval(g)
    prev_width = math.inf
    for p in range(1, 2 * g.n + 2):
        nb = radau_bounds_from_run(run, p, iv, EXP)
        assert nb.lower - _slack(truth[index]) <= truth[index] <= nb.upper + _slack(truth[index])
        assert nb.width <= prev_width + 1e-12 * max(1.0, nb.upper)
        prev_width = nb.width
        if nb.exact:
            break
