"""Run the hubauth CLI with spans around each layer's public functions.

Usage: python3 tracer.py SPANS_FILE CLI_ARG...

Wraps the functions listed in ``TARGETS`` at every module attribute that
binds them (the modules import each other's functions by name), runs
``hubauth.cli.main`` on the remaining arguments, and writes the recorded
spans to SPANS_FILE as JSON when the CLI returns.  The program itself is
not changed; the wrappers only read the clock and the call's result.
"""

import functools
import json
import sys
import time

import hubauth
from hubauth import analysis, cli, graph, linalg, quadrature, rankers, topk

MODULES = (hubauth, analysis, cli, graph, linalg, quadrature, rankers, topk)

# span name -> (owner, attribute).  Owner is a module for functions, a class
# for methods; functions are also rebound wherever another module imported them.
TARGETS = {
    "graph.load": (graph, "load_edge_list"),
    "graph.matvec": (graph.BipartiteOperator, "matvec"),
    "graph.spmv": (graph, "spmv"),
    "linalg.lanczos": (linalg.LanczosRun, "extend"),
    "linalg.tridiag_eigen": (linalg, "tridiag_eigen"),
    "linalg.dense_expm": (linalg, "dense_expm"),
    "linalg.power_singular_pair": (linalg, "power_singular_pair"),
    "quadrature.spectrum_interval": (quadrature, "spectrum_interval"),
    "quadrature.radau": (quadrature, "radau_bounds_from_run"),
    "rankers.exp_quad": (rankers, "exp_centrality_quadrature"),
    "rankers.exp_exact": (rankers, "exp_centrality_exact"),
    "rankers.spectral": (rankers, "truncated_spectral_scores"),
    "rankers.pagerank": (rankers, "pagerank"),
    "rankers.rank_table": (rankers, "rank_table"),
    "topk.identify": (topk, "identify_top_k"),
    "analysis.compare": (analysis, "compare"),
    "cli.main": (cli, "main"),
}


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, extra].

    ``LanczosRun`` constructions are only counted: one per start node.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.lanczos_runs = 0

    def count_lanczos_runs(self, init):
        @functools.wraps(init)
        def counted(*args, **kwargs):
            self.lanczos_runs += 1
            return init(*args, **kwargs)

        return counted

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self.stack.append(index)
            steps_before = args[0].steps if name == "linalg.lanczos" else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name == "linalg.lanczos":
                span[4] = args[0].steps - steps_before
            elif name == "topk.identify":
                span[4] = _refinement_counts(result)
            return result

        return traced


def _refinement_counts(report):
    """(eligible nodes, nodes whose run went past the first bracket round)."""
    first_round = topk.P_START + 1  # a Radau bracket at order p needs p+1 steps
    steps = report.iterations.values()
    return [len(report.iterations), sum(1 for s in steps if s > first_round)]


def install(recorder):
    linalg.LanczosRun.__init__ = recorder.count_lanczos_runs(linalg.LanczosRun.__init__)
    for name, (owner, attr) in TARGETS.items():
        original = getattr(owner, attr)
        traced = recorder.wrap(name, original)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            continue
        for module in MODULES:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "lanczos_runs": recorder.lanczos_runs}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
