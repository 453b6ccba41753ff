"""The benchmark's workloads: input make-up, CLI arguments, oracle and check.

Each workload drives one ``hubauth`` subcommand on one generated edge list.
The input sizes keep one CLI invocation at a few seconds on a 2-core
machine, so that a run of the benchmark holds several invocations.
"""

from dataclasses import dataclass

import numpy as np

import checks
import graphs

TOPK_K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # seed -> (src, dst); n is the largest id + 1
    argv: object  # (input path, output path, n) -> CLI arguments
    oracle: object  # (n, src, dst) -> dict of arrays
    check: object  # (output bytes, oracle dict, n) -> None; raises CheckFailed


def _exp_oracle(side):
    def oracle(n, src, dst):
        hub, authority, err = graphs.exp_scores(n, src, dst)
        return {"scores": hub if side == "hub" else authority, "err": np.float64(err)}

    return oracle


def _compare_oracle(n, src, dst):
    _, authority, err = graphs.exp_scores(n, src, dst)
    _, spectral = graphs.spectral_scores(n, src, dst)
    return {"exp": authority, "spectral": spectral, "err": np.float64(err)}


def _pagerank_oracle(n, src, dst):
    return {"scores": graphs.pagerank(n, src, dst)}


def compare_ks(n):
    """Overlap depths for compare: 1, 10 and n (the full orders)."""
    return sorted({1, min(TOPK_K, n), n})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quad-rank",
            lambda seed: graphs.zipf_offset(120, 5, (seed, 1)),
            lambda inp, out, n: ["rank", "--input", inp, "--method", "exp-quad", "--side", "hub", "--json"],
            _exp_oracle("hub"),
            lambda out, oracle, n: checks.check_quad_rank(out, oracle),
        ),
        Workload(
            "topk-authority",
            lambda seed: graphs.zipf_offset(1000, 5, (seed, 2)),
            lambda inp, out, n: ["topk", "--input", inp, "--k", str(min(TOPK_K, n)), "--side", "authority", "--json"],
            _exp_oracle("authority"),
            lambda out, oracle, n: checks.check_topk(out, oracle, min(TOPK_K, n)),
        ),
        Workload(
            "dense-compare",
            lambda seed: graphs.erdos_renyi(500, 2500, (seed, 3)),
            lambda inp, out, n: [
                "compare", "--input", inp, "--method", "exp-exact", "--method", "spectral",
                "--side", "authority", "--ks", ",".join(map(str, compare_ks(n))), "--json",
            ],
            _compare_oracle,
            lambda out, oracle, n: checks.check_compare(out, oracle, compare_ks(n)),
        ),
        Workload(
            "ingest-pagerank",
            lambda seed: graphs.erdos_renyi(30000, 150000, (seed, 4)),
            lambda inp, out, n: [
                "rank", "--input", inp, "--method", "pagerank", "--side", "authority",
                "--precision", "full", "--out", out,
            ],
            _pagerank_oracle,
            lambda out, oracle, n: checks.check_pagerank(out, oracle),
        ),
    )
}
