"""Benchmark harness for the hubauth CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen --seed N      # rebuild inputs and oracles
    python3 perfbench/run.py --selftest            # quick check of the checks

Each operation is one fresh ``python -m hubauth.cli`` process on a generated
edge list, timed from spawn to exit, with its peak RSS read from its own
rusage.  Each round also times one process that only imports
``hubauth.cli`` (``setup_s``).  Rounds repeat until ``--seconds`` have passed;
every output is checked against the oracle outside the timed region.  With
``--trace 1`` each round instead runs the operation once untraced and once
under ``tracer.py`` and reports per-layer metrics.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys

# One BLAS thread, here (oracles) and in every child.  Two threads on the
# 2-core machine ran faster but spread wider, and idle OpenBLAS threads spin.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import graphs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, "_cache")
OP_TIMEOUT_S = 60.0
# setup_s is the median of this many import-only processes, one in each of
# the first rounds; its spread is not gated, so the rest of the run goes to
# the workload's own invocations
SETUP_PROBES = 3

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
SETUP_ARGV = [sys.executable, "-c", "import hubauth.cli"]
CLI_ARGV = [sys.executable, "-m", "hubauth.cli"]
TRACE_ARGV = [sys.executable, os.path.join(HERE, "tracer.py")]

PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.matvec_calls": "count",
    "graph.matvec_s": "s",
    "graph.spmv_calls": "count",
    "graph.spmv_s": "s",
    "linalg.lanczos_runs": "count",
    "linalg.lanczos_steps": "count",
    "linalg.lanczos_self_s": "s",
    "linalg.tridiag_eigen_calls": "count",
    "linalg.tridiag_eigen_s": "s",
    "linalg.dense_expm_calls": "count",
    "linalg.dense_expm_s": "s",
    "linalg.power_singular_pair_calls": "count",
    "linalg.power_singular_pair_s": "s",
    "quadrature.spectrum_interval_s": "s",
    "quadrature.radau_calls": "count",
    "quadrature.radau_self_s": "s",
    "rankers.exp_quad_s": "s",
    "rankers.exp_exact_s": "s",
    "rankers.spectral_s": "s",
    "rankers.pagerank_s": "s",
    "rankers.rank_table_s": "s",
    "topk.identify_s": "s",
    "topk.self_s": "s",
    "topk.nodes_eligible": "count",
    "topk.nodes_refined_past_start": "count",
    "analysis.compare_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# inputs and oracles (cached per workload and seed, outside git)
# ---------------------------------------------------------------------------


def prepare(workload, seed, regen=False):
    """Write the workload's edge list and oracle for this seed, if missing.

    Returns (edge-list path, oracle dict, n).  The oracle file is written
    last and marks the pair complete.
    """
    folder = os.path.join(CACHE, workload.name, f"seed-{seed}")
    graph_path = os.path.join(folder, "graph.txt")
    oracle_path = os.path.join(folder, "oracle.npz")
    if regen and os.path.isdir(folder):
        shutil.rmtree(folder)
    if not os.path.exists(oracle_path):
        os.makedirs(folder, exist_ok=True)
        src, dst = workload.make(seed)
        n = int(max(src.max(), dst.max())) + 1
        graphs.write_edges(graph_path + ".tmp", src, dst)
        os.replace(graph_path + ".tmp", graph_path)
        oracle = workload.oracle(n, src, dst)
        with open(oracle_path + ".tmp", "wb") as fh:
            np.savez(fh, n=n, **oracle)
        os.replace(oracle_path + ".tmp", oracle_path)
    with np.load(oracle_path) as data:
        oracle = {key: data[key] for key in data.files}
    return graph_path, oracle, int(oracle.pop("n"))


# ---------------------------------------------------------------------------
# one process, timed from spawn to exit
# ---------------------------------------------------------------------------


def spawn(argv, stdout_path, stderr_path):
    """Run argv to completion; return (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # this child's own rusage: RUSAGE_CHILDREN would keep the maximum
            # over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Operation:
    """One workload invocation in a scratch folder, with its output bytes."""

    def __init__(self, workload, graph_path, oracle, n, workdir):
        self.workload = workload
        self.oracle = oracle
        self.n = n
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.file")
        self.args = workload.argv(graph_path, self.out_path, n)

    def run(self, prefix):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        stdout_path = os.path.join(self.workdir, "stdout")
        stderr_path = os.path.join(self.workdir, "stderr")
        code, wall, rss = spawn(prefix + self.args, stdout_path, stderr_path)
        output = b""
        for path in (stdout_path, self.out_path):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    output += fh.read()
        if code != 0:
            with open(stderr_path, "rb") as fh:
                log(f"{self.workload.name}: exit {code}: {fh.read().decode(errors='replace').strip()}")
        return code, wall, rss, output

    def check(self, output):
        try:
            self.workload.check(output, self.oracle, self.n)
        except checks.CheckFailed as exc:
            log(f"{self.workload.name}: wrong output: {exc}")
            return False
        return True


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def median(values):
    return float(statistics.median(values))


def timed_run(op, seconds):
    walls, rss, setups = [], [], []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    while True:
        if len(setups) < SETUP_PROBES:
            code, wall, _ = spawn(SETUP_ARGV, os.devnull, os.devnull)
            if code != 0:
                raise SystemExit(f"importing hubauth.cli failed with exit {code}")
            setups.append(wall)
        code, wall, peak, output = op.run(CLI_ARGV)
        attempted += 1
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            failed += 1
        elif not op.check(output):
            correct = False
        if time.perf_counter() >= deadline and len(setups) == SETUP_PROBES:
            break
    log(f"{op.workload.name}: {attempted} rounds, wall_s {sorted(round(w, 3) for w in walls)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": median(walls), "unit": "s"},
            "peak_rss_mb": {"value": median(rss), "unit": "MB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        },
    }


def layer_metrics(trace):
    """Per-layer metrics from one traced invocation's spans and counts."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    extra = defaultdict(list)
    for i, (name, start, end, _, info) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered[i]
        if info is not None:
            extra[name].append(info)
    refinement = extra["topk.identify"][0] if extra["topk.identify"] else [0, 0]
    return {
        "graph.load_s": total["graph.load"],
        "graph.matvec_calls": calls["graph.matvec"],
        "graph.matvec_s": total["graph.matvec"],
        "graph.spmv_calls": calls["graph.spmv"],
        "graph.spmv_s": total["graph.spmv"],
        "linalg.lanczos_runs": trace["lanczos_runs"],
        "linalg.lanczos_steps": sum(extra["linalg.lanczos"]),
        "linalg.lanczos_self_s": own["linalg.lanczos"],
        "linalg.tridiag_eigen_calls": calls["linalg.tridiag_eigen"],
        "linalg.tridiag_eigen_s": total["linalg.tridiag_eigen"],
        "linalg.dense_expm_calls": calls["linalg.dense_expm"],
        "linalg.dense_expm_s": total["linalg.dense_expm"],
        "linalg.power_singular_pair_calls": calls["linalg.power_singular_pair"],
        "linalg.power_singular_pair_s": total["linalg.power_singular_pair"],
        "quadrature.spectrum_interval_s": total["quadrature.spectrum_interval"],
        "quadrature.radau_calls": calls["quadrature.radau"],
        "quadrature.radau_self_s": own["quadrature.radau"],
        "rankers.exp_quad_s": total["rankers.exp_quad"],
        "rankers.exp_exact_s": total["rankers.exp_exact"],
        "rankers.spectral_s": total["rankers.spectral"],
        "rankers.pagerank_s": total["rankers.pagerank"],
        "rankers.rank_table_s": total["rankers.rank_table"],
        "topk.identify_s": total["topk.identify"],
        "topk.self_s": own["topk.identify"],
        "topk.nodes_eligible": refinement[0],
        "topk.nodes_refined_past_start": refinement[1],
        "analysis.compare_s": total["analysis.compare"],
        "cli.self_s": own["cli.main"],
    }


def traced_run(op, seconds):
    """Rounds of one untraced and one traced invocation of the same command."""
    spans_path = os.path.join(op.workdir, "spans.json")
    plain_walls, traced_walls, layers = [], [], []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    while True:
        code, wall, _, plain_out = op.run(CLI_ARGV)
        attempted += 1
        plain_walls.append(wall)
        if code != 0:
            failed += 1
        elif not op.check(plain_out):
            correct = False
        code, wall, _, traced_out = op.run(TRACE_ARGV + [spans_path])
        attempted += 1
        traced_walls.append(wall)
        if code != 0:
            failed += 1
        else:
            if traced_out != plain_out:
                log(f"{op.workload.name}: traced output differs from the untraced output")
                correct = False
            with open(spans_path, encoding="utf-8") as fh:
                layer = layer_metrics(json.load(fh))
            layer["cli.output_bytes"] = len(traced_out)
            layers.append(layer)
        if time.perf_counter() >= deadline:
            break
    metrics = {
        name: {"value": median([layer[name] for layer in layers]) if layers else 0.0, "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
        if name != "trace.overhead_s"
    }
    overhead = median(traced_walls) - median(plain_walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    log(f"{op.workload.name}: {attempted} invocations, tracing overhead {overhead:.3f} s")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen", action="store_true", help="rebuild every workload's inputs and oracles for --seed")
    parser.add_argument("--selftest", action="store_true", help="run every workload's command and check on tiny graphs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hubauth", "cli.py")):
        log(f"hubauth sources not found under {SRC}; run from a full checkout")
        return 2
    if args.selftest:
        import test_selftest

        workdir = os.path.join(CACHE, "selftest")
        os.makedirs(workdir, exist_ok=True)
        try:
            rejected = test_selftest.selftest(test_selftest.subprocess_runner(CLI_ARGV, CHILD_ENV, ROOT), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        log(f"selftest passed: every output accepted, {rejected} wrong outputs rejected")
        return 0
    if args.regen:
        for workload in WORKLOADS.values():
            prepare(workload, args.seed, regen=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    graph_path, oracle, n = prepare(workload, args.seed)
    workdir = os.path.join(CACHE, "runs", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        # warm-up, untimed: writes bytecode caches and pulls the modules into
        # the page cache, which a first run in a fresh checkout would otherwise pay
        code, _, _ = spawn(SETUP_ARGV, os.devnull, os.path.join(workdir, "stderr"))
        if code != 0:
            log(f"importing hubauth.cli failed with exit {code}")
            return 1
        op = Operation(workload, graph_path, oracle, n, workdir)
        result = traced_run(op, args.seconds) if args.trace else timed_run(op, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
