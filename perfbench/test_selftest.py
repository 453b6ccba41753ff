"""Self-test of the benchmark's output checks on tiny graphs.

Every workload's command runs on the three example digraphs of the test
suite and on one n=50 zipf-offset graph; each output must pass its check.
Each check is then fed deliberately wrong copies of that output, two
swapped ranks or one score off by 1e-6 relative, and must reject them.

The repository's pytest run collects this file and calls the CLI in
process (well under a second); ``python3 perfbench/run.py --selftest``
runs the same cases through fresh CLI processes.
"""

import contextlib
import io
import json
import os
import subprocess

import numpy as np

import checks
import graphs
from workloads import WORKLOADS

# the three example digraphs of tests/conftest.py, 0-based
EXAMPLES = {
    "ex1": [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 1)],
    "ex2": [(0, 2), (1, 0), (1, 3), (2, 1), (3, 1)],
    "ex3": [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (5, 2), (5, 3), (5, 4)],
}
REL = 1e-6


def tiny_graphs():
    for name, edges in EXAMPLES.items():
        src, dst = (np.array(col, dtype=np.int64) for col in zip(*edges))
        yield name, src, dst
    yield ("zipf50", *graphs.zipf_offset(50, 3, (0, 0)))


def _distinct(a, b):
    return abs(a - b) > REL * max(abs(a), abs(b))


def perturbations(name, out, oracle):
    """Wrong copies of a correct output: (label, bytes) pairs.

    A swap is made only between entries whose oracle scores differ, since
    swapping tied nodes leaves a correct output.
    """
    if name == "ingest-pagerank":
        header, *rows = out.decode("ascii").splitlines()
        rows = [r.split(",") for r in rows]
        exact = oracle["scores"]
        wrong = []
        if _distinct(exact[int(rows[0][0])], exact[int(rows[-1][0])]):
            swapped = [list(r) for r in rows]
            swapped[0][0], swapped[-1][0] = rows[-1][0], rows[0][0]
            wrong.append(("swapped ranks", swapped))
        off = [list(r) for r in rows]
        off[0][1] = f"{float(rows[0][1]) * (1 + REL):.12g}"
        wrong.append(("score off", off))
        return [(label, ("\n".join([header] + [",".join(r) for r in body]) + "\n").encode()) for label, body in wrong]

    payload = json.loads(out)
    wrong = []
    if name == "quad-rank":
        rows, exact = payload["rows"], oracle["scores"]
        if _distinct(exact[rows[0]["node"]], exact[rows[-1]["node"]]):
            bad = json.loads(out)
            bad["rows"][0]["node"], bad["rows"][-1]["node"] = rows[-1]["node"], rows[0]["node"]
            wrong.append(("swapped ranks", bad))
        bad = json.loads(out)
        bad["rows"][0]["score"] *= 1 + REL
        wrong.append(("score off", bad))
    elif name == "topk-authority":
        members = payload["members"]
        if len(members) > 1:
            bad = json.loads(out)
            bad["members"][0]["node"], bad["members"][1]["node"] = members[1]["node"], members[0]["node"]
            wrong.append(("swapped ranks", bad))
        bad = json.loads(out)
        first = bad["members"][0]
        first["upper"] = oracle["scores"][first["node"]] * (1 - REL)
        first["lower"] = min(first["lower"], first["upper"])
        wrong.append(("bracket off", bad))
    elif name == "dense-compare":
        full = payload["top_members"][str(oracle["exp"].size)]["a"]
        if _distinct(oracle["exp"][full[0]], oracle["exp"][full[-1]]):
            bad = json.loads(out)
            order = bad["top_members"][str(oracle["exp"].size)]["a"]
            order[0], order[-1] = order[-1], order[0]
            wrong.append(("swapped ranks", bad))
        bad = json.loads(out)
        tau = bad["kendall_tau_b"]
        bad["kendall_tau_b"] = tau * (1 + REL) if tau else REL
        wrong.append(("tau off", bad))
    return [(label, json.dumps(body).encode()) for label, body in wrong]


def selftest(runner, workdir):
    """Run, check and perturb every workload on every tiny graph.

    ``runner(args, out_path)`` runs the CLI and returns its stdout followed
    by the contents of ``out_path`` if the CLI wrote it.  Returns the number
    of rejected wrong outputs; raises AssertionError on any miss.
    """
    rejected = 0
    kinds = set()
    for graph_name, src, dst in tiny_graphs():
        n = int(max(src.max(), dst.max())) + 1
        graph_path = os.path.join(workdir, f"{graph_name}.txt")
        graphs.write_edges(graph_path, src, dst)
        for workload in WORKLOADS.values():
            out_path = os.path.join(workdir, f"{graph_name}.{workload.name}.out")
            oracle = workload.oracle(n, src, dst)
            out = runner(workload.argv(graph_path, out_path, n), out_path)
            workload.check(out, oracle, n)
            for label, bad in perturbations(workload.name, out, oracle):
                try:
                    workload.check(bad, oracle, n)
                except checks.CheckFailed:
                    rejected += 1
                    kinds.add((workload.name, label))
                    continue
                raise AssertionError(f"{workload.name} on {graph_name}: check accepted {label}")
    for workload in WORKLOADS:
        assert any(name == workload and "swapped" in label for name, label in kinds), workload
        assert any(name == workload and "swapped" not in label for name, label in kinds), workload
    return rejected


def _collect(out, out_path):
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            out += fh.read()
        os.remove(out_path)
    return out


def subprocess_runner(cli_argv, env, cwd):
    def run(args, out_path):
        proc = subprocess.run(cli_argv + args, env=env, cwd=cwd, capture_output=True, check=True, timeout=120)
        return _collect(proc.stdout, out_path)

    return run


def inprocess_runner(args, out_path):
    from hubauth import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    assert code == 0, f"hubauth {' '.join(args)} exited {code}"
    return _collect(buf.getvalue().encode(), out_path)


def test_checks_accept_outputs_and_reject_perturbations(tmp_path):
    assert selftest(inprocess_runner, str(tmp_path)) >= 2 * len(WORKLOADS)
