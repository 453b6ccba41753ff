"""Crossover sweep for graph.NUMPY_BLOCK_LIMIT: CLI wall time with each block kernel.

For each command and node count, builds a zipf-offset digraph (5 out-edges
per node, the benchmark's generator) and times fresh ``hubauth`` processes
with every block product forced onto SciPy's kernel (limit 0) and onto the
NumPy kernel (limit n * nnz), alternating which runs first.  It checks
that both print the same bytes and prints one JSON line per point with each
kernel's median wall time, its quartiles, and how many of the runs' pairs it
won (a pair of equal times counts for neither).

    python3 tools/block_kernel_sweep.py --sizes 250,500,1000,1500 --runs 5
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import graphs  # noqa: E402  (perfbench's generator; numpy only)
import numpy as np  # noqa: E402

COMMANDS = {
    "topk": ["topk", "--k", "10", "--side", "authority", "--json"],
    "exp-quad": ["rank", "--method", "exp-quad", "--side", "hub", "--json"],
}
# the CLI with the limit set from argv[1]; the rest of argv is the command
CHILD = (
    "import sys, hubauth.graph as g; g.NUMPY_BLOCK_LIMIT = int(sys.argv[1]); "
    "from hubauth.cli import main; sys.exit(main(sys.argv[2:]))"
)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
ENV.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run(limit, argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(limit)] + argv, capture_output=True, env=ENV, check=True)
    return time.perf_counter() - start, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="250,500,750,1000,1250,1500,2000")
    parser.add_argument("--commands", default=",".join(COMMANDS))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for n in map(int, args.sizes.split(",")):
            src, dst = graphs.zipf_offset(n, 5, args.seed)
            path = os.path.join(tmp, f"zipf-{n}.txt")
            graphs.write_edges(path, src, dst)
            for name in args.commands.split(","):
                argv = COMMANDS[name][:1] + ["--input", path] + COMMANDS[name][1:]
                kernels = {"scipy": 0, "numpy": n * src.size}
                times = {k: [] for k in kernels}
                outputs = set()
                for i in range(args.runs):
                    for kernel in sorted(kernels, reverse=i % 2 == 1):
                        wall, out = run(kernels[kernel], argv)
                        times[kernel].append(wall)
                        outputs.add(out)
                point = {"command": name, "n": n, "n_nnz": n * src.size, "runs": args.runs}
                point["same_bytes"] = len(outputs) == 1
                for key, q in (("wall_s", 50), ("q1_s", 25), ("q3_s", 75)):
                    point[key] = {k: round(float(np.percentile(v, q)), 3) for k, v in times.items()}
                pairs = list(zip(times["scipy"], times["numpy"]))
                point["pairs_won"] = {"scipy": sum(s < t for s, t in pairs), "numpy": sum(t < s for s, t in pairs)}
                print(json.dumps(point), flush=True)


if __name__ == "__main__":
    main()
