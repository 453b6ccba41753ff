"""Where a CLI process spends its wall time: start-up and imports, the command, exit.

For each benchmark workload (the generator, size and arguments of
perfbench/workloads.py) it times fresh processes that import
``hubauth.cli`` and then run its ``__main__`` block, as
``python -m hubauth.cli`` does.  The child stamps ``time.time()`` when the
import is done and again in its first atexit callback; the parent stamps
the spawn and the return of ``wait``.  So

    startup = spawn -> import done: the interpreter, NumPy and the hubauth
              modules ``hubauth.cli`` imports itself
    run     = import done -> atexit: the command (with the hubauth modules
              it imports), its output, sys.exit
    exit    = atexit -> wait returns: the final collection, module
              teardown and process exit

No tracer span sees the last one.  It prints one JSON line per workload
with each phase's median in ms, whether every run wrote the same bytes, and
per tree ``bytecode_cached``: whether the children could write bytecode
(``sys.dont_write_bytecode`` false) and whether ``hubauth/__pycache__``
exists after the runs.  Without cached bytecode every process compiles
the hubauth modules it imports from source, which start-up then includes.
Given several ``--src`` trees it runs them in turn, rotating which goes
first, on the same input.

    python3 tools/process_phases.py --runs 9
    python3 tools/process_phases.py --src src --src /path/to/other/src --workloads quad-rank
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import graphs  # noqa: E402  (perfbench's generators and writer; numpy only)
from workloads import WORKLOADS  # noqa: E402

# argv[1] is the stamp file, the rest the command; runpy warns that the
# module it runs as __main__ is imported already, which it is on purpose
CHILD = """\
import atexit, runpy, sys, time, warnings
import hubauth.cli
imported = time.time()
def stamp(path=sys.argv[1]):
    with open(path, "w") as fh:
        fh.write(f"{imported!r} {time.time()!r} {int(sys.dont_write_bytecode)}")
atexit.register(stamp)
sys.argv = ["hubauth"] + sys.argv[2:]
warnings.filterwarnings("ignore", category=RuntimeWarning, module="runpy")
runpy.run_module("hubauth.cli", run_name="__main__", alter_sys=True)
"""
PHASES = ("startup", "run", "exit", "wall")


def run(src, argv, out_path, workdir):
    """One fresh process on tree ``src``; returns (exit code, phase seconds, output bytes, dont_write_bytecode)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    stamp_path, stdout_path, stderr_path = (os.path.join(workdir, name) for name in ("stamp", "stdout", "stderr"))
    for path in (stamp_path, out_path):
        if os.path.exists(path):
            os.remove(path)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned = time.time()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, stamp_path] + argv,
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        code = proc.wait()
        done = time.time()
    if not os.path.exists(stamp_path):
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"{src}: the child exited {code} before its atexit stamp:\n{fh.read()}")
    with open(stamp_path) as fh:
        imported, exiting, dont_write = fh.read().split()
    imported, exiting = float(imported), float(exiting)
    phases = dict(startup=imported - spawned, run=exiting - imported, exit=done - exiting, wall=done - spawned)
    output = b""
    for path in (stdout_path, out_path):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                output += fh.read()
    return code, phases, output, dont_write == "1"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=9, help="processes per workload and tree")
    parser.add_argument("--seed", type=int, default=0, help="workload input seed")
    parser.add_argument("--src", action="append", help="source tree to run (repeatable; default: this repo's src)")
    args = parser.parse_args()
    trees = args.src or [os.path.join(ROOT, "src")]
    with tempfile.TemporaryDirectory() as workdir:
        graph_path = os.path.join(workdir, "graph.txt")
        out_path = os.path.join(workdir, "out.file")
        for name in args.workloads.split(","):
            workload = WORKLOADS[name]
            src, dst = workload.make(args.seed)
            n = int(max(src.max(), dst.max())) + 1
            graphs.write_edges(graph_path, src, dst)
            argv = workload.argv(graph_path, out_path, n)
            times = {tree: {phase: [] for phase in PHASES} for tree in trees}
            codes, outputs, dont_write = set(), set(), {}
            for i in range(args.runs):
                for tree in trees[i % len(trees):] + trees[: i % len(trees)]:
                    code, phases, output, no_bytecode = run(tree, argv, out_path, workdir)
                    codes.add(code)
                    outputs.add(output)
                    dont_write[tree] = no_bytecode  # the same environment every run
                    for phase, seconds in phases.items():
                        times[tree][phase].append(seconds)
            medians = {
                tree: {phase: round(1000 * statistics.median(v), 1) for phase, v in spans.items()}
                for tree, spans in times.items()
            }
            bytecode = {
                tree: {
                    "dont_write_bytecode": dont_write[tree],
                    "pycache": os.path.isdir(os.path.join(tree, "hubauth", "__pycache__")),
                }
                for tree in trees
            }
            point = {"workload": name, "seed": args.seed, "n": n, "runs": args.runs, "exit_codes": sorted(codes)}
            print(json.dumps(dict(point, same_bytes=len(outputs) == 1, median_ms=medians, bytecode_cached=bytecode)), flush=True)


if __name__ == "__main__":
    main()
