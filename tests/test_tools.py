"""Smoke runs of the measurement scripts in tools/ at their smallest settings."""

import json
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize(
    "argv",
    [
        ["block_kernel_sweep.py", "--sizes", "60", "--runs", "1"],
        ["process_phases.py", "--runs", "1", "--workloads", "quad-rank"],
    ],
)
def test_tool_runs_and_every_point_prints_the_same_bytes(argv):
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, argv[0])] + argv[1:], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines
    for line in lines:
        assert json.loads(line)["same_bytes"] is True, line


def test_block_kernel_sweep_reports_quartiles_and_pairs_won():
    argv = ["--sizes", "60", "--runs", "3", "--commands", "topk"]
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "block_kernel_sweep.py")] + argv, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    (point,) = map(json.loads, result.stdout.splitlines())
    for kernel in ("scipy", "numpy"):
        assert 0 < point["q1_s"][kernel] <= point["wall_s"][kernel] <= point["q3_s"][kernel]
    assert set(point["pairs_won"]) == {"scipy", "numpy"}
    assert sum(point["pairs_won"].values()) <= point["runs"] == 3
