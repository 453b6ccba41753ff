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
