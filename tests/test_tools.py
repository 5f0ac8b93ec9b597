"""The scripts under tools/ run against the package as it is: each runs in
a subprocess, and its rows are checked, so a change that breaks a tool
fails here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tool(name, *args):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / name), *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


# the dp_ops column (bool, count, enum) on seed 1: the ops are deterministic,
# so a change to what serving runs must update these on purpose
DP_OPS = {
    "relational-replicas": ["47.15", "52.20", "87.20"],
    "ternary-random": ["99.00", "111.00", "162.50"],
}


@pytest.mark.parametrize("workload", ["relational-replicas", "ternary-random"])
def test_served_split_rows(workload):
    lines = tool("served_split.py", "--workload", workload, "--seed", "1", "--passes", "1")
    assert lines[0] == f"{workload} seed 1, best of 1 passes, us per call"
    assert lines[1].split() == ["task", "calls", "parse", "compile", "run", "total", "miss", "dp_ops"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["bool", "count", "enum"]
    for _, calls, *figures, miss, ops in rows:
        parse, compile_, run, total = map(float, figures)
        assert int(calls) > 0 and min(parse, compile_, run) > 0 and float(ops) > 0
        assert abs(parse + compile_ + run - total) <= 0.2 + 1e-9  # each printed to 0.1
        assert miss == "-" or float(miss) > 0
    assert any(row[-2] != "-" for row in rows)  # a fresh index misses its first query
    assert [row[-1] for row in rows] == DP_OPS[workload]


def test_code_lines_rows():
    *rows, last = [line.split() for line in tool("code_lines.py")]
    assert [name for _, name in rows] == sorted(p.name for p in (ROOT / "src" / "colorindex").glob("*.py"))
    assert last[1] == "total" and int(last[0]) == sum(int(n) for n, _ in rows)
    assert all(int(n) > 0 for n, _ in rows)
