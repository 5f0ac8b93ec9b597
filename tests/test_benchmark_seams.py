"""The benchmark's checks fire: a short traced run of one workload is
correct, and the same run with three answers altered reports exactly those
three operations as failed.  A short traced relational-replicas run covers
the binary stage's build chain, called one layer at a time and compared
with `DatabaseIndex.build`."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_run(workload: str, *extra: str) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv + list(extra), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("corrupt", [False, True])
def test_short_traced_run(corrupt):
    result = _traced_run("ternary-random", *["--corrupt"] * corrupt)
    if corrupt:
        assert result["failed"] == 3 and not result["correct"]
    else:
        assert result["failed"] == 0 and result["correct"]


def test_short_traced_binary_stage_run():
    result = _traced_run("relational-replicas")
    assert result["failed"] == 0 and result["correct"]
