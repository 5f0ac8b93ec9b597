"""The benchmark's checks fire: a short traced run of one workload is
correct, and the same run with three answers altered reports exactly those
three operations as failed."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("corrupt", [False, True])
def test_short_traced_run(corrupt):
    argv = [sys.executable, str(RUN), "--workload", "ternary-random", "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv + ["--corrupt"] * corrupt, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    if corrupt:
        assert result["failed"] == 3 and not result["correct"]
    else:
        assert result["failed"] == 0 and result["correct"]
