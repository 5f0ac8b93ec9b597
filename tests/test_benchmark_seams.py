"""The benchmark's checks fire: a short traced run of one workload is
correct, and the same run with three answers altered reports exactly those
three operations as failed.  A short traced relational-replicas run covers
the binary stage's build chain, called one layer at a time and compared
with `DatabaseIndex.build`; the same chain, run in this process on both
workloads, gives the built index and its color count."""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from colorindex.pipeline import DatabaseIndex
from colorindex.textio import parse_database, parse_schema

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = BENCH / "run.py"


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


@pytest.mark.parametrize("workload", ["relational-replicas", "ternary-random"])
def test_trace_build_chain_gives_the_built_index(workload, tmp_path, monkeypatch, capsys):
    # trace-build hands DatabaseIndex the ColorIndex of bin2graph's graph;
    # it must equal DatabaseIndex.build's index in stage, classes and color
    # database (`same_index`), and report its color count, which the run
    # compares with a build of fewer copies
    monkeypatch.syspath_prepend(str(BENCH))
    worker, workloads = importlib.import_module("worker"), importlib.import_module("workloads")
    wl = workloads.make(workload, 1)
    (tmp_path / "s").write_text(wl.schema_text)
    (tmp_path / "d").write_text(wl.db_text)
    worker.main(["trace-build", "--schema", str(tmp_path / "s"), "--db", str(tmp_path / "d"),
                 "--out", str(tmp_path / "x.idx")])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    built = DatabaseIndex.build(parse_database(wl.db_text, parse_schema(wl.schema_text)))
    assert result["same_index"] and result["stage"] == built.stage != "graph"
    assert result["colors"] == built.cindex.colors
    assert DatabaseIndex.load(str(tmp_path / "x.idx")).save_text() == built.save_text()
