"""Where a served call's time goes: parse, compile and dynamic program, per
task, over one benchmark workload's query stream.

    python3 tools/served_split.py --workload NAME --seed N [--passes P]

Builds the workload's index once and saves it as text.  Each pass loads a
fresh index from that text, so its cache of compiled queries starts empty as
in a served process, and asks the whole stream once, one query at a time.
A call is split into `textio.parse_query`, `DatabaseIndex.compile` (from
the cache when the query was compiled before) and the run: the counting
dynamic program for bool and count, and for enum its preprocessing and the
walk to the first `ENUM_CAP` answers, decoded.  Prints, per task, the number
of calls and the mean microseconds per call of each part in the fastest
pass (by total time); `miss`, the mean compile microseconds over the calls
that missed the cache in that pass (`-` when none did), read through
`cache_info().misses` outside the timed span; and the mean ops per call
that the run's `OpCounter` counts: those of the dynamic program, and for
enum of the whole preprocessing.  The misses and the ops are the same in
every pass.  Reads `perfbench/workloads.py` for the inputs.
"""
from __future__ import annotations

import argparse
import gc
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from colorindex import evaluator, textio  # noqa: E402
from colorindex.instrument import OpCounter  # noqa: E402
from colorindex.pipeline import DatabaseIndex  # noqa: E402
from workloads import ENUM_CAP, TASKS, make  # noqa: E402

PARTS = ("parse", "compile", "run")


def run(idx: DatabaseIndex, task: str, compiled, ops: OpCounter) -> None:
    if compiled.qhat is None:
        return  # rejected: serving raises the task's error here
    if task != "enum":
        evaluator.count_components(compiled.components, idx.cindex, ops)
        return
    plan = evaluator.prepare_components(compiled.components, len(compiled.qhat.head), idx.cindex, ops)
    for _ in map(compiled.decode, islice(evaluator.enumerate_prepared(plan), ENUM_CAP)):
        pass


def one_pass(text: str, stream: list[dict[str, list[str]]]) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Seconds per task and part, then the compile seconds and the number
    of the calls that missed the cache; and ops per task, over the whole
    stream, on a fresh index."""
    idx = DatabaseIndex.load_text(text)
    spent = {task: [0.0] * 5 for task in TASKS}
    counted = dict.fromkeys(TASKS, 0)
    clock = time.perf_counter
    gc.collect()
    for chunk in stream:
        for task in TASKS:
            parts = spent[task]
            for query_text in chunk[task]:
                ops = OpCounter()
                misses = idx.compile.cache_info().misses
                t0 = clock()
                q = textio.parse_query(query_text, idx.schema)
                t1 = clock()
                compiled = idx.compile(q)
                t2 = clock()
                run(idx, task, compiled, ops)
                t3 = clock()
                parts[0] += t1 - t0
                parts[1] += t2 - t1
                parts[2] += t3 - t2
                if idx.compile.cache_info().misses > misses:
                    parts[3] += t2 - t1
                    parts[4] += 1
                counted[task] += ops.n
    return spent, counted


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=7)
    a = p.parse_args(argv)
    wl = make(a.workload, a.seed)
    schema = textio.parse_schema(wl.schema_text)
    text = DatabaseIndex.build(textio.parse_database(wl.db_text, schema)).save_text()
    stream = wl.stream()
    passes = [one_pass(text, stream) for _ in range(max(a.passes, 1))]
    print(f"{a.workload} seed {a.seed}, best of {len(passes)} passes, us per call")
    print(f"{'task':6s} {'calls':>6s} " + " ".join(f"{x:>8s}" for x in PARTS)
          + f" {'total':>8s} {'miss':>8s} {'dp_ops':>8s}")
    for task in TASKS:
        calls = sum(len(chunk[task]) for chunk in stream)
        if not calls:
            continue
        best = min((s[task] for s, _ in passes), key=lambda s: sum(s[:3]))
        us = [t / calls * 1e6 for t in best[:3]]
        miss = f"{best[3] / best[4] * 1e6:8.1f}" if best[4] else f"{'-':>8s}"
        ops = passes[0][1][task] / calls
        print(f"{task:6s} {calls:6d} " + " ".join(f"{x:8.1f}" for x in us) + f" {sum(us):8.1f} {miss} {ops:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
