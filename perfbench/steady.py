"""Steadiness of the benchmark: run one workload N times with N seeds and
print, for each end-to-end metric, the median, the quartiles and the spread
(q3 - q1) as a share of the median, next to the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1]
    python3 perfbench/steady.py --host-noise

`--host-noise` times a fixed pure-Python loop 8 times in each of 8 fresh
processes and prints each process's best and worst time: the spread of the
host itself, which no benchmark setting can remove.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

NOISE_LOOP = """
import time
def loop():
    s = 0
    for i in range(3_000_000):
        s += i * i % 7
    return s
ts = []
for _ in range(8):
    t = time.perf_counter(); loop(); ts.append(time.perf_counter() - t)
print(min(ts), max(ts))
"""


def host_noise(procs: int = 8) -> None:
    best = []
    for _ in range(procs):
        out = subprocess.run([sys.executable, "-c", NOISE_LOOP], capture_output=True, text=True, check=True)
        lo, hi = map(float, out.stdout.split())
        best.append(lo)
        print(f"process best {lo:.3f} s  worst {hi:.3f} s  worst/best {hi / lo:.2f}")
    print(f"best over processes: {min(best):.3f}-{max(best):.3f} s, "
          f"median {statistics.median(best):.3f} s, spread {_spread(best):.3f}")


def _spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--host-noise", action="store_true")
    a = p.parse_args(argv)
    if a.host_noise:
        host_noise()
        return 0
    if not a.workload:
        p.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for seed in range(a.seed0, a.seed0 + a.runs):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(res["failed"] / res["attempted"])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, correct={res['correct']}, "
              f"attempted={res['attempted']}, failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\n{a.workload}: {a.runs} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1}, "
          f"failed share {sorted(set(shares))}")
    print("| metric | unit | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | "
              f"{bound} | {spread / bound:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
