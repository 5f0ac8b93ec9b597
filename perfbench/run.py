"""Benchmark of colorindex: index build, load, and bool / count / enum serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]

Generates the workload's input from the seed and writes it as schema and
database text, builds and saves the index in fresh processes, loads it and
serves a closed-loop query stream (one caller, one query at a time) in
further fresh processes, checks every answer against values computed without
the index path, and prints one JSON line: `correct`, `attempted`, `failed`
and the metrics (`--trace 0`: end-to-end; `--trace 1`: per layer, from the
spans of a traced build and one traced round of the stream).

`--corrupt` alters one bool, one count and one enumerated answer after
serving, to show that the checks count those three operations as failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
TRACES = BENCH / "traces"
STARTED = time.monotonic()

# A run is SLICES slices, each a fresh build process then a fresh serving
# process given --seconds / SLICES.  This host slows down for seconds at a
# time, so samples are spread over the whole run.
SLICES = 5
SETUP_BUDGET_S = 1.2  # back-to-back setups per build process: two, more within this
RUN_LIMIT_S = 170  # every worker must have ended by then

END_TO_END = {
    "setup_s": "s", "load_s": "s", "index_mb": "MB", "build_rss_mb": "MB", "serve_rss_mb": "MB",
    "bool_per_s": "1/s", "count_per_s": "1/s", "enum_first_ms": "ms", "enum_answers_per_s": "1/s",
}
PER_LAYER = {
    "textio.parse_s": "s", "arb2bin.encode_s": "s", "arb2bin.tuples": "count",
    "bin2graph.encode_s": "s", "bin2graph.tuples": "count",
    "refinement.encode_loops_s": "s", "refinement.refine_s": "s",
    "refinement.vertices": "count", "refinement.colors": "count",
    "index.tables_s": "s", "index.dcol_tuples": "count", "pipeline.save_s": "s",
    "analysis.validate_ms": "ms", "pipeline.translate_ms": "ms", "pipeline.qhat_atoms": "count",
    "evaluator.bool_ms": "ms", "evaluator.bool_ops": "count",
    "evaluator.count_ms": "ms", "evaluator.count_ops": "count",
    "evaluator.prepare_ms": "ms", "evaluator.prepare_ops": "count",
    "evaluator.stream_answers_per_s": "1/s", "evaluator.steps_per_answer": "steps",
    "evaluator.max_step_gap": "steps", "pipeline.decode_ms": "ms",
    "engine.baseline_prepare_ms": "ms",
}


class BenchError(Exception):
    pass


def worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- checks -----------------------------------------------------------------------

class Checker:
    """Checks every recorded call against the workload's own expectations.

    An operation fails when it raised or returned a wrong result; a wrong
    result also makes the run incorrect."""

    def __init__(self, wl, cap: int):
        self.wl, self.cap = wl, cap
        self.by_text = wl.query_by_text()
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []
        self._expected: dict = {}
        self._digest: dict[str, str] = {}

    def _count(self, query) -> int:
        if query not in self._expected:
            self._expected[query] = self.wl.expected_count(query)
        return self._expected[query]

    def _answers_ok(self, query, rec: dict) -> bool:
        from workloads import answer_digest
        answers = [tuple(a) for a in rec["answers"]]
        n, expected = len(answers), self._count(query)
        if answer_digest(rec["answers"]) != rec["digest"] or len(set(answers)) != n or n > self.cap:
            return False
        if n < self.cap and n != min(expected, self.cap):
            return False  # an enumeration that ended by itself yields exactly the count
        if n == self.cap and expected < self.cap:
            return False
        full = self.wl.expected_answers(query)
        if full is not None and n == len(full):
            return set(answers) == full
        return all(self.wl.is_answer(query, a) for a in answers)

    def _wrong(self, query, text: str, task: str, rec: dict, counts: dict) -> bool:
        if task == "count":
            return rec["value"] != self._count(query)
        if task == "bool":
            headed = counts.get(query)
            if headed is not None and rec["value"] != (headed > 0):
                return True  # bool must equal (count of the same body > 0)
            return rec["value"] != (self._count(query) > 0)
        # the first call of a query in each process carries its answers; the
        # first such record passing the checks gives the digest for the rest
        if text not in self._digest and "answers" in rec:
            if not self._answers_ok(query, rec):
                return True
            self._digest[text] = rec["digest"]
        return self._digest.get(text) != rec["digest"]

    def check(self, records: list[dict], stream: list[dict]) -> None:
        from workloads import boolean
        counts = {}  # by body, as a Boolean query
        for rec in records:
            if rec["task"] == "count" and "value" in rec:
                q = self.by_text[stream[rec["r"] % len(stream)]["count"][rec["i"]]]
                counts[boolean(q)] = rec["value"]
        for rec in sorted(records, key=lambda r: "answers" not in r):
            self.attempted += 1
            task = rec["task"]
            text = stream[rec["r"] % len(stream)][task][rec["i"]]
            query = self.by_text[text]
            if "error" in rec:
                self.failed += 1
                self.problems.append(f"{task} {text}: {rec['error']}")
            elif self._wrong(query, text, task, rec, counts):
                self.failed += 1
                self.wrong += 1
                self.problems.append(f"{task} {text}: wrong result")


def corrupt(records: list[dict]) -> None:
    """Alters one bool, one count and one enumerated answer, keeping each
    record consistent with itself (the digest is recomputed), so that only
    the expectations computed without the index path can catch them."""
    from workloads import answer_digest
    rec = next(r for r in records if r["task"] == "bool" and "value" in r)
    rec["value"] = not rec["value"]
    rec = next(r for r in records if r["task"] == "count" and r.get("value", 0) > 0)
    rec["value"] += 1
    rec = next(r for r in records if r.get("answers"))
    rec["answers"][0] = ["corrupted_0_0"] * len(rec["answers"][0])
    rec["digest"] = answer_digest(rec["answers"])


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# --- metrics ----------------------------------------------------------------------

def _per_layer(spans: list[dict]) -> dict[str, float]:
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by.get(name, [])]

    def total(name: str) -> float:
        return sum(dur(name))

    def mean_ms(*names: str) -> float:
        ds = [d for n in names for d in dur(n)]
        return 1e3 * sum(ds) / len(ds) if ds else 0.0

    def count(name: str, key: str, agg=sum) -> float:
        vals = [s["counts"][key] for s in by.get(name, [])]
        return agg(vals) if vals else 0

    def mean_count(name: str, key: str) -> float:
        vals = [s["counts"][key] for s in by.get(name, [])]
        return sum(vals) / len(vals) if vals else 0

    enum = by.get("evaluator.enumerate_prepared", [])
    streamed = sum(s["counts"]["answers"] - 1 for s in enum if s["counts"]["answers"] > 1)
    after_first = sum(s["counts"]["after_first_s"] for s in enum if s["counts"]["answers"] > 1)
    answers = sum(s["counts"]["answers"] for s in enum)
    return {
        "textio.parse_s": total("textio.parse_database"),
        "arb2bin.encode_s": total("arb2bin.encode_db"),
        "arb2bin.tuples": count("arb2bin.encode_db", "tuples"),
        "bin2graph.encode_s": total("bin2graph.encode_db"),
        "bin2graph.tuples": count("bin2graph.encode_db", "tuples"),
        "refinement.encode_loops_s": total("refinement.encode_loops"),
        "refinement.refine_s": total("refinement.refine"),
        "refinement.vertices": count("refinement.encode_loops", "vertices"),
        "refinement.colors": count("refinement.refine", "colors"),
        "index.tables_s": total("index.build_from_coloring"),
        "index.dcol_tuples": count("index.build_from_coloring", "dcol_tuples"),
        "pipeline.save_s": total("pipeline.save"),
        "analysis.validate_ms": mean_ms("analysis.is_acyclic", "analysis.is_free_connex_acyclic"),
        "pipeline.translate_ms": mean_ms("pipeline.translate"),
        "pipeline.qhat_atoms": count("pipeline.translate", "qhat_atoms"),
        "evaluator.bool_ms": mean_ms("evaluator.eval_bool"),
        "evaluator.bool_ops": mean_count("evaluator.eval_bool", "ops"),
        "evaluator.count_ms": mean_ms("evaluator.count_answers"),
        "evaluator.count_ops": mean_count("evaluator.count_answers", "ops"),
        "evaluator.prepare_ms": mean_ms("evaluator.prepare"),
        "evaluator.prepare_ops": mean_count("evaluator.prepare", "ops"),
        "evaluator.stream_answers_per_s": streamed / after_first if after_first else 0.0,
        "evaluator.steps_per_answer": count("evaluator.enumerate_prepared", "steps") / answers if answers else 0.0,
        "evaluator.max_step_gap": count("evaluator.enumerate_prepared", "max_gap", max),
        "pipeline.decode_ms": mean_ms("pipeline.decode"),
        "engine.baseline_prepare_ms": mean_ms("engine.preprocess"),
    }


def _end_to_end(builds: list[dict], serves: list[dict], recs: list[dict], index_bytes: int) -> dict[str, float]:
    """Every time is a mean over the whole run: the host alternates between
    speeds, and a median or a best-of flips between them where a mean moves
    in proportion."""
    timed = [r for r in recs if "s" in r]  # a call that raised has no time

    def rate(task: str, work=lambda r: 1) -> float:
        calls = [r for r in timed if r["task"] == task]
        return sum(map(work, calls)) / sum(r["s"] for r in calls)

    return {
        "setup_s": statistics.fmean(t for b in builds for t in b["setup_s"]),
        "load_s": statistics.fmean(t for s in serves for t in s["load_s"]),
        "index_mb": index_bytes / 1e6,
        "build_rss_mb": statistics.median(b["rss_mb"] for b in builds),
        "serve_rss_mb": statistics.median(s["rss_mb"] for s in serves),
        "bool_per_s": rate("bool"),
        "count_per_s": rate("count"),
        "enum_first_ms": math.exp(statistics.fmean(math.log(r["first_ms"]) for r in timed if r["task"] == "enum")),
        "enum_answers_per_s": rate("enum", lambda r: r["n"]),
    }


# --- runs -------------------------------------------------------------------------

def run(a, wl, work: Path) -> dict:
    files = {"schema": work / "db.schema", "db": work / "db.txt", "stream": work / "stream.json"}
    files["schema"].write_text(wl.schema_text, encoding="utf-8")
    files["db"].write_text(wl.db_text, encoding="utf-8")
    stream = wl.stream()
    files["stream"].write_text(json.dumps({"rounds": stream, "repeats": wl.repeats}), encoding="utf-8")
    idx_path = work / "db.idx"
    common = ["--schema", str(files["schema"]), "--db", str(files["db"])]
    serve_args = ["--index", str(idx_path), "--stream", str(files["stream"])]
    from workloads import ENUM_CAP, TASKS
    checker = Checker(wl, ENUM_CAP)
    global_ok = True
    if a.trace:
        build = worker("trace-build", *common, "--out", str(idx_path))
        records = work / "records.jsonl"
        serve = worker("trace-serve", *serve_args, *common, "--records", str(records))
        recs = read_records(records)
        built = [build]
        global_ok &= build["same_index"]
        spans = {"build": build["spans"], "serve": serve["spans"]}
        metrics = {k: (v, PER_LAYER[k]) for k, v in _per_layer(build["spans"] + serve["spans"]).items()}
        setup = next(s for s in build["spans"] if s["name"] == "bench.setup")
        ms = {t: statistics.fmean(1e3 * (s["end"] - s["start"]) for s in serve["spans"]
                                  if s["name"] == "bench.query" and s["counts"]["task"] == t)
              for t in TASKS}
        print(f"traced: setup {setup['end'] - setup['start']:.3f} s, ms per call: "
              + ", ".join(f"{t} {v:.2f}" for t, v in ms.items()), file=sys.stderr)
        TRACES.mkdir(exist_ok=True)
        (TRACES / f"{wl.name}-seed{a.seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        built, serves, recs = [], [], []
        for i in range(SLICES):
            built.append(worker("build", *common, "--out", str(idx_path), "--budget", str(SETUP_BUDGET_S)))
            records = work / f"records{i}.jsonl"
            serves.append(worker("serve", *serve_args, "--records", str(records),
                                 "--seconds", str(a.seconds / SLICES)))
            recs += read_records(records)
        metrics = {k: (v, END_TO_END[k])
                   for k, v in _end_to_end(built, serves, recs, idx_path.stat().st_size).items()}
        ms = {t: 1e3 * statistics.fmean(r["s"] for r in recs if r["task"] == t and "s" in r) for t in TASKS}
        print(f"untraced: setup {metrics['setup_s'][0]:.3f} s, ms per call: "
              + ", ".join(f"{t} {v:.2f}" for t, v in ms.items())
              + f" ({sum(s['rounds'] for s in serves)} rounds in {SLICES} slices)", file=sys.stderr)
    if a.corrupt:
        corrupt(recs)
    checker.check(recs, stream)
    problem = wl.index_problem(built[0]["colors"])
    if problem or any(b["colors"] != built[0]["colors"] for b in built):
        global_ok = False
        checker.problems.append(f"index: {problem or 'color count differs between builds'}")
    for p in checker.problems[:10]:
        print("problem:", p, file=sys.stderr)
    return {
        "correct": global_ok and checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true", help="alter three results before checking")
    a = p.parse_args(argv)
    if not (SRC / "colorindex" / "__init__.py").is_file():
        print(f"run.py: no colorindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if a.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {a.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.make(a.workload, a.seed)
    work = WORK / f"{a.workload}-seed{a.seed}-trace{a.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(a, wl, work)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
