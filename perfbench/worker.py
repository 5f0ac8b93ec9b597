"""One benchmark process: build or serve an index, untraced or traced.

    python3 perfbench/worker.py build       --schema S --db D --out IDX --budget SEC
    python3 perfbench/worker.py serve       --index IDX --stream JSON --records OUT --seconds SEC
    python3 perfbench/worker.py trace-build --schema S --db D --out IDX
    python3 perfbench/worker.py trace-serve --index IDX --stream JSON --records OUT --schema S --db D

Each prints one JSON object as its last line.  `serve` asks the whole stream
once, then whole rounds until `--seconds` have passed, one query at a time.
It loads the index again whenever it has served ten load times since the
last load, so that load times are spread over the run, and before a stream
whose queries must not repeat starts over.  Every call is written to the
records file (its time, value, answer digest, and the answers of the first
call of each query in the process).
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from itertools import islice

from colorindex import arb2bin, bin2graph, engine, evaluator, textio
from colorindex import index as cindex_mod
from colorindex.analysis import is_acyclic, is_free_connex_acyclic
from colorindex.instrument import OpCounter
from colorindex.pipeline import DatabaseIndex, choose_stage
from colorindex.refinement import encode_loops, refine

from tracer import Tracer
from workloads import ENUM_CAP, TASKS, answer_digest

MIN_SETUPS, MAX_SETUPS = 2, 8
RELOAD_AFTER = 10  # serve this many load times between two loads: loads take about a tenth


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _peak_rss_mb() -> float:
    """Peak resident set of this process alone.  ru_maxrss is not: on Linux
    it keeps the peak of the parent that started this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _repeat(fn, least: int, budget: float) -> list[float]:
    """Back-to-back timings of fn: at least `least`, then more while the
    total stays under budget seconds."""
    times: list[float] = []
    while len(times) < least or (sum(times) < budget and len(times) < MAX_SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _emit(result: dict) -> None:
    print(json.dumps(result))


# --- untraced ---------------------------------------------------------------------

def cmd_build(a) -> None:
    info: dict = {}

    def setup() -> None:
        # the work of `colorindex index`: parse, build, save
        schema = textio.parse_schema(_read(a.schema))
        idx = DatabaseIndex.build(textio.parse_database(_read(a.db), schema))
        idx.save(a.out)
        ci = idx.cindex
        info.update(stage=idx.stage, vertices=len(ci.graph.vertices), colors=ci.colors,
                    dcol_tuples=ci.d_col_size)

    times = _repeat(setup, MIN_SETUPS, a.budget)
    _emit({"setup_s": times, "rss_mb": _peak_rss_mb(), **info})


def _ask_round(idx: DatabaseIndex, chunk: dict, r: int, enumerated: set[str], out) -> None:
    """Asks one round, one query at a time, and writes a record per call
    after its time has been taken."""
    for task in TASKS:
        for i, text in enumerate(chunk[task]):
            rec = {"r": r, "task": task, "i": i}
            try:
                t0 = time.perf_counter()
                q = textio.parse_query(text, idx.schema)
                if task == "bool":
                    rec["value"] = idx.eval_bool(q)
                elif task == "count":
                    rec["value"] = idx.count(q)
                else:
                    tq = time.perf_counter()
                    it = idx.enumerate(q)
                    first = next(it, None)
                    t_first = time.perf_counter()
                    got = [] if first is None else [first, *islice(it, ENUM_CAP - 1)]
                    it.close()
                t1 = time.perf_counter()
            except Exception as e:  # a failed operation is counted, not fatal
                rec["error"] = f"{type(e).__name__}: {e}"
                out.write(json.dumps(rec) + "\n")
                continue
            rec["s"] = t1 - t0
            if task == "enum":
                answers = [list(idx.display_tuple(t)) for t in got]
                rec.update(first_ms=(t_first - tq) * 1e3, n=len(answers), digest=answer_digest(answers))
                if text not in enumerated:
                    rec["answers"] = answers
                    enumerated.add(text)
            out.write(json.dumps(rec) + "\n")


def cmd_serve(a) -> None:
    loaded: list[DatabaseIndex] = []
    load_times: list[float] = []

    def load() -> None:
        loaded.clear()  # one index in memory at a time
        gc.collect()
        t0 = time.perf_counter()
        loaded.append(DatabaseIndex.load(a.index))
        load_times.append(time.perf_counter() - t0)

    with open(a.stream, encoding="utf-8") as fh:
        spec = json.load(fh)
    stream, repeats = spec["rounds"], spec["repeats"]
    r = 0
    enumerated: set[str] = set()
    start = time.perf_counter()
    load()
    last_load = time.perf_counter()
    with open(a.records, "w", encoding="utf-8") as out:
        # the whole stream at least once, then whole rounds while time is left
        while r < len(stream) or time.perf_counter() - start < a.seconds:
            # loads are timed throughout the run, not only at its start; a
            # query text is never asked twice of one loaded index
            if (time.perf_counter() - last_load > RELOAD_AFTER * load_times[-1]
                    or (r % len(stream) == 0 and r and not repeats)):
                load()
                last_load = time.perf_counter()
            _ask_round(loaded[0], stream[r % len(stream)], r, enumerated, out)
            r += 1
    _emit({"load_s": load_times, "rss_mb": _peak_rss_mb(), "rounds": r})


# --- traced -----------------------------------------------------------------------

def _same_index(a: DatabaseIndex, b: DatabaseIndex) -> bool:
    return (a.stage == b.stage
            and a.cindex.coloring.classes == b.cindex.coloring.classes
            and a.cindex.d_col.relations == b.cindex.d_col.relations)


def cmd_trace_build(a) -> None:
    """The stages of DatabaseIndex.build, called one by one in its order."""
    tr = Tracer()
    with tr.span("bench.setup"):
        with tr.span("textio.parse_database") as c:
            schema = textio.parse_schema(_read(a.schema))
            db = textio.parse_database(_read(a.db), schema)
            c["tuples"] = db.size
        stage = tr.call("pipeline.choose_stage", choose_stage, db)
        extra: dict = {}
        gdb = db
        if stage == "full":
            with tr.span("arb2bin.encode_db") as c:
                benc = arb2bin.encode_db(db)
                c["tuples"] = benc.db2.size
            extra.update(node_proj=benc.node_proj, node_tuple=benc.node_tuple)
            gdb = benc.db2
        if stage in ("binary", "full"):
            with tr.span("bin2graph.encode_db") as c:
                genc = bin2graph.encode_db(gdb)
                c["tuples"] = genc.dhat.size
            extra.update(vmap=genc.vmap, gadget_node=genc.gadget_node)
            gdb = genc.dhat
        with tr.span("refinement.encode_loops") as c:
            graph = encode_loops(gdb)
            c["vertices"] = len(graph.vertices)
        with tr.span("refinement.refine") as c:
            coloring = refine(graph)
            c["colors"] = coloring.num_colors
        with tr.span("index.build_from_coloring") as c:
            ci = cindex_mod.build_from_coloring(graph, coloring, source_size=gdb.size)
            c["dcol_tuples"] = ci.d_col_size
        idx = DatabaseIndex(db.schema, db.pool, stage, ci, db.size, **extra)
        tr.call("pipeline.save", idx.save, a.out)
    same = _same_index(idx, DatabaseIndex.build(db))
    _emit({"spans": tr.spans, "same_index": same, "stage": stage, "colors": ci.colors})


def _traced_enum(tr: Tracer, idx: DatabaseIndex, tl, rec: dict) -> None:
    with tr.span("evaluator.prepare") as c:
        ops = OpCounter()
        plan = evaluator.prepare(tl.qhat, idx.cindex, ops)
        c["ops"] = ops.n
    steps = OpCounter()
    raw: list[tuple[int, ...]] = []
    with tr.span("evaluator.enumerate_prepared") as c:
        gen = evaluator.enumerate_prepared(plan, steps)
        last = max_gap = 0
        t_first = None
        for t in gen:
            max_gap = max(max_gap, steps.n - last)
            last = steps.n
            raw.append(t)
            if t_first is None:
                t_first = time.perf_counter()
            if len(raw) == ENUM_CAP:
                break
        else:
            max_gap = max(max_gap, steps.n - last)
        gen.close()
        t_end = time.perf_counter()
        c.update(answers=len(raw), steps=steps.n, max_gap=max_gap,
                 after_first_s=(t_end - t_first) if t_first is not None else 0.0)
    with tr.span("pipeline.decode") as c:
        decoded = [tl.decode(t) for t in raw]
    answers = [list(idx.display_tuple(t)) for t in decoded]
    rec.update(n=len(answers), digest=answer_digest(answers), answers=answers)


def cmd_trace_serve(a) -> None:
    """Round 0 of the stream, each query split into its layer calls."""
    tr = Tracer()
    idx = tr.call("pipeline.load", DatabaseIndex.load, a.index)
    with open(a.stream, encoding="utf-8") as fh:
        chunk = json.load(fh)["rounds"][0]
    with open(a.records, "w", encoding="utf-8") as out:
        for task in TASKS:
            for i, text in enumerate(chunk[task]):
                rec = {"r": 0, "task": task, "i": i}
                try:
                    with tr.span("bench.query", task=task):
                        q = tr.call("textio.parse_query", textio.parse_query, text, idx.schema)
                        check = is_acyclic if task == "bool" else is_free_connex_acyclic
                        if not tr.call(f"analysis.{check.__name__}", check, q):
                            raise ValueError("query rejected by validation")
                        with tr.span("pipeline.translate") as c:
                            tl = idx.translate(q)
                            c["qhat_atoms"] = len(tl.qhat.atoms)
                        ops = OpCounter()
                        if task == "bool":
                            with tr.span("evaluator.eval_bool") as c:
                                rec["value"] = evaluator.eval_bool(tl.qhat, idx.cindex, ops)
                                c["ops"] = ops.n
                        elif task == "count":
                            with tr.span("evaluator.count_answers") as c:
                                rec["value"] = evaluator.count_answers(tl.qhat, idx.cindex, ops)
                                c["ops"] = ops.n
                        else:
                            _traced_enum(tr, idx, tl, rec)
                except Exception as e:  # a failed operation is counted, not fatal
                    rec["error"] = f"{type(e).__name__}: {e}"
                out.write(json.dumps(rec) + "\n")
    # the unindexed control: the baseline engine on the source database
    schema = textio.parse_schema(_read(a.schema))
    db = textio.parse_database(_read(a.db), schema)
    for text in chunk["count"]:
        q = textio.parse_query(text, schema)
        ops = OpCounter()
        with tr.span("engine.preprocess") as c:
            engine.preprocess(q, db, ops)
            c["ops"] = ops.n
    _emit({"spans": tr.spans})


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("cmd", choices=("build", "serve", "trace-build", "trace-serve"))
    p.add_argument("--schema")
    p.add_argument("--db")
    p.add_argument("--out")
    p.add_argument("--index")
    p.add_argument("--stream")
    p.add_argument("--records")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--budget", type=float, default=1.0, help="seconds of repeated setups")
    a = p.parse_args(argv)
    {"build": cmd_build, "serve": cmd_serve, "trace-build": cmd_trace_build,
     "trace-serve": cmd_trace_serve}[a.cmd](a)


if __name__ == "__main__":
    sys.exit(main())
