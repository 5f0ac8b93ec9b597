"""Operator surface: build and persist indexes, run queries under the three
tasks, cross-check the indexed path against the baseline engine and the
brute-force oracle, and emit size / preprocessing benchmarks.

Exit codes: 0 ok, 1 usage, 2 data error (including a failed check), 3 task
error.  A reader that closes stdout early, as `head` does, cuts the output of
`query` the way `--limit` does, with exit code 0.
"""
from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
import time
from contextlib import closing

from . import analysis, engine, evaluator, generators, oracle
from .errors import (
    BudgetExceeded,
    ColorIndexError,
    NotAcyclic,
    NotFreeConnex,
    ParseError,
    TaskMismatch,
)
from .instrument import OpCounter
from .model import ConjunctiveQuery, Database
from .pipeline import TASKS, DatabaseIndex
from .textio import parse_database, parse_query, parse_schema, read_text

USAGE_ERROR, DATA_ERROR, TASK_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_db(db_path: str, schema_path: str) -> Database:
    schema = parse_schema(read_text(schema_path))
    return parse_database(read_text(db_path), schema)


def cmd_index(args) -> int:
    db = _load_db(args.db, args.schema)
    idx = DatabaseIndex.build(db, stage=args.stage)
    idx.save(args.out)
    ci = idx.cindex
    # the compression: colors per vertex of the indexed graph, color-database
    # tuples per input tuple (above 1, the index is larger than the data).  A
    # typed index counts as bin2graph's gadget graph of its values: |V| its
    # values and entries, |C| its value and edge colors
    dcol_ratio = ci.d_col_size / db.size if db.size else 0.0
    print(
        f"stage={idx.stage} |D|={db.size} |D_L|={ci.labeled_size} |V|={ci.vertex_count} "
        f"|C|={ci.colors} |D_col|={ci.d_col_size} "
        f"colors/|V|={ci.color_ratio:.3g} |D_col|/|D|={dcol_ratio:.3g}"
    )
    if ci.edges is not None:
        entries = ci.vertex_count - len(ci.graph.vertices)
        print(f"typed index: |V| = {len(ci.graph.vertices)} values + {entries} entries, "
              f"|C| = {ci.coloring.num_colors} value + {len(ci.edges.rev)} edge colors, "
              f"|D_L| = entries + value labels, |D_col| = label facts + (c, e, c') facts")
    if args.dump_maps:
        # a node is its value tuple: the node of a source tuple stands for
        # every relation that holds it
        holders: dict[tuple[int, ...], list[str]] = {}
        for name in db.schema.names:
            for t in db.rel(name):
                holders.setdefault(t, []).append(name)
        for node, p in sorted(idx.node_proj.items()):
            print(f"v\t{node}\t{','.join(holders.get(p, ['-']))}\t{' '.join(db.display(c) for c in p)}")
    return 0


def cmd_query(args) -> int:
    idx = DatabaseIndex.load(args.idx)
    q = parse_query(read_text(args.query), idx.schema)
    try:
        if args.task == "bool":
            print("yes" if idx.eval_bool(q) else "no")
        elif args.task == "count":
            print(idx.count(q))
        else:
            with closing(idx.enumerate(q)) as stream:
                for t in itertools.islice(stream, args.limit):
                    print(",".join(idx.display_tuple(t)) or "()")
                if next(stream, None) is None:  # answers are tuples, never None
                    print("EOE")  # not when --limit cut the stream
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the output is cut as by --limit, and
        # what is still buffered goes to the null device at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _check_once(db: Database, q: ConjunctiveQuery, task: str) -> tuple[bool, str]:
    """Compare indexed path, baseline engine, and oracle; on disagreement
    return the smallest witness tuple in the symmetric difference."""
    idx = DatabaseIndex.build(db)
    orc = oracle.brute_answers(q, db)
    expected = set(orc.answers.tuples)
    if task in ("enum", "all"):
        got = list(idx.enumerate(q))
        if len(got) != len(set(got)):
            dup = next(t for t in got if got.count(t) > 1)
            return False, f"enum emitted duplicate {dup}"
        baseline = engine.answers(q, db)
        for name, result in (("indexed", set(got)), ("baseline", baseline)):
            if result != expected:
                witness = min(result.symmetric_difference(expected))
                side = "extra" if witness in result else "missing"
                return False, f"{name} enum {side} witness {witness}"
    if task in ("count", "all"):
        got_n = idx.count(q)
        if got_n != len(expected):
            return False, f"indexed count {got_n} != oracle {len(expected)}"
    if task in ("bool", "all") and q.is_boolean():
        got_b = idx.eval_bool(q)
        base_b = engine.bool_eval(q, db)
        orc_b = bool(expected)
        if not (got_b == base_b == orc_b):
            return False, f"bool disagreement indexed={got_b} baseline={base_b} oracle={orc_b}"
    return True, ""


def cmd_check(args) -> int:
    schema = parse_schema(read_text(args.schema))
    if args.n is None:
        if not args.db or not args.query:
            print("check: --db and --query are required without --n", file=sys.stderr)
            return USAGE_ERROR
        db = parse_database(read_text(args.db), schema)
        q = parse_query(read_text(args.query), schema)
        ok, diff = _check_once(db, q, args.task)
        print("PASS" if ok else f"FAIL {diff}")
        return 0 if ok else DATA_ERROR
    rng = random.Random(args.seed)
    for i in range(args.n):
        db = generators.random_relational_db(
            schema,
            n_constants=rng.randint(2, 6),
            n_tuples=rng.randint(1, 5),
            seed=rng.randrange(10**9),
        )
        q = generators.random_fc_query(schema, rng)
        ok, diff = _check_once(db, q, args.task)
        if not ok:
            print(f"FAIL instance={i} seed={args.seed} {diff}")
            return DATA_ERROR
    print(f"PASS {args.n} instances seed={args.seed}")
    return 0


# family -> its smallest and largest size, its schema, and its database of a
# size and a seed.  A row of the largest size peaks at about 250 MB.
_FAMILIES = {
    "cycle": (3, 2**17, generators.GRAPH_SCHEMA, lambda n, seed: generators.cycle_db(n)),
    "tree": (1, 16, generators.GRAPH_SCHEMA, lambda n, seed: generators.complete_binary_tree_db(n)),
    "star": (1, 2**17, generators.GRAPH_SCHEMA, lambda n, seed: generators.star_db(n)),
    "random-graph": (1, 800, generators.GRAPH_SCHEMA,
                     lambda n, seed: generators.random_graph_db(n, p=0.5, seed=seed)),
    "random-relational": (1, 500, generators.TERNARY_SCHEMA, lambda n, seed: generators.random_relational_db(
        generators.TERNARY_SCHEMA, n_constants=n, n_tuples=2 * n, seed=seed)),
}


def cmd_bench(args) -> int:
    least, most, schema, family_db = _FAMILIES[args.family]
    if min(args.sizes) < least or max(args.sizes) > most:
        print(f"bench: --family {args.family} needs sizes of {least} or more, up to {most}", file=sys.stderr)
        return USAGE_ERROR
    q = parse_query(read_text(args.query), schema)
    if not analysis.is_free_connex_acyclic(q):  # before any size is built
        raise NotFreeConnex("translation requires a free-connex acyclic query")
    header = ("family,size,db_size,colors,dcol_size,ratio,index_ms,"
              "indexed_pre_ops,baseline_pre_ops,indexed_ms,baseline_ms")
    for size in args.sizes:
        db = family_db(size, args.seed)
        t0 = time.perf_counter()
        idx = DatabaseIndex.build(db)
        t1 = time.perf_counter()
        tr = idx.translate(q)
        ops_i = OpCounter()
        t2 = time.perf_counter()
        evaluator.prepare(tr.qhat, idx.cindex, ops_i)
        t3 = time.perf_counter()
        ops_b = OpCounter()
        engine.preprocess(q, db, ops_b)
        t4 = time.perf_counter()
        ratio = idx.cindex.d_col_size / db.size if db.size else 0.0
        if header:  # once the first row is ready: a rejected query prints nothing
            print(header)
            header = ""
        print(
            f"{args.family},{size},{db.size},{idx.cindex.colors},{idx.cindex.d_col_size},"
            f"{ratio:.4f},{(t1 - t0) * 1000:.1f},{ops_i.n},{ops_b.n},"
            f"{(t3 - t2) * 1000:.2f},{(t4 - t3) * 1000:.2f}"
        )
    return 0


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def build_parser() -> _Parser:
    p = _Parser(prog="colorindex", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("index", help="build and persist an index")
    pi.add_argument("--db", required=True)
    pi.add_argument("--schema", required=True)
    pi.add_argument("--out", required=True)
    pi.add_argument("--stage", default="auto", choices=("auto", "graph", "binary", "full"))
    pi.add_argument("--dump-maps", action="store_true",
                    help="print arb2bin's node map of a full-stage index: `v node relations constants` "
                         "per node, the relations that hold its tuple comma-joined in schema order "
                         "or `-` for none")
    pi.set_defaults(func=cmd_index)

    pq = sub.add_parser("query", help="answer a query against a persisted index")
    pq.add_argument("--idx", required=True)
    pq.add_argument("--query", required=True)
    pq.add_argument("--task", required=True, choices=TASKS)
    pq.add_argument("--limit", type=_count, default=None, help="print at most this many answers")
    pq.set_defaults(func=cmd_query)

    pc = sub.add_parser("check", help="cross-check indexed path, baseline, and oracle")
    pc.add_argument("--db")
    pc.add_argument("--schema", required=True)
    pc.add_argument("--query")
    pc.add_argument("--task", default="all", choices=TASKS + ("all",))
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--n", type=_count, default=None, help="number of random instances")
    pc.set_defaults(func=cmd_check)

    pb = sub.add_parser("bench", help="size and preprocessing-cost table (CSV)")
    pb.add_argument("--family", required=True, choices=_FAMILIES)
    pb.add_argument("--sizes", required=True, type=lambda text: [_count(s) for s in text.split(",")], help="comma-separated sizes")
    pb.add_argument("--query", required=True)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    except (TaskMismatch, NotFreeConnex, NotAcyclic) as e:
        print(f"task error: {e}", file=sys.stderr)
        return TASK_ERROR
    except (ParseError, BudgetExceeded, ColorIndexError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return DATA_ERROR
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
