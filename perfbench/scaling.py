"""Reference scaling table (not a workload): the paper's build and
preprocessing costs as curves over doubling input sizes.

    python3 perfbench/scaling.py

Prints `refinement.refine` time on path, complete binary tree and cycle
graphs at doubling sizes (best of three), and the op count of
`evaluator.prepare` for fixed queries against |D_col| on growing paths and
random ternary databases.  A build in O((n+m) log n) shows as a time per
vertex that grows at most logarithmically; preprocessing in O(|Q|*|D_col|)
shows as a flat ops/|D_col| column.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from colorindex import evaluator, generators  # noqa: E402
from colorindex import index as cindex_mod  # noqa: E402
from colorindex.instrument import OpCounter  # noqa: E402
from colorindex.pipeline import DatabaseIndex  # noqa: E402
from colorindex.refinement import encode_loops, refine  # noqa: E402
from colorindex.textio import parse_query  # noqa: E402

FAMILIES = (
    ("path_db", generators.path_db, (500, 1000, 2000, 4000)),
    ("complete_binary_tree_db", generators.complete_binary_tree_db, (10, 11, 12, 13)),
    ("cycle_db", generators.cycle_db, (1000, 2000, 4000, 8000)),
)


def refine_table() -> None:
    print("| family | size | vertices | colors | refine_s | us per vertex |")
    print("|---|---|---|---|---|---|")
    for name, make, sizes in FAMILIES:
        for size in sizes:
            graph = encode_loops(make(size))
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                coloring = refine(graph)
                times.append(time.perf_counter() - t0)
            n = len(graph.vertices)
            print(f"| {name} | {size} | {n} | {coloring.num_colors} | {min(times):.4f} | "
                  f"{1e6 * min(times) / n:.2f} |", flush=True)


def prepare_table() -> None:
    print("| input | query | D_col | prepare_ops | ops per D_col tuple |")
    print("|---|---|---|---|---|")
    path_q = "Ans(x,y) :- E(x,y), E(y,z)."
    for n in (500, 1000, 2000, 4000):
        db = generators.path_db(n)
        ci = cindex_mod.build(db)
        _prepare_row(f"path_db({n})", path_q, parse_query(path_q, db.schema), ci)
    tern_q = "Ans(x) :- T(x,y,z), R(z,w)."
    for n in (4, 8, 16):
        db = generators.random_relational_db(generators.TERNARY_SCHEMA, n, 2 * n, seed=1)
        idx = DatabaseIndex.build(db)
        qhat = idx.translate(parse_query(tern_q, db.schema)).qhat
        _prepare_row(f"ternary n={n}", tern_q, qhat, idx.cindex)


def _prepare_row(label: str, text: str, q, ci) -> None:
    ops = OpCounter()
    evaluator.prepare(q, ci, ops)
    print(f"| {label} | `{text}` | {ci.d_col_size} | {ops.n} | {ops.n / ci.d_col_size:.2f} |", flush=True)


if __name__ == "__main__":
    refine_table()
    print()
    prepare_table()
