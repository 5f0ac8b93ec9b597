"""`perfbench/scaling.py` runs against the package as it is: its prepare
table has seven rows, and each stays within the paper's O(|Q| * |D_col|)
preprocessing bound at no more than 8 ops per color-database tuple (7.01 was
the largest when this test was written), and the path rows keep their op
counts, 4 per color-database tuple: a product with a graph-stage variable
that no unary or loop atom restricts is skipped, as on the typed stage."""
import importlib.util
from pathlib import Path

SCALING = Path(__file__).resolve().parent.parent / "perfbench" / "scaling.py"
OPS_PER_D_COL_TUPLE = 8


def test_scaling_prepare_table(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_scaling", SCALING)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    scaling.prepare_table()
    table = capsys.readouterr().out.splitlines()
    assert table[0].startswith("| input | query | D_col | prepare_ops |")
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table[2:]]
    assert len(rows) == 7
    for label, _, d_col, ops, _ in rows:
        assert int(ops) <= OPS_PER_D_COL_TUPLE * int(d_col), label
    # the graph-stage rows are the one-type case of the typed color edges
    assert [int(ops) for _, _, _, ops, _ in rows[:4]] == [1997, 3997, 7997, 15997]
