import time

import pytest

from colorindex.cli import main
from colorindex.pipeline import DatabaseIndex

MOVIE_SCHEMA = "P/2\nA/2\nM/2\nS/2\n"
MOVIE_DB = """# movies and actors
P(PS,LM).
P(PS,MM).
A(LM,PS).
A(MM,PS).
M(LM,Dr.S).
M(MM,Dr.S).
S(LM,18m).
S(MM,34m).
"""
Q47 = "Ans(x,y1) :- A(x,y1), A(x,y2), P(y2,x).\n"


@pytest.fixture
def movie_files(tmp_path):
    schema = tmp_path / "movie.schema"
    db = tmp_path / "movie.db"
    query = tmp_path / "q.cq"
    out = tmp_path / "movie.idx"
    schema.write_text(MOVIE_SCHEMA)
    db.write_text(MOVIE_DB)
    query.write_text(Q47)
    return {"schema": schema, "db": db, "query": query, "idx": out}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_and_query_enum(movie_files, capsys):
    f = movie_files
    code, out, _ = run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    assert code == 0
    assert "|D|=8" in out
    code, out, _ = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "enum")
    assert code == 0
    assert out.splitlines() == ["LM,PS", "MM,PS", "EOE"]


def test_query_count_and_limit(movie_files, capsys):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    code, out, _ = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "count")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "enum", "--limit", "1"
    )
    assert code == 0
    assert out.splitlines() == ["LM,PS"]  # truncated: no EOE line


def test_query_negative_limit_is_a_usage_error(movie_files, capsys):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    for limit in ("-1", "-2"):
        code, out, err = run(
            capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "enum", "--limit", limit
        )
        assert code == 1 and not out
        assert f"argument --limit: must be 0 or more, not {limit}" in err
    code, out, _ = run(
        capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "enum", "--limit", "0"
    )
    assert code == 0 and not out  # truncated before the first answer: no EOE line


def test_query_bool_task(movie_files, tmp_path, capsys):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    qb = tmp_path / "qb.cq"
    qb.write_text("Ans() :- A(x,y1), A(x,y2), P(y2,x).\n")
    code, out, _ = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(qb), "--task", "bool")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(qb), "--task", "enum")
    assert code == 0 and out.splitlines() == ["()", "EOE"]  # the one empty answer


def test_bool_on_non_boolean_is_task_error(movie_files, capsys):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    code, _, err = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "bool")
    assert code == 3
    assert "task error" in err


def test_non_fc_query_is_task_error(movie_files, tmp_path, capsys):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    q = tmp_path / "nfc.cq"
    q.write_text("Ans(x,z) :- A(x,y), A(y,z).\n")
    code, _, err = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(q), "--task", "enum")
    assert code == 3


def test_malformed_db_is_data_error_with_line(movie_files, tmp_path, capsys):
    bad = tmp_path / "bad.db"
    bad.write_text("P(PS,LM).\nP(a,\n")
    code, _, err = run(
        capsys, "index", "--db", str(bad), "--schema", str(movie_files["schema"]), "--out", str(movie_files["idx"])
    )
    assert code == 2
    assert "line 2" in err


def test_forced_graph_stage_on_two_binary_relations_is_data_error(tmp_path, capsys):
    schema, db, out = tmp_path / "two.schema", tmp_path / "two.db", tmp_path / "two.idx"
    schema.write_text("R/2\nS/2\n")
    db.write_text("R(a,b).\nR(b,a).\nS(b,c).\n")
    code, _, err = run(capsys, "index", "--db", str(db), "--schema", str(schema), "--out", str(out),
                       "--stage", "graph")
    assert code == 2
    assert err.startswith("data error:")
    assert not out.exists()


def test_index_refuses_an_arity_above_the_bound(tmp_path, capsys):
    # arb2bin grows exponentially in the arity: one fact of arity 7 would
    # take gigabytes, so the schema is refused at once
    schema, db, out = tmp_path / "wide.schema", tmp_path / "wide.db", tmp_path / "wide.idx"
    schema.write_text("T/7\n")
    db.write_text("T(v0,v1,v2,v3,v4,v5,v6).\n")
    started = time.perf_counter()
    code, _, err = run(capsys, "index", "--db", str(db), "--schema", str(schema), "--out", str(out))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert err.startswith("data error:") and "T has arity 7" in err and "from 1 to 6" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["db", "schema", "query", "idx"])
def test_non_utf8_file_is_a_data_error(movie_files, tmp_path, capsys, kind):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]))
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    paths = {k: str(bad if k == kind else f[k]) for k in f}
    if kind in ("db", "schema"):
        argv = ["index", "--db", paths["db"], "--schema", paths["schema"], "--out", str(tmp_path / "x.idx")]
    else:
        argv = ["query", "--idx", paths["idx"], "--query", paths["query"], "--task", "count"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f"data error: {bad} is not UTF-8 text: invalid start byte at byte 0\n"


def test_bad_numbers_are_usage_errors(movie_files, capsys):
    q = movie_files["query"]
    for argv, message in [
        (["bench", "--family", "cycle", "--sizes", "3,abc", "--query", str(q)], "not a whole number: 'abc'"),
        (["bench", "--family", "cycle", "--sizes", "3,0", "--query", str(q)], "cycle needs sizes of 3 or more"),
        (["bench", "--family", "tree", "--sizes", "0", "--query", str(q)], "tree needs sizes of 1 or more"),
        (["check", "--schema", str(movie_files["schema"]), "--n", "-1"], "argument --n: must be 0 or more, not -1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and message in err
        assert "Traceback" not in err and not out


def test_usage_error_exit_code(capsys):
    assert run(capsys, "query", "--task", "enum")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_check_single_and_batch(movie_files, capsys):
    f = movie_files
    code, out, _ = run(
        capsys, "check", "--db", str(f["db"]), "--schema", str(f["schema"]), "--query", str(f["query"]), "--task", "all"
    )
    assert code == 0 and out.strip() == "PASS"
    code, out, _ = run(capsys, "check", "--schema", str(f["schema"]), "--n", "20", "--seed", "5")
    assert code == 0 and out.strip() == "PASS 20 instances seed=5"


def test_check_batch_deterministic(movie_files, capsys):
    f = movie_files
    _, out1, _ = run(capsys, "check", "--schema", str(f["schema"]), "--n", "10", "--seed", "9")
    _, out2, _ = run(capsys, "check", "--schema", str(f["schema"]), "--n", "10", "--seed", "9")
    assert out1 == out2


def test_bench_csv(tmp_path, capsys):
    q = tmp_path / "path3.cq"
    q.write_text("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).\n")
    code, out, _ = run(capsys, "bench", "--family", "cycle", "--sizes", "20,40", "--query", str(q))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,size,db_size,colors")
    assert len(lines) == 3
    assert lines[1].startswith("cycle,20,40,1,1,")


def test_bench_rejected_query_prints_nothing(tmp_path, capsys):
    # the header waits for the first row, so a query that fails the first
    # row's translation leaves stdout empty
    q = tmp_path / "triangle.cq"
    q.write_text("Ans() :- E(x,y), E(y,z), E(z,x).\n")
    code, out, err = run(capsys, "bench", "--family", "cycle", "--sizes", "3", "--query", str(q))
    assert (code, out) == (3, "") and err.startswith("task error:")


def test_bench_rejects_the_query_before_any_build(tmp_path, capsys, monkeypatch):
    # a cycle of 65,536 vertices is not built for a query that no size can
    # answer: the query is checked once, before the first size
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected query builds no index")

    monkeypatch.setattr(DatabaseIndex, "build", refuse)
    q = tmp_path / "triangle.cq"
    q.write_text("Ans() :- E(x,y), E(y,z), E(z,x).\n")
    code, out, err = run(capsys, "bench", "--family", "cycle", "--sizes", "65536", "--query", str(q))
    assert (code, out) == (3, "")
    assert err == "task error: translation requires a free-connex acyclic query\n"


def test_bench_refuses_a_size_past_the_family_bound(tmp_path, capsys):
    # a tree of height 30 has 2^31 - 1 nodes: refused before any is made
    q = tmp_path / "path3.cq"
    q.write_text("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).\n")
    code, out, err = run(capsys, "bench", "--family", "tree", "--sizes", "3,30", "--query", str(q))
    assert (code, out) == (1, "") and err == "bench: --family tree needs sizes of 1 or more, up to 16\n"


@pytest.mark.parametrize("family,text", [
    ("cycle", "Ans(x) :- T(x,y,z).\n"),
    ("random-relational", "Ans(x) :- E(x,y).\n"),
], ids=["cycle", "random-relational"])
def test_bench_query_off_the_family_schema_is_a_data_error(tmp_path, capsys, family, text):
    # the query is parsed once, against the family's schema, before the
    # header and the first build
    q = tmp_path / "q.cq"
    q.write_text(text)
    code, out, err = run(capsys, "bench", "--family", family, "--sizes", "3,4", "--query", str(q))
    assert (code, out) == (2, "") and err.startswith("data error: unknown relation symbol")


# arb2bin's nodes of the movie database: the source tuples, each under the
# relations that hold it, then the other projections at increasing positions
MOVIE_NODES = [
    "P\tPS LM", "P\tPS MM", "A\tLM PS", "A\tMM PS", "M\tLM Dr.S", "M\tMM Dr.S", "S\tLM 18m", "S\tMM 34m",
    "-\t", "-\tPS", "-\tLM", "-\tMM", "-\tDr.S", "-\t18m", "-\t34m",
]


def test_dump_maps_prints_the_node_maps_of_arb2bin(movie_files, capsys):
    # one `v` row per node: the value vertices of the saved and served
    # index, and no other rows
    f = movie_files
    code, out, _ = run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]),
                       "--stage", "full", "--dump-maps")
    assert code == 0
    expected = [f"v\t{node}\t{c}" for node, c in enumerate(MOVIE_NODES)]
    assert out.splitlines()[2:] == expected
    assert DatabaseIndex.load(str(f["idx"])).cindex.graph.vertices == tuple(range(len(expected)))


def test_dump_maps_names_every_relation_of_a_tuple_node(tmp_path, capsys):
    # one node stands for R(a,b) and S(a,b): its row names both
    schema, db = tmp_path / "rs.schema", tmp_path / "rs.db"
    schema.write_text("R/2\nS/2\n")
    db.write_text("S(a,b).\nR(a,b).\n")
    code, out, _ = run(capsys, "index", "--db", str(db), "--schema", str(schema), "--out", str(tmp_path / "rs.idx"),
                       "--stage", "full", "--dump-maps")
    assert code == 0
    assert [row for row in out.splitlines() if row.startswith("v\t0\t")] == ["v\t0\tR,S\ta b"]


def test_index_stats_on_cycle(tmp_path, capsys):
    schema = tmp_path / "graph.schema"
    schema.write_text("E/2\n")
    db = tmp_path / "c100.db"
    lines = []
    for i in range(100):
        a, b = f"v{i}", f"v{(i + 1) % 100}"
        lines += [f"E({a},{b}).", f"E({b},{a})."]
    db.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "index", "--db", str(db), "--schema", str(schema), "--out", str(tmp_path / "c.idx"))
    assert code == 0
    assert "|C|=1" in out and "|D|=200" in out
    # one color for 100 vertices, one color edge for 200 tuples
    assert "colors/|V|=0.01 |D_col|/|D|=0.005" in out


def test_check_reports_failure_with_witness(movie_files, capsys, monkeypatch):
    # simulate a broken engine: the baseline drops one answer tuple
    import colorindex.cli as cli_mod

    real_answers = cli_mod.engine.answers

    def broken(q, db, ops=None):
        result = real_answers(q, db, ops)
        if result:
            result = set(sorted(result)[1:])
        return result

    monkeypatch.setattr(cli_mod.engine, "answers", broken)
    f = movie_files
    code, out, _ = run(
        capsys, "check", "--db", str(f["db"]), "--schema", str(f["schema"]), "--query", str(f["query"]), "--task", "enum"
    )
    assert code == 2
    assert out.startswith("FAIL")
    assert "witness" in out


def test_query_results_match_after_reload(movie_files, capsys):
    f = movie_files
    run(capsys, "index", "--db", str(f["db"]), "--schema", str(f["schema"]), "--out", str(f["idx"]), "--stage", "full")
    code, out1, _ = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "enum")
    assert code == 0
    code, out2, _ = run(capsys, "query", "--idx", str(f["idx"]), "--query", str(f["query"]), "--task", "enum")
    assert out1 == out2


@pytest.mark.parametrize("buffered", [True, False])
def test_query_into_a_closed_pipe_exits_quietly(tmp_path, capsys, buffered):
    # `colorindex query --task enum ... | head -1`: the reader leaves after
    # one line, and the answers still pending fill more than a pipe buffer
    import os
    import subprocess
    import sys

    import colorindex

    schema = tmp_path / "graph.schema"
    schema.write_text("E/2\n")
    db = tmp_path / "c3000.db"
    lines = []
    for i in range(3000):
        a, b = f"v{i}", f"v{(i + 1) % 3000}"
        lines += [f"E({a},{b}).", f"E({b},{a})."]
    db.write_text("\n".join(lines) + "\n")
    query = tmp_path / "q.cq"
    query.write_text("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).\n")
    idx = tmp_path / "c.idx"
    assert run(capsys, "index", "--db", str(db), "--schema", str(schema), "--out", str(idx))[0] == 0

    src = os.path.dirname(os.path.dirname(colorindex.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"

    def query_cli(index, task):
        return subprocess.Popen(
            [sys.executable, "-m", "colorindex.cli", "query", "--idx", str(index), "--query", str(query),
             "--task", task], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    proc = query_cli(idx, "enum")
    assert proc.stdout.readline() == b"v0,v1,v0\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()

    # a reader gone before the one-line count is written
    proc = query_cli(idx, "count")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()

    # an unreadable index file is still a data error
    proc = query_cli(tmp_path / "missing.idx", "enum")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and out == b"" and b"data error" in err


def test_python_dash_m_runs_the_command_line():
    # `python -m colorindex` from a checkout, with only src on the path
    import os
    import subprocess
    import sys

    import colorindex

    src = os.path.dirname(os.path.dirname(colorindex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "colorindex", "--help"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: colorindex")


@pytest.mark.parametrize("body", ["R(x,y),, P(x)", "R(x,y), P(x),", ", R(x,y), P(x)", "R(x,y)P(x)"])
def test_query_with_bad_atom_separators_is_a_data_error(tmp_path, capsys, body):
    (tmp_path / "s").write_text("R/2\nP/1\n")
    (tmp_path / "d").write_text("R(a,b).\nP(a).\n")
    (tmp_path / "q").write_text(f"Ans(x) :- {body}.\n")
    assert run(capsys, "index", "--db", str(tmp_path / "d"), "--schema", str(tmp_path / "s"),
               "--out", str(tmp_path / "i"))[0] == 0
    code, out, err = run(capsys, "query", "--idx", str(tmp_path / "i"), "--query", str(tmp_path / "q"),
                         "--task", "count")
    assert code == 2 and out == "" and err.startswith("data error:")
    assert "exactly one comma" in err or "trailing junk" in err
