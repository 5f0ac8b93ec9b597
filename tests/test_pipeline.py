import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings

from colorindex import engine, pipeline
from colorindex.errors import (
    ArityMismatch, AsymmetricEdgeRelation, NotAcyclic, NotFreeConnex, TaskMismatch, UnknownSymbol,
)
from colorindex.generators import (
    BINARY_SCHEMA,
    TERNARY_SCHEMA,
    cycle_db,
    random_fc_query,
    random_graph_db,
    random_relational_db,
)
from colorindex.instrument import OpCounter
from colorindex.model import Schema, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.pipeline import COMPILED_LIMIT, DatabaseIndex, choose_stage
from colorindex.textio import parse_query

from conftest import displayed
from test_evaluator import instances


def test_stage_selection():
    assert choose_stage(cycle_db(4)) == "graph"
    asym = validate_database(Schema.of(("E", 2)), {"E": [("a", "b")]})
    assert choose_stage(asym) == "binary"
    tern = random_relational_db(TERNARY_SCHEMA, 3, 2, seed=1)
    assert choose_stage(tern) == "full"


def test_automatic_build_checks_symmetry_once(monkeypatch):
    # choose_stage and encode_loops share the check; a build makes it once
    from colorindex import refinement

    calls = []

    def counted(vertices, adj):
        calls.append(len(vertices))
        return real(vertices, adj)

    real = refinement.asymmetric_vertex
    monkeypatch.setattr(refinement, "asymmetric_vertex", counted)
    monkeypatch.setattr(pipeline, "asymmetric_vertex", counted)
    asym = validate_database(Schema.of(("E", 2)), {"E": [("a", "b")]})
    # vertices checked: the cycle's 5; the 2 of asym, whose binary-stage
    # build refines its values and makes no gadget graph to check
    for db, stage, checked in ((cycle_db(5), "graph", [5]), (asym, "binary", [2])):
        calls.clear()
        assert DatabaseIndex.build(db).stage == stage and calls == checked


def test_forced_graph_on_asymmetric_rejected():
    asym = validate_database(Schema.of(("E", 2)), {"E": [("a", "b")]})
    with pytest.raises(AsymmetricEdgeRelation):
        DatabaseIndex.build(asym, stage="graph")


def test_asymmetric_edge_routed_through_reduction():
    db = validate_database(Schema.of(("E", 2)), {"E": [("a", "b")]})
    idx = DatabaseIndex.build(db)
    assert idx.stage == "binary"
    q = parse_query("Ans(x,y) :- E(x,y).", db.schema)
    assert displayed(db, idx.enumerate(q)) == [("a", "b")]


def test_movie_full_pipeline(movie_db, movie_query, movie_schema):
    idx = DatabaseIndex.build(movie_db, stage="full")
    got = displayed(movie_db, idx.enumerate(movie_query))
    assert got == [("LM", "PS"), ("MM", "PS")]
    assert idx.count(movie_query) == 2
    qb = parse_query("Ans() :- A(x,y1), A(x,y2), P(y2,x).", movie_schema)
    assert idx.eval_bool(qb)


def test_auto_stage_build_serves_movie(movie_db, movie_query):
    idx = DatabaseIndex.build(movie_db)
    got = set(idx.enumerate(movie_query))
    assert got == set(brute_answers(movie_query, movie_db).answers.tuples)
    assert idx.count(movie_query) == 2


@pytest.mark.parametrize("schema,raw,text", [
    # a constant named like the gadget node of the pair (a, b)
    (Schema.of(("R", 2), ("S", 2)), {"R": [("a", "b")], "S": [("w(a,b)", "c")]}, "Ans(x,y) :- R(x,y)."),
    # the projection (a, b) of one tuple and the constant "a,b" of another,
    # in both tuple orders
    (Schema.of(("T", 3)), {"T": [("a", "b", "z"), ("a,b", "x", "y")]}, "Ans(x) :- T(x,y,z)."),
    (Schema.of(("T", 3)), {"T": [("a,b", "x", "y"), ("a", "b", "z")]}, "Ans(x) :- T(x,y,z)."),
], ids=["gadget-name", "projection-name", "projection-name-first"])
def test_reduction_nodes_do_not_collide_by_name(schema, raw, text):
    db = validate_database(schema, raw)
    idx = DatabaseIndex.build(db)
    assert idx.stage == ("binary" if schema.is_binary() else "full")
    q = parse_query(text, schema)
    expected = brute_answers(q, db).answers.tuples
    got = list(idx.enumerate(q))
    assert len(got) == len(set(got)) == idx.count(q) == len(expected)
    assert set(got) == expected


def test_bool_task_mismatch(movie_db, movie_query):
    idx = DatabaseIndex.build(movie_db)
    with pytest.raises(TaskMismatch):
        idx.eval_bool(movie_query)


def test_enum_rejects_non_fc(movie_db, movie_schema):
    idx = DatabaseIndex.build(movie_db)
    q = parse_query("Ans(x,z) :- A(x,y), A(y,z).", movie_schema)
    with pytest.raises(NotFreeConnex):
        list(idx.enumerate(q))


def _stage_inputs(stage):
    """Binary data for the binary and full stages, and graph data with
    labels and loops for all three, each with a random fc-ACQ."""
    rng, graph_rng = random.Random(61), random.Random(63)
    for _ in range(25):
        db = random_relational_db(BINARY_SCHEMA, rng.randint(2, 5), rng.randint(1, 5), seed=rng.randrange(10**9))
        q = random_fc_query(BINARY_SCHEMA, rng)
        if stage != "graph":
            yield db, q
        graph = random_graph_db(graph_rng.randint(2, 6), graph_rng.random(), graph_rng.randrange(10**9),
                                num_labels=graph_rng.randint(1, 2), loop_p=0.4)
        yield graph, random_fc_query(graph.schema, graph_rng)


@pytest.mark.parametrize("stage", ["graph", "binary", "full"])
def test_stages_agree_on_binary_data(stage):
    # every stage serves the oracle's answers from an index that was saved
    # and loaded first
    for db, q in _stage_inputs(stage):
        idx = DatabaseIndex.load_text(DatabaseIndex.build(db, stage=stage).save_text())
        assert idx.stage == stage
        expected = brute_answers(q, db).answers.tuples
        got = list(idx.enumerate(q))
        assert len(got) == len(set(got)) and set(got) == set(expected)
        assert idx.count(q) == len(expected)
        if q.is_boolean():
            assert idx.eval_bool(q) == bool(expected)


def test_ternary_pipeline_all_tasks():
    rng = random.Random(62)
    for _ in range(40):
        db = random_relational_db(TERNARY_SCHEMA, rng.randint(2, 5), rng.randint(1, 4), seed=rng.randrange(10**9))
        q = random_fc_query(TERNARY_SCHEMA, rng)
        idx = DatabaseIndex.build(db)
        expected = brute_answers(q, db)
        got = list(idx.enumerate(q))
        assert len(got) == len(set(got))
        assert set(got) == set(expected.answers.tuples)
        assert idx.count(q) == len(expected.answers)
        if q.is_boolean():
            assert idx.eval_bool(q) == bool(expected.answers.tuples)


@pytest.mark.parametrize("shape", ["path", "star", "free"])
def test_large_query_compiles_in_linear_time(shape):
    # an uncached full-stage compile of a 2,000-atom query takes about 0.1 s
    # (its front end is linear in |Q|); a cubic join tree took minutes.  On
    # this data a walk of 2,000 steps starts at each of a-d but not at e or
    # f, and the star's centre is any of a-e.  The free shape splits a free
    # node that no atom covers into 6,400 pieces, one per atom, whose first
    # variables each take any of a-e.
    schema = Schema.of(("T", 3))
    db = validate_database(schema, {"T": [("a", "b", "c"), ("b", "c", "a"), ("c", "c", "b"),
                                          ("d", "a", "a"), ("e", "f", "a")]})
    idx = DatabaseIndex.build(db, stage="full")
    n = 2000
    if shape == "path":
        text = "Ans(x0) :- " + ", ".join(f"T(x{i},x{i + 1},y{i})" for i in range(n)) + "."
        expected = 4
    elif shape == "star":
        text = "Ans(c) :- " + ", ".join(f"T(c,a{i},b{i})" for i in range(n)) + "."
        expected = 5
    else:
        n = 6400
        head = ",".join(f"x{i}" for i in range(n))
        text = f"Ans({head}) :- " + ", ".join(f"T(x{i},y{i},z{i})" for i in range(n)) + "."
        expected = 5**n
    q = parse_query(text, schema)
    start = time.perf_counter()
    idx.compile(q)
    assert time.perf_counter() - start < 2.0
    assert idx.count(q) == expected
    if shape != "free":  # the engine lists all 5**6400 answers of the free shape
        assert expected == len(engine.answers(q, db))


def test_save_load_round_trip_graph(tmp_path):
    idx = DatabaseIndex.build(cycle_db(10))
    path = tmp_path / "cycle.idx"
    idx.save(str(path))
    idx2 = DatabaseIndex.load(str(path))
    assert idx2.save_text() == idx.save_text()
    q = parse_query("Ans(x,y) :- E(x,y).", idx.schema)
    assert list(idx.enumerate(q)) == list(idx2.enumerate(q))


def test_save_load_round_trip_full(tmp_path, movie_db, movie_query):
    idx = DatabaseIndex.build(movie_db, stage="full")
    path = tmp_path / "movie.idx"
    idx.save(str(path))
    idx2 = DatabaseIndex.load(str(path))
    assert idx2.save_text() == idx.save_text()
    assert list(idx.enumerate(movie_query)) == list(idx2.enumerate(movie_query))
    assert idx2.count(movie_query) == 2


def test_graph_with_labels_and_loops_direct():
    rng = random.Random(63)
    for _ in range(30):
        db = random_graph_db(
            rng.randint(2, 7), rng.random() * 0.7, seed=rng.randrange(10**9),
            num_labels=rng.randint(0, 2), loop_p=0.35,
        )
        idx = DatabaseIndex.build(db)
        assert idx.stage == "graph"
        q = random_fc_query(db.schema, rng)
        expected = brute_answers(q, db)
        assert set(idx.enumerate(q)) == set(expected.answers.tuples)
        assert idx.count(q) == len(expected.answers)


# --- compiled queries ---------------------------------------------------------

def boolean(q):
    return cq([], [(a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])


def stage_index(stage):
    """A small index of each stage, and a query text that fits its schema."""
    if stage == "graph":
        return DatabaseIndex.build(cycle_db(6)), "Ans(x) :- E(x,y), E(y,z)."
    if stage == "binary":
        return DatabaseIndex.build(random_relational_db(BINARY_SCHEMA, 5, 8, seed=2)), "Ans(x) :- R(x,y), S(y,z)."
    return DatabaseIndex.build(random_relational_db(TERNARY_SCHEMA, 4, 8, seed=1)), "Ans(x) :- T(x,y,z), R(z,w)."


@pytest.mark.parametrize("stage", ["graph", "binary", "full"])
def test_second_call_reruns_the_dynamic_program(stage):
    idx, text = stage_index(stage)
    assert idx.stage == stage
    q = parse_query(text, idx.schema)
    tasks = {
        "bool": lambda ops: idx.eval_bool(boolean(q), ops),
        "count": lambda ops: idx.count(q, ops),
        "enum": lambda ops: sorted(idx.enumerate(q, ops)),  # ops counts the preprocessing
    }
    for task, run in tasks.items():
        first, second = OpCounter(), OpCounter()
        assert run(first) == run(second), task
        assert first.n == second.n > 0, task
    assert idx.compile.cache_info().currsize == 2


def test_compiled_map_keeps_the_newest_up_to_its_limit():
    idx = DatabaseIndex.build(cycle_db(6))
    queries = [cq(["x"], [("E", ["x", f"y{i}"])]) for i in range(COMPILED_LIMIT + 10)]
    for q in queries:
        assert idx.count(q) == 6
        assert idx.compile.cache_info().currsize <= COMPILED_LIMIT
    misses = idx.compile.cache_info().misses
    for q in queries[-COMPILED_LIMIT:]:
        idx.compile(q)
    assert idx.compile.cache_info().misses == misses
    idx.compile(queries[0])
    assert idx.compile.cache_info().misses == misses + 1


@pytest.mark.parametrize("stage", ["graph", "binary", "full"])
def test_rejected_query_raises_on_every_call(stage):
    idx, _ = stage_index(stage)
    edge = "E" if stage == "graph" else "R"
    cyclic = parse_query(f"Ans() :- {edge}(x,y), {edge}(y,z), {edge}(z,x).", idx.schema)
    not_fc = parse_query(f"Ans(x,z) :- {edge}(x,y), {edge}(y,z).", idx.schema)
    for _ in range(3):
        with pytest.raises(NotAcyclic):
            idx.eval_bool(cyclic)
        for q in (cyclic, not_fc):
            with pytest.raises(NotFreeConnex):
                idx.count(q)
            with pytest.raises(NotFreeConnex):
                list(idx.enumerate(q))


def test_query_checked_against_the_graph_schema():
    idx = DatabaseIndex.build(cycle_db(6))
    with pytest.raises(UnknownSymbol):
        idx.count(cq(["x"], [("Q", ["x", "y"])]))
    with pytest.raises(ArityMismatch):
        idx.count(cq(["x"], [("E", ["x"])]))


def test_query_checked_against_the_binary_schema():
    idx = DatabaseIndex.build(random_relational_db(BINARY_SCHEMA, 5, 8, seed=2))
    assert idx.stage == "binary"
    with pytest.raises(UnknownSymbol):
        idx.count(cq(["x", "y"], [("Q", ["x", "y"])]))
    with pytest.raises(ArityMismatch):
        list(idx.enumerate(cq(["x"], [("P", ["x", "y"])])))


def test_query_checked_against_the_full_schema():
    idx = DatabaseIndex.build(random_relational_db(TERNARY_SCHEMA, 4, 8, seed=1))
    assert idx.stage == "full"
    with pytest.raises(ArityMismatch):
        idx.count(cq(["x"], [("R", ["x"])]))
    with pytest.raises(UnknownSymbol):
        idx.eval_bool(cq([], [("U", ["x"])]))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_repeated_queries_match_oracle_property(instance):
    db, q = instance
    idx = DatabaseIndex.build(db)
    expected = set(brute_answers(q, db).answers.tuples)
    for _ in range(2):
        got = list(idx.enumerate(q))
        assert len(got) == len(set(got)) and set(got) == expected
        assert idx.count(q) == len(expected)
        assert idx.eval_bool(boolean(q)) == bool(expected)


def test_threads_ask_the_same_stream(monkeypatch):
    # more threads than cores, and a small cache that they evict from while
    # the others read
    monkeypatch.setattr(pipeline, "COMPILED_LIMIT", 3)
    db = random_relational_db(TERNARY_SCHEMA, 5, 10, seed=3)
    idx = DatabaseIndex.build(db)
    rng = random.Random(64)
    queries = [random_fc_query(TERNARY_SCHEMA, rng) for _ in range(12)]
    stream = queries * 3
    expected = [sorted(brute_answers(q, db).answers.tuples) for q in stream]

    def ask(_):
        return [sorted(idx.enumerate(q)) for q in stream], [idx.count(q) for q in stream]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(ask, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    info = idx.compile.cache_info()
    assert len(results) == 4 and info.currsize <= info.maxsize == 3
    for answers, counts in results:
        assert answers == expected
        assert counts == [len(e) for e in expected]
