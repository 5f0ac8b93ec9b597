import random

import pytest

from colorindex.engine import answers, bool_eval, enumerate_plan, preprocess
from colorindex.errors import NotAcyclic, NotFreeConnex, TaskMismatch
from colorindex.generators import (
    BINARY_SCHEMA,
    TERNARY_SCHEMA,
    cycle_db,
    random_fc_query,
    random_relational_db,
)
from colorindex.instrument import OpCounter
from colorindex.model import Schema, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.textio import parse_query

from conftest import displayed


def test_boolean_satisfiable(movie_db, movie_schema):
    q = parse_query("Ans() :- A(x,y), P(y,x).", movie_schema)
    plan = preprocess(q, movie_db)
    assert plan.satisfiable
    assert list(enumerate_plan(plan)) == [()]


def test_boolean_unsatisfiable_on_empty():
    schema = Schema.of(("R", 2))
    db = validate_database(schema, {})
    q = cq([], [("R", ["x", "y"])])
    assert not bool_eval(q, db)


def test_bool_eval_no_loops_in_loop_free_graph():
    db = cycle_db(6)
    q = parse_query("Ans() :- E(x,x).", db.schema)
    assert not bool_eval(q, db)


def test_bool_eval_rejects_cyclic():
    db = cycle_db(6)
    q = parse_query("Ans() :- E(x,y), E(y,z), E(z,x).", db.schema)
    with pytest.raises(NotAcyclic):
        bool_eval(q, db)


def test_bool_eval_rejects_non_boolean_as_task_mismatch(movie_db, movie_query):
    with pytest.raises(TaskMismatch, match="only allowed for Boolean queries"):
        bool_eval(movie_query, movie_db)


def test_movie_enumeration(movie_db, movie_query):
    got = list(enumerate_plan(preprocess(movie_query, movie_db)))
    assert len(got) == len(set(got)) == 2
    assert displayed(movie_db, got) == [("LM", "PS"), ("MM", "PS")]


def test_full_query_on_cycle():
    db = cycle_db(4)
    q = parse_query("Ans(x,y) :- E(x,y).", db.schema)
    assert len(answers(q, db)) == 8


def test_not_free_connex_rejected():
    db = cycle_db(4)
    q = parse_query("Ans(x,z) :- E(x,y), E(y,z).", db.schema)
    with pytest.raises(NotFreeConnex):
        preprocess(q, db)


def test_empty_answer_immediate_end():
    schema = Schema.of(("R", 2), ("P", 1))
    db = validate_database(schema, {"R": [("a", "b")]})
    q = cq(["x"], [("R", ["x", "y"]), ("P", ["x"])])
    assert list(enumerate_plan(preprocess(q, db))) == []


def test_matches_oracle_random():
    rng = random.Random(314)
    for trial in range(250):
        schema = BINARY_SCHEMA if trial % 2 else TERNARY_SCHEMA
        db = random_relational_db(schema, rng.randint(2, 8), rng.randint(1, 6), seed=rng.randrange(10**9))
        q = random_fc_query(schema, rng)
        got = list(enumerate_plan(preprocess(q, db)))
        assert len(got) == len(set(got)), "duplicate emitted"
        assert set(got) == set(brute_answers(q, db).answers.tuples)


def test_cross_component_product():
    schema = Schema.of(("R", 2), ("S", 2))
    db = validate_database(schema, {"R": [("a", "b"), ("c", "d")], "S": [("e", "f")]})
    q = cq(["x", "u"], [("R", ["x", "y"]), ("S", ["u", "v"])])
    got = answers(q, db)
    assert got == set(brute_answers(q, db).answers.tuples)
    assert len(got) == 2


def test_preprocessing_ops_scale_with_db():
    q = parse_query("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).", cycle_db(3).schema)
    ops_small, ops_large = OpCounter(), OpCounter()
    preprocess(q, cycle_db(50), ops_small)
    preprocess(q, cycle_db(500), ops_large)
    assert ops_large.n >= 8 * ops_small.n


def test_delay_independent_of_db_size():
    q = parse_query("Ans(x1,x2) :- E(x1,x2), E(x2,x3).", cycle_db(3).schema)

    def max_delta(n):
        steps = OpCounter()
        plan = preprocess(q, cycle_db(n))
        gaps, last = [], steps.n
        for _ in enumerate_plan(plan, steps):
            gaps.append(steps.n - last)
            last = steps.n
        return max(gaps)

    assert max_delta(300) <= max_delta(30) + 1
