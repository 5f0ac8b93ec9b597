import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorindex.errors import ArityMismatch, UnknownSymbol
from colorindex.generators import BINARY_SCHEMA, TERNARY_SCHEMA, cycle_db, random_fc_query
from colorindex.model import (
    AnswerSet,
    ConstantPool,
    Schema,
    cq,
    validate_database,
)
from colorindex.textio import format_query, parse_query

R2 = Schema.of(("R", 2))


def test_validate_dedups_and_reports():
    db = validate_database(R2, {"R": [("a", "b"), ("a", "b")]})
    assert len(db.rel("R")) == 1
    assert db.dropped_duplicates == 1


def test_validate_arity_mismatch():
    with pytest.raises(ArityMismatch):
        validate_database(R2, {"R": [("a", "b", "c")]})


def test_validate_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        validate_database(R2, {"Q": [("a",)]})


def test_zero_arity_rejected():
    with pytest.raises(ArityMismatch):
        Schema.of(("R", 0))


def test_movie_db(movie_db):
    assert movie_db.size == 8
    shown = {movie_db.display(c) for c in movie_db.active_domain()}
    assert shown == {"PS", "LM", "MM", "Dr.S", "18m", "34m"}


def test_db_size_empty():
    db = validate_database(R2, {})
    assert db.size == 0
    assert db.active_domain() == frozenset()


@pytest.mark.parametrize("n", [3, 7, 20])
def test_db_size_cycle(n):
    db = cycle_db(n)
    # ordered edge pairs of the symmetric closure, counted directly
    assert db.size == len({(a, b) for a, b in db.rel("E")}) == 2 * n


def test_query_stats_boolean():
    q = cq([], [("R", ["x", "y"])])
    assert q.free() == frozenset()
    assert q.quant() == q.vars() == frozenset({0, 1})


def test_query_stats_movie_query(movie_query):
    q = movie_query
    assert {q.var_name(v) for v in q.free()} == {"x", "y1"}
    assert {q.var_name(v) for v in q.quant()} == {"y2"}


def test_query_stats_projected_path():
    q = cq(["x", "z"], [("R", ["x", "y"]), ("R", ["y", "z"])])
    assert {q.var_name(v) for v in q.free()} == {"x", "z"}
    assert {q.var_name(v) for v in q.quant()} == {"y"}


def test_head_must_occur_in_body():
    with pytest.raises(UnknownSymbol):
        cq(["x", "w"], [("R", ["x", "y"])])


def test_duplicate_head_rejected():
    with pytest.raises(ArityMismatch):
        cq(["x", "x"], [("R", ["x", "y"])])


def test_cq_interns_variables_by_first_occurrence():
    # head first, then the atom arguments left to right; var_names by id
    q = cq(["y", "x"], [("R", ["z", "x"]), ("P", ["w"]), ("R", ["y", "z"]), ("R", ["w", "w"])])
    assert q.var_names == ("y", "x", "z", "w")
    assert q.head == (0, 1)
    assert [a.args for a in q.atoms] == [(2, 1), (3,), (0, 2), (3, 3)]
    assert cq([], [("R", ["b", "a"])]).var_names == ("b", "a")


def test_parse_query_arity_checked_against_schema():
    with pytest.raises(ArityMismatch, match="R expects 2 arguments, got 3"):
        parse_query("Ans(x) :- R(x,y,z).", BINARY_SCHEMA)
    # every symbol is checked before an arity, as when `cq` checked arities
    # after the text had parsed
    with pytest.raises(UnknownSymbol, match="unknown relation symbol 'Q'"):
        parse_query("Ans(x) :- R(x,y,z), Q(x).", BINARY_SCHEMA)


@pytest.mark.parametrize("schema,seed", [(BINARY_SCHEMA, 31), (TERNARY_SCHEMA, 32)])
def test_query_text_round_trip(schema, seed):
    # the benchmark streams and every translation rebuild queries from their
    # names: interning the formatted text again gives the same ids
    rng = random.Random(seed)
    for _ in range(300):
        q = random_fc_query(schema, rng)
        assert parse_query(format_query(q), schema) == q


names = st.text(alphabet="abcdefgh0123", min_size=1, max_size=6)


@given(st.lists(names, min_size=1, max_size=30))
def test_interning_round_trip(strings):
    pool = ConstantPool()
    ids = [pool.intern(s) for s in strings]
    assert [pool.display(i) for i in ids] == strings
    # bijective: equal strings iff equal ids
    for s, i in zip(strings, ids):
        assert pool.intern(s) == i


@given(
    st.lists(st.tuples(names, names), min_size=0, max_size=20),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60)
def test_db_invariant_under_order_and_duplication(rows, rnd):
    db1 = validate_database(R2, {"R": rows})
    shuffled = list(rows) + rows[: len(rows) // 2]
    rnd.shuffle(shuffled)
    db2 = validate_database(R2, {"R": shuffled})
    assert db1.size == db2.size
    assert {db1.display(c) for c in db1.active_domain()} == {
        db2.display(c) for c in db2.active_domain()
    }


@given(st.data())
@settings(max_examples=60)
def test_free_quant_partition(data):
    n_vars = data.draw(st.integers(min_value=1, max_value=5))
    pool = [f"x{i}" for i in range(n_vars)]
    atoms = data.draw(
        st.lists(
            st.tuples(st.just("R"), st.tuples(st.sampled_from(pool), st.sampled_from(pool))),
            min_size=1,
            max_size=4,
        )
    )
    atoms = [(s, list(a)) for s, a in atoms]
    used = sorted({v for _, a in atoms for v in a})
    head = data.draw(st.lists(st.sampled_from(used), max_size=len(used), unique=True))
    q = cq(head, atoms)
    assert q.free() | q.quant() == q.vars()
    assert not (q.free() & q.quant())


def test_answer_set_uniform_arity():
    with pytest.raises(ArityMismatch):
        AnswerSet(arity=2, tuples=frozenset({(1, 2), (3,)}))
    a = AnswerSet(arity=1, tuples=frozenset({(1,), (2,)}))
    assert len(a) == 2
