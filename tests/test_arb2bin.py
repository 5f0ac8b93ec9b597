import random

import pytest

from colorindex.analysis import compute_fc1ghd, is_free_connex_acyclic
from colorindex.arb2bin import (
    binary_schema_for,
    decode_answer,
    encode_db,
    encode_query,
    projections_of,
)
from colorindex.errors import MalformedAnswer
from colorindex.generators import BINARY_SCHEMA, TERNARY_SCHEMA, random_fc_query, random_relational_db
from colorindex.model import Schema, cq, validate_database
from colorindex.oracle import brute_answers


def test_projections_pair_distinct():
    assert projections_of((1, 2)) == {(), (1,), (2,), (1, 2), (2, 1)}


def test_projections_pair_equal():
    assert projections_of((1, 1)) == {(), (1,), (1, 1)}


def test_projections_triple_distinct():
    ps = projections_of((1, 2, 3))
    assert len(ps) == 16  # 1 + 3 + 6 + 6
    by_arity = {m: sum(1 for p in ps if len(p) == m) for m in range(4)}
    assert by_arity == {0: 1, 1: 3, 2: 6, 3: 6}


def test_schema_size_formula():
    for schema in (BINARY_SCHEMA, TERNARY_SCHEMA, Schema.of(("R", 4), ("U", 1))):
        sigma2, k = binary_schema_for(schema)
        assert k == schema.max_arity
        assert len(sigma2.symbols) == len(schema.symbols) + 2 * k * k + k + 1
        assert sigma2.is_binary()


def test_encode_single_unary_tuple():
    schema = Schema.of(("R", 1))
    db = validate_database(schema, {"R": [("a",)]})
    enc = encode_db(db)
    assert len(enc.tuple_node) == 1
    assert set(enc.proj_node) == {(), (0,)}
    w = enc.tuple_node[(0,)]
    v_a = enc.proj_node[(0,)]
    v_empty = enc.proj_node[()]
    assert enc.db2.rel("U_R") == ((w,),)
    assert enc.db2.rel("A0") == ((v_empty,),)
    assert enc.db2.rel("A1") == ((v_a,),)
    assert enc.db2.rel("E1_1") == ((w, v_a),)
    assert enc.db2.rel("F1_1") == ((v_a, v_a),)


def test_encode_pair_tuple():
    schema = Schema.of(("R", 2))
    db = validate_database(schema, {"R": [("a", "b")]})
    enc = encode_db(db)
    assert len(enc.tuple_node) == 1
    assert len(enc.proj_node) == 5
    w = enc.tuple_node[(0, 1)]
    e11 = set(enc.db2.rel("E1_1"))
    assert e11 == {(w, enc.proj_node[(0, 1)])}


def test_encode_empty_db():
    schema = Schema.of(("R", 2))
    enc = encode_db(validate_database(schema, {}))
    assert enc.db2.size == 0
    assert not enc.tuple_node and not enc.proj_node


def _is_sub_selection(q, p):
    """q is p at some increasing positions."""
    rest = iter(p)
    return all(x in rest for x in q)


def test_f_relation_side_condition():
    """E links a tuple to its projections over all of its values, and F a
    projection to its order-preserving sub-selections, both ways: every such
    fact is there, with each pair of equal entries, and no other."""
    for seed in (9, 10):
        enc = encode_db(random_relational_db(TERNARY_SCHEMA, 4, 3, seed=seed))
        want = set()
        for t, wt in enc.tuple_node.items():
            for p in projections_of(t):
                if set(p) == set(t):
                    want |= {
                        (f"E{i}_{j}", (wt, enc.proj_node[p]))
                        for i, x in enumerate(t, 1)
                        for j, y in enumerate(p, 1)
                        if x == y
                    }
        for p, vp in enc.proj_node.items():
            for q, vq in enc.proj_node.items():
                if q and _is_sub_selection(q, p):
                    for i, x in enumerate(p, 1):
                        for j, y in enumerate(q, 1):
                            if x == y:
                                want |= {(f"F{i}_{j}", (vp, vq)), (f"F{j}_{i}", (vq, vp))}
        have = {(name, fact) for name in enc.sigma2.names if name[0] in "EF" for fact in enc.db2.rel(name)}
        assert have == want


def test_encode_boolean_single_atom_query():
    schema = Schema.of(("R", 1))
    q = cq([], [("R", ["x"])])
    enc_q = encode_query(q, compute_fc1ghd(q), schema)
    assert enc_q.q2.is_boolean()
    symbols = sorted(a.symbol for a in enc_q.q2.atoms)
    assert symbols == ["A1", "E1_1", "U_R"]


def test_encode_ternary_query_single_head_var():
    q = cq(
        ["x", "y", "z"],
        [("R", ["x", "y", "z"]), ("R", ["x", "x", "y"]), ("R", ["y", "y", "z"]), ("R", ["z", "z", "x"])],
    )
    schema = Schema.of(("R", 3))
    enc_q = encode_query(q, compute_fc1ghd(q), schema)
    assert len(enc_q.q2.head) == 1
    assert is_free_connex_acyclic(enc_q.q2)


def test_boolean_query_stays_boolean():
    q = cq([], [("T", ["x", "y", "z"])])
    enc_q = encode_query(q, compute_fc1ghd(q), TERNARY_SCHEMA)
    assert enc_q.q2.is_boolean()


def test_translated_queries_free_connex_random():
    rng = random.Random(500)
    for _ in range(200):
        schema = TERNARY_SCHEMA if rng.random() < 0.5 else BINARY_SCHEMA
        q = random_fc_query(schema, rng)
        enc_q = encode_query(q, compute_fc1ghd(q), schema)
        assert is_free_connex_acyclic(enc_q.q2)
        assert len(enc_q.q2.head) < 2 * len(q.head) or not q.head


def test_decode_boolean():
    schema = Schema.of(("R", 1))
    q = cq([], [("R", ["x"])])
    enc_q = encode_query(q, compute_fc1ghd(q), schema)
    assert decode_answer((), enc_q, {}) == ()


def test_decode_malformed_component():
    schema = Schema.of(("R", 2))
    q = cq(["x", "y"], [("R", ["x", "y"])])
    enc_q = encode_query(q, compute_fc1ghd(q), schema)
    with pytest.raises(MalformedAnswer):
        decode_answer(tuple(999 for _ in enc_q.q2.head), enc_q, {999: (0,)})


def test_bijection_on_random_instances():
    rng = random.Random(600)
    for trial in range(500):
        schema = TERNARY_SCHEMA if trial % 2 else BINARY_SCHEMA
        db = random_relational_db(schema, rng.randint(2, 4), rng.randint(1, 3), seed=rng.randrange(10**9))
        q = random_fc_query(schema, rng, max_atoms=4)
        enc = encode_db(db)
        enc_q = encode_query(q, compute_fc1ghd(q), schema)
        source = brute_answers(q, db)
        translated = brute_answers(enc_q.q2, enc.db2)
        assert len(translated.answers) == len(source.answers)
        decoded = {decode_answer(t, enc_q, enc.node_proj) for t in translated.answers.tuples}
        assert len(decoded) == len(translated.answers)  # injective
        assert decoded == set(source.answers.tuples)  # image equals the oracle set


def test_movie_query_through_binary_reduction(movie_db, movie_schema, movie_query):
    enc = encode_db(movie_db)
    enc_q = encode_query(movie_query, compute_fc1ghd(movie_query), movie_schema)
    translated = brute_answers(enc_q.q2, enc.db2)
    decoded = {decode_answer(t, enc_q, enc.node_proj) for t in translated.answers.tuples}
    shown = sorted(tuple(movie_db.display(c) for c in t) for t in decoded)
    assert shown == [("LM", "PS"), ("MM", "PS")]
