import random

import pytest

from colorindex.analysis import is_free_connex_acyclic
from colorindex.bin2graph import decode_answer, encode_db, encode_query, graph_symbols_for
from colorindex.errors import NotBinarySchema, NotFreeConnex
from colorindex.generators import BINARY_SCHEMA, random_fc_query, random_relational_db
from colorindex.index import project
from colorindex.model import ConstantPool, Database, Schema, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.pipeline import DatabaseIndex
from colorindex.refinement import encode_loops, refine
from colorindex.textio import parse_query


def test_schema_grows_by_three(movie_schema):
    symbols = graph_symbols_for(movie_schema)
    assert len(symbols.schema().symbols) == len(movie_schema.symbols) + 3


def test_not_binary_rejected():
    with pytest.raises(NotBinarySchema):
        graph_symbols_for(Schema.of(("T", 3)))
    # a wide atom is refused, also when its Gaifman graph is a forest
    for args in (["x", "y", "z"], ["x", "y", "y"]):
        with pytest.raises(NotBinarySchema):
            encode_query(cq(["x"], [("T", args)]), BINARY_SCHEMA)


def test_movie_graph_shape(movie_db):
    enc = encode_db(movie_db)
    assert len(enc.vmap) == 6
    assert len(enc.gadget_node) == 12  # one per ordered pair in the symmetric closure
    labels = enc.symbols
    u_p = enc.dhat.rel(labels.u_label["P"])
    expected = {enc.gadget_node[t] for t in movie_db.rel("P")}
    assert {v for (v,) in u_p} == expected
    assert len(enc.dhat.rel(labels.v_label)) == 6
    assert len(enc.dhat.rel(labels.w_label)) == 12


def test_w_nodes_degree_profile(movie_db):
    enc = encode_db(movie_db)
    adj: dict[int, set[int]] = {}
    for a, b in enc.dhat.rel(enc.symbols.edge):
        adj.setdefault(a, set()).add(b)
    v_nodes = set(enc.vmap_inv)
    for w in enc.node_gadget:
        in_v = [u for u in adj[w] if u in v_nodes]
        in_w = [u for u in adj[w] if u not in v_nodes]
        assert len(in_v) == 1 and len(in_w) == 1


def test_loop_tuple_gadget():
    schema = Schema.of(("F", 2))
    db = validate_database(schema, {"F": [("a", "a")]})
    enc = encode_db(db)
    assert len(enc.vmap) == 1 and len(enc.gadget_node) == 1
    (a_node,) = enc.vmap.values()
    w_aa = enc.gadget_node[(0, 0)]
    edges = set(enc.dhat.rel(enc.symbols.edge))
    assert edges == {(a_node, w_aa), (w_aa, a_node), (w_aa, w_aa)}
    assert enc.dhat.rel(enc.symbols.u_label["F"]) == ((w_aa,),)


def test_value_nodes_are_source_ids():
    # a pool shared with other data: the active domain is {1, 3}
    pool = ConstantPool()
    for name in ("x", "a", "y", "b"):
        pool.intern(name)
    db = validate_database(Schema.of(("F", 2)), {"F": [("a", "b")]}, pool=pool)
    enc = encode_db(db)
    assert enc.vmap == enc.vmap_inv == {1: 1, 3: 3}
    assert enc.gadget_node == {(1, 3): 4, (3, 1): 5}
    assert enc.dhat.rel(enc.symbols.v_label) == ((1,), (3,))
    idx = DatabaseIndex.build(db)
    # the index is typed: its vertices are the values, not the gadgets 4 and 5
    assert not hasattr(idx, "vmap") and idx.cindex.graph.vertices == (1, 3)
    DatabaseIndex(db.schema, pool, "binary", idx.cindex, db.size, vmap=enc.vmap)
    with pytest.raises(ValueError, match="identity"):
        DatabaseIndex(db.schema, pool, "binary", idx.cindex, db.size, vmap={1: 0, 3: 1})


def test_single_directed_tuple_creates_both_gadgets():
    schema = Schema.of(("F", 2))
    db = validate_database(schema, {"F": [("a", "b")]})
    enc = encode_db(db)
    assert set(enc.gadget_node) == {(0, 1), (1, 0)}
    labeled = enc.dhat.rel(enc.symbols.u_label["F"])
    assert labeled == ((enc.gadget_node[(0, 1)],),)


def test_edge_relation_symmetric(movie_db):
    enc = encode_db(movie_db)
    edges = set(enc.dhat.rel(enc.symbols.edge))
    assert all((b, a) in edges for a, b in edges)


def test_example_query_translation(movie_schema, movie_query):
    ench = encode_query(movie_query, movie_schema)
    qhat = ench.qhat
    assert len(qhat.atoms) == 16
    head = [qhat.var_name(v) for v in qhat.head]
    assert head == ["x", "y1", "z@x@y1", "z@y1@x"]
    assert is_free_connex_acyclic(qhat)
    symbols = sorted(a.symbol for a in qhat.atoms)
    assert symbols.count("V") == 3 and symbols.count("W") == 4
    assert symbols.count("U_A") == 2 and symbols.count("U_P") == 1
    assert symbols.count("E") == 6


def test_loop_query_translation():
    schema = Schema.of(("F", 2))
    q = cq(["x"], [("F", ["x", "x"])])
    ench = encode_query(q, schema)
    qhat = ench.qhat
    assert [qhat.var_name(v) for v in qhat.head] == ["x"]
    by_symbol = sorted((a.symbol, tuple(qhat.var_name(v) for v in a.args)) for a in qhat.atoms)
    assert by_symbol == [
        ("E", ("x", "z@x@x")),
        ("E", ("z@x@x", "z@x@x")),
        ("U_F", ("z@x@x",)),
        ("V", ("x",)),
        ("W", ("z@x@x",)),
    ]


def test_boolean_stays_boolean(movie_schema):
    q = parse_query("Ans() :- A(x,y), P(y,x).", movie_schema)
    assert encode_query(q, movie_schema).qhat.is_boolean()


def test_non_fc_rejected(movie_schema):
    q = parse_query("Ans(x,z) :- A(x,y), A(y,z).", movie_schema)
    with pytest.raises(NotFreeConnex):
        encode_query(q, movie_schema)


def test_free_arity_bound_random():
    rng = random.Random(808)
    for _ in range(200):
        q = random_fc_query(BINARY_SCHEMA, rng)
        ench = encode_query(q, BINARY_SCHEMA)
        assert is_free_connex_acyclic(ench.qhat)
        assert len(ench.qhat.head) == len(q.head) + 2 * len(ench.appended)
        if q.head:
            assert len(ench.qhat.head) < 3 * len(q.head)
        else:
            assert ench.qhat.is_boolean()


def test_bijection_on_random_instances():
    rng = random.Random(909)
    for _ in range(80):
        db = random_relational_db(BINARY_SCHEMA, rng.randint(2, 5), rng.randint(1, 5), seed=rng.randrange(10**9))
        q = random_fc_query(BINARY_SCHEMA, rng)
        enc = encode_db(db)
        ench = encode_query(q, BINARY_SCHEMA)
        source = brute_answers(q, db)
        translated = brute_answers(ench.qhat, enc.dhat)
        assert len(translated.answers) == len(source.answers)
        assert translated.hom_count == source.hom_count
        decoded = {decode_answer(t, ench, enc.vmap_inv) for t in translated.answers.tuples}
        assert len(decoded) == len(translated.answers)
        assert decoded == set(source.answers.tuples)


def test_decode_movie(movie_db, movie_schema, movie_query):
    enc = encode_db(movie_db)
    ench = encode_query(movie_query, movie_schema)
    translated = brute_answers(ench.qhat, enc.dhat)
    decoded = {decode_answer(t, ench, enc.vmap_inv) for t in translated.answers.tuples}
    shown = sorted(tuple(movie_db.display(c) for c in t) for t in decoded)
    assert shown == [("LM", "PS"), ("MM", "PS")]


def test_dot_export(movie_db):
    enc = encode_db(movie_db)
    dot = enc.to_dot()
    assert dot.startswith("graph") and dot.rstrip().endswith("}")
    # names come from the node maps: value nodes by constant, gadgets by pair
    ps, lm = 0, 1  # interned first, by P(PS,LM)
    assert (movie_db.display(ps), movie_db.display(lm)) == ("PS", "LM")
    assert f'n{enc.vmap[ps]} [label="PS", shape=circle]' in dot
    assert f'n{enc.gadget_node[(ps, lm)]} [label="w(PS,LM)", shape=box]' in dot


def test_movie_graph_has_no_loops(movie_db):
    # no reflexive source tuples, hence no self-looped gadgets and no loop
    # labels after encoding
    from colorindex.refinement import encode_loops

    enc = encode_db(movie_db)
    g = encode_loops(enc.dhat)
    assert all(g.loop_label not in g.vl[v] for v in g.vertices)
    assert all(not g.has_loop(v) for v in g.vertices)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_build_does_not_read_the_order_of_a_relation(movie_db, seed):
    # encode_db sorts only the values and the pairs: loop encoding,
    # refinement and the projection must give the same index for any order
    # of the tuples of every relation of its graph
    db = movie_db if seed is None else random_relational_db(BINARY_SCHEMA, 8, 12, seed=seed)
    enc = encode_db(db)
    rng = random.Random(seed)
    shuffled = Database(schema=enc.dhat.schema,
                        relations={name: tuple(rng.sample(ts, len(ts))) for name, ts in enc.dhat.relations.items()})
    assert shuffled.relations != enc.dhat.relations
    graph, shuffled_graph = encode_loops(enc.dhat), encode_loops(shuffled)
    assert shuffled_graph == graph
    coloring = refine(shuffled_graph)
    assert coloring == refine(graph)
    typed = project(shuffled_graph, coloring, enc.symbols, enc.gadget_node, enc.dhat.size)
    got = DatabaseIndex(db.schema, db.pool, "binary", typed, db.size).save_text()
    assert got == DatabaseIndex.build(db, stage="binary").save_text()
