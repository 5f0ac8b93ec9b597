import itertools
import random

import pytest

from colorindex.analysis import check_fc1ghd, compute_fc1ghd, is_free_connex_acyclic
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
from colorindex.pipeline import DatabaseIndex
from colorindex.textio import parse_query


def test_projections_pair_distinct():
    assert projections_of((1, 2)) == {(), (1,), (2,), (1, 2)}


def test_projections_pair_equal():
    assert projections_of((1, 1)) == {(), (1,), (1, 1)}


def test_projections_triple_distinct():
    ps = projections_of((1, 2, 3))
    assert len(ps) == 8  # 1 + 3 + 3 + 1: increasing positions only
    by_arity = {m: sum(1 for p in ps if len(p) == m) for m in range(4)}
    assert by_arity == {0: 1, 1: 3, 2: 3, 3: 1}
    assert (1, 3) in ps and (3, 1) not in ps


def test_schema_size_formula():
    for schema in (BINARY_SCHEMA, TERNARY_SCHEMA, Schema.of(("R", 4), ("U", 1))):
        sigma2, k = binary_schema_for(schema)
        assert k == schema.max_arity
        assert len(sigma2.symbols) == k * k + k + 1 + len(schema.symbols)
        assert sigma2.is_binary()
        assert not any(name.startswith("E") for name in sigma2.names)


def test_encode_single_unary_tuple():
    schema = Schema.of(("R", 1))
    db = validate_database(schema, {"R": [("a",)]})
    enc = encode_db(db)
    # the tuple is its own full projection: node 0, then the empty tuple
    assert enc.node_tuple == {0: (0,)}
    assert enc.node_proj == {0: (0,), 1: ()}
    assert enc.db2.rel("U_R") == ((0,),)
    assert enc.db2.rel("A0") == ((1,),)
    assert enc.db2.rel("A1") == ((0,),)
    assert enc.db2.rel("F1_1") == ()  # (a) has distinct values: no self pair
    assert enc.db2.size == 3


def test_encode_pair_tuple():
    schema = Schema.of(("R", 2))
    db = validate_database(schema, {"R": [("a", "b")]})
    enc = encode_db(db)
    assert enc.node_tuple == {0: (0, 1)}
    assert enc.node_proj == {0: (0, 1), 1: (), 2: (0,), 3: (1,)}
    assert enc.db2.rel("U_R") == ((0,),)
    # every node has distinct values, so none is linked to itself
    assert set(enc.db2.rel("F1_1")) == {(0, 2), (2, 0)}
    assert enc.db2.rel("F2_2") == ()
    assert enc.db2.rel("F2_1") == ((0, 3),)
    assert enc.db2.rel("F1_2") == ((3, 0),)


def test_encode_reordered_pair_links_both_orders():
    # (a,b) and (b,a) reorder each other: F links them at their equal entries
    schema = Schema.of(("R", 2))
    enc = encode_db(validate_database(schema, {"R": [("a", "b"), ("b", "a")]}))
    ab, ba = (next(n for n, p in enc.node_proj.items() if p == t) for t in ((0, 1), (1, 0)))
    assert (ab, ba) in enc.db2.rel("F1_2") and (ab, ba) in enc.db2.rel("F2_1")
    assert (ab, ba) not in enc.db2.rel("F1_1") and (ab, ba) not in enc.db2.rel("F2_2")


def test_encode_empty_db():
    schema = Schema.of(("R", 2))
    enc = encode_db(validate_database(schema, {}))
    assert enc.db2.size == 0
    assert not enc.node_proj and not enc.node_tuple


def test_only_a_node_with_a_repeated_value_links_to_itself():
    # (a,b,c) and its projections have distinct values and no (p, p) fact;
    # (a,a,b) and (a,a) keep theirs, with F<i>_<j> wherever p[i] = p[j]
    schema = Schema.of(("T", 3))
    enc = encode_db(validate_database(schema, {"T": [("a", "b", "c"), ("a", "a", "b")]}))
    self_facts = {}
    for name, arity in enc.db2.schema.symbols:
        if arity == 2:
            for vp, vq in enc.db2.rel(name):
                if vp == vq:
                    self_facts.setdefault(vp, set()).add(name)
    repeated = {vp: p for vp, p in enc.node_proj.items() if len(set(p)) < len(p)}
    assert sorted(repeated.values()) == [(0, 0), (0, 0, 1)]
    assert self_facts == {vp: {f"F{i}_{j}" for i, x in enumerate(p, 1) for j, y in enumerate(p, 1) if x == y}
                          for vp, p in repeated.items()}


def _reorders_a_sub_selection(q, p):
    """q is a reordering of p at some non-empty increasing positions."""
    return any(sorted(q) == sorted(p[i] for i in sel) for sel in itertools.combinations(range(len(p)), len(q)) if q)


def test_f_relation_side_condition():
    """One node per projection at increasing positions of a source tuple,
    labeled U_R when it is a tuple of R and A<i> by its arity; F links a node
    to every node that reorders one of its non-empty sub-selections, both
    ways, but a node with pairwise distinct values not to itself: every such
    fact is there, with each pair of equal entries, and no other, and there
    are no E facts."""
    for seed in (9, 10, 11):
        db = random_relational_db(TERNARY_SCHEMA, 4, 3, seed=seed)
        enc = encode_db(db)
        proj_node = {p: n for n, p in enc.node_proj.items()}
        assert set(proj_node) == {p for name in db.schema.names for t in db.rel(name) for p in projections_of(t)}
        assert enc.node_tuple == {proj_node[t]: t for name in db.schema.names for t in db.rel(name)}
        for name in db.schema.names:
            assert set(enc.db2.rel(f"U_{name}")) == {(proj_node[t],) for t in db.rel(name)}
        for i in range(4):
            assert set(enc.db2.rel(f"A{i}")) == {(n,) for n, p in enc.node_proj.items() if len(p) == i}
        want = set()
        for vp, p in enc.node_proj.items():
            for vq, q in enc.node_proj.items():
                if _reorders_a_sub_selection(q, p) and not (vq == vp and len(set(p)) == len(p)):
                    for i, x in enumerate(p, 1):
                        for j, y in enumerate(q, 1):
                            if x == y:
                                want |= {(f"F{i}_{j}", (vp, vq)), (f"F{j}_{i}", (vq, vp))}
        binary = [name for name, arity in enc.db2.schema.symbols if arity == 2]
        assert all(name.startswith("F") for name in binary)
        have = {(name, fact) for name in binary for fact in enc.db2.rel(name)}
        assert have == want


def test_encode_boolean_single_atom_query():
    q = cq([], [("R", ["x"])])
    enc_q = encode_query(compute_fc1ghd(q))
    assert enc_q.q2.is_boolean()
    symbols = sorted(a.symbol for a in enc_q.q2.atoms)
    assert symbols == ["A1", "U_R"]


def _named_atoms(q2):
    return sorted((a.symbol, tuple(q2.var_name(v) for v in a.args)) for a in q2.atoms)


def test_repeated_variable_atom_reaches_its_bag_through_f():
    # R(x,x,y): its tuple variable w0 is an R tuple linked to the bag (x, y)
    # at each atom position and the bag position of its variable
    q = cq(["x", "y"], [("R", ["x", "x", "y"])])
    enc_q = encode_query(compute_fc1ghd(q))
    assert _named_atoms(enc_q.q2) == [
        ("A2", ("v0",)), ("A3", ("w0",)),
        ("F1_1", ("w0", "v0")), ("F2_1", ("w0", "v0")), ("F3_2", ("w0", "v0")),
        ("U_R", ("w0",)),
    ]


def test_bags_take_the_first_occurrence_order_of_their_atoms():
    # node 0 is R(y,x,z) in its order, node 1 S(x,y); the tree edge links
    # y and x at their positions in each, and the head reads them back
    q = cq(["y", "x"], [("R", ["y", "x", "z"]), ("S", ["x", "y"])])
    enc_q = encode_query(compute_fc1ghd(q))
    assert _named_atoms(enc_q.q2) == [
        ("A2", ("v1",)), ("A3", ("v0",)), ("F1_2", ("v0", "v1")), ("F2_1", ("v0", "v1")),
        ("U_R", ("v0",)), ("U_S", ("v1",)),
    ]
    assert enc_q.decode_plan == ((0, 2, 1), (0, 2, 0))


def test_encode_ternary_query_single_head_var():
    q = cq(
        ["x", "y", "z"],
        [("R", ["x", "y", "z"]), ("R", ["x", "x", "y"]), ("R", ["y", "y", "z"]), ("R", ["z", "z", "x"])],
    )
    enc_q = encode_query(compute_fc1ghd(q))
    assert len(enc_q.q2.head) == 1
    assert is_free_connex_acyclic(enc_q.q2)


def test_boolean_query_stays_boolean():
    q = cq([], [("T", ["x", "y", "z"])])
    enc_q = encode_query(compute_fc1ghd(q))
    assert enc_q.q2.is_boolean()


def test_translated_queries_free_connex_random():
    rng = random.Random(500)
    for _ in range(200):
        schema = TERNARY_SCHEMA if rng.random() < 0.5 else BINARY_SCHEMA
        q = random_fc_query(schema, rng)
        enc_q = encode_query(compute_fc1ghd(q))
        assert is_free_connex_acyclic(enc_q.q2)
        assert len(enc_q.q2.head) < 2 * len(q.head) or not q.head


def test_translated_query_size_stays_at_most_its_pin():
    # every decomposition of 2,000 random fc-ACQs is valid, and q2's atoms and
    # variables over them stay at most the pinned totals; the corpus has
    # repeated atoms and parallel atoms (two over one variable set), which a
    # decomposition that leaves an atom's hyperedge node to a parallel atom
    # translates to more atoms and variables
    rng = random.Random(29)
    atoms = variables = repeated = parallel = 0
    for trial in range(2000):
        q = random_fc_query(TERNARY_SCHEMA if trial % 2 else BINARY_SCHEMA, rng)
        ghd = compute_fc1ghd(q)
        assert check_fc1ghd(ghd) == []
        q2 = encode_query(ghd).q2
        atoms += len(q2.atoms)
        variables += len(q2.vars())
        repeated += len(set(q.atoms)) < len(q.atoms)
        parallel += len({a.var_set() for a in q.atoms}) < len(set(q.atoms))
    assert (repeated, parallel) == (622, 771)
    assert atoms <= 20_755 and variables <= 7_355


def test_decode_boolean():
    q = cq([], [("R", ["x"])])
    enc_q = encode_query(compute_fc1ghd(q))
    assert decode_answer((), enc_q, {}) == ()


def test_decode_malformed_component():
    q = cq(["x", "y"], [("R", ["x", "y"])])
    enc_q = encode_query(compute_fc1ghd(q))
    with pytest.raises(MalformedAnswer):
        decode_answer(tuple(999 for _ in enc_q.q2.head), enc_q, {999: (0,)})


def test_bijection_on_random_instances():
    rng = random.Random(600)
    for trial in range(500):
        schema = TERNARY_SCHEMA if trial % 2 else BINARY_SCHEMA
        db = random_relational_db(schema, rng.randint(2, 4), rng.randint(1, 3), seed=rng.randrange(10**9))
        q = random_fc_query(schema, rng, max_atoms=4)
        enc = encode_db(db)
        enc_q = encode_query(compute_fc1ghd(q))
        source = brute_answers(q, db)
        translated = brute_answers(enc_q.q2, enc.db2)
        assert len(translated.answers) == len(source.answers)
        decoded = {decode_answer(t, enc_q, enc.node_proj) for t in translated.answers.tuples}
        assert len(decoded) == len(translated.answers)  # injective
        assert decoded == set(source.answers.tuples)  # image equals the oracle set


def test_movie_query_through_binary_reduction(movie_db, movie_query):
    enc = encode_db(movie_db)
    enc_q = encode_query(compute_fc1ghd(movie_query))
    translated = brute_answers(enc_q.q2, enc.db2)
    decoded = {decode_answer(t, enc_q, enc.node_proj) for t in translated.answers.tuples}
    shown = sorted(tuple(movie_db.display(c) for c in t) for t in decoded)
    assert shown == [("LM", "PS"), ("MM", "PS")]


@pytest.mark.parametrize("schema", [
    Schema.of(("Q", 4)),
    Schema.of(("W", 5), ("S", 3)),
    Schema.of(("X", 6), ("R", 2)),
], ids=["Q4", "W5-S3", "X6-R2"])
def test_full_stage_matches_the_oracle_on_wide_relations(schema):
    # the full-stage index counts and enumerates, decoded, the oracle's answers
    rng = random.Random(700 + schema.max_arity)
    for _ in range(40):
        db = random_relational_db(schema, rng.randint(2, 4), rng.randint(1, 3), seed=rng.randrange(10**9))
        q = random_fc_query(schema, rng, max_atoms=3)
        idx = DatabaseIndex.build(db, stage="full")
        expected = set(brute_answers(q, db).answers.tuples)
        assert idx.count(q) == len(expected)
        got = list(idx.enumerate(q))
        assert len(got) == len(set(got)) and set(got) == expected


def test_ternary_sizes_are_pinned():
    # |D2| and |D_col| of the ternary input at n=200: 84,431 and 143,327
    # under ordered projections with tuple nodes and E facts, 21,419 and
    # 36,905 with a self pair on every node
    db = random_relational_db(TERNARY_SCHEMA, 200, 400, seed=1)
    assert encode_db(db).db2.size == 16_919
    assert DatabaseIndex.build(db, stage="full").cindex.d_col_size == 28_101


def _node_vars(q2):
    return {q2.var_name(v) for a in q2.atoms for v in a.args if q2.var_name(v).startswith("v")}


@pytest.mark.parametrize("schema, text", [
    (BINARY_SCHEMA, "Ans(x,y) :- R(x,y), S(x,y)."),
    (Schema.of(("T", 3), ("W", 3), ("P", 1)), "Ans(x,y,z) :- T(x,y,z), W(x,y,z), P(z)."),
    (Schema.of(("T", 3)), "Ans(x,y,z) :- T(x,y,z), T(x,y,z)."),
], ids=["binary", "ternary", "repeated"])
def test_a_same_bag_edge_contracts_to_one_node_variable(schema, text):
    # both atom nodes bind to the one node of their tuple: q2 has one node
    # variable for them, the head and the decode plan read it, no F atom
    # joins two node variables of equal bags, and a repeated atom does not
    # repeat its U_T on the merged node
    q = parse_query(text, schema)
    ghd = compute_fc1ghd(q)
    (a, b), = [(a, b) for a, b in ghd.edges if ghd.bag[a] == ghd.bag[b]]
    enc_q = encode_query(ghd)
    q2 = enc_q.q2
    assert len(_node_vars(q2)) == len(ghd.nodes) - 1
    (merged,) = _node_vars(q2) & {f"v{a}", f"v{b}"}
    bag_of = {f"v{t}": ghd.bag[t] for t in ghd.nodes}
    for atom in q2.atoms:
        names = [q2.var_name(v) for v in atom.args]
        if atom.symbol.startswith("F") and all(n.startswith("v") for n in names):
            assert bag_of[names[0]] != bag_of[names[1]]
    assert [q2.var_name(v) for v in q2.head] == [merged]
    assert len(set(q2.atoms)) == len(q2.atoms)
    assert {slot for slot, _, _ in enc_q.decode_plan} == {0}
    for seed in range(5):
        db = random_relational_db(schema, 3, 6, seed=seed)
        expected = set(brute_answers(q, db).answers.tuples)
        idx = DatabaseIndex.build(db, stage="full")
        assert idx.count(q) == len(expected)
        assert sorted(idx.enumerate(q)) == sorted(expected)


def test_contracted_queries_match_the_oracle():
    # random queries, among them ones with same-bag edges, on the full stage
    rng = random.Random(800)
    contracted = 0
    for trial in range(60):
        schema = TERNARY_SCHEMA if trial % 2 else BINARY_SCHEMA
        db = random_relational_db(schema, rng.randint(2, 4), rng.randint(2, 6), seed=rng.randrange(10**9))
        idx = DatabaseIndex.build(db, stage="full")
        for _ in range(5):
            q = random_fc_query(schema, rng, max_atoms=4)
            ghd = compute_fc1ghd(q)
            contracted += len(ghd.nodes) - len(_node_vars(encode_query(ghd).q2))
            expected = set(brute_answers(q, db).answers.tuples)
            assert idx.count(q) == len(expected)
            got = list(idx.enumerate(q))
            assert len(got) == len(set(got)) and set(got) == expected
    assert contracted > 0
