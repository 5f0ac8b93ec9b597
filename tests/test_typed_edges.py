"""Binary- and full-stage queries run on the typed color edges of the gadget
coloring: parallel and opposite atoms merge into one typed edge, R(x, x)
restricts x to the values with a self-looped gadget, and the query that
runs is the source query (binary stage) or arb2bin's q2 (full stage), never
bin2graph's gadget translation."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorindex import arb2bin, bin2graph, evaluator, pipeline
from colorindex.analysis import compute_fc1ghd
from colorindex.cli import main
from colorindex.errors import ParseError
from colorindex.generators import BINARY_SCHEMA, TERNARY_SCHEMA, cycle_db, random_relational_db
from colorindex.index import build_from_coloring
from colorindex.instrument import OpCounter
from colorindex.model import ConstantPool, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.pipeline import DatabaseIndex
from colorindex.refinement import LabeledGraph, refine
from colorindex.textio import parse_query

from test_evaluator import fc_queries

# R and S disagree on most pairs, in both directions, and R has loops on
# some values only: a typed edge that drops its backward labels, or a
# variable that drops its loop restriction, gets other answers
BINARY_RAW = {
    "R": [("a", "b"), ("b", "a"), ("a", "a"), ("b", "c"), ("c", "c"), ("d", "e"), ("e", "e"), ("c", "a")],
    "S": [("a", "b"), ("c", "b"), ("e", "d"), ("a", "a"), ("d", "d"), ("b", "b")],
    "P": [("a",), ("c",), ("e",)],
}
TERNARY_RAW = {
    "T": [("a", "a", "b"), ("b", "b", "b"), ("a", "b", "c"), ("c", "c", "a"), ("b", "a", "a")],
    "R": [("b", "a"), ("a", "a"), ("c", "b")],
    "P": [("a",), ("b",)],
}

BINARY_QUERIES = [
    "Ans(x,y) :- R(x,y), S(x,y).",  # parallel atoms
    "Ans(x,y) :- R(x,y), R(y,x).",  # opposite atoms, one symbol
    "Ans(x,y) :- R(x,y), S(y,x).",  # opposite atoms, two symbols
    "Ans(x) :- R(x,y), S(y,x).",
    "Ans(y) :- S(y,x), R(x,y), R(x,x).",
    "Ans(x) :- R(x,x).",  # a loop alone
    "Ans(x) :- R(x,x), S(x,x).",
    "Ans(x,y) :- R(x,x), R(x,y).",  # a loop next to an edge
    "Ans(x,y) :- R(x,y), S(y,y), P(y).",
    "Ans(x,y) :- R(x,y).",  # x and y may take one constant
    "Ans(x,y) :- R(x,y), R(x,y), S(x,y), R(x,y).",  # repeated atoms
    "Ans(x,y,z) :- R(x,y), S(y,x), R(y,z), S(z,z).",
    "Ans(x) :- R(x,y), S(y,x), R(y,z), S(z,z).",
    "Ans(x,w) :- R(x,y), S(z,w).",
    "Ans(x) :- R(x,y), S(z,w), R(w,z).",  # a Boolean component
    "Ans() :- R(x,y), S(y,x).",
    "Ans() :- R(x,x), S(y,z).",
]
TERNARY_QUERIES = [
    "Ans(x,y) :- T(x,x,y).",
    "Ans(y) :- T(x,x,y), R(y,x).",
    "Ans(x,y,z) :- T(x,y,z), R(y,x), R(x,y).",
    "Ans(x) :- T(x,x,x).",
    "Ans() :- T(x,x,y), R(y,y).",
]


def _boolean(q):
    return cq([], [(a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])


def _check_all_tasks(idx, db, q):
    expected = set(brute_answers(q, db).answers.tuples)
    got = list(idx.enumerate(q))
    assert len(got) == len(set(got))
    assert set(got) == expected
    assert idx.count(q) == len(expected)
    assert idx.eval_bool(_boolean(q)) == bool(expected)
    if q.is_boolean():
        assert idx.eval_bool(q) == bool(expected)


BINARY_DBS = [validate_database(BINARY_SCHEMA, BINARY_RAW)] + [
    random_relational_db(BINARY_SCHEMA, 4, 7, seed=s) for s in (1, 2, 3)]


@pytest.mark.parametrize("stage", ["binary", "full"])
@pytest.mark.parametrize("text", BINARY_QUERIES)
def test_typed_edge_corner_cases_match_oracle(stage, text):
    for db in BINARY_DBS:
        idx = DatabaseIndex.build(db, stage=stage)
        _check_all_tasks(idx, db, parse_query(text, BINARY_SCHEMA))


@pytest.mark.parametrize("text", TERNARY_QUERIES)
def test_repeated_variable_in_a_ternary_atom_matches_oracle(text):
    dbs = [validate_database(TERNARY_SCHEMA, TERNARY_RAW), random_relational_db(TERNARY_SCHEMA, 3, 6, seed=4)]
    for db in dbs:
        idx = DatabaseIndex.build(db)
        assert idx.stage == "full"
        _check_all_tasks(idx, db, parse_query(text, TERNARY_SCHEMA))


@pytest.mark.parametrize("stage", ["binary", "full"])
def test_two_variables_on_one_constant(stage):
    # the pair (a, a) is a self-looped gadget: R(x, y) reaches it as a
    # typed edge from a back to a
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "a")], "S": [("a", "b")]})
    idx = DatabaseIndex.build(db, stage=stage)
    q = parse_query("Ans(x,y) :- R(x,y).", BINARY_SCHEMA)
    assert [idx.display_tuple(t) for t in idx.enumerate(q)] == [("a", "a")]
    assert idx.count(q) == 1
    assert idx.count(parse_query("Ans(x,y) :- R(x,y), S(y,x).", BINARY_SCHEMA)) == 0


@st.composite
def shared_pool_instances(draw):
    """A binary database whose pool also holds constants of other databases,
    interned before and between its own, and a query over it: the active
    domain has gaps, and its ids do not start at 0."""
    pool = ConstantPool()
    own = [f"a{i}" for i in range(draw(st.integers(2, 4)))]
    for name in [f"u{i}" for i in range(draw(st.integers(1, 3)))]:
        pool.intern(name)
    for name in draw(st.permutations(own + [f"w{i}" for i in range(draw(st.integers(0, 3)))])):
        pool.intern(name)
    rows = st.lists(st.tuples(st.sampled_from(own), st.sampled_from(own)), min_size=1, max_size=5)
    raw = {"R": draw(rows), "S": draw(rows), "P": [(c,) for c in draw(st.lists(st.sampled_from(own), max_size=3))]}
    return validate_database(BINARY_SCHEMA, raw, pool=pool), draw(fc_queries(BINARY_SCHEMA))


@settings(max_examples=60, deadline=None)
@given(shared_pool_instances())
def test_binary_stage_on_a_shared_pool_matches_oracle(instance):
    # a value vertex is its constant id, so the answers need no decoding
    db, q = instance
    idx = DatabaseIndex.build(db)
    assert idx.stage == "binary" and min(db.active_domain()) > 0
    _check_all_tasks(idx, db, q)
    text = idx.save_text()
    loaded = DatabaseIndex.load_text(text)
    assert loaded.save_text() == text
    _check_all_tasks(loaded, db, q)


def test_qhat_is_the_source_query_or_q2():
    binary = DatabaseIndex.build(validate_database(BINARY_SCHEMA, BINARY_RAW))
    q = parse_query("Ans(x,y) :- R(x,y), S(y,x), P(x).", BINARY_SCHEMA)
    assert binary.stage == "binary" and binary.translate(q).qhat is q
    assert binary.translate(q).decode is pipeline._identity  # answers are the constants
    full = DatabaseIndex.build(validate_database(TERNARY_SCHEMA, TERNARY_RAW))
    q = parse_query("Ans(y) :- T(x,x,y), R(y,x).", TERNARY_SCHEMA)
    assert full.stage == "full"
    assert full.translate(q).qhat == arb2bin.encode_query(q, compute_fc1ghd(q), TERNARY_SCHEMA).q2


@pytest.mark.parametrize("schema,raw,text", [
    (BINARY_SCHEMA, BINARY_RAW, "Ans(x,y) :- R(x,y), S(y,x)."),
    (TERNARY_SCHEMA, TERNARY_RAW, "Ans(y) :- T(x,x,y), R(y,x)."),
])
def test_serving_does_not_translate_through_gadgets(monkeypatch, schema, raw, text):
    db = validate_database(schema, raw)
    idx = DatabaseIndex.load_text(DatabaseIndex.build(db).save_text())

    def refuse(*args, **kwargs):
        raise AssertionError("the gadget translation of queries is not on the serving path")

    monkeypatch.setattr(bin2graph, "encode_query", refuse)
    monkeypatch.setattr(bin2graph, "decode_answer", refuse)
    _check_all_tasks(idx, db, parse_query(text, schema))


@pytest.mark.parametrize("schema,raw", [(BINARY_SCHEMA, BINARY_RAW), (TERNARY_SCHEMA, TERNARY_RAW)])
def test_typed_view_derived_on_first_use(schema, raw):
    idx = DatabaseIndex.load_text(DatabaseIndex.build(validate_database(schema, raw)).save_text())
    assert "typed" not in idx.cindex.__dict__
    text = "Ans(x) :- R(x,y), R(y,x)."
    assert idx.count(parse_query(text, schema)) > 0
    assert "typed" in idx.cindex.__dict__ and "d_col" not in idx.cindex.__dict__


def test_graph_stage_prepare_ops_unchanged():
    # criterion 5's query: one type of edge, 7 ops at every cycle length
    q = parse_query("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).", cycle_db(3).schema)
    for n in (10**3, 10**4):
        ops = OpCounter()
        evaluator.prepare(q, DatabaseIndex.build(cycle_db(n)).cindex, ops)
        assert ops.n == 7


def test_count_ops_on_the_source_query():
    # the DP runs on the 3 variables of the query and the value colors; on
    # the gadget translation (7 variables, all colors) this took 3,520 ops
    idx = DatabaseIndex.build(random_relational_db(BINARY_SCHEMA, 30, 60, seed=1))
    assert idx.stage == "binary"
    ops = OpCounter()
    assert idx.count(parse_query("Ans(x,y) :- R(x,y), S(y,z).", BINARY_SCHEMA), ops) == 48
    assert ops.n <= 800


@pytest.mark.parametrize("tamper", ["second value neighbor", "relation label on a value"])
def test_malformed_gadget_graph_is_a_data_error(tamper, tmp_path, capsys):
    # the coloring of each tampered graph is stable, so the file loads, but
    # the graph is not a gadget graph: its typed view refuses to serve it
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "b")], "P": [("a",)]})
    good = DatabaseIndex.build(db)
    g = good.cindex.graph
    a, w_ba = db.pool.intern("a"), good.gadget_node[(db.pool.intern("b"), db.pool.intern("a"))]
    adj, vl = dict(g.adj), dict(g.vl)
    if tamper == "second value neighbor":
        adj[a], adj[w_ba] = tuple(sorted(adj[a] + (w_ba,))), tuple(sorted(adj[w_ba] + (a,)))
    else:
        vl[a] = vl[a] | {good.cindex.symbols.u_label["S"]}
    bad = LabeledGraph(g.vertices, adj, vl, g.label_universe, g.loop_label, g.edge_label)
    ci = build_from_coloring(bad, refine(bad), good.cindex.source_size)
    text = DatabaseIndex(good.schema, good.pool, "binary", ci, good.source_size).save_text()
    with pytest.raises(ParseError, match="gadget"):
        DatabaseIndex.load_text(text).count(parse_query("Ans(x) :- R(x,y).", BINARY_SCHEMA))
    (tmp_path / "bad.idx").write_text(text)
    (tmp_path / "q.cq").write_text("Ans(x) :- R(x,y).\n")
    code = main(["query", "--idx", str(tmp_path / "bad.idx"), "--query", str(tmp_path / "q.cq"), "--task", "count"])
    assert code == 2 and capsys.readouterr().err.startswith("data error:")
