"""Binary- and full-stage indexes are typed: the values with their classes,
and one edge color per class of entries, as many as bin2graph's graph has
gadget classes.
Queries run on them: parallel and opposite atoms merge into one typed edge,
R(x, x) restricts x to the values with a loop entry, and the query that runs
is the source query (binary stage) or arb2bin's q2 (full stage), never
bin2graph's gadget translation."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorindex import arb2bin, bin2graph, evaluator, pipeline
from colorindex.analysis import compute_fc1ghd
from colorindex.cli import main
from colorindex.errors import ParseError
from colorindex.generators import BINARY_SCHEMA, TERNARY_SCHEMA, cycle_db, random_relational_db
from colorindex.index import build_from_coloring, check_colorindex
from colorindex.instrument import OpCounter
from colorindex.model import ConstantPool, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.pipeline import DatabaseIndex
from colorindex.refinement import Coloring, encode_loops, refine
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
    assert full.translate(q).qhat == arb2bin.encode_query(compute_fc1ghd(q)).q2


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
    # the typed tables are stored and loaded, not derived from gadget rows:
    # the loaded index holds the values only, with the built edge colors,
    # and serving derives no color database
    db = validate_database(schema, raw)
    built = DatabaseIndex.build(db)
    idx = DatabaseIndex.load_text(built.save_text())
    values = db if built.stage == "binary" else arb2bin.encode_db(db).db2
    assert idx.cindex.graph.vertices == built.cindex.graph.vertices == tuple(sorted(values.active_domain()))
    assert idx.cindex.edges is not None and idx.cindex.edges == built.cindex.edges
    text = "Ans(x) :- R(x,y), R(y,x)."
    assert idx.count(parse_query(text, schema)) > 0
    assert "d_col" not in idx.cindex.__dict__


def test_graph_stage_prepare_ops_unchanged():
    # criterion 5's query: one type of edge, 6 ops at every cycle length
    q = parse_query("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).", cycle_db(3).schema)
    for n in (10**3, 10**4):
        ops = OpCounter()
        evaluator.prepare(q, DatabaseIndex.build(cycle_db(n)).cindex, ops)
        assert ops.n == 6


def _copies(db, k):
    """k disjoint copies of a binary database, constant a of copy i renamed
    to a_i."""
    return validate_database(db.schema, {
        s: [tuple(f"{db.display(c)}_{i}" for c in t) for i in range(k) for t in db.rel(s)] for s in db.schema.names})


@pytest.mark.parametrize("text", [
    "Ans(x,y) :- R(x,y), S(y,z).",
    "Ans(x,y,z) :- R(x,y), S(z,y), P(z).",
    "Ans(x) :- R(x,y), R(y,y).",
    "Ans(y) :- S(x,y), R(y,z), S(z,w).",
])
def test_typed_dp_ops_do_not_grow_with_the_data(text):
    # the binary-stage twin of test_prepare_ops_bounded_by_color_db: copies
    # of one database have its colors and edge colors, so the DP does the
    # same work on 2 and on 40 copies, and a connected query has k times
    # the answers of one copy
    base = random_relational_db(BINARY_SCHEMA, 6, 10, seed=2)
    q = parse_query(text, BINARY_SCHEMA)
    per_k = {}
    for k in (2, 40):
        idx = DatabaseIndex.build(_copies(base, k))
        assert idx.stage == "binary"
        count_ops, prepare_ops = OpCounter(), OpCounter()
        count = idx.count(q, count_ops)
        evaluator.prepare(q, idx.cindex, prepare_ops)
        per_k[k] = count, count_ops.n, prepare_ops.n
    (small, count_small, prepare_small), (large, count_large, prepare_large) = per_k[2], per_k[40]
    assert small > 0 and large == 20 * small
    assert (count_large, prepare_large) == (count_small, prepare_small)


@pytest.mark.parametrize("text", [
    "Ans(x,y) :- R(x,y).",
    "Ans(x,y) :- R(x,y), P(y).",
    "Ans(x,y,z) :- R(x,y), S(y,z).",
    "Ans(z,y) :- S(y,z), R(x,y).",
    "Ans(x,y,w) :- R(x,y), R(x,w), P(w).",
    "Ans(x) :- R(x,y), S(y,z).",
])
def test_typed_lift_multiplies_by_num(text):
    # three copies of a hub h with R to a, b and c, where a and b carry P and
    # reach d by S: the hub's R edge color toward {a, b} has num 2, and so
    # does d's reverse S edge color toward them, so a lift that drops num
    # miscounts every full query here
    raw = {"R": [], "S": [], "P": []}
    for i in range(3):
        raw["R"] += [(f"h{i}", f"{v}{i}") for v in "abc"]
        raw["S"] += [(f"a{i}", f"d{i}"), (f"b{i}", f"d{i}")]
        raw["P"] += [(f"a{i}",), (f"b{i}",)]
    db = validate_database(BINARY_SCHEMA, raw)
    idx = DatabaseIndex.build(db)
    assert idx.stage == "binary" and sorted(idx.cindex.edges.num) == [1] * 4 + [2] * 2
    _check_all_tasks(idx, db, parse_query(text, BINARY_SCHEMA))


def test_count_ops_of_one_typed_edge_are_pinned():
    # BINARY_RAW has 5 value colors, one per value, and 13 edge colors, 8
    # of which carry R.  In Ans(x) :- R(x,y), y has no label and no loop
    # atom, so its row is never built: the lift walks the 8 edge colors
    # carrying R, and gives x a row with one entry per value color at which
    # one of them starts (all 5).  The free root's row then takes one op
    # per entry: 8 + 5 = 13
    idx = DatabaseIndex.build(validate_database(BINARY_SCHEMA, BINARY_RAW))
    edges = idx.cindex.edges
    assert (idx.cindex.coloring.num_colors, len(edges.rev), len(edges.with_label["R"])) == (5, 13, 8)
    ops = OpCounter()
    assert idx.count(parse_query("Ans(x) :- R(x,y).", BINARY_SCHEMA), ops) == 5
    assert ops.n == 13


def test_one_pass_ops_of_a_projected_path_are_pinned():
    # BINARY_RAW's 13 edge colors are the ordered value pairs of its binary
    # facts and their reverses, one value per value color; 8 carry R and 6
    # carry S, and the S ones start at all 5 values.  In
    # Ans(x,y) :- R(x,y), S(y,z) no variable has a label or a loop atom, so
    # no first row is built.  z lifts into y over the 6 S edge colors, y's
    # row of 5 entries drops to 1s (5), and y lifts into x over the 8 R edge
    # colors: 6 + 5 + 8 = 19, each variable lifted once.  Every R fact ends
    # at a value where an S fact starts: 8 answers.  Enumeration adds x's
    # table, one op per bucket of x's 5 alive colors: a bucket per edge
    # color, 13 in all, so 19 + 13 = 32.
    idx = DatabaseIndex.build(validate_database(BINARY_SCHEMA, BINARY_RAW))
    edges = idx.cindex.edges
    assert (len(edges.rev), len(edges.with_label["R"]), len(edges.with_label["S"])) == (13, 8, 6)
    q = parse_query("Ans(x,y) :- R(x,y), S(y,z).", BINARY_SCHEMA)
    count_ops, prepare_ops = OpCounter(), OpCounter()
    assert idx.count(q, count_ops) == 8
    evaluator.prepare(q, idx.cindex, prepare_ops)
    assert (count_ops.n, prepare_ops.n) == (19, 32)


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
    # the projection of a gadget graph reads its entries off bin2graph's
    # pair map: it refuses a gadget graph without the map or with a map that
    # lacks a pair, and a coloring that gives one gadget color two start
    # colors.  A tampered value row of the file is a data error.
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "b")], "P": [("a",)]})
    good = DatabaseIndex.build(db)
    genc = bin2graph.encode_db(db)
    g = encode_loops(genc.dhat)
    coloring = refine(g)
    ci = build_from_coloring(g, coloring, genc.dhat.size)
    with pytest.raises(ValueError, match="pair map"):
        DatabaseIndex(good.schema, good.pool, "binary", ci, good.source_size)
    short = dict(list(genc.gadget_node.items())[1:])
    with pytest.raises(ValueError, match="one pair per gadget vertex"):
        DatabaseIndex(good.schema, good.pool, "binary", ci, good.source_size, gadget_node=short)
    # w_ab and w_ba in one class: its entries start at a (labeled P) and at b
    a, b = db.pool.intern("a"), db.pool.intern("b")
    gadgets = {coloring.col[genc.gadget_node[(a, b)]], coloring.col[genc.gadget_node[(b, a)]]}
    assert coloring.col[a] != coloring.col[b] and len(gadgets) == 2
    classes = [m for c, m in enumerate(coloring.classes) if c not in gadgets]
    classes.append(tuple(sorted(v for c in gadgets for v in coloring.classes[c])))
    merged = Coloring(col={v: c for c, m in enumerate(classes) for v in m}, classes=tuple(classes))
    ci = build_from_coloring(g, merged, genc.dhat.size)
    with pytest.raises(ValueError, match="two start colors"):
        DatabaseIndex(good.schema, good.pool, "binary", ci, good.source_size, gadget_node=genc.gadget_node)
    # the classes `P 0` (a's: its label, and edge color 0) and `- 1` (b's:
    # the reverse)
    text = good.save_text()
    classes = "[CLASSES 2]\nP\t0\n-\t1\n"
    assert classes in text
    if tamper == "second value neighbor":  # b reaches a along a's edge color, not its reverse
        text, message = text.replace(classes, "[CLASSES 2]\nP\t0\n-\t0\n"), "starts at value colors"
    else:
        text, message = text.replace(classes, "[CLASSES 2]\nP,R\t0\n-\t1\n"), "relation or loop label"
    with pytest.raises(ParseError, match=message):
        DatabaseIndex.load_text(text)
    (tmp_path / "bad.idx").write_text(text)
    (tmp_path / "q.cq").write_text("Ans(x) :- R(x,y).\n")
    code = main(["query", "--idx", str(tmp_path / "bad.idx"), "--query", str(tmp_path / "q.cq"), "--task", "count"])
    assert code == 2 and capsys.readouterr().err.startswith("data error:")


def test_loader_rejects_inconsistent_typed_rows():
    # R(a,b), R(b,a), R(a,a), S(c,c): edge colors 0 (L,R; a's loop), 1 and 2
    # (a to b and back) and 3 (L,S; c's loop)
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "b"), ("b", "a"), ("a", "a")], "S": [("c", "c")]})
    text = DatabaseIndex.build(db).save_text()
    edge_colors = "[EDGE_COLORS 4]\nL,R\t0\nR\t2\nR\t1\nL,S\t3\n"
    classes = "[CLASSES 3]\n-\t0 1\n-\t2\n-\t3\n"  # labels, then the keys
    rows = "[VERTICES 3]\n0\t0\t0 1\n1\t1\t0\n2\t2\t2\n"  # v, its color, its far values
    assert edge_colors in text and rows in text and classes in text
    cases = {
        "not an involution": text.replace(edge_colors, edge_colors.replace("R\t2\nR\t1", "R\t2\nR\t2")),
        "undeclared label, or a value label": text.replace(edge_colors, edge_colors.replace("R\t2", "P\t2")),
        "breaks the loop label": text.replace(edge_colors, edge_colors.replace("L,R\t0", "R\t0")),
        # a's class keys one edge color for its two far values
        "vertex 0 has 2 entries, not the 1": text.replace(classes, classes.replace("-\t0 1", "-\t0")),
        "edge color that \\[EDGE_COLORS\\] does not have": text.replace(classes, classes.replace("-\t3", "-\t4")),
        # b reaches a along a's edge color: that edge color starts at a and at b
        "starts at value colors 0 and 1": text.replace(classes, classes.replace("-\t2", "-\t1")),
        # edge colors 1 and 2 each their own reverse: a's entry to b lacks its flip
        "without its flip": text.replace(edge_colors, edge_colors.replace("R\t2\nR\t1", "R\t1\nR\t2")),
        "vertex 2 lists a far value twice": text.replace(rows, rows.replace("2\t2\t2", "2\t2\t2 2")
                                                         ).replace(classes, classes.replace("-\t3", "-\t3 3")),
        "out of order": text.replace(rows, rows.replace("1\t1", "7\t1")),
        # a and b in one class: b has no loop entry of color 0
        "unstable coloring": text.replace(classes, "[CLASSES 2]\n-\t0 1\n-\t3\n").replace(
            rows, "[VERTICES 3]\n0\t0\t0 1\n1\t0\t0\n2\t1\t2\n"),
        # a's loop entry moved to c's loop color, whose entries then start at two colors
        "starts at value colors 0 and 2": text.replace(rows, rows.replace("0\t0\t0 1", "0\t0\t1 0")).replace(
            classes, classes.replace("-\t0 1", "-\t1 3")).replace("L,R\t0", "R\t0"),
        # c's color is not a row of [CLASSES]; a fourth class has no member
        "vertex 2 has color 3, which \\[CLASSES\\] does not have":
            text.replace(rows, rows.replace("2\t2\t2", "2\t3\t2")),
        "color 3 of \\[CLASSES\\] has no vertex": text.replace(classes, classes.replace("[CLASSES 3]", "[CLASSES 4]")
                                                               + "-\t\n"),
        "on no entry": text.replace(edge_colors, edge_colors.replace("[EDGE_COLORS 4]", "[EDGE_COLORS 5]")
                                    + "-\t4\n"),
    }
    for message, mutant in cases.items():
        assert mutant != text, message
        with pytest.raises(ParseError, match=message):
            DatabaseIndex.load_text(mutant)


def test_loader_checks_the_bucket_order_of_typed_rows():
    # R(a,b), R(a,c), S(a,d): a's row lists b and c in its bucket of edge
    # color 0 (R), then d in that of edge color 1 (S), as its class's keys say
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "b"), ("a", "c")], "S": [("a", "d")]})
    text = DatabaseIndex.build(db).save_text()
    row_a, class_a = "\n0\t0\t1 2 3\n", "\n-\t0 0 1\n"
    assert row_a in text and class_a in text
    misplaced = "the entries of vertex 0 are not in bucket order or include one without its flip"
    cases = [
        ("1 2 3", "0 1 1", misplaced),  # c moved into the bucket of edge color 1
        ("2 1 3", "0 0 1", misplaced),  # the bucket of edge color 0 out of ascending order
        ("1 2 3", "0 1 0", misplaced),  # keys not grouped: no bucket order gives these edge colors
        ("1 2 3 1", "0 0 1 1", "vertex 0 lists a far value twice"),  # b in both buckets
    ]
    for row, keys, message in cases:
        with pytest.raises(ParseError, match=message):
            DatabaseIndex.load_text(text.replace(row_a, f"\n0\t0\t{row}\n").replace(class_a, f"\n-\t{keys}\n"))


def test_loader_checks_the_keys_of_typed_classes():
    # R(a,b), R(c,d), R(a,a), R(c,c), S(b,d), S(d,b): the classes {a, c},
    # keys 0 (L,R; the loop) and 1 (R), and {b, d}, keys 2 (R's reverse)
    # and 3 (S, its own reverse)
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "b"), ("c", "d"), ("a", "a"), ("c", "c")],
                                           "S": [("b", "d"), ("d", "b")]})
    text = DatabaseIndex.build(db).save_text()
    classes, row_b = "[CLASSES 2]\n-\t0 1\n-\t2 3\n", "\n1\t1\t0 3\n"
    assert "[EDGE_COLORS 4]\nL,R\t0\nR\t2\n-\t1\nS\t3\n" in text and classes in text and row_b in text
    cases = {
        "the keys of value color 0 list an edge color that \\[EDGE_COLORS\\] does not have":
            text.replace(classes, classes.replace("-\t0 1", "-\t0 4")),
        # b and d list two far values each
        "vertex 1 has 2 entries, not the 1 that the keys of its color 1 list":
            text.replace(classes, classes.replace("-\t2 3", "-\t2")),
        # b's entries to a and d trade buckets: a's row still lists what its
        # entries' flips give, but their edge colors are 0 and 3, not its keys
        "the entries of vertex 0 are not in bucket order or include one without its flip":
            text.replace(row_b, "\n1\t1\t3 0\n"),
    }
    for message, mutant in cases.items():
        assert mutant != text, message
        with pytest.raises(ParseError, match=message):
            DatabaseIndex.load_text(mutant)


def test_a_pair_whose_gadgets_share_a_color():
    # w_ab and w_ba have one color: one edge color, its own reverse, no loop
    db = validate_database(BINARY_SCHEMA, {"R": [("a", "b"), ("b", "a")]})
    edges = DatabaseIndex.build(db).cindex.edges
    assert edges.rev == (0,) and edges.labels == (frozenset({"R"}),)
    assert DatabaseIndex.build(db).count(parse_query("Ans(x,y) :- R(x,y), R(y,x).", BINARY_SCHEMA)) == 2


@st.composite
def typed_instances(draw):
    """A random binary database with loops, some of its relation R closed
    under reversal so that the two gadgets of a pair can share a color, or a
    random ternary database; and a query over it."""
    if draw(st.booleans()):
        return random_relational_db(TERNARY_SCHEMA, draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                                    seed=draw(st.integers(0, 10**6))), draw(fc_queries(TERNARY_SCHEMA))
    names = [f"a{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8)
    r, s = draw(pairs), draw(pairs)
    if draw(st.booleans()):
        r += [(b, a) for a, b in r]
    raw = {"R": r, "S": s, "P": [(c,) for c in draw(st.lists(st.sampled_from(names), max_size=3))]}
    if not r + s:
        raw["R"] = [(names[0], names[0])]
    return validate_database(BINARY_SCHEMA, raw), draw(fc_queries(BINARY_SCHEMA))


@settings(max_examples=80, deadline=None)
@given(typed_instances())
def test_typed_index_is_the_projected_gadget_coloring(instance):
    # the build refines the values with typed entries; the reference refines
    # bin2graph's gadget graph and projects it with the pair map
    db, q = instance
    idx = DatabaseIndex.build(db)
    assert idx.stage in ("binary", "full")
    # the value classes of bin2graph's graph, refined
    benc = arb2bin.encode_db(db) if idx.stage == "full" else None
    bdb = db if benc is None else benc.db2
    genc = bin2graph.encode_db(bdb)
    graph = encode_loops(genc.dhat)
    gadget = refine(graph)
    values = set(bdb.active_domain())
    assert idx.cindex.coloring.partition() == {m for m in gadget.partition() if m <= values}
    assert idx.cindex.colors == gadget.num_colors
    # the same file: edge-color numbering, reverses, labels, bucket order,
    # and graph_size, the size of bin2graph's graph
    reference = DatabaseIndex(db.schema, db.pool, idx.stage, build_from_coloring(graph, gadget, genc.dhat.size),
                              db.size, gadget_node=genc.gadget_node,
                              node_proj=None if benc is None else benc.node_proj)
    assert idx.cindex.source_size == genc.dhat.size
    text = idx.save_text()
    assert text == reference.save_text()
    loaded = DatabaseIndex.load_text(text)
    assert loaded.save_text() == text
    for served in (idx, loaded):
        assert check_colorindex(served.cindex) == []
        _check_all_tasks(served, db, q)


