import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorindex import index as cidx
from colorindex.errors import NotAcyclic, NotFreeConnex, TaskMismatch, UnknownSymbol
from colorindex.evaluator import (
    components,
    count_answers,
    enumerate_prepared,
    eval_bool,
    prepare,
)
from colorindex.generators import BINARY_SCHEMA, cycle_db, random_graph_db, random_relational_db, star_db
from colorindex.instrument import OpCounter
from colorindex.model import Schema, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.textio import parse_query


def build(db):
    return cidx.build(db)


def test_rewrite_loop_atom():
    # an edge atom E(x, x) is read as the loop label on x
    idx = build(cycle_db(3))
    q = cq(["x"], [("E", ["x", "x"])])
    (comp,) = components(q, idx)
    assert comp.order == (0,) and comp.parent == (-1,)
    assert comp.only == (idx.label_colors[idx.loop_label],)


def test_rewrite_keeps_loop_free_query():
    idx = build(with_unary(cycle_db(3), P=["v0"]))
    q = cq(["x"], [("E", ["x", "y"]), ("P", ["x"])])
    (comp,) = components(q, idx)
    assert comp.order == (0, 1) and comp.only == (idx.label_colors["P"], None)


def with_unary(db, **labels):
    """db with one more unary relation per keyword, holding the named
    constants; an empty list declares a label that no constant carries."""
    schema = Schema(db.schema.symbols + tuple((u, 1) for u in labels))
    raw = {s: [tuple(map(db.display, t)) for t in db.rel(s)] for s in db.schema.names}
    return validate_database(schema, {**raw, **{u: [(c,) for c in cs] for u, cs in labels.items()}})


@pytest.mark.parametrize("typed", [False, True])
def test_unknown_unary_symbol_is_an_error(typed):
    idx = (cidx.build_binary(random_relational_db(BINARY_SCHEMA, 4, 6, seed=1)) if typed
           else build(cycle_db(4)))
    q = cq(["x"], [("Zzz", ["x"])])
    for call in (components, count_answers, prepare):
        with pytest.raises(UnknownSymbol, match="'Zzz' is not a vertex label of the index"):
            call(q, idx)
    with pytest.raises(UnknownSymbol, match="not a vertex label"):
        eval_bool(cq([], [("Zzz", ["x"])]), idx)


@pytest.mark.parametrize("typed", [False, True])
def test_only_is_the_colors_the_unary_and_loop_atoms_allow(typed):
    # per position, only equals the colors of the source vertices that carry
    # every unary label of its variable and have each of its loops; Z labels
    # no vertex, so a query that reads it counts 0
    rng = random.Random(2024 + typed)
    for _ in range(60):
        n = rng.randint(2, 7)
        if typed:
            db = random_relational_db(BINARY_SCHEMA, n, rng.randint(1, 2 * n), seed=rng.randrange(10**9))
            binary, unary = ("R", "S"), ["P", "Z"]
        else:
            db = random_graph_db(n, rng.random(), seed=rng.randrange(10**9), num_labels=2, loop_p=0.4)
            binary, unary = ("E",), ["P0", "P1", "Z"]
        db = with_unary(db, Z=[])
        idx = cidx.build_binary(db) if typed else build(db)
        holds = {s: set(db.rel(s)) for s in db.schema.names}
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        atoms, want, shared = [], {}, {}
        for i, x in enumerate(names):
            if i:
                y = rng.choice(names[:i])
                atoms.append((rng.choice(binary), [x, y] if rng.random() < 0.5 else [y, x]))
            us = rng.sample(unary, rng.randint(len(names) == 1, 2))  # a lone variable needs an atom
            loops = rng.sample(binary, rng.randint(0, len(binary)))
            atoms += [(u, [x]) for u in us] + [(r, [x, x]) for r in loops]
            if us or loops:
                want[x] = frozenset(idx.color_of(v) for v in idx.graph.vertices
                                    if all((v,) in holds[u] for u in us)
                                    and all((v, v) in holds[r] for r in loops))
            if len(us) == 1 and not loops:
                shared[x] = idx.label_colors[us[0]]
        q = cq(names[:rng.randint(0, len(names))], atoms)
        (comp,) = components(q, idx)
        only = {q.var_name(v): colors for v, colors in zip(comp.order, comp.only)}
        assert only == {x: want.get(x) for x in names}
        for x, colors in shared.items():
            assert only[x] is colors  # the index's set, not a copy
        n_answers = len(brute_answers(q, db).answers.tuples)
        assert count_answers(q, idx) == n_answers
        if any(("Z", [x]) in atoms for x in names):
            assert n_answers == 0


def test_rewrite_mixed_matches_oracle():
    rng = random.Random(41)
    for _ in range(40):
        db = random_graph_db(rng.randint(2, 7), rng.random(), seed=rng.randrange(10**9), loop_p=0.4)
        idx = build(db)
        q = cq(["x", "y"], [("E", ["x", "y"]), ("E", ["y", "y"])])
        got = set(enumerate_prepared(prepare(q, idx)))
        assert got == set(brute_answers(q, db).answers.tuples)


def test_eval_bool_rejects_cyclic():
    db = cycle_db(6)
    idx = build(db)
    q = parse_query("Ans() :- E(x,y), E(y,z), E(z,x).", db.schema)
    with pytest.raises(NotAcyclic):
        eval_bool(q, idx)


def test_eval_bool_rejects_non_boolean_as_task_mismatch():
    idx = build(cycle_db(6))
    with pytest.raises(TaskMismatch, match="only allowed for Boolean queries"):
        eval_bool(cq(["x"], [("E", ["x", "y"])]), idx)


def test_eval_bool_loop_label_empty():
    db = cycle_db(6)
    idx = build(db)
    q = parse_query("Ans() :- E(x,y), E(y,y).", db.schema)
    assert not eval_bool(q, idx)


def test_eval_bool_edge_exists():
    idx = build(cycle_db(6))
    q = parse_query("Ans() :- E(x,y).", cycle_db(6).schema)
    assert eval_bool(q, idx)


def test_enumerate_full_query_cycle4():
    db = cycle_db(4)
    idx = build(db)
    q = parse_query("Ans(x,y) :- E(x,y).", db.schema)
    got = list(enumerate_prepared(prepare(q, idx)))
    assert len(got) == len(set(got)) == 8


def test_enumerate_projected_on_star():
    db = star_db(3)
    idx = build(db)
    q = parse_query("Ans(x) :- E(x,y), E(y,z).", db.schema)
    got = set(enumerate_prepared(prepare(q, idx)))
    assert got == set(brute_answers(q, db).answers.tuples)
    assert len(got) == 4


def test_enumerate_empty_answer():
    db = cycle_db(5)
    idx = build(db)
    q = parse_query("Ans(x) :- E(x,x).", db.schema)
    assert list(enumerate_prepared(prepare(q, idx))) == []


def test_enumerate_rejects_non_fc():
    db = cycle_db(5)
    idx = build(db)
    q = parse_query("Ans(x,z) :- E(x,y), E(y,z).", db.schema)
    with pytest.raises(NotFreeConnex):
        list(enumerate_prepared(prepare(q, idx)))


def test_count_full_two_path_on_cycle4():
    db = cycle_db(4)
    idx = build(db)
    q = parse_query("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).", db.schema)
    assert count_answers(q, idx) == 16


def test_count_on_empty_db():
    schema = Schema.of(("E", 2), ("P", 1))
    db = validate_database(schema, {"P": [("a",)]})
    idx = build(db)
    q = parse_query("Ans(x,y) :- E(x,y).", schema)
    assert count_answers(q, idx) == 0


def test_cross_component_enum_and_count():
    schema = Schema.of(("E", 2), ("P", 1))
    db = validate_database(
        schema, {"E": [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")], "P": [("a",), ("c",)]}
    )
    idx = build(db)
    q = cq(["x", "u"], [("P", ["x"]), ("P", ["u"])])
    got = set(enumerate_prepared(prepare(q, idx)))
    assert got == set(brute_answers(q, db).answers.tuples)
    assert count_answers(q, idx) == len(got) == 4


def test_color_tuple_membership_and_disjointness():
    # Every enumerated tuple's color pattern is an answer over the color
    # database, and distinct color patterns yield disjoint outputs.
    from colorindex import engine

    db = random_graph_db(7, 0.5, seed=12, num_labels=1, loop_p=0.2)
    idx = build(db)
    q = cq(["x", "y"], [("E", ["x", "y"]), ("E", ["y", "z"])])
    plan = prepare(q, idx)
    (comp,) = plan.components
    # the color patterns come from the baseline engine on the color database,
    # for the query (its one component) with its head in the enumeration order
    name = q.var_name
    reordered = cq(
        [name(v) for v in comp.order[:comp.n_free]],
        [(a.symbol, [name(v) for v in a.args]) for a in q.atoms],
    )
    color_answers = engine.answers(reordered, idx.d_col)
    k = comp.n_free
    seen_by_pattern: dict[tuple, set] = {}
    for t in enumerate_prepared(plan):
        bfs_tuple = [0] * k
        for j, pos in enumerate(comp.head_positions):
            bfs_tuple[comp.sel[j]] = t[pos]
        pattern = tuple(idx.color_of(v) for v in bfs_tuple)
        assert pattern in color_answers
        seen_by_pattern.setdefault(pattern, set()).add(t)
    patterns = list(seen_by_pattern)
    for i, p1 in enumerate(patterns):
        for p2 in patterns[i + 1 :]:
            assert not (seen_by_pattern[p1] & seen_by_pattern[p2])


def test_counting_matches_oracle_random():
    rng = random.Random(515)
    for _ in range(120):
        db = random_graph_db(
            rng.randint(2, 7), rng.random() * 0.8, seed=rng.randrange(10**9),
            num_labels=rng.randint(0, 2), loop_p=0.3,
        )
        idx = build(db)
        from colorindex.generators import random_fc_query

        q = random_fc_query(db.schema, rng)
        expected = brute_answers(q, db)
        assert count_answers(q, idx) == len(expected.answers)
        got = list(enumerate_prepared(prepare(q, idx)))
        assert len(got) == len(set(got))
        assert set(got) == set(expected.answers.tuples)
        if q.is_full():
            assert count_answers(q, idx) == expected.hom_count


def test_boolean_three_way_agreement():
    # indexed Boolean result == baseline on the loop-encoded data == oracle
    from colorindex import engine
    from colorindex.model import Database
    from colorindex.refinement import encode_loops

    rng = random.Random(616)
    for _ in range(60):
        db = random_graph_db(
            rng.randint(2, 6), rng.random(), seed=rng.randrange(10**9),
            num_labels=rng.randint(0, 1), loop_p=0.3,
        )
        idx = build(db)
        from colorindex.generators import random_fc_query

        q = random_fc_query(db.schema, rng, max_atoms=4, max_vars=4)
        if not q.is_boolean():
            q = cq([], [(a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])
        g = idx.graph
        d_l = Database(
            schema=Schema(tuple((u, 1) for u in g.label_universe) + ((g.edge_label, 2),)),
            relations={
                **{u: tuple(sorted((v,) for v in g.vertices if u in g.vl[v])) for u in g.label_universe},
                g.edge_label: tuple(sorted((v, u) for v in g.vertices for u in g.adj[v])),
            },
            pool=db.pool,
        )
        # the loop rewrite: E(x, x) becomes the loop label on x
        q_l = cq([], [(idx.loop_label, [q.var_name(a.args[0])]) if a.arity == 2 and a.args[0] == a.args[1]
                      else (a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])
        via_index = eval_bool(q, idx)
        via_d_l = engine.bool_eval(q_l, d_l)
        via_oracle = bool(brute_answers(q, db).answers.tuples)
        assert via_index == via_d_l == via_oracle


def test_prepare_ops_bounded_by_color_db():
    # per-query preprocessing touches the color database, not the data
    q = parse_query("Ans(x1,x2) :- E(x1,x2), E(x2,x3).", cycle_db(3).schema)
    ops_small, ops_large = OpCounter(), OpCounter()
    prepare(q, build(cycle_db(100)), ops_small)
    prepare(q, build(cycle_db(10000)), ops_large)
    assert ops_large.n == ops_small.n


def test_prepare_ops_within_count_ops_on_ternary():
    # enumeration preprocessing is the counting DP plus one pass over the
    # color edges per free variable: close to the count, not a multiple
    from colorindex.generators import TERNARY_SCHEMA, random_relational_db
    from colorindex.pipeline import DatabaseIndex

    idx = DatabaseIndex.build(random_relational_db(TERNARY_SCHEMA, 4, 8, seed=1))
    assert idx.stage == "full"
    qhat = idx.translate(parse_query("Ans(x) :- T(x,y,z), R(z,w).", TERNARY_SCHEMA)).qhat
    ops_prepare, ops_count = OpCounter(), OpCounter()
    prepare(qhat, idx.cindex, ops_prepare)
    count_answers(qhat, idx.cindex, ops_count)
    assert ops_prepare.n <= 1.5 * ops_count.n


def test_count_ops_sparse_on_ternary():
    # the DP carries only the colors that can still match: the dense rows
    # took 52,023 ops here, one entry per color at every step
    from colorindex.generators import TERNARY_SCHEMA, random_relational_db
    from colorindex.pipeline import DatabaseIndex

    idx = DatabaseIndex.build(random_relational_db(TERNARY_SCHEMA, 4, 8, seed=1))
    qhat = idx.translate(parse_query("Ans(x) :- T(x,y,z), R(z,w).", TERNARY_SCHEMA)).qhat
    ops = OpCounter()
    count_answers(qhat, idx.cindex, ops)
    assert ops.n <= 10_000


def test_empty_bag_witness_nodes_stay_quantified():
    # the fc-1-GHD of this query has empty-bag witness nodes (A0); they
    # decode no variable, so the translated head leaves them out
    from colorindex.generators import TERNARY_SCHEMA
    from colorindex.pipeline import DatabaseIndex

    db = validate_database(TERNARY_SCHEMA, {"T": [("a", "b", "a")], "R": [("b", "a")], "P": [("a",), ("b",)]})
    idx = DatabaseIndex.build(db)
    assert idx.stage == "full"
    q = parse_query("Ans(x,y,z) :- P(x), P(y), P(z).", TERNARY_SCHEMA)
    qhat = idx.translate(q).qhat
    a0_vars = {a.args[0] for a in qhat.atoms if a.symbol == "A0"}
    assert a0_vars and not a0_vars & set(qhat.head)
    steps = OpCounter()
    got, gaps, last = [], [], 0
    for t in idx.enumerate(q, steps=steps):
        gaps.append(steps.n - last)
        last = steps.n
        got.append(t)
    assert len(got) == len(set(got)) == idx.count(q) == 8
    assert set(got) == set(brute_answers(q, db).answers.tuples)
    assert max(gaps[1:]) < 28  # with A0 in the head, two extra components took 28


STEP_GAP_K = 8  # steps between consecutive answers, per free variable of the translated query


@st.composite
def fc_queries(draw, schema: Schema):
    """Free-connex acyclic queries of one to three connected components.

    Each component grows from its root by atoms that share one anchor
    variable with the component and are otherwise fresh (or repeat the
    anchor, giving loops and equality patterns), so its hypergraph is a tree
    of atoms. The root of a non-Boolean component is free, and the fresh
    variables of an atom anchored at a free variable are free or quantified
    together: the free variables form a connected subtree, and quantified
    branches hang under free variables. A component after the first may be
    Boolean.
    """
    arity = dict(schema.symbols)
    symbols = sorted(arity)
    fresh = itertools.count()
    atoms: list[tuple[str, list[str]]] = []
    head: list[str] = []
    n_comps = draw(st.integers(1, 3))
    for ci in range(n_comps):
        root = f"v{next(fresh)}"
        variables = [root]
        free = set() if ci and draw(st.booleans()) else {root}
        for _ in range(draw(st.integers(1, 4 if n_comps == 1 else 2))):
            anchor = draw(st.sampled_from(variables))
            sym = draw(st.sampled_from(symbols))
            keep_free = anchor in free and draw(st.booleans())
            others: list[str] = []
            for _ in range(arity[sym] - 1):
                if draw(st.integers(0, 4)) == 0:
                    others.append(anchor)
                    continue
                v = f"v{next(fresh)}"
                variables.append(v)
                others.append(v)
                if keep_free:
                    free.add(v)
            at = draw(st.integers(0, len(others)))
            atoms.append((sym, others[:at] + [anchor] + others[at:]))
        head += sorted(free)
    return cq(draw(st.permutations(head)), atoms)


@st.composite
def instances(draw):
    from colorindex.generators import BINARY_SCHEMA, TERNARY_SCHEMA, random_relational_db

    kind = draw(st.sampled_from(["graph", "binary", "ternary"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "graph":
        db = random_graph_db(draw(st.integers(2, 5)), draw(st.sampled_from([0.2, 0.5, 0.8])), seed,
                             num_labels=draw(st.integers(0, 2)), loop_p=0.3)
    else:
        schema = BINARY_SCHEMA if kind == "binary" else TERNARY_SCHEMA
        db = random_relational_db(schema, draw(st.integers(2, 4)), draw(st.integers(1, 4)), seed)
    return db, draw(fc_queries(db.schema))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_enumeration_matches_oracle_property(instance):
    from colorindex.analysis import is_free_connex_acyclic
    from colorindex.pipeline import DatabaseIndex

    db, q = instance
    assert is_free_connex_acyclic(q)
    idx = DatabaseIndex.build(db)
    steps = OpCounter()
    got, gaps, last = [], [], 0
    for t in idx.enumerate(q, steps=steps):
        gaps.append(steps.n - last)
        last = steps.n
        got.append(t)
    assert len(got) == len(set(got))
    assert set(got) == set(brute_answers(q, db).answers.tuples)
    assert idx.count(q) == len(got)
    # the delay bound is in the free variables of the query that is run
    free = len(idx.translate(q).qhat.head)
    assert max(gaps[1:], default=0) <= STEP_GAP_K * max(1, free)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_count_and_bool_match_oracle_property(instance):
    from colorindex.pipeline import DatabaseIndex

    db, q = instance
    idx = DatabaseIndex.build(db)
    expected = brute_answers(q, db).answers
    assert count_answers(idx.translate(q).qhat, idx.cindex) == len(expected)
    q_bool = cq([], [(a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])
    assert eval_bool(idx.translate(q_bool).qhat, idx.cindex) == bool(expected)


@pytest.mark.parametrize("stage", ["graph", "binary"])
@pytest.mark.parametrize("broken", ["missing", "empty"])
def test_enumeration_raises_on_a_broken_neighbor_table(stage, broken):
    # every table entry opens a non-empty bucket of a stable coloring; a
    # row that lost its entries, or offsets that give an empty slice, make a
    # broken index, and enumeration must not skip it and yield fewer answers
    from colorindex.generators import BINARY_SCHEMA
    from colorindex.pipeline import DatabaseIndex

    if stage == "graph":
        db = cycle_db(6)
        q = parse_query("Ans(x,y) :- E(x,y).", db.schema)
    else:
        db = validate_database(BINARY_SCHEMA, {"R": [("a", "b"), ("b", "c")]})
        q = parse_query("Ans(x,y) :- R(x,y).", BINARY_SCHEMA)
    idx = DatabaseIndex.build(db)
    assert idx.stage == stage
    assert len(list(idx.enumerate(q))) == idx.count(q) > 0
    ci = idx.cindex
    v = ci.graph.vertices[0] if stage == "graph" else db.pool.intern("a")
    if broken == "missing":
        ci.graph.adj[v] = ()
    else:
        buckets = ci.buckets[ci.color_of(v)]
        buckets[next(iter(buckets))] = slice(0, 0)
    with pytest.raises(AssertionError, match="stability violated"):
        list(idx.enumerate(q))


def test_counting_steps_is_not_a_second_code_path():
    from colorindex.generators import BINARY_SCHEMA, random_relational_db
    from colorindex.pipeline import DatabaseIndex

    db = random_relational_db(BINARY_SCHEMA, 8, 16, seed=3)
    idx = DatabaseIndex.build(db)
    q = parse_query("Ans(x,y,z) :- R(x,y), S(y,z).", BINARY_SCHEMA)
    plain = list(idx.enumerate(q))
    assert plain and plain == list(idx.enumerate(q, steps=OpCounter()))


def test_step_count_on_a_cycle_is_pinned():
    # one color, so one bucket per level: a step is a draw (one that finds
    # the bucket spent included) or a bucket opened.  Each x1 costs its
    # draw, a bucket of two x2 (open, 2 draws, spent) and per x2 a bucket
    # of two x3: 1 + 4 + 2 * 4 = 13
    from colorindex.pipeline import DatabaseIndex

    db = cycle_db(400)
    idx = DatabaseIndex.build(db)
    q = parse_query("Ans(x1,x2,x3) :- E(x1,x2), E(x2,x3).", db.schema)
    steps = OpCounter()
    gaps, last = [], 0
    for _ in idx.enumerate(q, steps=steps):
        gaps.append(steps.n - last)
        last = steps.n
    assert len(gaps) == 1600
    assert steps.n == 5202  # the root bucket: open, 400 * 13, spent
    assert max(gaps[1:]) == 7
