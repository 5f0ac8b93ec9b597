import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorindex.bin2graph import encode_db
from colorindex.errors import AsymmetricEdgeRelation
from colorindex.generators import (
    BINARY_SCHEMA,
    complete_binary_tree_db,
    cycle_db,
    path_db,
    random_graph_db,
    random_relational_db,
)
from colorindex.index import build_binary
from colorindex.instrument import OpCounter
from colorindex.model import Schema, validate_database
from colorindex.oracle import naive_refine
from colorindex.refinement import Coloring, encode_loops, is_stable, refine, refines_labels


def test_encode_loops_loop_free():
    g = encode_loops(cycle_db(5))
    assert all(g.loop_label not in g.vl[v] for v in g.vertices)


def test_encode_loops_single_loop_vertex():
    schema = Schema.of(("E", 2))
    db = validate_database(schema, {"E": [("a", "a")]})
    g = encode_loops(db)
    (v,) = g.vertices
    assert g.loop_label in g.vl[v]
    assert g.has_loop(v)


def test_encode_loops_asymmetric_rejected():
    schema = Schema.of(("E", 2))
    db = validate_database(schema, {"E": [("a", "b")]})
    with pytest.raises(AsymmetricEdgeRelation):
        encode_loops(db)


@pytest.mark.parametrize("edges, missing", [
    ([("a", "b")], "E(a,b)"),
    ([("c", "a"), ("a", "b"), ("b", "a")], "E(c,a)"),
    ([("a", "a"), ("b", "c"), ("c", "b"), ("a", "c")], "E(a,c)"),
])
def test_encode_loops_names_an_edge_without_its_reverse(edges, missing):
    db = validate_database(Schema.of(("E", 2)), {"E": edges})
    with pytest.raises(AsymmetricEdgeRelation, match=rf"{re.escape(missing)} present without its reverse"):
        encode_loops(db)


def test_encode_loops_rows_ascending_from_unsorted_relation():
    # path_db interns v0, v1, v2, ... but lists its edges in string order
    g = encode_loops(path_db(12))
    assert all(list(g.adj[v]) == sorted(g.adj[v]) for v in g.vertices)
    assert sum(map(len, g.adj.values())) == 2 * 11


def test_refine_path_two_colors():
    g = encode_loops(path_db(3))
    col = refine(g)
    assert col.num_colors == 2
    sizes = sorted(len(c) for c in col.classes)
    assert sizes == [1, 2]


@pytest.mark.parametrize("n", [3, 6, 11])
def test_refine_cycle_one_color(n):
    assert refine(encode_loops(cycle_db(n))).num_colors == 1


@pytest.mark.parametrize("h", [1, 3, 5])
def test_refine_binary_tree_depth_colors(h):
    g = encode_loops(complete_binary_tree_db(h))
    assert refine(g).num_colors == h + 1


def test_is_stable_discrete():
    g = encode_loops(path_db(4))
    classes = tuple((v,) for v in g.vertices)
    col = Coloring(col={v: i for i, (v,) in enumerate(classes)}, classes=classes)
    ok, witness = is_stable(g, col)
    assert ok and witness is None


def test_is_stable_monochrome_path_witness():
    g = encode_loops(path_db(3))
    col = Coloring(col={v: 0 for v in g.vertices}, classes=(tuple(g.vertices),))
    ok, witness = is_stable(g, col)
    assert not ok
    assert witness is not None and witness[0] != witness[1]


def _random_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph_db(
            rng.randint(1, 12),
            rng.random(),
            seed=rng.randrange(10**9),
            num_labels=rng.randint(0, 2),
            loop_p=rng.choice([0.0, 0.3]),
        )


def test_refine_matches_naive_oracle():
    for db in _random_graphs(150, seed=2718):
        g = encode_loops(db)
        assert refine(g).partition() == naive_refine(g).partition()


def test_refine_output_stable_and_refines_labels():
    for db in _random_graphs(100, seed=3141):
        g = encode_loops(db)
        col = refine(g)
        ok, witness = is_stable(g, col)
        assert ok, witness
        assert refines_labels(g, col)


def test_merging_any_two_classes_breaks_stability():
    for db in _random_graphs(40, seed=1618):
        g = encode_loops(db)
        col = refine(g)
        for i, j in itertools.combinations(range(col.num_colors), 2):
            merged_classes = [list(c) for k, c in enumerate(col.classes) if k not in (i, j)]
            merged_classes.append(sorted(col.classes[i] + col.classes[j]))
            mapping = {v: k for k, members in enumerate(merged_classes) for v in members}
            merged = Coloring(
                col=mapping, classes=tuple(tuple(c) for c in merged_classes)
            )
            ok, _ = is_stable(g, merged)
            assert not ok or not refines_labels(g, merged)


@pytest.mark.parametrize("make, size", [
    *((path_db, n) for n in (1000, 4000, 16000)),
    *((complete_binary_tree_db, h) for h in (10, 11, 12, 13)),
    *((cycle_db, n) for n in (1000, 4000, 16000)),
])
def test_refine_ops_within_n_plus_m_log_n(make, size):
    g = encode_loops(make(size))
    n, m = len(g.vertices), sum(len(g.adj[v]) for v in g.vertices)
    ops = OpCounter()
    refine(g, ops)
    assert n <= ops.n <= 2 * (n + m) * math.log2(n + 1)


def _replicas(db, copies, bridges, symmetric, rng):
    """copies renamed copies of db, plus `bridges` random edges between
    copies (with their reverses when symmetric): many equal colors, and some
    classes that split only partly."""
    raw = {name: [tuple(f"{db.display(c)}_{i}" for c in t) for i in range(copies) for t in tuples]
           for name, tuples in db.relations.items()}
    edge = db.schema.binary_symbols()[0]
    names = sorted({c for t in raw[edge] for c in t})
    for _ in range(bridges if names else 0):
        a, b = rng.choice(names), rng.choice(names)
        raw[edge] += [(a, b), (b, a)] if symmetric else [(a, b)]
    return validate_database(db.schema, raw)


def _typed_inputs():
    base = random_relational_db(BINARY_SCHEMA, 8, 14, seed=1)
    for copies in (25, 100, 400):  # many equal colors
        yield _replicas(base, copies, 3, False, random.Random(copies))
    for n in (250, 1000, 4000):  # nearly discrete
        yield random_relational_db(BINARY_SCHEMA, n, n // 2, seed=n)


@pytest.mark.parametrize("db", list(_typed_inputs()), ids=lambda db: f"{len(db.active_domain())}-values")
def test_typed_refine_ops_within_n_plus_m_log_n(db):
    # n values, m typed entries: one per ordered pair of related values
    ops = OpCounter()
    ci = build_binary(db, ops)
    n, m = len(ci.graph.vertices), sum(map(len, ci.graph.adj.values()))
    assert m > n > 0
    assert n <= ops.n <= 2 * (n + m) * math.log2(n + 1)


@st.composite
def labeled_graphs(draw):
    """Random labeled graphs with loops, 30-300 vertices before bridging."""
    k = draw(st.integers(3, 30))
    base = random_graph_db(k, draw(st.floats(0.5, 4.0)) / k, seed=draw(st.integers(0, 10**9)),
                           num_labels=draw(st.integers(0, 2)), loop_p=draw(st.sampled_from([0.0, 0.1, 0.3])))
    size = max(1, len(base.active_domain()))
    copies = draw(st.integers(-(-30 // size), max(-(-30 // size), 300 // size)))
    return _replicas(base, copies, draw(st.integers(0, 3)), True, random.Random(draw(st.integers(0, 10**9))))


@st.composite
def replicated_binary_dbs(draw):
    """Random binary databases, replicated the same way."""
    base = random_relational_db(BINARY_SCHEMA, draw(st.integers(2, 12)), draw(st.integers(1, 20)),
                                seed=draw(st.integers(0, 10**9)))
    copies = draw(st.integers(1, 6))
    return _replicas(base, copies, draw(st.integers(0, 3)), False, random.Random(draw(st.integers(0, 10**9))))


@st.composite
def gadget_graphs(draw):
    """bin2graph encodings of replicated random binary databases."""
    return encode_db(draw(replicated_binary_dbs())).dhat


@settings(max_examples=100, deadline=None)
@given(labeled_graphs())
def test_refine_matches_naive_oracle_on_larger_graphs(db):
    g = encode_loops(db)
    assert refine(g).partition() == naive_refine(g).partition()


@settings(max_examples=100, deadline=None)
@given(gadget_graphs())
def test_refine_matches_naive_oracle_on_gadget_graphs(dhat):
    g = encode_loops(dhat)
    assert refine(g).partition() == naive_refine(g).partition()


@settings(max_examples=100, deadline=None)
@given(replicated_binary_dbs())
def test_typed_refine_is_the_gadget_refinement_on_the_values(db):
    # refining the values with typed entries splits them as refining
    # bin2graph's gadget graph does
    gadget = refine(encode_loops(encode_db(db).dhat))
    values = db.active_domain()
    assert build_binary(db).coloring.partition() == {m for m in gadget.partition() if m <= values}
