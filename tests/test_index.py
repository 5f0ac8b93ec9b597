import random

import pytest

from colorindex.errors import AsymmetricEdgeRelation
from colorindex.generators import (
    BINARY_SCHEMA,
    TERNARY_SCHEMA,
    complete_binary_tree_db,
    cycle_db,
    path_db,
    random_graph_db,
    random_relational_db,
)
from colorindex.index import (
    build,
    check_colorindex,
    read_sections,
    write_sections,
    SectionReader,
)
from colorindex.model import Schema, cq, validate_database
from colorindex.pipeline import DatabaseIndex
from colorindex.textio import parse_query


def test_build_cycle6():
    idx = build(cycle_db(6))
    assert idx.colors == 1
    assert idx.n_c(0) == 6
    assert idx.num_n(0, 0) == 2
    assert idx.d_col.rel(idx.edge_label) == ((0, 0),)


def test_build_path3():
    idx = build(path_db(3))
    assert idx.colors == 2
    end, mid = (0, 1) if idx.n_c(0) == 2 else (1, 0)
    assert idx.num_n(end, mid) == 1
    assert idx.num_n(mid, end) == 2
    edges = set(idx.d_col.rel(idx.edge_label))
    assert edges == {(end, mid), (mid, end)}


def test_build_isolated_vertex():
    schema = Schema.of(("E", 2), ("P", 1))
    db = validate_database(schema, {"P": [("a",)]})
    idx = build(db)
    assert idx.colors == 1
    assert idx.d_col.rel(idx.edge_label) == ()


def test_build_asymmetric_rejected():
    schema = Schema.of(("E", 2))
    db = validate_database(schema, {"E": [("a", "b")]})
    with pytest.raises(AsymmetricEdgeRelation):
        build(db)


def test_neighbors_by_color():
    idx = build(cycle_db(6))
    assert idx.buckets == ({0: slice(0, 2)},)
    for v in idx.graph.vertices:
        assert len(idx.graph.adj[v][idx.buckets[0][0]]) == 2
    assert 99 not in idx.buckets[0]


def test_rows_are_in_bucket_order():
    # path 0-1-2-3-4: colors {0,4}, {1,3}, {2}; vertex 1's row lists 0 (color
    # 0) before 2 (color 2), and vertex 2's lists 1 and 3 in one bucket
    idx = build(path_db(5))
    assert idx.coloring.classes == ((0, 4), (1, 3), (2,))
    assert idx.graph.adj == {0: (1,), 4: (3,), 1: (0, 2), 3: (4, 2), 2: (1, 3)}
    assert idx.buckets[1] == {0: slice(0, 1), 2: slice(1, 2)} and idx.buckets[2] == {1: slice(0, 2)}


def test_neighbors_by_color_loop_includes_self():
    schema = Schema.of(("E", 2))
    db = validate_database(schema, {"E": [("a", "a")]})
    idx = build(db)
    (v,) = idx.graph.vertices
    assert v in idx.graph.adj[v][idx.buckets[idx.color_of(v)][idx.color_of(v)]]


def test_stats_cycle100():
    idx = build(cycle_db(100))
    assert idx.source_size == 200
    assert idx.colors == 1
    assert idx.d_col_size == 1
    assert idx.color_ratio == 0.01


def test_stats_tree_h6():
    assert build(complete_binary_tree_db(6)).colors == 7


def test_stats_random_graph_mostly_discrete():
    idx = build(random_graph_db(50, 0.5, seed=4))
    assert idx.colors >= 45  # with high probability every vertex gets its own color


def test_invariants_random():
    rng = random.Random(77)
    for _ in range(60):
        db = random_graph_db(
            rng.randint(1, 10),
            rng.random(),
            seed=rng.randrange(10**9),
            num_labels=rng.randint(0, 2),
            loop_p=0.25,
        )
        idx = build(db)
        assert check_colorindex(idx) == []


def test_degree_sum_property():
    rng = random.Random(88)
    for _ in range(30):
        db = random_graph_db(rng.randint(2, 9), rng.random(), seed=rng.randrange(10**9), loop_p=0.2)
        idx = build(db)
        for c in range(idx.colors):
            v = idx.coloring.classes[c][0]
            assert sum(idx.num_n(c, cp) for cp in range(idx.colors)) == len(idx.graph.adj[v])


def test_serialization_round_trip_bit_identical():
    for db in (cycle_db(8), path_db(5), complete_binary_tree_db(4)):
        idx = build(db)
        text = "\n".join(write_sections(idx))
        labels = (idx.graph.label_universe, idx.loop_label, idx.edge_label)  # the file does not store them
        idx2 = read_sections(SectionReader(text.splitlines()), idx.source_size, labels)
        assert "\n".join(write_sections(idx2)) == text
        assert idx2.deg == idx.deg
        assert idx2.coloring.partition() == idx.coloring.partition()



def _served(idx, text):
    q = parse_query(text, idx.schema)
    qb = cq([], [(a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])
    return idx.eval_bool(qb), idx.count(q), sorted(idx.enumerate(q))


def test_loaded_index_serves_without_the_color_database():
    db = random_relational_db(TERNARY_SCHEMA, 5, 8, seed=3)
    built = DatabaseIndex.build(db)
    idx = DatabaseIndex.load_text(built.save_text())
    text = "Ans(x) :- T(x,y,z), R(z,w)."
    served = _served(idx, text)
    assert served == _served(built, text) and served[1] > 0
    assert "d_col" not in idx.cindex.__dict__ and "d_col" not in built.cindex.__dict__


@pytest.mark.parametrize("stage,db", [
    ("graph", random_graph_db(9, 0.4, seed=2, num_labels=2, loop_p=0.3)),
    ("binary", random_relational_db(BINARY_SCHEMA, 6, 10, seed=2)),
    ("full", random_relational_db(TERNARY_SCHEMA, 4, 6, seed=2)),
])
def test_d_col_size_from_the_tables(stage, db):
    idx = DatabaseIndex.build(db)
    assert idx.stage == stage
    ci = idx.cindex
    assert ci.d_col_size == ci.d_col.size > 0
    assert check_colorindex(ci) == []


def test_check_colorindex_flags_typed_faults():
    import dataclasses

    ci = DatabaseIndex.build(random_relational_db(BINARY_SCHEMA, 6, 10, seed=2)).cindex
    assert ci.edges is not None and check_colorindex(ci) == []
    e = ci.edges
    flipped = dataclasses.replace(e, rev=tuple(range(len(e.rev))))  # every edge color its own reverse
    assert any("flip" in p for p in check_colorindex(dataclasses.replace(ci, edges=flipped)))
    moved = dataclasses.replace(e, src=tuple(reversed(e.src)))
    assert any("does not run from" in p for p in check_colorindex(dataclasses.replace(ci, edges=moved)))
    v = next(v for v in ci.graph.vertices if len(ci.graph.adj[v]) > 1)
    row = ci.graph.adj[v]

    def with_row(new_row):
        return dataclasses.replace(ci, graph=dataclasses.replace(ci.graph, adj={**ci.graph.adj, v: new_row}))

    assert any("degree mismatch" in p for p in check_colorindex(with_row(row[1:])))
    assert any("lacks its flip" in p or "not ascending" in p for p in check_colorindex(with_row(row[::-1])))
    c = ci.color_of(v)
    shifted = {k: slice(s.start + 1, s.stop + 1) for k, s in ci.buckets[c].items()}
    buckets = ci.buckets[:c] + (shifted,) + ci.buckets[c + 1:]
    assert any("offsets" in p for p in check_colorindex(dataclasses.replace(ci, buckets=buckets)))


def test_check_colorindex_flags_a_tampered_num():
    # num[e] is derived from deg on build and load; the check compares the
    # two for every edge color, and the typed DP lift reads num alone
    import dataclasses

    ci = DatabaseIndex.build(random_relational_db(BINARY_SCHEMA, 6, 10, seed=2)).cindex
    e = ci.edges
    assert e.num == tuple(ci.num_n(c, k) for k, c in enumerate(e.src))
    assert check_colorindex(ci) == []
    bumped = dataclasses.replace(e, num=(e.num[0] + 1,) + e.num[1:])
    problems = check_colorindex(dataclasses.replace(ci, edges=bumped))
    assert problems == [f"num[0] = {e.num[0] + 1} is not numN({e.src[0]}, 0) = {e.num[0]}, which deg lists"]
    short = dataclasses.replace(e, num=e.num[:-1])
    assert any("entries for" in p for p in check_colorindex(dataclasses.replace(ci, edges=short)))
