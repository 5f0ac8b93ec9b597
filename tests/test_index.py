import random

import pytest

from colorindex.errors import AsymmetricEdgeRelation
from colorindex.generators import (
    complete_binary_tree_db,
    cycle_db,
    path_db,
    random_graph_db,
)
from colorindex.index import (
    build,
    check_colorindex,
    dump_coloring,
    neighbors_by_color,
    read_sections,
    stats,
    write_sections,
    SectionReader,
)
from colorindex.model import Schema, validate_database


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
    for v in idx.graph.vertices:
        ns = neighbors_by_color(idx, v, 0)
        assert len(ns) == 2
    assert neighbors_by_color(idx, idx.graph.vertices[0], 99) == ()


def test_neighbors_by_color_loop_includes_self():
    schema = Schema.of(("E", 2))
    db = validate_database(schema, {"E": [("a", "a")]})
    idx = build(db)
    (v,) = idx.graph.vertices
    assert v in neighbors_by_color(idx, v, idx.color_of(v))


def test_stats_cycle100():
    st = stats(build(cycle_db(100)))
    assert st.source_size == 200
    assert st.num_colors == 1
    assert st.d_col_size == 1
    assert st.color_ratio == 0.01


def test_stats_tree_h6():
    assert stats(build(complete_binary_tree_db(6))).num_colors == 7


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
        idx2 = read_sections(SectionReader(text.splitlines()), idx.source_size)
        assert "\n".join(write_sections(idx2)) == text
        assert idx2.deg == idx.deg
        assert idx2.coloring.partition() == idx.coloring.partition()


def test_dump_coloring_format():
    idx = build(path_db(3))
    lines = dump_coloring(idx, display=str).splitlines()
    assert len(lines) == 3
    assert all("\t" in ln for ln in lines)
