import random

import pytest

from colorindex.analysis import (
    check_fc1ghd,
    compute_fc1ghd,
    connected_components,
    gaifman,
    is_acyclic,
    is_free_connex_acyclic,
    is_free_connex_binary,
    spanning_forest,
    variable_order,
)
from colorindex.errors import FreeNotConnected, NotFreeConnex, NotTree
from colorindex.generators import BINARY_SCHEMA, TERNARY_SCHEMA, random_fc_query
from colorindex.model import cq
from colorindex.oracle import brute_answers
from colorindex.generators import random_relational_db

TERNARY_FC = cq(
    ["x", "y", "z"],
    [
        ("R", ["x", "y", "z"]),
        ("R", ["x", "x", "y"]),
        ("R", ["y", "y", "z"]),
        ("R", ["z", "z", "x"]),
    ],
)


def edge_names(q, g):
    return {frozenset({q.var_name(a), q.var_name(b)}) for e in g.edges for a, b in [tuple(e)]}


def test_gaifman_unary_only():
    q = cq(["x"], [("U", ["x"])])
    g = gaifman(q)
    assert len(g.vertices) == 1 and not g.edges


def test_gaifman_movie_query(movie_query):
    g = gaifman(movie_query)
    assert edge_names(movie_query, g) == {frozenset({"x", "y1"}), frozenset({"x", "y2"})}


def test_gaifman_naive_ternary_encoding_has_cycle():
    # the straightforward per-position encoding of TERNARY_FC: its Gaifman
    # graph contains the cycle x-u2-y-u3-z-u4-x, so it is not even acyclic
    atoms = []
    for ui, args in (("u1", "xyz"), ("u2", "xxy"), ("u3", "yyz"), ("u4", "zzx")):
        for pos, v in enumerate(args, start=1):
            atoms.append((f"E{pos}", [ui, v]))
    q = cq(["x", "y", "z"], atoms)
    assert not spanning_forest(q).acyclic
    assert not is_free_connex_acyclic(q)


def test_acyclic_but_not_free_connex():
    q = cq(["x", "z"], [("R", ["x", "y"]), ("R", ["y", "z"])])
    assert is_acyclic(q)
    assert not is_free_connex_acyclic(q)


def test_ternary_free_connex():
    assert is_acyclic(TERNARY_FC)
    assert is_free_connex_acyclic(TERNARY_FC)


def test_single_atom_free_connex():
    assert is_free_connex_acyclic(cq(["x", "y"], [("E", ["x", "y"])]))


def test_triangle_cyclic():
    q = cq([], [("E", ["x", "y"]), ("E", ["y", "z"]), ("E", ["z", "x"])])
    assert not is_acyclic(q)


def test_binary_characterization_agrees_with_general():
    rng = random.Random(20240817)
    pool = [f"x{i}" for i in range(6)]
    for _ in range(1000):
        atoms = []
        for _ in range(rng.randint(1, 5)):
            sym, ar = ("R", 2) if rng.random() < 0.7 else ("P", 1)
            atoms.append((sym, [rng.choice(pool) for _ in range(ar)]))
        used = sorted({v for _, a in atoms for v in a})
        head = rng.sample(used, rng.randint(0, len(used)))
        q = cq(head, atoms)
        assert is_free_connex_binary(q) == is_free_connex_acyclic(q)


def test_fc1ghd_single_atom():
    q = cq(["x", "y"], [("E", ["x", "y"])])
    h = compute_fc1ghd(q)
    assert check_fc1ghd(h) == []
    assert len(h.witness) == 1


def test_fc1ghd_movie_query(movie_query):
    h = compute_fc1ghd(movie_query)
    assert check_fc1ghd(h) == []
    names = [{movie_query.var_name(v) for v in b} for b in h.bag]
    assert {"x", "y1"} in names and {"x", "y2"} in names
    assert len(h.witness) <= 3 < 2 * 2


def test_fc1ghd_ternary():
    h = compute_fc1ghd(TERNARY_FC)
    assert check_fc1ghd(h) == []
    assert len(h.witness) == 1
    (w,) = h.witness
    assert {TERNARY_FC.var_name(v) for v in h.bag[w]} == {"x", "y", "z"}
    assert h.root == w


def test_fc1ghd_rejects_non_fc():
    q = cq(["x", "z"], [("R", ["x", "y"]), ("R", ["y", "z"])])
    with pytest.raises(NotFreeConnex):
        compute_fc1ghd(q)


def test_fc1ghd_disconnected_free():
    # free variables in different components: the witness spans both
    q = cq(["x", "u"], [("R", ["x", "y"]), ("S", ["u", "v"])])
    h = compute_fc1ghd(q)
    assert check_fc1ghd(h) == []


def test_fc1ghd_uncovered_free_pair():
    # free(Q) covered by no single atom: the split construction kicks in
    q = cq(["x", "y"], [("P", ["x"]), ("P", ["y"])])
    h = compute_fc1ghd(q)
    assert check_fc1ghd(h) == []


@pytest.mark.parametrize("schema,seed", [(BINARY_SCHEMA, 5), (TERNARY_SCHEMA, 6)])
def test_fc1ghd_invariants_random(schema, seed):
    rng = random.Random(seed)
    for _ in range(300):
        q = random_fc_query(schema, rng)
        h = compute_fc1ghd(q)
        assert check_fc1ghd(h) == [], check_fc1ghd(h)


def test_fc1ghd_dot_export(movie_query):
    dot = compute_fc1ghd(movie_query).to_dot()
    assert dot.startswith("graph") and dot.rstrip().endswith("}")
    assert "doublecircle" in dot  # witness nodes marked


def test_components_connected_query(movie_query):
    comps = connected_components(movie_query)
    assert len(comps) == 1
    assert comps[0][1] == (0, 1)


def test_components_two_parts():
    q = cq(["x", "u"], [("R", ["x", "y"]), ("S", ["u", "v"])])
    comps = connected_components(q)
    assert len(comps) == 2
    heads = [[c.var_name(v) for v in c.head] for c, _ in comps]
    assert heads == [["x"], ["u"]]


def test_components_boolean():
    q = cq([], [("R", ["x", "y"]), ("S", ["u", "v"])])
    comps = connected_components(q)
    assert len(comps) == 2
    assert all(c.is_boolean() for c, _ in comps)


def test_components_product_equals_oracle():
    rng = random.Random(99)
    schema = BINARY_SCHEMA
    for _ in range(50):
        db = random_relational_db(schema, rng.randint(2, 5), rng.randint(1, 5), seed=rng.randrange(10**6))
        q = random_fc_query(schema, rng)
        comps = connected_components(q)
        expected = set(brute_answers(q, db).answers.tuples)
        partials = []
        for comp, positions in comps:
            if comp.is_boolean():
                ok = bool(brute_answers(comp, db).answers.tuples)
                partials.append(([()] if ok else [], positions))
            else:
                partials.append((sorted(brute_answers(comp, db).answers.tuples), positions))
        out_width = len(q.head)
        results = set()

        def build(i, acc):
            if i == len(partials):
                out = [None] * out_width
                for (_, positions), t in zip(partials, acc):
                    for j, pos in enumerate(positions):
                        out[pos] = t[j]
                results.add(tuple(out))
                return
            for t in partials[i][0]:
                build(i + 1, acc + [t])

        if all(p[0] for p in partials) or expected:
            build(0, [])
        assert results == expected


def test_variable_order_single_edge():
    q = cq(["x"], [("E", ["x", "y"])])
    vo = variable_order(q)
    assert [q.var_name(v) for v in vo.order] == ["x", "y"]
    assert vo.parent[vo.order[1]] == vo.order[0]


def test_variable_order_movie_query(movie_query):
    vo = variable_order(movie_query)
    assert [movie_query.var_name(v) for v in vo.order] == ["x", "y1", "y2"]
    assert vo.root == movie_query.head[0]


def test_variable_order_boolean_path():
    q = cq([], [("E", ["x", "y"]), ("E", ["y", "z"])])
    vo = variable_order(q)
    seen = set()
    for v in vo.order:
        if v in vo.parent:
            assert vo.parent[v] in seen
        seen.add(v)


def test_variable_order_labels():
    q = cq(["x"], [("E", ["x", "y"]), ("P", ["x"]), ("Q", ["x"]), ("P", ["y"])])
    vo = variable_order(q)
    x, y = q.head[0], next(v for v in q.vars() if v != q.head[0])
    assert vo.labels[x] == {"P", "Q"}
    assert vo.labels[y] == {"P"}


def test_variable_order_not_tree():
    q = cq([], [("E", ["x", "y"]), ("E", ["y", "z"]), ("E", ["z", "x"])])
    with pytest.raises(NotTree):
        variable_order(q)


def test_variable_order_free_not_connected():
    q = cq(["x", "z"], [("E", ["x", "y"]), ("E", ["y", "z"])])
    with pytest.raises(FreeNotConnected):
        variable_order(q)


def test_variable_order_free_before_quantified():
    rng = random.Random(123)
    for _ in range(200):
        q = random_fc_query(BINARY_SCHEMA, rng, max_atoms=4, max_vars=5)
        for comp, _ in connected_components(q):
            if any(a.arity == 2 and a.args[0] == a.args[1] for a in comp.atoms):
                continue  # needs loop rewriting first
            vo = variable_order(comp)
            free = comp.free()
            k = len(free)
            assert set(vo.order[:k]) == free
            for v in vo.order:
                if v in vo.parent:
                    assert vo.order.index(vo.parent[v]) < vo.order.index(v)
