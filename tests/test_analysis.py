import dataclasses
import functools
import random
from collections import Counter

import pytest

from colorindex import index as cidx
from colorindex.analysis import (
    check_fc1ghd,
    compute_fc1ghd,
    is_acyclic,
    is_free_connex_acyclic,
    join_tree,
    spanning_forest,
)
from colorindex.errors import NotFreeConnex
from colorindex.evaluator import components
from colorindex.generators import (
    BINARY_SCHEMA,
    TERNARY_SCHEMA,
    random_fc_query,
    random_graph_db,
    random_relational_db,
)
from colorindex.model import Schema, cq, validate_database
from colorindex.oracle import brute_answers
from colorindex.textio import parse_query

# an index over the graph schema E/2, P/1, Q/1: components() reads its edge
# label and the colors of its vertex labels and its loop label; the triangle
# has P on v0 and v1 and Q on v1, so Q's colors are a subset of P's
GRAPH_INDEX = cidx.build(validate_database(
    Schema.of(("E", 2), ("P", 1), ("Q", 1)),
    {"E": [(f"v{i}", f"v{j}") for i in range(3) for j in range(3) if i != j],
     "P": [("v0",), ("v1",)], "Q": [("v1",)]}))
# a typed index over BINARY_SCHEMA: components() reads its relations R and S
TYPED_INDEX = cidx.build_binary(random_relational_db(BINARY_SCHEMA, 4, 6, seed=1))

TERNARY_FC = cq(
    ["x", "y", "z"],
    [
        ("R", ["x", "y", "z"]),
        ("R", ["x", "x", "y"]),
        ("R", ["y", "y", "z"]),
        ("R", ["z", "z", "x"]),
    ],
)


def edge_names(q, forest):
    return {frozenset({q.var_name(a), q.var_name(b)}) for a, b in forest.edges()}


def on_graph(q):
    """q with every binary symbol renamed to the edge label E: the same
    Gaifman graph, over the graph schema of GRAPH_INDEX."""
    return cq([q.var_name(v) for v in q.head],
              [("E" if a.arity == 2 else a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms])


def gyo_join_tree(hyperedges):
    """The fixpoint GYO reduction, the reference for `join_tree`: tree edges
    over hyperedge indices, or None if the hypergraph is not alpha-acyclic.
    Ear vertices (occurring in exactly one hyperedge) are stripped and a
    hyperedge contained in another is absorbed, with a tree edge to the
    absorber, until one hyperedge is left or nothing changes."""
    if not hyperedges:
        return []
    work = {i: set(e) for i, e in enumerate(hyperedges)}
    alive = set(range(len(hyperedges)))
    edges = []
    while len(alive) > 1:
        occ = Counter(v for i in alive for v in work[i])
        changed = False
        for i in sorted(alive):
            private = {v for v in work[i] if occ[v] == 1}
            if private:
                work[i] -= private
                changed = True
        absorbed = next(((i, j) for i in sorted(alive) for j in sorted(alive)
                         if i != j and work[i] <= work[j]), None)
        if absorbed:
            edges.append(absorbed)
            alive.remove(absorbed[0])
            changed = True
        if not changed:
            return None
    return edges


def assert_join_tree(hs, edges):
    """edges span the hyperedges hs as a tree in which the hyperedges that
    hold any one variable are connected (the running-intersection
    condition)."""
    assert len(edges) == len(hs) - 1
    adj = {i: [] for i in range(len(hs))}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def reached(start, inside):
        seen, todo = {start}, [start]
        while todo:
            for u in adj[todo.pop()]:
                if u not in seen and inside(u):
                    seen.add(u)
                    todo.append(u)
        return seen

    assert len(reached(0, lambda u: True)) == len(hs), "not connected"
    for v in frozenset().union(*hs):
        holders = {i for i, e in enumerate(hs) if v in e}
        assert reached(min(holders), lambda u: v in hs[u]) == holders, f"running intersection fails for {v}"


def test_join_tree_agrees_with_gyo():
    # 1-7 variables, 1-7 hyperedges of 1-4 variables each, repeats allowed
    rng = random.Random(27)
    acyclic = 0
    for _ in range(20000):
        nv = rng.randint(1, 7)
        hs = [frozenset(rng.sample(range(nv), rng.randint(1, min(4, nv)))) for _ in range(rng.randint(1, 7))]
        tree = join_tree(hs)
        assert (tree is None) == (gyo_join_tree(hs) is None), hs
        if tree is not None:
            acyclic += 1
            assert_join_tree(hs, tree)
    assert 1000 < acyclic < 20000  # both verdicts are exercised


def test_join_tree_small_cases():
    assert join_tree([]) == []
    assert join_tree([frozenset({0})]) == []
    triangle = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    assert join_tree(triangle) is None
    # the triangle with a hyperedge over all of it is acyclic
    hs = triangle + [frozenset({0, 1, 2})]
    assert_join_tree(hs, join_tree(hs))
    # disconnected parts hang under the first hyperedge visited
    hs = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 4})]
    assert sorted(join_tree(hs)) == [(1, 0), (2, 0)]


def test_gaifman_unary_only():
    q = cq(["x"], [("U", ["x"])])
    forest = spanning_forest(q)
    assert forest.trees == ((q.head[0],),) and not forest.edges()


def test_gaifman_movie_query(movie_query):
    forest = spanning_forest(movie_query)
    assert is_acyclic(movie_query)  # on arity <= 2, alpha-acyclic is a Gaifman forest
    assert edge_names(movie_query, forest) == {frozenset({"x", "y1"}), frozenset({"x", "y2"})}


def test_gaifman_naive_ternary_encoding_has_cycle():
    # the straightforward per-position encoding of TERNARY_FC: its Gaifman
    # graph contains the cycle x-u2-y-u3-z-u4-x, so it is not even acyclic
    atoms = []
    for ui, args in (("u1", "xyz"), ("u2", "xxy"), ("u3", "yyz"), ("u4", "zzx")):
        for pos, v in enumerate(args, start=1):
            atoms.append((f"E{pos}", [ui, v]))
    q = cq(["x", "y", "z"], atoms)
    assert not is_acyclic(q)
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
    # components() reads its own Gaifman graph off the atoms: it agrees with
    # is_free_connex_acyclic and spanning_forest on queries with loops,
    # repeated atoms and both directions of a pair, on a typed index and on
    # a graph index
    rng = random.Random(20240817)
    pool = [f"x{i}" for i in range(6)]
    for _ in range(1000):
        atoms = []
        for _ in range(rng.randint(1, 5)):
            sym, ar = ("R", 2) if rng.random() < 0.7 else ("P", 1)
            atoms.append((sym, [rng.choice(pool) for _ in range(ar)]))
        used = sorted({v for _, a in atoms for v in a})
        head = rng.sample(used, rng.randint(0, len(used)))
        plain = cq(head, atoms)
        fc = is_free_connex_acyclic(plain)
        # a loop, a repeated atom and a reversed atom leave the Gaifman
        # graph and free-connex acyclicity as they were
        x = rng.choice(used)
        atoms.append((rng.choice("RS"), [x, x]))
        atoms.append(rng.choice(atoms))
        for sym, args in list(atoms):
            if len(args) == 2:
                atoms.append((sym, args[::-1]))
                break
        q = cq(head, atoms)
        assert is_free_connex_acyclic(q) == fc
        for query, index in ((plain, TYPED_INDEX), (q, TYPED_INDEX), (on_graph(q), GRAPH_INDEX)):
            forest = spanning_forest(query)
            try:
                comps = components(query, index)
            except NotFreeConnex as e:
                assert not fc
                assert (str(e) == "Gaifman graph has a cycle") == (not is_acyclic(query))
                continue
            assert fc
            assert {c.order[i]: c.order[p] for c in comps for i, p in enumerate(c.parent) if p >= 0} \
                == forest.parent


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


def _changed(seq, i, x):
    return [x if j == i else y for j, y in enumerate(seq)]


def _broken(h):
    """Copies of h, a valid fc-1-GHD with |free| >= 2 and at least
    2 * |free| nodes, each breaking one invariant, with the message that
    check_fc1ghd gives for it."""
    q, order, free, root = h.query, h.order, h.query.free(), h.root
    copy = functools.partial(dataclasses.replace, h)
    last = order[-1]  # a leaf
    up = h.parent[last]
    assert up != root
    extra = min(q.vars() - h.cover[root].var_set())
    yield copy(bag=_changed(h.bag, root, h.bag[root] | {extra})), f"bag of node {root} not covered by its atom"
    yield copy(atom_node={ai: t for ai, t in h.atom_node.items() if ai}), "completeness fails for atom 0"
    gone = copy(bag=[b - {extra} for b in h.bag])
    yield gone, f"variable {extra} in no bag"
    yield gone, f"no bag contains vars of atom {next(ai for ai, a in enumerate(q.atoms) if extra in a.args)}"
    # a variable held by a node, its parent and its child, dropped from the node
    v, t = next((min(h.bag[p] & h.bag[t] & h.bag[c]), t) for p, t in h.edges for t2, c in h.edges
                if t2 == t and h.bag[p] & h.bag[t] & h.bag[c])
    yield copy(bag=_changed(h.bag, t, h.bag[t] - {v})), f"path condition fails for variable {v}"
    k = next(i for i, t in enumerate(order) if h.bag[t] - free)  # order's prefixes are connected
    yield copy(witness=frozenset(order[:k + 1])), "witness bags do not union to free(Q)"
    yield copy(witness=frozenset([root, last])), "witness is not connected"
    yield copy(witness=frozenset()), "empty witness for non-Boolean query"
    yield copy(witness=frozenset(order[:2 * len(free)])), f"|W|={2 * len(free)} >= 2*|free|={2 * len(free)}"
    yield copy(root=next(t for t in order if t not in h.witness)), "root not in witness"
    new = next(t for t in order if not (h.bag[t] <= h.bag[last] or h.bag[last] <= h.bag[t]))
    yield copy(parent=_changed(h.parent, last, new)), f"edge ({new},{last}) violates bag containment"
    yield copy(parent=_changed(h.parent, root, last)), "root has a parent"  # a cycle through the root
    yield copy(parent=_changed(h.parent, up, last)), f"node {up} unreachable from the root"  # a cycle without it
    yield copy(parent=_changed(h.parent, last, -1)), f"node {last} unreachable from the root"
    yield copy(order=order[::-1]), "order is not the breadth-first walk of the tree"
    yield copy(parent=h.parent[:-1]), "parent array or root out of range"


@pytest.mark.parametrize("schema, text, witness", [
    (Schema.of(("P", 2), ("A", 2), ("M", 2), ("S", 2)), "Ans(x,y1) :- A(x,y1), A(x,y2), P(y2,x).", 1),
    (TERNARY_SCHEMA, "Ans(x,y,z) :- T(x,y,u), R(y,z), P(x), T(z,w,w).", 3),
], ids=["movie", "free-split"])
def test_check_fc1ghd_reports_each_broken_invariant(schema, text, witness):
    # the second query's free variables share no atom: its free node is
    # split into pieces, and an edge of the split is subdivided
    h = compute_fc1ghd(parse_query(text, schema))
    assert check_fc1ghd(h) == [] and len(h.witness) == witness
    broken = list(_broken(h))
    assert len(broken) == 16
    for mutant, message in broken:
        assert message in check_fc1ghd(mutant), message
    assert check_fc1ghd(h) == []  # the mutants were copies


def test_fc1ghd_dot_export(movie_query):
    dot = compute_fc1ghd(movie_query).to_dot()
    assert dot.startswith("graph") and dot.rstrip().endswith("}")
    assert "doublecircle" in dot  # witness nodes marked


def test_components_connected_query(movie_query):
    comps = components(on_graph(movie_query), GRAPH_INDEX)
    assert len(comps) == 1
    assert comps[0].head_positions == (0, 1)


def test_components_two_parts():
    q = cq(["x", "u"], [("E", ["x", "y"]), ("E", ["u", "v"])])
    comps = components(q, GRAPH_INDEX)
    assert len(comps) == 2
    heads = [[q.var_name(v) for v in c.order[:c.n_free]] for c in comps]
    assert heads == [["x"], ["u"]]
    assert [c.head_positions for c in comps] == [(0,), (1,)]


def test_components_boolean():
    q = cq([], [("E", ["x", "y"]), ("E", ["u", "v"])])
    comps = components(q, GRAPH_INDEX)
    assert len(comps) == 2
    assert all(not c.n_free and not c.head_positions for c in comps)


def test_components_product_equals_oracle():
    # the answers of the components, each placed at its head positions,
    # multiply out to the answers of the query
    rng = random.Random(99)
    for _ in range(50):
        db = random_graph_db(rng.randint(2, 5), rng.random(), seed=rng.randrange(10**6),
                             num_labels=rng.randint(0, 2), loop_p=0.3)
        q = random_fc_query(db.schema, rng)
        comps = components(q, cidx.build(db))
        expected = set(brute_answers(q, db).answers.tuples)
        partials = []
        for c in comps:
            assert [c.order[j] for j in c.sel] == [q.head[i] for i in c.head_positions]
            part = cq([q.var_name(q.head[i]) for i in c.head_positions],
                      [(a.symbol, [q.var_name(v) for v in a.args]) for a in q.atoms if a.args[0] in c.order])
            partials.append((sorted(brute_answers(part, db).answers.tuples), c.head_positions))
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

        build(0, [])
        assert results == expected


def _check_order(c):
    """The root alone has no parent, every other position's parent comes
    before it (so a free position's parent is free), and collapse lists the
    free positions with a quantified child."""
    assert c.parent[0] == -1 and all(0 <= p < i for i, p in enumerate(c.parent) if i)
    assert c.collapse == tuple(sorted({p for p in c.parent[c.n_free:] if 0 <= p < c.n_free}))


def test_variable_order_single_edge():
    q = cq(["x"], [("E", ["x", "y"])])
    (c,) = components(q, GRAPH_INDEX)
    assert [q.var_name(v) for v in c.order] == ["x", "y"]
    assert c.parent == (-1, 0) and c.n_free == 1 and c.collapse == (0,)


def test_variable_order_movie_query(movie_query):
    q = on_graph(movie_query)
    (c,) = components(q, GRAPH_INDEX)
    assert [q.var_name(v) for v in c.order] == ["x", "y1", "y2"]
    assert c.order[0] == q.head[0]
    _check_order(c)


def test_variable_order_boolean_path():
    q = cq([], [("E", ["x", "y"]), ("E", ["y", "z"])])
    (c,) = components(q, GRAPH_INDEX)
    assert c.order[0] == min(q.vars()) and not c.n_free
    _check_order(c)


def test_variable_order_labels():
    q = cq(["x"], [("E", ["x", "y"]), ("P", ["x"]), ("Q", ["x"]), ("P", ["y"])])
    (c,) = components(q, GRAPH_INDEX)
    x, y = q.head[0], next(v for v in q.vars() if v != q.head[0])
    assert c.order == (x, y)
    colors = GRAPH_INDEX.label_colors
    assert c.only == (colors["P"] & colors["Q"], colors["P"])
    assert c.only[0] is colors["Q"]  # P keeps all of Q, so the meet is Q's own set


def test_variable_order_not_tree():
    q = cq([], [("E", ["x", "y"]), ("E", ["y", "z"]), ("E", ["z", "x"])])
    with pytest.raises(NotFreeConnex, match="Gaifman graph has a cycle"):
        components(q, GRAPH_INDEX)


def test_variable_order_free_not_connected():
    q = cq(["x", "z"], [("E", ["x", "y"]), ("E", ["y", "z"])])
    with pytest.raises(NotFreeConnex, match="free variables do not induce a connected subgraph"):
        components(q, GRAPH_INDEX)


def test_variable_order_free_before_quantified():
    rng = random.Random(123)
    schema = Schema.of(("E", 2), ("P", 1))
    for _ in range(200):
        q = random_fc_query(schema, rng, max_atoms=4, max_vars=5)
        comps = components(q, GRAPH_INDEX)
        assert frozenset().union(*(c.order[:c.n_free] for c in comps)) == q.free()
        for c in comps:
            _check_order(c)
