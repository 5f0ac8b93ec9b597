"""Structural analysis of conjunctive queries: the hyperedges and their
join tree by maximum cardinality search (`join_tree`, the one hypergraph
acyclicity test), the one free-connex acyclicity test (`free_connex_tree`,
which `is_free_connex_acyclic` and `compute_fc1ghd` both run), the
breadth-first spanning forest of a graph (`bfs_forest`, the one search in
this module: query components, variable orders and graph translations are
read from it through `spanning_forest` and `evaluator.components`, and the
tree of an fc-1-GHD is walked by it once), and free-connex width-1
generalized hypertree decompositions, each one rooted tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import BadGHD, NotFreeConnex
from .model import Atom, ConjunctiveQuery


def hyperedges(q: ConjunctiveQuery) -> list[frozenset[int]]:
    """The variable sets of q's atoms, deduplicated, in first-occurrence
    order."""
    return list(dict.fromkeys(a.var_set() for a in q.atoms))


def join_tree(hyperedges: list[frozenset[int]]) -> list[tuple[int, int]] | None:
    """A join tree by maximum cardinality search (Tarjan & Yannakakis 1984,
    SIAM J. Comput. 13(3)), in O(N log N) for N the total size of the
    hyperedges.  Returns tree edges
    (hyperedge, parent) over hyperedge indices, a spanning tree over all of
    them, or None if the hypergraph is not alpha-acyclic.

    The hyperedges are visited one at a time, each time the one that holds
    the most visited variables, the lowest index on a tie.  The parent of a
    hyperedge is the last-visited hyperedge that first held one of its
    visited variables, and the hypergraph is alpha-acyclic exactly when every
    hyperedge's visited variables lie in its parent.  A hyperedge with no
    visited variable, the first of each connected part, hangs under the first
    one visited.  The tests keep the fixpoint GYO reduction as the
    reference.
    """
    holders: dict[int, list[int]] = {}
    for i, e in enumerate(hyperedges):
        for v in e:
            holders.setdefault(v, []).append(i)
    held = [0] * len(hyperedges)  # per hyperedge, how many of its variables are visited; -1 once it is
    first: dict[int, int] = {}  # visited variable -> the rank of the hyperedge that first held it
    order: list[int] = []  # the hyperedges visited, in turn
    heap = [(0, i) for i in range(len(hyperedges))]  # (-held, index); stale entries are skipped
    edges: list[tuple[int, int]] = []
    while heap:
        count, i = heappop(heap)
        if -count != held[i]:
            continue  # stale, or visited
        e = hyperedges[i]
        seen = [v for v in e if v in first]
        if order:
            p = order[max([first[v] for v in seen], default=0)]
            if not hyperedges[p].issuperset(seen):
                return None
            edges.append((i, p))
        held[i] = -1
        for v in e:
            if v not in first:
                first[v] = len(order)
                for j in holders[v]:
                    if held[j] >= 0:
                        held[j] += 1
                        heappush(heap, (-held[j], j))
        order.append(i)
    return edges


def is_acyclic(q: ConjunctiveQuery) -> bool:
    return join_tree(hyperedges(q)) is not None


def free_connex_tree(q: ConjunctiveQuery) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """The one free-connex acyclicity test: q's hyperedges, with free(Q)
    appended when it is non-empty and no atom's variables are exactly
    free(Q), and a join tree over them.  Raises NotFreeConnex when either
    q's hypergraph or the extended one is not alpha-acyclic."""
    hs = hyperedges(q)
    tree = join_tree(hs)
    if tree is None:
        raise NotFreeConnex("query hypergraph is not alpha-acyclic")
    free = q.free()
    if free and free not in hs:
        hs.append(free)
        tree = join_tree(hs)
        if tree is None:
            raise NotFreeConnex("hypergraph plus free-variable hyperedge is not alpha-acyclic")
    return hs, tree


def is_free_connex_acyclic(q: ConjunctiveQuery) -> bool:
    try:
        free_connex_tree(q)
    except NotFreeConnex:
        return False
    return True


@dataclass(frozen=True)
class SpanningForest:
    """A breadth-first spanning forest of a query's Gaifman graph: one tree
    per connected component, in order of the component's smallest variable.
    A tree is rooted at its lowest-id free variable, else at its lowest-id
    variable, and lists its variables in BFS order, neighbors by id."""

    trees: tuple[tuple[int, ...], ...]
    parent: dict[int, int]  # every variable but the roots -> its parent

    def edges(self) -> list[tuple[int, int]]:
        """The tree edges oriented away from the roots, in BFS discovery
        order."""
        return [(self.parent[v], v) for tree in self.trees for v in tree[1:]]


def spanning_forest(q: ConjunctiveQuery) -> SpanningForest:
    """The spanning forest of G(Q) that rooted orders, component splits and
    query orientations are read from, by the one search `bfs_forest`."""
    adj: dict[int, set[int]] = {v: set() for a in q.atoms for v in a.args}
    for a in q.atoms:
        args = a.args
        for i, x in enumerate(args):
            for y in args[i + 1:]:
                if x != y:
                    adj[x].add(y)
                    adj[y].add(x)
    trees, parent = bfs_forest(adj, q.free())
    return SpanningForest(trees=tuple(map(tuple, trees)), parent=parent)


def bfs_forest(adj: dict[int, set[int]], free: frozenset[int]) -> tuple[list[list[int]], dict[int, int]]:
    """The one component search over a Gaifman graph, given as each
    variable's neighbors: the breadth-first trees, in order of their
    smallest variable, each rooted at its lowest-id free variable, else at
    its lowest-id variable, with neighbors visited by id; and each variable's
    parent but the roots'.  The graph is a forest exactly when it has
    len(adj) - len(trees) edges.  `compute_fc1ghd` walks its tree with it,
    the root as the one free vertex."""
    parent: dict[int, int] = {}
    trees: list[list[int]] = []
    seen: set[int] = set()
    # the free variables first, so that a component with free variables is
    # entered at its lowest-id one
    for root in sorted(free) + sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        tree = [root]
        for v in tree:  # grows while it is walked: a FIFO queue
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    tree.append(w)
        trees.append(tree)
    trees.sort(key=min)
    return trees, parent


@dataclass
class FcGHD:
    """Complete free-connex width-1 generalized hypertree decomposition.

    Tree nodes are dense ints.  ``cover`` maps each node to an atom whose
    variables contain the node's bag; ``atom_node`` gives, per atom index of
    the query, the dedicated node with bag equal to the atom's variables,
    which that atom covers.  ``witness`` is the connected node set whose bags
    union to free(Q), and holds ``root`` when it is non-empty.  The tree is
    stored once: ``order`` lists the nodes breadth-first from the root,
    neighbors by id, and ``parent`` gives each node's parent, -1 at the root.
    """

    query: ConjunctiveQuery
    bag: list[frozenset[int]]
    cover: list[Atom]
    witness: frozenset[int]
    atom_node: dict[int, int]
    root: int
    order: list[int]
    parent: list[int]

    @property
    def nodes(self) -> range:
        return range(len(self.bag))

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The tree edges as (parent, child) pairs, children by id."""
        return [(p, t) for t, p in enumerate(self.parent) if p >= 0]

    def to_dot(self) -> str:
        q = self.query
        lines = ["graph fc1ghd {"]
        for t in self.nodes:
            vars_s = ",".join(sorted(q.var_name(v) for v in self.bag[t]))
            cov = self.cover[t]
            cov_s = f"{cov.symbol}({','.join(q.var_name(v) for v in cov.args)})"
            shape = "doublecircle" if t in self.witness else "ellipse"
            lines.append(f'  n{t} [label="{{{vars_s}}}\\n{cov_s}", shape={shape}];')
        for a, b in self.edges:
            lines.append(f"  n{a} -- n{b};")
        lines.append("}")
        return "\n".join(lines)


def compute_fc1ghd(q: ConjunctiveQuery) -> FcGHD:
    """Compute a complete fc-1-GHD whose tree edges all satisfy bag
    containment (one endpoint's bag contains the other's) and with
    |witness| < 2 * |free(Q)| whenever free(Q) is non-empty.

    The nodes start as the join tree of `free_connex_tree`.  Each atom takes
    the node of its own hyperedge; an atom whose hyperedge's node an earlier
    atom took gets a new leaf under that node.  A free node that no atom
    covers is split into a witness subtree, each edge without containment is
    subdivided, and the tree is walked once from the root.

    Raises NotFreeConnex when the query admits no such decomposition.
    """
    bags, tree_edges = free_connex_tree(q)
    free = q.free()
    adj: dict[int, set[int]] = {i: set() for i in range(len(bags))}
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)

    # completion: a node with bag == vars(atom) per atom, covered by it; the
    # free node, if appended, has no atom, as no atom's variables are free(Q)
    node_of = {b: t for t, b in enumerate(bags)}
    covers: list[Atom | None] = [None] * len(bags)
    atom_node: dict[int, int] = {}
    for ai, atom in enumerate(q.atoms):
        host = node_of[atom.var_set()]
        if covers[host] is None:
            covers[host] = atom
            atom_node[ai] = host
        else:  # an earlier atom took the node: a new leaf under it
            t = atom_node[ai] = len(bags)
            bags.append(bags[host])
            covers.append(atom)
            adj[t] = {host}
            adj[host].add(t)

    witness: set[int] = set()
    if free:
        f_node = node_of[free]
        cover_atom = covers[f_node] or next((a for a in q.atoms if free <= a.var_set()), None)
        if cover_atom is not None:
            covers[f_node] = cover_atom
            witness = {f_node}
        else:
            # Split the uncoverable free node: its neighbors' bags intersected
            # with free(Q) form an alpha-acyclic hypergraph; a join tree of the
            # maximal intersections becomes the witness, each piece covered by
            # the corresponding neighbor's atom.  The first piece takes the
            # free node's slot, the others are appended.
            neighbors = sorted(adj[f_node])
            inter = [(u, bags[u] & free) for u in neighbors]
            owner: dict[frozenset[int], int] = {}  # piece -> the first neighbor it is of
            for u, bu in inter:
                owner.setdefault(bu, u)
            distinct = sorted(owner, key=lambda s: (len(s), sorted(s)))
            d_edges = join_tree(distinct)
            if d_edges is None:
                raise BadGHD("internal: free-split hypergraph not acyclic")
            # by running intersection, a piece inside another one is strictly
            # inside a neighbor of it on the join tree of the pieces
            inside = {i for e in d_edges for i, j in (e, e[::-1]) if distinct[i] < distinct[j]}
            maximal = [b for i, b in enumerate(distinct) if i not in inside]
            wt_edges = join_tree(maximal)  # acyclic: a subset of the pieces less the ones inside others
            holding: dict[int, list[int]] = {}  # free variable -> the maximal pieces holding it, in order
            for i, m in enumerate(maximal):
                for x in m:
                    holding.setdefault(x, []).append(i)
            node = [f_node] + list(range(len(bags), len(bags) + len(maximal) - 1))
            bags[f_node] = maximal[0]
            bags += maximal[1:]
            covers[f_node] = covers[owner[maximal[0]]]
            covers += [covers[owner[b]] for b in maximal[1:]]
            adj.update({t: set() for t in node})
            witness = set(node)
            for a, b in wt_edges:
                adj[node[a]].add(node[b])
                adj[node[b]].add(node[a])
            for u, bu in inter:
                pieces = min((holding[x] for x in bu), key=len, default=[0])
                target = node[next(i for i in pieces if bu <= maximal[i])]
                adj[u].remove(f_node)
                adj[u].add(target)
                adj[target].add(u)

    root = min(witness) if witness else 0

    # subdivision: enforce bag containment along every edge
    pending = sorted({(min(a, b), max(a, b)) for a in adj for b in adj[a]})
    for a, b in pending:
        if bags[a] <= bags[b] or bags[b] <= bags[a]:
            continue
        n = len(bags)
        bags.append(bags[a] & bags[b])
        covers.append(covers[a])
        adj[a].remove(b)
        adj[b].remove(a)
        adj[n] = {a, b}
        adj[a].add(n)
        adj[b].add(n)
        if a in witness and b in witness:
            witness.add(n)

    (order,), parent_of = bfs_forest(adj, frozenset([root]))
    parent = [-1] * len(bags)
    for t, p in parent_of.items():
        parent[t] = p
    assert all(c is not None for c in covers)
    return FcGHD(
        query=q,
        bag=bags,
        cover=covers,  # type: ignore[arg-type]
        witness=frozenset(witness),
        atom_node=atom_node,
        root=root,
        order=order,
        parent=parent,
    )


def check_fc1ghd(H: FcGHD) -> list[str]:
    """Mechanically verify every fc-1-GHD invariant; returns a list of
    violations (empty when valid)."""
    q = H.query
    n = len(H.bag)
    if len(H.parent) != n or not all(-1 <= p < n for p in H.parent) or not 0 <= H.root < n:
        return ["parent array or root out of range"]
    problems: list[str] = []
    # the parent array is one tree rooted at root, and order is its
    # breadth-first walk from the root, children by id
    children: list[list[int]] = [[] for _ in H.nodes]
    for p, t in H.edges:
        children[p].append(t)
    walk, seen = [H.root], {H.root}
    for t in walk:  # grows while it is walked: a FIFO queue
        for u in children[t]:
            if u not in seen:
                seen.add(u)
                walk.append(u)
    if H.parent[H.root] != -1:
        problems.append("root has a parent")
    # under another root, or on or under a parent cycle that misses the root
    problems += [f"node {t} unreachable from the root" for t in H.nodes if t not in seen]
    if H.order != walk:
        problems.append("order is not the breadth-first walk of the tree")

    def connected(nodes: frozenset[int]) -> bool:
        # on a tree, nodes are connected exactly when one of them has its
        # parent outside them
        return sum(H.parent[t] not in nodes for t in nodes) == 1

    for t in H.nodes:
        if not H.bag[t] <= H.cover[t].var_set():
            problems.append(f"bag of node {t} not covered by its atom")
    for ai, atom in enumerate(q.atoms):
        t = H.atom_node.get(ai)
        if t is None or H.bag[t] != atom.var_set() or H.cover[t] != atom:
            problems.append(f"completeness fails for atom {ai}")
        if not any(atom.var_set() <= H.bag[t2] for t2 in H.nodes):
            problems.append(f"no bag contains vars of atom {ai}")
    for v in q.vars():
        holders = frozenset(t for t in H.nodes if v in H.bag[t])
        if not holders:
            problems.append(f"variable {v} in no bag")
        elif not connected(holders):
            problems.append(f"path condition fails for variable {v}")
    free = q.free()
    if free:
        if not H.witness:
            problems.append("empty witness for non-Boolean query")
        else:
            union = frozenset().union(*(H.bag[t] for t in H.witness))
            if union != free:
                problems.append("witness bags do not union to free(Q)")
            if not connected(H.witness):
                problems.append("witness is not connected")
            if len(H.witness) >= 2 * len(free):
                problems.append(f"|W|={len(H.witness)} >= 2*|free|={2 * len(free)}")
            if H.root not in H.witness:
                problems.append("root not in witness")
    elif H.witness:
        problems.append("non-empty witness for Boolean query")
    for a, b in H.edges:
        if not (H.bag[a] <= H.bag[b] or H.bag[b] <= H.bag[a]):
            problems.append(f"edge ({a},{b}) violates bag containment")
    return problems
