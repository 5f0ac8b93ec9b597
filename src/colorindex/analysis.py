"""Structural analysis of conjunctive queries: the hyperedges and their
join tree by maximum cardinality search (`join_tree`, the one hypergraph
acyclicity test), the one free-connex acyclicity test (`free_connex_tree`,
which `is_free_connex_acyclic` and `compute_fc1ghd` both run), the
breadth-first spanning forest of the Gaifman graph (`bfs_forest`, the one
search that query components, variable orders and graph translations are
read from: `spanning_forest` and `evaluator.components` both run it), and
free-connex width-1 generalized hypertree decompositions with their one
breadth-first walk.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

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
    len(adj) - len(trees) edges."""
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
    the query, the dedicated node with bag equal to the atom's variables.
    ``witness`` is the connected node set whose bags union to free(Q).
    """

    query: ConjunctiveQuery
    bag: list[frozenset[int]]
    cover: list[Atom]
    edges: list[tuple[int, int]]
    witness: frozenset[int]
    atom_node: dict[int, int]
    root: int
    adj: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adj = {t: [] for t in range(len(self.bag))}
        for a, b in self.edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        for t in self.adj:
            self.adj[t].sort()

    @property
    def nodes(self) -> range:
        return range(len(self.bag))

    def bfs(self) -> tuple[list[int], dict[int, int]]:
        """tree_bfs from self.root."""
        return tree_bfs(self.adj, self.root)

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


def tree_bfs(adj: dict[int, list[int]], root: int) -> tuple[list[int], dict[int, int]]:
    """The one breadth-first walk of a tree from root, neighbors in adjacency
    order: the nodes in visiting order, and each node's parent but the
    root's."""
    order, parent = [root], {}
    for t in order:  # grows while it is walked: a FIFO queue
        for u in adj[t]:
            if u != root and u not in parent:
                parent[u] = t
                order.append(u)
    return order, parent


def compute_fc1ghd(q: ConjunctiveQuery) -> FcGHD:
    """Compute a complete fc-1-GHD whose tree edges all satisfy bag
    containment (one endpoint's bag contains the other's) and with
    |witness| < 2 * |free(Q)| whenever free(Q) is non-empty.

    Raises NotFreeConnex when the query admits no such decomposition.
    """
    bags, tree_edges = free_connex_tree(q)
    free = q.free()
    adj: dict[int, list[int]] = {i: [] for i in range(len(bags))}
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)

    # covering atom per hyperedge node: first atom with that exact var set;
    # the free node, if appended, has none
    first_atom_for: dict[frozenset[int], Atom] = {}
    for atom in q.atoms:
        first_atom_for.setdefault(atom.var_set(), atom)
    covers: list[Atom | None] = [first_atom_for.get(b) for b in bags]

    witness: set[int] = set()
    if free:
        f_node = bags.index(free)
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
            adj.update({t: [] for t in node})
            witness = set(node)
            for a, b in wt_edges:
                adj[node[a]].append(node[b])
                adj[node[b]].append(node[a])
            for u, bu in inter:
                pieces = min((holding[x] for x in bu), key=len, default=[0])
                target = node[next(i for i in pieces if bu <= maximal[i])]
                adj[u].remove(f_node)
                adj[u].append(target)
                adj[target].append(u)

    root = min(witness) if witness else 0

    # completion: a dedicated node per atom with bag == vars(atom), attached to
    # the first BFS node carrying that bag; a node added here is a leaf under
    # a node with its bag, so the first node of every bag stays first
    first_with_bag: dict[frozenset[int], int] = {}
    for t in tree_bfs(adj, root)[0]:
        first_with_bag.setdefault(bags[t], t)
    atom_node: dict[int, int] = {}
    taken: set[int] = set()
    for ai, atom in enumerate(q.atoms):
        vs = atom.var_set()
        host = first_with_bag[vs]
        if host not in taken and covers[host] == atom:
            atom_node[ai] = host
            taken.add(host)
        else:
            new = len(bags)
            bags.append(vs)
            covers.append(atom)
            adj[new] = [host]
            adj[host].append(new)
            atom_node[ai] = new
            taken.add(new)

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
        adj[n] = [a, b]
        adj[a].append(n)
        adj[b].append(n)
        if a in witness and b in witness:
            witness.add(n)

    edges = sorted({(min(a, b), max(a, b)) for a in adj for b in adj[a]})
    assert all(c is not None for c in covers)
    return FcGHD(
        query=q,
        bag=bags,
        cover=covers,  # type: ignore[arg-type]
        edges=edges,
        witness=frozenset(witness),
        atom_node=atom_node,
        root=root,
    )


def check_fc1ghd(H: FcGHD) -> list[str]:
    """Mechanically verify every fc-1-GHD invariant; returns a list of
    violations (empty when valid)."""
    q = H.query
    problems: list[str] = []

    def reached(start: int, inside: Callable[[int], bool]) -> set[int]:
        # the nodes reachable from start along H.adj through nodes inside
        seen, todo = {start}, [start]
        while todo:
            for u in H.adj[todo.pop()]:
                if u not in seen and inside(u):
                    seen.add(u)
                    todo.append(u)
        return seen

    n = len(H.bag)
    if len(H.edges) != n - 1:
        problems.append(f"not a tree: {n} nodes, {len(H.edges)} edges")
    if n and len(reached(0, lambda u: True)) != n:
        problems.append("tree is disconnected")
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
        holders = [t for t in H.nodes if v in H.bag[t]]
        if not holders:
            problems.append(f"variable {v} in no bag")
            continue
        if reached(holders[0], lambda u: v in H.bag[u]) != set(holders):
            problems.append(f"path condition fails for variable {v}")
    free = q.free()
    if free:
        if not H.witness:
            problems.append("empty witness for non-Boolean query")
        else:
            union = frozenset().union(*(H.bag[t] for t in H.witness))
            if union != free:
                problems.append("witness bags do not union to free(Q)")
            if reached(min(H.witness), H.witness.__contains__) != H.witness:
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
