"""Structural analysis of conjunctive queries: the hyperedges and their
acyclicity tests, the breadth-first spanning forest of the Gaifman graph
(`bfs_forest`, the one search that query components, variable orders and
graph translations are read from: `spanning_forest` and
`evaluator.components` both run it), and free-connex width-1 generalized
hypertree decompositions with their one breadth-first walk.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .errors import BadGHD, NotFreeConnex
from .model import Atom, ConjunctiveQuery


def hyperedges(q: ConjunctiveQuery) -> list[frozenset[int]]:
    """The variable sets of q's atoms, deduplicated, in first-occurrence
    order."""
    return list(dict.fromkeys(a.var_set() for a in q.atoms))


def join_tree(hyperedges: list[frozenset[int]]) -> list[tuple[int, int]] | None:
    """GYO reduction.  Returns tree edges over hyperedge indices (a spanning
    tree over all indices), or None if the hypergraph is not alpha-acyclic.

    Ear vertices (occurring in exactly one hyperedge) are stripped and
    hyperedges contained in another are absorbed, recording a tree edge to
    the absorber.  Disconnected acyclic hypergraphs reduce through empty
    shrunken edges, which attaches their components arbitrarily.
    """
    if not hyperedges:
        return []
    work = {i: set(e) for i, e in enumerate(hyperedges)}
    alive = set(range(len(hyperedges)))
    edges: list[tuple[int, int]] = []
    while len(alive) > 1:
        occ = Counter(v for i in alive for v in work[i])
        changed = False
        for i in sorted(alive):
            private = {v for v in work[i] if occ[v] == 1}
            if private:
                work[i] -= private
                changed = True
        absorbed = None
        for i in sorted(alive):
            for j in sorted(alive):
                if i != j and work[i] <= work[j]:
                    absorbed = (i, j)
                    break
            if absorbed:
                break
        if absorbed:
            i, j = absorbed
            edges.append((i, j))
            alive.remove(i)
            changed = True
        if not changed:
            return None
    return edges


def is_acyclic(q: ConjunctiveQuery) -> bool:
    return join_tree(hyperedges(q)) is not None


def is_free_connex_acyclic(q: ConjunctiveQuery) -> bool:
    hs = hyperedges(q)
    if join_tree(hs) is None:
        return False
    free = q.free()
    if not free or free in hs:
        return True
    return join_tree(hs + [free]) is not None


@dataclass(frozen=True)
class SpanningForest:
    """A breadth-first spanning forest of a query's Gaifman graph: one tree
    per connected component, in order of the component's smallest variable.
    A tree is rooted at its lowest-id free variable, else at its lowest-id
    variable, and lists its variables in BFS order, neighbors by id."""

    trees: tuple[tuple[int, ...], ...]
    parent: dict[int, int]  # every variable but the roots -> its parent
    free: frozenset[int]
    acyclic: bool  # the Gaifman graph is a forest

    def free_connected(self) -> bool:
        """On an acyclic Gaifman graph: the free variables of each component
        induce a connected subtree (or none), that is, no free variable
        hangs under a quantified one (the root of a tree with free variables
        is free)."""
        return all(self.parent[v] in self.free for v in self.free if v in self.parent)

    def free_connex(self) -> bool:
        """Free-connex acyclicity, for a query over a binary schema."""
        return self.acyclic and self.free_connected()

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
    free = q.free()
    trees, parent = bfs_forest(adj, free)
    edges = sum(map(len, adj.values())) // 2
    return SpanningForest(trees=tuple(map(tuple, trees)), parent=parent, free=free,
                          acyclic=edges == len(adj) - len(trees))


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
    hs = hyperedges(q)
    tree_edges = join_tree(hs)
    if tree_edges is None:
        raise NotFreeConnex("query hypergraph is not alpha-acyclic")
    free = q.free()

    ext = list(hs)
    if free and free not in ext:
        ext.append(free)
        tree_edges = join_tree(ext)
        if tree_edges is None:
            raise NotFreeConnex("hypergraph plus free-variable hyperedge is not alpha-acyclic")

    bags: list[frozenset[int]] = list(ext)
    adj: dict[int, list[int]] = {i: [] for i in range(len(bags))}
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)

    # covering atom per hyperedge node: first atom with that exact var set
    first_atom_for: dict[frozenset[int], int] = {}
    for ai, atom in enumerate(q.atoms):
        first_atom_for.setdefault(atom.var_set(), ai)
    covers: list[Atom | None] = [None] * len(bags)
    for i, e in enumerate(hs):
        covers[i] = q.atoms[first_atom_for[e]]

    witness: set[int] = set()
    removed: set[int] = set()
    if free:
        f_node = ext.index(free)
        cover_atom = covers[f_node] or next((a for a in q.atoms if free <= a.var_set()), None)
        if cover_atom is not None:
            covers[f_node] = cover_atom
            witness = {f_node}
        else:
            # Split the uncoverable free node: its neighbors' bags intersected
            # with free(Q) form an alpha-acyclic hypergraph; a join tree of the
            # maximal intersections becomes the witness, each piece covered by
            # the corresponding neighbor's atom.
            neighbors = sorted(adj[f_node])
            inter = [(u, bags[u] & free) for u in neighbors]
            distinct = sorted({b for _, b in inter}, key=lambda s: (len(s), sorted(s)))
            maximal = [b for b in distinct if not any(b < other for other in distinct)]
            owner = {b: next(u for u, bu in inter if bu == b) for b in maximal}
            wt_edges = join_tree(maximal)
            if wt_edges is None:
                raise BadGHD("internal: free-split hypergraph not acyclic")
            base = len(bags)
            b_node = {i: base + i for i in range(len(maximal))}
            for i, b in enumerate(maximal):
                bags.append(b)
                covers.append(covers[owner[b]])
                adj[base + i] = []
                witness.add(base + i)
            for a, b in wt_edges:
                adj[b_node[a]].append(b_node[b])
                adj[b_node[b]].append(b_node[a])
            for u, bu in inter:
                target = b_node[next(i for i, m in enumerate(maximal) if bu <= m)]
                adj[u] = [x for x in adj[u] if x != f_node]
                adj[u].append(target)
                adj[target].append(u)
            removed.add(f_node)
            adj[f_node] = []

    # compact away the removed node, if any
    if removed:
        keep = [i for i in range(len(bags)) if i not in removed]
        remap = {old: new for new, old in enumerate(keep)}
        bags = [bags[i] for i in keep]
        covers = [covers[i] for i in keep]
        adj = {remap[i]: sorted(remap[j] for j in adj[i]) for i in keep}
        witness = {remap[i] for i in witness}

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
