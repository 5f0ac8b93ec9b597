"""Loop encoding and the coarsest stable coloring of a node-labeled graph.

`refine` is a Hopcroft-style partition refinement with a splitter worklist;
same-colored vertices end up with equal neighbor counts in every color class,
and the partition is the coarsest one with that property refining the vertex
labels.  A self-loop makes a vertex its own neighbor.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .errors import AsymmetricEdgeRelation
from .model import Database, Schema


def fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected node-labeled graph; self-loops appear once in the adjacency
    list of their vertex."""

    vertices: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]
    vl: dict[int, frozenset[str]]
    label_universe: tuple[str, ...]
    loop_label: str
    edge_label: str

    def has_loop(self, v: int) -> bool:
        return v in self.adj[v]


def loop_encoding_labels(schema: Schema) -> tuple[tuple[str, ...], str]:
    """The label universe of the loop-encoded graph of a database over a
    graph schema, and its loop label: a fresh unary label."""
    loop_label = fresh_name("L", set(schema.names))
    return schema.unary_symbols() + (loop_label,), loop_label


def encode_loops(db: Database) -> LabeledGraph:
    """Turn a graph-schema database with symmetric edge relation into a
    labeled graph, tagging self-loops with a fresh unary label (the loops stay
    present in the adjacency as well)."""
    schema = db.schema
    edge_sym = schema.edge_symbol()
    etuples = set(db.rel(edge_sym))
    for a, b in etuples:
        if (b, a) not in etuples:
            raise AsymmetricEdgeRelation(
                f"{edge_sym}({db.display(a)},{db.display(b)}) present without its reverse"
            )
    vertices = tuple(sorted(db.active_domain()))
    universe, loop_label = loop_encoding_labels(schema)
    nbrs: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in etuples:
        nbrs[a].add(b)
    labels: dict[int, set[str]] = {v: set() for v in vertices}
    for u in schema.unary_symbols():
        for (v,) in db.rel(u):
            labels[v].add(u)
    for v in vertices:
        if v in nbrs[v]:
            labels[v].add(loop_label)
    return LabeledGraph(
        vertices=vertices,
        adj={v: tuple(sorted(ns)) for v, ns in nbrs.items()},
        vl={v: frozenset(ls) for v, ls in labels.items()},
        label_universe=universe,
        loop_label=loop_label,
        edge_label=edge_sym,
    )


@dataclass(frozen=True)
class Coloring:
    """col maps vertices onto dense color ids 0..n-1; classes[c] lists the
    members of color c sorted by id.  Colors are canonicalized so that classes
    are numbered by their smallest member."""

    col: dict[int, int]
    classes: tuple[tuple[int, ...], ...]

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def partition(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(c) for c in self.classes)


def _canonicalize(groups: list[list[int]]) -> Coloring:
    ordered = sorted((sorted(g) for g in groups), key=lambda g: g[0])
    col = {v: c for c, members in enumerate(ordered) for v in members}
    return Coloring(col=col, classes=tuple(tuple(g) for g in ordered))


def refine(g: LabeledGraph) -> Coloring:
    """Coarsest stable coloring refining the vertex labels."""
    if not g.vertices:
        return Coloring(col={}, classes=())
    by_label: dict[frozenset[str], list[int]] = {}
    for v in g.vertices:
        by_label.setdefault(g.vl[v], []).append(v)
    classes: list[set[int]] = [set(vs) for _, vs in sorted(by_label.items(), key=lambda kv: sorted(kv[1])[0])]
    cls_of = {v: i for i, members in enumerate(classes) for v in members}
    queue: deque[int] = deque(range(len(classes)))
    queued = set(queue)

    while queue:
        s = queue.popleft()
        queued.discard(s)
        hits: Counter[int] = Counter()
        for u in sorted(classes[s]):
            for v in g.adj[u]:
                hits[v] += 1
        affected: dict[int, list[int]] = {}
        for v in hits:
            affected.setdefault(cls_of[v], []).append(v)
        for ci in sorted(affected):
            members = classes[ci]
            if len(members) == 1:
                continue
            by_count: dict[int, set[int]] = {}
            for v in members:
                by_count.setdefault(hits.get(v, 0), set()).add(v)
            if len(by_count) == 1:
                continue
            # largest part keeps the old index; enqueue the rest (all parts
            # when the split class was itself still pending as a splitter)
            parts = sorted(by_count.items(), key=lambda kv: (-len(kv[1]), kv[0]))
            old_pending = ci in queued
            classes[ci] = parts[0][1]
            new_ids = []
            for _, part in parts[1:]:
                new_ids.append(len(classes))
                for v in part:
                    cls_of[v] = len(classes)
                classes.append(part)
            enqueue = new_ids + ([ci] if old_pending else [])
            for c in enqueue:
                if c not in queued:
                    queue.append(c)
                    queued.add(c)
    return _canonicalize([list(c) for c in classes])


def is_stable(g: LabeledGraph, coloring: Coloring) -> tuple[bool, tuple[int, int, int] | None]:
    """Check stability; on failure return a witness (v, w, c) of same-colored
    vertices with different counts of c-colored neighbors."""
    col = coloring.col.__getitem__
    for members in coloring.classes:
        ref_v = members[0]
        ref_colors = sorted(map(col, g.adj[ref_v]))
        for w in members[1:]:
            if sorted(map(col, g.adj[w])) != ref_colors:
                ref_sig, sig = Counter(ref_colors), Counter(map(col, g.adj[w]))
                c = min(c for c in set(sig) | set(ref_sig) if sig[c] != ref_sig[c])
                return False, (ref_v, w, c)
    return True, None


def refines_labels(g: LabeledGraph, coloring: Coloring) -> bool:
    return all(len({g.vl[v] for v in members}) == 1 for members in coloring.classes)
