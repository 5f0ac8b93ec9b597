"""Loop encoding and the coarsest stable coloring of a node-labeled graph.

`refine` is partition refinement with a splitter worklist, by the "all but
the largest part" rule of Cardon & Crochemore (1982) and Paige & Tarjan
(1987).  Popping a splitter class S, it counts each vertex's neighbors in S
by scanning S's adjacency only.  In every class it touched, it moves the
touched vertices out into one new class per hit count; the untouched rest
keeps the class id, and when every member was touched, the largest group
keeps it.  The new parts of a class that was still pending become splitters;
otherwise every part but the largest does, since hits from the largest part
are the old class's hits minus the others'.  A vertex's splitter is then at
most half the size of its previous one, so every adjacency entry is scanned
O(log n) times, and the refinement runs in O((n+m) log n) for n vertices and
m adjacency entries.  Berkholz, Bonsma & Grohe (ESA 2013) show that bound is
tight for color refinement.  The result is the coarsest partition refining
the vertex labels in which same-colored vertices have equal neighbor counts
in every color class.  A self-loop makes a vertex its own neighbor.

The rows may also be *typed*, for color refinement on an edge-labelled
digraph (Grohe, Kersting, Mladenov & Schweitzer, 2021): each entry has one
of several types, and a vertex's hit from a splitter is the multiset of the
types of its entries into it, not their number.  The rule above and its
bound carry over unchanged; an untyped graph is the one-type case.

`encode_loops` makes ascending adjacency rows, and the color index keeps
each row in bucket order: by color, then ascending.  Both are made and
checked the same way, without sorting: the reverse of a relation, filled in
a vertex order, lists each row in that order, and a relation is symmetric
exactly when it equals its reverse.  Vertex order gives ascending rows, and
class order (the classes by color, each ascending) gives bucket order.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import AsymmetricEdgeRelation
from .instrument import OpCounter
from .model import Database, Schema


def fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected node-labeled graph; a self-loop appears once in the row of
    its vertex.  Every adjacency row is ascending out of `encode_loops`, and
    in bucket order in a color index (see `index.ColorIndex`).  The graph
    that `index.build_binary` refines has typed rows instead (see
    `refine`)."""

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
    vertices, adj = edge_adjacency(db)
    bad = asymmetric_vertex(vertices, adj)
    if bad is not None:
        # some edge at `bad` lacks its reverse; adj[bad] lists its in-neighbors
        ins, outs = set(adj[bad]), {b for a, b in db.rel(edge_sym) if a == bad}
        a, b = (bad, min(outs - ins)) if outs - ins else (min(ins - outs), bad)
        raise AsymmetricEdgeRelation(f"{edge_sym}({db.display(a)},{db.display(b)}) present without its reverse")
    universe, loop_label = loop_encoding_labels(schema)
    vl = unary_labels(db, schema.unary_symbols(), vertices)
    looped: dict[frozenset[str], frozenset[str]] = {}  # one label set per label set with the loop label
    for v in vertices:
        if v in adj[v]:
            ls = vl[v]
            vl[v] = looped.get(ls) or looped.setdefault(ls, ls | {loop_label})
    return LabeledGraph(
        vertices=vertices,
        adj=adj,
        vl=vl,
        label_universe=universe,
        loop_label=loop_label,
        edge_label=edge_sym,
    )


def unary_labels(db: Database, unary: Sequence[str], vertices: Iterable[int]) -> dict[int, frozenset[str]]:
    """The unary relations holding each vertex, one frozenset per label set."""
    masks = dict.fromkeys(vertices, 0)  # bit i: the vertex carries unary[i]
    for i, u in enumerate(unary):
        for (v,) in db.rel(u):
            masks[v] |= 1 << i
    sets = {m: frozenset(u for i, u in enumerate(unary) if m >> i & 1) for m in set(masks.values())}
    return {v: sets[m] for v, m in masks.items()}


def edge_adjacency(db: Database) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """The vertices of a graph-schema database, ascending, and the reverse of
    its edge relation; `asymmetric_vertex` finds where the two differ."""
    vertices = tuple(sorted(db.active_domain()))
    out: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in db.rel(db.schema.edge_symbol()):
        out[a].append(b)
    return vertices, reverse_adjacency(vertices, out)


def reverse_adjacency(vertices: Sequence[int], rows: dict[int, Iterable[int]]) -> dict[int, tuple[int, ...]]:
    """The reverse of the relation whose row at v lists the u with (v, u),
    filled in the order of `vertices`, so that every reversed row lists its
    vertices in that order.  Raises ValueError at an entry that is not a
    vertex, or that repeats the entry before it in its row."""
    rev: dict[int, list[int]] = {v: [] for v in vertices}
    for v in vertices:
        for u in rows[v]:
            back = rev.get(u)
            if back is None or (back and back[-1] == v):
                raise ValueError(f"vertex {v} lists {u}, which is not a vertex or is listed twice")
            back.append(v)
    return dict(zip(rev, map(tuple, rev.values())))


def asymmetric_vertex(order: Sequence[int], adj: dict[int, tuple[int, ...]]) -> int | None:
    """The first vertex of `order` whose row differs from its row in the
    reverse of adj, filled in that order, or None.  None means adj is
    symmetric and lists every row in that order: ascending for the vertices
    in ascending order, in bucket order for the classes in color order."""
    rev = reverse_adjacency(order, adj)
    return next((v for v in order if rev[v] != adj[v]), None)


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


def _canonicalize(groups: Iterable[Iterable[int]]) -> Coloring:
    ordered = sorted(map(sorted, groups), key=itemgetter(0))
    col = {v: c for c, members in enumerate(ordered) for v in members}
    return Coloring(col=col, classes=tuple(map(tuple, ordered)))


def refine(g: LabeledGraph, ops: OpCounter | None = None, types: int = 1) -> Coloring:
    """Coarsest stable coloring refining the vertex labels.  With types > 1
    the rows are typed: the row of u lists v * types + t for each entry (v,
    u) of type t < types, and a vertex's hit from a splitter is the multiset
    of the types of its entries into it.  ops ticks once per vertex placed
    in its first class, per adjacency entry scanned, per touched vertex
    grouped by its hit and per vertex moved to a new class."""
    ops = ops if ops is not None else OpCounter()
    adj = g.adj
    by_label: dict[frozenset[str], list[int]] = {}
    for v in g.vertices:
        by_label.setdefault(g.vl[v], []).append(v)
    classes: list[set[int]] = [set(vs) for vs in by_label.values()]
    cls_of = {v: c for c, members in enumerate(classes) for v in members}
    ops.tick(len(cls_of))
    queue = deque(range(len(classes)))
    pending = [True] * len(classes)
    width = len(cls_of).bit_length()  # bits for a count: a splitter lists a vertex at most once per member

    while queue:
        s = queue.popleft()
        pending[s] = False
        splitter = classes[s]
        hits: dict[int, int]
        if len(splitter) == 1:  # rows repeat no entry
            hits = dict.fromkeys(adj[next(iter(splitter))], 1)
        else:
            hits = Counter(chain.from_iterable(map(adj.__getitem__, splitter)))
        ops.tick(sum(hits.values()))
        if types > 1:
            hits = _type_multisets(hits, types, width)
        touched: dict[int, list[int]] = {}
        for v in hits:
            c = cls_of[v]
            vs = touched.get(c)
            if vs is None:
                touched[c] = [v]
            else:
                vs.append(v)
        for c, vs in touched.items():
            members = classes[c]
            if len(members) == 1:
                continue
            ops.tick(len(vs))
            by_hit: dict[int, list[int]] = {}
            for v in vs:
                by_hit.setdefault(hits[v], []).append(v)
            parts = list(by_hit.values())
            if len(members) == len(vs):
                if len(parts) == 1:
                    continue
                # every member was hit: the largest part keeps the class id
                largest = max(parts, key=len)
                parts = [p for p in parts if p is not largest]
            # the untouched rest (or the largest part) stays in c; the parts move out
            ids = [c]
            for part in parts:
                new = len(classes)
                members.difference_update(part)
                classes.append(set(part))
                for v in part:
                    cls_of[v] = new
                pending.append(False)
                ids.append(new)
                ops.tick(len(part))
            # c's new parts are splitters if c was one; otherwise every part
            # but the largest, whose hits are c's old hits minus the others'
            if pending[c]:
                del ids[0]
            else:
                ids.remove(max(ids, key=lambda i: len(classes[i])))
            for i in ids:
                queue.append(i)
                pending[i] = True
    return _canonicalize(classes)


def _type_multisets(counts: dict[int, int], types: int, width: int) -> dict[int, int]:
    """Per vertex v, its hit from the counts of its typed entries v * types
    + t: the multiset of their types as one int, with the count of type t in
    the `width` bits from bit t * width on."""
    hits: dict[int, int] = {}
    get = hits.get
    for x, n in counts.items():
        v, t = divmod(x, types)
        hits[v] = get(v, 0) + (n << t * width)
    return hits


def unstable_witness(classes: Sequence[Sequence[int]],
                     keys: Callable[[int], list[int]]) -> tuple[int, int, int] | None:
    """A witness (v, w, k) that a coloring is not stable, given each
    vertex's bucket keys, one per adjacency entry, in bucket order: v is the
    first member of a class, w another member whose keys differ, and k the
    first key where they differ, which is the least key of which they have
    different numbers of entries.  None when every member's keys equal its
    first member's."""
    for members in classes:
        if len(members) == 1:
            continue
        ref = keys(members[0])
        for w in members[1:]:
            ks = keys(w)
            if ks != ref:
                i = next((i for i, (a, b) in enumerate(zip(ks, ref)) if a != b), min(len(ks), len(ref)))
                return members[0], w, min(ks[i : i + 1] + ref[i : i + 1])
    return None


def is_stable(g: LabeledGraph, coloring: Coloring) -> tuple[bool, tuple[int, int, int] | None]:
    """Check stability; on failure return a witness (v, w, c) of same-colored
    vertices with different counts of c-colored neighbors."""
    col = coloring.col
    witness = unstable_witness(coloring.classes, lambda v: sorted(col[u] for u in g.adj[v]))
    return witness is None, witness


def refines_labels(g: LabeledGraph, coloring: Coloring) -> bool:
    return all(len({g.vl[v] for v in members}) == 1 for members in coloring.classes)
