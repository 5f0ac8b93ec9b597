"""The color-index: a coarsest stable coloring with its lookup tables
(classes, per-color bucket sizes and offsets, per-label colors) and the
color database, derived from those tables on first use.

A graph-stage index is built on the loop-encoded graph.  The key of an
adjacency entry (v, u) is the color of u, and deg[c] holds (k, numN(c, k))
for each key k that a vertex of color c sees, k ascending.

A binary- or full-stage index is *typed*.  `build_binary` refines the
values of the binary database (the source on the binary stage, `arb2bin`'s
D2 on the full stage), each vertex its source id.  Each ordered pair (v, u)
of related values is an *entry*, whose type is (the relations holding (v,
u), those holding (u, v), u == v); a value's hit from a splitter is the
multiset of the types of its entries into it.  The value classes are the
colors, and the entries that share (type, col v, col u) make one *edge
color* e, numbered by its least entry.  So e starts at one value color
src[e] and has one reverse rev[e], the edge color of the flips (u, v); its
entries end at one value color dst[e] = src[rev[e]].  A pair (v, v) is a
loop entry, with rev[e] = e.  The labels of e are the relations that hold
from v to u, with the loop label on a loop, and those of rev[e] the
relations that hold back.  The key of an entry is its edge color, and
deg[c] holds (e, numN(c, e)), which `EdgeColors` keeps as num[e] too.  The
graph stage is the one-type case: there the key of an entry is the color it
leads to.

This is the projection of the coarsest stable coloring of `bin2graph`'s
gadget graph, where the pair (v, u) is the gadget w_vu, linked v - w_vu -
w_uv - u: a value color is a class of its values, and an edge color a
gadget class.  `project` reads the typed index off that coloring with
`bin2graph`'s pair map.  It is the reference that the tests check the
build against; `DatabaseIndex.build` does not run it.

Every vertex keeps one adjacency row, `graph.adj[v]`, in *bucket order*: by
key in deg order, then ascending.  Stability gives every vertex of color c
the same bucket sizes deg[c], so bucket k of v is the slice buckets[c][k] of
v's row, at offsets that depend on c only.  A typed row lists far values;
the edge color of an entry is the bucket it sits in, so the edge colors of
a row are its class's deg row, each key k listed numN(c, k) times: the
class's *keys*.

The index is immutable after build and safe for unlimited concurrent readers;
the evaluation phase serves many queries against one index.  It holds nothing
query-specific: the compiled queries that `pipeline.DatabaseIndex` keeps live
beside it, and every dynamic program reads these tables afresh.
"""
from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .bin2graph import GraphSymbols
from .errors import NotBinarySchema, ParseError
from .instrument import OpCounter
from .model import Database, Schema
from .refinement import (
    Coloring, LabeledGraph, asymmetric_vertex, encode_loops, fresh_name, refine, reverse_adjacency, unary_labels,
    unstable_witness,
)


@dataclass(frozen=True)
class EdgeColors:
    """The edge colors of a typed index (see the module docstring), with the
    look-ups by label made once."""

    relations: tuple[str, ...]  # the relation labels
    labels: tuple[frozenset[str], ...]  # per edge color: its relation labels, and the loop label on a loop
    rev: tuple[int, ...]  # per edge color e: the edge color of the reverse of each e-entry
    src: tuple[int, ...]  # per edge color: the value color its entries start at
    num: tuple[int, ...]  # per edge color e: numN(src[e], e), the e-entries of each vertex of color src[e]
    # derived: per edge color, the value color its entries end at; per
    # label, the edge colors that carry it, and their reverses
    dst: tuple[int, ...] = field(init=False, repr=False, compare=False)
    with_label: dict[str, frozenset[int]] = field(init=False, repr=False, compare=False)
    back: dict[str, frozenset[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        with_label: dict[str, list[int]] = {r: [] for r in self.relations}
        for e, labels in enumerate(self.labels):
            for label in labels:
                with_label.setdefault(label, []).append(e)
        rev = self.rev
        object.__setattr__(self, "dst", tuple(self.src[r] for r in rev))
        object.__setattr__(self, "with_label", {u: frozenset(es) for u, es in with_label.items()})
        object.__setattr__(self, "back", {u: frozenset(rev[e] for e in es) for u, es in with_label.items()})


@dataclass(frozen=True)
class ColorIndex:
    # every row of graph.adj in bucket order; typed: the value vertices, each
    # row listing the far values of its entries
    graph: LabeledGraph
    coloring: Coloring
    # deg[c]: (k, numN(c, k)) for each key k of the buckets of a color-c vertex, k ascending
    deg: tuple[tuple[tuple[int, int], ...], ...]
    # buckets[c][k]: the slice of a color-c vertex's row that holds its bucket
    # k, in deg order; derived from deg
    buckets: tuple[dict[int, slice], ...]
    label_colors: dict[str, frozenset[int]]  # vertex label -> the colors that carry it
    source_size: int  # of the graph the coloring is of: on a typed index, bin2graph's graph of the values
    edges: EdgeColors | None = None  # the edge colors of a typed index

    @property
    def colors(self) -> int:
        """The colors of the index: on a typed index its value colors and
        its edge colors, as many as `bin2graph`'s gadget coloring has."""
        return self.coloring.num_colors + (0 if self.edges is None else len(self.edges.rev))

    @property
    def vertex_count(self) -> int:
        """The vertices of the index: on a typed index its values and its
        entries, as many as `bin2graph`'s gadget graph has."""
        n = len(self.graph.vertices)
        return n if self.edges is None else n + sum(map(len, self.graph.adj.values()))

    @property
    def color_ratio(self) -> float:
        """Colors per vertex: the compression of the coloring, 0 on an empty
        graph."""
        n = self.vertex_count
        return self.colors / n if n else 0.0

    def color_of(self, v: int) -> int:
        return self.coloring.col[v]

    def n_c(self, c: int) -> int:
        return len(self.coloring.classes[c])

    def num_n(self, c: int, key: int) -> int:
        return next((n for k, n in self.deg[c] if k == key), 0)

    @property
    def dest(self) -> Sequence[int]:
        """Per key of the deg rows, the color its entries lead to."""
        return range(self.coloring.num_colors) if self.edges is None else self.edges.dst

    @property
    def edge_label(self) -> str:
        return self.graph.edge_label

    @property
    def loop_label(self) -> str:
        return self.graph.loop_label

    @property
    def labeled_size(self) -> int:
        """Size of the indexed graph as a database: one tuple per directed
        edge (per entry on a typed index) and one per vertex label."""
        directed = sum(len(self.graph.adj[v]) for v in self.graph.vertices)
        labels = sum(len(self.graph.vl[v]) for v in self.graph.vertices)
        return directed + labels

    @functools.cached_property
    def d_col(self) -> Database:
        """The color database, derived from the tables on first use: each
        vertex label's colors in ascending order, and the color edges: the
        pairs (c, c') with numN(c, c') > 0, or on a typed index the triples
        (c, e, dst[e]) with numN(c, e) > 0, each edge label then holding its
        edge colors.  No query reads it; two readers that race to build it
        store equal databases."""
        g, edges = self.graph, self.edges
        relations = {u: tuple((c,) for c in sorted(cs)) for u, cs in self.label_colors.items()}
        if edges is None:
            relations[g.edge_label] = tuple((c, cp) for c, row in enumerate(self.deg) for cp, _ in row)
        else:
            relations.update({u: tuple((e,) for e in sorted(es)) for u, es in edges.with_label.items()})
            relations[g.edge_label] = tuple((c, e, edges.dst[e]) for c, row in enumerate(self.deg) for e, _ in row)
        arity = 2 if edges is None else 3
        schema = Schema(tuple((u, 1) for u in g.label_universe) + ((g.edge_label, arity),))
        return Database(schema=schema, relations=relations)

    @property
    def d_col_size(self) -> int:
        size = sum(map(len, self.label_colors.values())) + sum(map(len, self.deg))
        return size if self.edges is None else size + sum(map(len, self.edges.labels))


def build(db: Database) -> ColorIndex:
    """Index a node-labeled-graph database: encode loops, refine, and build
    the lookup tables."""
    graph = encode_loops(db)
    coloring = refine(graph)
    return build_from_coloring(graph, coloring, source_size=db.size)


def build_binary(db: Database, ops: OpCounter | None = None) -> ColorIndex:
    """The typed index of a binary database, refined on its values (see the
    module docstring).  An ordered pair (v, u) of related values is an entry
    of type (the relations holding (v, u), those holding (u, v), u == v).
    Its edge color is the class of (type, col v, col u), and the edge colors
    are numbered by their least entry, as `project` numbers them.  Its
    source size is that of `bin2graph`'s graph, counted without making it:
    four facts per entry, the source facts, and one V fact per value.  ops
    counts the refinement's steps."""
    universe, loop_label, edge_label, relations = typed_labels(db.schema)
    values = tuple(sorted(db.active_domain()))
    # the relations holding each pair, and each entry's type id
    holds: dict[tuple[int, int], int] = {}
    for i, f in enumerate(relations):
        for pair in db.rel(f):
            holds[pair] = holds.get(pair, 0) | 1 << i
    pairs = sorted(holds.keys() | {(u, v) for v, u in holds})
    type_ids: dict[tuple[int, int, bool], int] = {}
    kinds = [type_ids.setdefault((holds.get((v, u), 0), holds.get((u, v), 0), u == v), len(type_ids))
             for v, u in pairs]
    types = len(type_ids)
    rows: dict[int, list[int]] = {v: [] for v in values}
    for (v, u), t in zip(pairs, kinds):
        rows[u].append(v * types + t)
    vl = unary_labels(db, db.schema.unary_symbols(), values)
    graph = LabeledGraph(values, dict(zip(rows, map(tuple, rows.values()))), vl, universe, loop_label, edge_label)
    coloring = refine(graph, ops, types)
    # the edge colors, in the order of their least entry
    col = coloring.col
    edge_ids: dict[tuple[int, int, int], int] = {}
    entries: list[list[tuple[int, int]]] = []
    for pair, t in zip(pairs, kinds):
        key = (t, col[pair[0]], col[pair[1]])
        e = edge_ids.get(key)
        if e is None:
            e = edge_ids[key] = len(entries)
            entries.append([])
        entries[e].append(pair)
    # per type: the labels of its edge colors, and the type of the flips
    type_labels = [frozenset([f for i, f in enumerate(relations) if there >> i & 1] + [loop_label] * loop)
                   for there, _, loop in type_ids]
    flip = [type_ids[(back, there, loop)] for there, back, loop in type_ids]
    src = tuple(c for _, c, _ in edge_ids)
    edges = EdgeColors(relations=relations, labels=tuple(type_labels[t] for t, _, _ in edge_ids),
                       rev=tuple(edge_ids[(flip[t], d, c)] for t, c, d in edge_ids),
                       src=src, num=_entries_per_start(entries, src, coloring.classes))
    return _typed_tables(graph, coloring, entries, edges, 4 * len(pairs) + db.size + len(values))


def build_from_coloring(graph: LabeledGraph, coloring: Coloring, source_size: int) -> ColorIndex:
    """The tables of a stable coloring of a loop-encoded graph, whose rows
    it puts in bucket order: the reverse of the symmetric adjacency, filled
    in class order."""
    adj = reverse_adjacency(tuple(chain.from_iterable(coloring.classes)), graph.adj)
    col = coloring.col
    deg = _deg([col[u] for u in adj[members[0]]] for members in coloring.classes)
    return _tables(replace(graph, adj=adj), coloring, deg, source_size)


def _deg(keys: Iterable[Sequence[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The bucket sizes of each class, counted off its keys in bucket order:
    those of its first member, which stability makes every member's."""
    return tuple(tuple(Counter(ks).items()) for ks in keys)


def _offsets(row: tuple[tuple[int, int], ...], shared: dict[tuple[int, int], slice]) -> dict[int, slice]:
    """The slice of each bucket of a row of the given bucket sizes, one
    slice object per (start, stop) across the rows."""
    out, start = {}, 0
    for k, n in row:
        out[k] = shared.setdefault((start, start + n), slice(start, start + n))
        start += n
    return out


def _tables(graph: LabeledGraph, coloring: Coloring, deg: tuple[tuple[tuple[int, int], ...], ...],
            source_size: int, edges: EdgeColors | None = None) -> ColorIndex:
    shared: dict[tuple[int, int], slice] = {}
    edge_labels = set() if edges is None else {*edges.relations, graph.loop_label}
    label_colors: dict[str, list[int]] = {u: [] for u in graph.label_universe if u not in edge_labels}
    for c, members in enumerate(coloring.classes):
        for label in graph.vl[members[0]]:
            label_colors[label].append(c)
    return ColorIndex(graph=graph, coloring=coloring, deg=deg, buckets=tuple(_offsets(row, shared) for row in deg),
                      label_colors={u: frozenset(cs) for u, cs in label_colors.items()},
                      source_size=source_size, edges=edges)


def typed_labels(schema: Schema) -> tuple[tuple[str, ...], str, str, tuple[str, ...]]:
    """The labels of a typed index over a binary schema: the label universe
    (the unary symbols, which label values, then the binary symbols and a
    fresh loop label, which label edge colors), the loop label, a fresh
    edge label, that of the color edges, and the binary symbols."""
    if not schema.is_binary():
        raise NotBinarySchema("a typed index requires a binary schema")
    relations, taken = schema.binary_symbols(), set(schema.names)
    loop_label = fresh_name("L", taken)
    return schema.unary_symbols() + relations + (loop_label,), loop_label, fresh_name("E", taken), relations


def project(graph: LabeledGraph, coloring: Coloring, symbols: GraphSymbols,
            gadget_node: dict[tuple[int, int], int], source_size: int) -> ColorIndex:
    """The typed index of a stable coloring of `bin2graph`'s graph that
    refines its labels (see the module docstring), read off the graph's
    symbols and its pair map: the pair (v, u) with gadget w_vu is the entry
    (v, u, e), where e is the color of w_vu, rev[e] that of w_uv and src[e]
    that of v.  The map must list its pairs in ascending order, as
    `bin2graph` numbers them: the entries of each edge color, taken in that
    order, then fill every row in bucket order.  Value and edge colors are
    numbered in class order.  Raises
    ValueError when the map does not have one pair per gadget vertex, or
    the coloring does not give each gadget color one reverse and one start
    color."""
    binary = Schema(tuple((u, 1) for u in symbols.unary) + tuple((f, 2) for f in symbols.u_label))
    universe, loop_label, edge_label, relations = typed_labels(binary)
    v_label, w_label, vl = symbols.v_label, symbols.w_label, graph.vl
    relation = {u: f for f, u in symbols.u_label.items()}
    relation[graph.loop_label] = loop_label
    # a class's id among the value classes, or among the gadget classes
    rank: list[int] = []
    value_classes: list[tuple[int, ...]] = []
    gadget_classes = 0
    for members in coloring.classes:
        if v_label in vl[members[0]]:
            rank.append(len(value_classes))
            value_classes.append(members)
        else:
            rank.append(gadget_classes)
            gadget_classes += 1
    values = tuple(v for v in graph.vertices if v_label in vl[v])
    if len(gadget_node) != len(graph.vertices) - len(values):  # sizes only: two sets would add to the peak RSS
        raise ValueError("the pair map does not have one pair per gadget vertex of the graph")
    col = coloring.col
    labels: list[frozenset[str] | None] = [None] * gadget_classes
    rev, src = [-1] * gadget_classes, [-1] * gadget_classes
    entries: list[list[tuple[int, int]]] = [[] for _ in range(gadget_classes)]  # per edge color: its (v, u)
    for pair, w in gadget_node.items():
        v, u = pair
        e, r, c = rank[col[w]], rank[col[gadget_node[(u, v)]]], rank[col[v]]
        if labels[e] is None:
            labels[e] = frozenset(relation[label] for label in vl[w] - {w_label})
            rev[e], src[e] = r, c
        elif rev[e] != r or src[e] != c:
            raise ValueError(f"gadget color {e} has two reverses or two start colors")
        entries[e].append(pair)
    value_labels = {ls: ls - {v_label} for ls in {vl[v] for v in values}}
    typed = LabeledGraph(values, {}, {v: value_labels[vl[v]] for v in values}, universe, loop_label, edge_label)
    edges = EdgeColors(relations=relations, labels=tuple(labels), rev=tuple(rev), src=tuple(src),
                       num=_entries_per_start(entries, src, value_classes))
    value_coloring = Coloring(col={v: rank[col[v]] for v in values}, classes=tuple(value_classes))
    return _typed_tables(typed, value_coloring, entries, edges, source_size)


def _entries_per_start(entries: list[list[tuple[int, int]]], src: Sequence[int],
                       classes: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """numN(src[e], e) per edge color e: the number of e-entries over the
    size of class src[e]."""
    return tuple(len(pairs) // len(classes[c]) for pairs, c in zip(entries, src))


def _typed_tables(graph: LabeledGraph, coloring: Coloring, entries: list[list[tuple[int, int]]],
                  edges: EdgeColors, source_size: int) -> ColorIndex:
    """The tables of a typed index on the values of graph, given the entries
    (v, u) of each edge color in ascending order: taken edge color by edge
    color, they fill every row in bucket order."""
    far: dict[int, list[int]] = {v: [] for v in graph.vertices}
    deg: list[list[tuple[int, int]]] = [[] for _ in coloring.classes]
    for e, pairs in enumerate(entries):
        for v, u in pairs:
            far[v].append(u)
        deg[edges.src[e]].append((e, edges.num[e]))
    adj = dict(zip(far, map(tuple, far.values())))
    return _tables(replace(graph, adj=adj), coloring, tuple(map(tuple, deg)), source_size, edges)


def check_colorindex(idx: ColorIndex) -> list[str]:
    """Consistency suite: the bucket offsets, numN well-definedness via
    stability, class sizes, degree sums, the per-label color sets, and the
    color-database definition.  Every entry (v, u) of bucket k must come
    with its flip (u, v): of bucket col[v] on the graph stage, and of bucket
    rev[k] on a typed index, where the end colors of every entry are checked
    too, and so is num[e] against the count that deg[src[e]] lists."""
    problems: list[str] = []
    g, edges = idx.graph, idx.edges
    col = idx.coloring.col
    entries: set[tuple[int, int, int]] = set()  # (v, u, the key of its bucket)
    for c, members in enumerate(idx.coloring.classes):
        if idx.buckets[c] != _offsets(idx.deg[c], {}):
            problems.append(f"the bucket offsets of color {c} disagree with deg")
        size = sum(n for _, n in idx.deg[c])
        for v in members:
            if col[v] != c:
                problems.append(f"class table disagrees with col at vertex {v}")
            row = g.adj[v]
            if len(row) != size or len(set(row)) != size:
                problems.append(f"degree mismatch at {v}")
            for k, s in idx.buckets[c].items():
                bucket = row[s]
                if any(a >= b for a, b in zip(bucket, bucket[1:])):
                    problems.append(f"N({v},{k}) is not ascending")
                if not bucket or (edges is None and any(col[u] != k for u in bucket)):
                    problems.append(f"numN({c},{k}) not well-defined at vertex {v}")
                entries.update((v, u, k) for u in bucket)
    if sum(map(len, idx.coloring.classes)) != len(g.vertices):
        problems.append("class sizes do not sum to |V|")
    for v, u, k in entries:
        if (u, v, col[v] if edges is None else edges.rev[k]) not in entries:
            problems.append(f"entry ({v},{u}) of bucket {k} lacks its flip")
        if edges is None:
            continue
        if (edges.src[k], edges.dst[k]) != (col[v], col[u]):
            problems.append(f"entry ({v},{u}) of edge color {k} does not run from color {edges.src[k]} "
                            f"to color {edges.dst[k]}")
        if (u == v) != (idx.loop_label in edges.labels[k]):
            problems.append(f"loop label of edge color {k} disagrees with entry ({v},{u})")
    facts = set(idx.d_col.rel(idx.edge_label))
    for c, row in enumerate(idx.deg):
        for k, n in row:
            # (c, c') on the graph stage, (c, e, dst[e]) on a typed index
            fact = (c, k) if edges is None else (c, k, edges.dst[k])
            if n <= 0 or fact not in facts:
                problems.append(f"color edge {fact} missing from color database")
    if len(facts) != sum(map(len, idx.deg)):
        problems.append("the color database has a color edge that no deg entry has")
    for fact in facts:
        flip = (fact[1], fact[0]) if edges is None else (fact[2], edges.rev[fact[1]], fact[0])
        if flip not in facts:
            problems.append(f"color edge relation not symmetric at {fact}")
    vertex_labels = idx.label_colors.keys()
    for label in vertex_labels:
        expected = sorted({col[v] for v in g.vertices if label in g.vl[v]})
        if list(idx.d_col.rel(label)) != [(c,) for c in expected]:
            problems.append(f"unary color relation {label} incorrect")
        if idx.label_colors[label] != frozenset(expected):
            problems.append(f"color set of label {label} incorrect")
    if edges is not None:
        for label, es in edges.with_label.items():
            if list(idx.d_col.rel(label)) != [(e,) for e in sorted(es)]:
                problems.append(f"edge color relation {label} incorrect")
        if len(edges.num) != len(edges.src):
            problems.append(f"num has {len(edges.num)} entries for {len(edges.src)} edge colors")
        for e, (c, n) in enumerate(zip(edges.src, edges.num)):
            if n != idx.num_n(c, e):
                problems.append(f"num[{e}] = {n} is not numN({c}, {e}) = {idx.num_n(c, e)}, which deg lists")
    if vertex_labels | (edges.with_label.keys() if edges else set()) | {idx.loop_label} != set(g.label_universe):
        problems.append("the labels do not cover the label universe")
    if idx.d_col_size != idx.d_col.size:
        problems.append(f"d_col_size {idx.d_col_size} is not the size {idx.d_col.size} of the color database")
    return problems


# --- serialization -----------------------------------------------------------
#
# Line-oriented, versioned sections; every section header carries its row
# count.  Only the indexed graph and its coloring are written, each fact
# once: the labels come from the schema, and numN, the bucket offsets and
# the color database are derived on load as on build.  CLASSES comes first,
# one row per color: its labels, and on a typed index its keys, after one
# EDGE_COLORS row `labels, rev` per edge color.  Every VERTICES row is `v,
# color, row`: the neighbors, or on a typed index the far values.  The
# loader gives each vertex its class's labels and builds the members of
# every class from the ascending vertices.  Rows are in bucket order, so the
# loader sorts nothing.  Writing is a pure function of the index, so write
# -> read -> write is bit-identical.

def write_section(lines: list[str], name: str, rows: list[str]) -> None:
    lines.append(f"[{name} {len(rows)}]")
    lines.extend(rows)


def _labels_field(labels: frozenset[str]) -> str:
    return ",".join(sorted(labels)) or "-"


def write_sections(idx: ColorIndex) -> list[str]:
    g, edges, col = idx.graph, idx.edges, idx.coloring.col
    lines: list[str] = []
    classes = [_labels_field(g.vl[members[0]]) for members in idx.coloring.classes]
    if edges is not None:
        write_section(lines, "EDGE_COLORS", [f"{_labels_field(ls)}\t{r}" for ls, r in zip(edges.labels, edges.rev)])
        classes = [f"{labels}\t{' '.join(str(e) for e, n in row for _ in range(n))}"
                   for labels, row in zip(classes, idx.deg)]
    write_section(lines, "CLASSES", classes)
    write_section(lines, "VERTICES", [f"{v}\t{col[v]}\t{' '.join(map(str, g.adj[v]))}" for v in g.vertices])
    return lines


class SectionReader:
    """Reads `[NAME count]` sections in file order.  `line` is the 1-based
    file line of the row last handed out, for error messages."""

    def __init__(self, lines: list[str], pos: int = 0):
        self.lines = lines
        self.pos = self.line = pos

    def rows(self, name: str, width: int | None) -> Iterator[list[str]]:
        """The rows of the next section, split at tabs into `width` fields
        (any number when width is None).  Iterate to the end before asking
        for the next section."""
        header = self.lines[self.pos] if self.pos < len(self.lines) else "end of file"
        count = header[len(name) + 2 : -1]
        if not (header.startswith(f"[{name} ") and header.endswith("]") and count.isdecimal()):
            raise ParseError(f"expected a [{name} <row count>] header, got {header!r}", line=self.pos + 1)
        first = self.pos + 1
        body = self.lines[first : first + int(count)]
        if len(body) != int(count):
            raise ParseError(f"section [{name}] is cut off after {len(body)} of {count} rows", line=self.pos + 1)
        self.pos = first + len(body)
        for self.line, row in enumerate(body, first + 1):
            fields = row.split("\t")
            if width is not None and len(fields) != width:
                raise ParseError(f"[{name}] rows have {width} tab-separated fields, not {len(fields)}", self.line)
            yield fields

    @contextmanager
    def numbers(self) -> Iterator[None]:
        """Report a malformed number as a ParseError at the row being read."""
        try:
            yield
        except ValueError as e:
            raise ParseError(f"bad number ({e})", line=self.line) from None


def read_sections(reader: SectionReader, source_size: int, labels: tuple[tuple[str, ...], str, str],
                  relations: tuple[str, ...] | None = None) -> ColorIndex:
    """Read the CLASSES and VERTICES of a graph-stage index, or of a typed
    index with the given relation labels (then with EDGE_COLORS first and
    each class's keys on its CLASSES row).  The file stores no labels of the
    schema: `labels` is the label universe, loop label and edge label that
    its schema and stage give, and every vertex takes the labels of its
    class.  Check that the rows are in bucket order and describe an
    undirected graph whose coloring is stable (every member's keys equal its
    class's first member's), or typed entries that come in flips, whose edge
    colors each start at one value color and give every member its class's
    keys.  Derive the rest of the index as the build does, sorting nothing.
    Any inconsistency raises ParseError."""
    universe, loop_label, edge_label = labels
    edge_labels = set() if relations is None else {*relations, loop_label}
    with reader.numbers():
        if edge_labels:
            labels_e, rev = _read_edge_colors(reader, edge_labels)
        read_labels = _label_reader(reader, set(universe) - edge_labels,
                                    "a relation or loop label" if edge_labels else "no label")
        # per class: its labels, and on a typed index its keys
        class_rows = [(read_labels(row[0]), tuple(map(int, row[1].split())) if edge_labels else None)
                      for row in reader.rows("CLASSES", 2 if edge_labels else 1)]
        graph, coloring = _read_vertices(reader, class_rows, labels)
    if not edge_labels:
        classes, col = coloring.classes, coloring.col
        _check_rows(graph, classes)
        neighbor_colors = lambda v: [col[u] for u in graph.adj[v]]
        witness = unstable_witness(classes, neighbor_colors)
        if witness is not None:
            v, w, k = witness
            raise ParseError(f"unstable coloring: vertices {v} and {w} share a color but not their number of "
                             f"color-{k} neighbors")
        return _tables(graph, coloring, _deg(neighbor_colors(m[0]) for m in classes), source_size)
    keys = tuple(ks for _, ks in class_rows)
    deg = _deg(keys)
    edges = EdgeColors(relations, labels_e, rev, *_start_colors(deg, len(rev)))
    ci = _tables(graph, coloring, deg, source_size, edges)
    _check_entries(ci, keys)
    return ci


def _label_reader(reader: SectionReader, declared: set[str], what: str) -> Callable[[str], frozenset[str]]:
    """The label set of a label field, one frozenset per distinct field.
    Raises ParseError, at the row being read, for a label not declared."""
    sets = {"-": frozenset()}

    def read(field: str) -> frozenset[str]:
        labels = sets.get(field)
        if labels is None:
            labels = sets[field] = frozenset(field.split(","))
            if not labels <= declared:
                raise ParseError(f"undeclared label, or {what}, in {field!r}", line=reader.line)
        return labels
    return read


def _read_vertices(reader: SectionReader, class_rows: list[tuple[frozenset[str], tuple[int, ...] | None]],
                   labels: tuple[tuple[str, ...], str, str]) -> tuple[LabeledGraph, Coloring]:
    """The VERTICES rows `v, color, row`, v ascending, and the coloring they
    give: each vertex takes the labels of its class's row and joins its
    members, and every class has one.  On the graph stage the loop label
    sits exactly on the vertices whose row lists them; on a typed index,
    whose class rows carry keys, a row lists a far value once, and as many
    as its class has keys."""
    vertices: list[int] = []
    adj: dict[int, tuple[int, ...]] = {}
    vl: dict[int, frozenset[str]] = {}
    col: dict[int, int] = {}
    members: list[list[int]] = [[] for _ in class_rows]
    loop_label = labels[1]
    for v_s, c_s, row_s in reader.rows("VERTICES", 3):
        v, c = int(v_s), int(c_s)
        if vertices and v <= vertices[-1]:
            raise ParseError(f"vertex {v} is out of order", line=reader.line)
        if not 0 <= c < len(members):
            raise ParseError(f"vertex {v} has color {c}, which [CLASSES] does not have", line=reader.line)
        vertices.append(v)
        members[c].append(v)
        vl[v], keys = class_rows[c]
        col[v] = c
        adj[v] = row = tuple(map(int, row_s.split()))
        if keys is None:
            if (loop_label in vl[v]) != (v in row):
                raise ParseError(f"loop label {loop_label!r} disagrees with the loops at vertex {v}", line=reader.line)
        elif len(set(row)) != len(row):
            raise ParseError(f"vertex {v} lists a far value twice", line=reader.line)
        elif len(row) != len(keys):
            raise ParseError(f"unstable coloring: vertex {v} has {len(row)} entries, not the {len(keys)} that "
                             f"the keys of its color {c} list", line=reader.line)
    if not all(members):
        raise ParseError(f"color {members.index([])} of [CLASSES] has no vertex")
    return LabeledGraph(tuple(vertices), adj, vl, *labels), Coloring(col=col, classes=tuple(map(tuple, members)))


def _check_rows(graph: LabeledGraph, classes: tuple[tuple[int, ...], ...]) -> None:
    """Check that the graph-stage rows are symmetric and in bucket order: the
    reverse of the adjacency, filled in class order, must be the adjacency
    itself."""
    try:
        bad = asymmetric_vertex(tuple(chain.from_iterable(classes)), graph.adj)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if bad is not None:
        raise ParseError(f"the neighbors of vertex {bad} are not in bucket order or include an edge "
                         "without its reverse")


def _read_edge_colors(reader: SectionReader,
                      edge_labels: set[str]) -> tuple[tuple[frozenset[str], ...], tuple[int, ...]]:
    """The labels and reverses of the EDGE_COLORS rows; rev must be an
    involution on the edge colors."""
    read_labels = _label_reader(reader, edge_labels, "a value label")
    labels, rev = [], []
    for lab_s, rev_s in reader.rows("EDGE_COLORS", 2):
        labels.append(read_labels(lab_s))
        rev.append(int(rev_s))
    if not all(0 <= r < len(rev) and rev[r] == e for e, r in enumerate(rev)):
        raise ParseError("the reverses of [EDGE_COLORS] are not an involution on the edge colors")
    return tuple(labels), tuple(rev)


def _start_colors(deg: tuple[tuple[tuple[int, int], ...], ...],
                  edges: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per edge color, the one value color its entries start at, the color
    whose deg row holds it, and the count numN that this row lists for it."""
    src, num = [-1] * edges, [0] * edges
    for c, row in enumerate(deg):
        for e, n in row:
            if not 0 <= e < edges:
                raise ParseError(f"the keys of value color {c} list an edge color that [EDGE_COLORS] "
                                 "does not have")
            if src[e] >= 0:
                raise ParseError(f"edge color {e} starts at value colors {src[e]} and {c}")
            src[e], num[e] = c, n
    if -1 in src:
        raise ParseError(f"edge color {src.index(-1)} is on no entry")
    return tuple(src), tuple(num)


def _check_entries(ci: ColorIndex, keys: tuple[tuple[int, ...], ...]) -> None:
    """Check that the entries (v, u, e) of a typed index come in flips (u, v,
    rev[e]), that every bucket is ascending, and that the loop edge colors
    sit exactly on the entries with u == v.  The reverse of the entries,
    filled edge color by edge color, each over the buckets of the members of
    its start color in ascending order, lists every row in bucket order: it
    must be the entries themselves, and give each vertex the keys of its
    class."""
    adj, classes, buckets, col = ci.graph.adj, ci.coloring.classes, ci.buckets, ci.coloring.col
    src, labels, loop_label = ci.edges.src, ci.edges.labels, ci.loop_label
    back: dict[int, list[int]] = {v: [] for v in adj}
    back_e: dict[int, list[int]] = {v: [] for v in adj}
    for r, e in enumerate(ci.edges.rev):  # the entries of edge color r are the flips of those of e
        s, loop = buckets[src[e]][e], loop_label in labels[e]
        for v in classes[src[e]]:
            for u in adj[v][s]:
                row = back.get(u)
                if row is None or (row and row[-1] == v):
                    raise ParseError(f"vertex {v} lists {u}, which is not a vertex or is listed twice")
                if (u == v) != loop:
                    raise ParseError(f"the entry ({v},{u}) of edge color {e} breaks the loop label")
                row.append(v)
                back_e[u].append(r)
    for v, row in adj.items():
        if tuple(back[v]) != row or tuple(back_e[v]) != keys[col[v]]:
            raise ParseError(f"the entries of vertex {v} are not in bucket order or include one without its flip")
