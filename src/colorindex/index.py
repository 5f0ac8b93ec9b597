"""The color-index: loop-encoded graph, coarsest stable coloring, lookup
tables for classes / per-color neighbor lists / per-color neighbor colors
with their degrees / per-label colors, and two views derived from those
tables on first use: the color database, and the typed color edges that
binary- and full-stage queries run on.

A binary- or full-stage index is built on `bin2graph`'s gadget graph: each
ordered pair (a, b) of related values is a gadget vertex w_ab, linked
a - w_ab - w_ba - b, with a self-looped w_aa for a pair (a, a).  A value
vertex is its source id (a constant, or an `arb2bin` node on the full stage),
and the gadgets are numbered on from the largest one.  Such an index
carries the stage's gadget symbols, and queries over the binary schema run
on its value (`V`) colors directly.  Stability gives every
gadget color cw one partner color p(cw), the color of its gadget neighbor
(cw itself for a self-looped gadget), and one value color.  So an entry
(cw, n) of deg[c], for a value color c, is a *typed edge*: each vertex of
color c has n gadgets of color cw, each leading to one value of color
dest[cw], the value color next to p(cw).  The gadget's labels say which
relations hold forward, its partner's labels which hold backward, and a
self-looped gadget is the pair (a, a).  The reverse of the typed edge
(c, cw, dest[cw]) is (dest[cw], p(cw), c).  A graph-stage index is the
one-type case: deg[c] entries lead to their own color.

The index is immutable after build and safe for unlimited concurrent readers;
the evaluation phase serves many queries against one index.  It holds nothing
query-specific: the compiled queries that `pipeline.DatabaseIndex` keeps live
beside it, and every dynamic program reads these tables afresh.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bin2graph import GraphSymbols
from .errors import ParseError
from .model import Database, Schema
from .refinement import (
    Coloring, LabeledGraph, asymmetric_vertex, color_buckets, encode_loops, refine, refines_labels, unstable_witness,
)


@dataclass(frozen=True)
class TypedEdges:
    """The typed color edges of an index (see the module docstring)."""

    partner: Sequence[int] | None  # per gadget color, p(cw); None on the graph stage
    dest: Sequence[int]  # per gadget color, the value color it leads to; c itself otherwise
    # per relation label, the gadget colors whose partners carry it: the
    # typed edges along which the relation holds backward
    back: dict[str, frozenset[int]]


@dataclass(frozen=True)
class ColorIndex:
    graph: LabeledGraph
    coloring: Coloring
    nbr: dict[int, dict[int, tuple[int, ...]]]
    # deg[c]: (c', numN(c, c')) for each neighbor color c' of color c, c' ascending
    deg: tuple[tuple[tuple[int, int], ...], ...]
    label_colors: dict[str, frozenset[int]]  # label -> the colors that carry it
    source_size: int
    symbols: GraphSymbols | None = None  # the gadget symbols of a binary- or full-stage index

    @property
    def colors(self) -> int:
        return self.coloring.num_colors

    def color_of(self, v: int) -> int:
        return self.coloring.col[v]

    def n_c(self, c: int) -> int:
        return len(self.coloring.classes[c])

    def num_n(self, c: int, cprime: int) -> int:
        return next((n for cp, n in self.deg[c] if cp == cprime), 0)

    @property
    def edge_label(self) -> str:
        return self.graph.edge_label

    @property
    def loop_label(self) -> str:
        return self.graph.loop_label

    @property
    def labeled_size(self) -> int:
        """Size of the loop-encoded database: edge tuples plus unary tuples."""
        directed = sum(len(self.graph.adj[v]) for v in self.graph.vertices)
        labels = sum(len(self.graph.vl[v]) for v in self.graph.vertices)
        return directed + labels

    @functools.cached_property
    def d_col(self) -> Database:
        """The color database, derived from the tables on first use: each
        label's colors in ascending order, and the color pairs (c, c') with
        numN(c, c') > 0.  No query reads it; two readers that race to
        build it store equal databases."""
        edge_label = self.edge_label
        schema = Schema(tuple((u, 1) for u in self.graph.label_universe) + ((edge_label, 2),))
        relations = {u: tuple((c,) for c in sorted(cs)) for u, cs in self.label_colors.items()}
        relations[edge_label] = tuple((c, cp) for c, row in enumerate(self.deg) for cp, _ in row)
        return Database(schema=schema, relations=relations)

    @functools.cached_property
    def typed(self) -> TypedEdges:
        """The typed color edges, derived from the tables on first use in
        O(colors).  Raises ParseError when a gadget class does not have one
        value neighbor and one gadget neighbor, or a relation label is off
        the gadgets, which only a tampered index file brings about."""
        dest = range(self.colors)
        if self.symbols is None:
            return TypedEdges(partner=None, dest=dest, back={})
        gadgets, values = self.label_colors[self.symbols.w_label], self.label_colors[self.symbols.v_label]
        partner, own = list(dest), list(dest)
        for cw in gadgets:
            row = self.deg[cw]
            if len(row) == 2 and row[0][1] == row[1][1] == 1:
                (c, _), (p, _) = row if row[0][0] in values else row[::-1]
                if c in values and p in gadgets:
                    own[cw], partner[cw] = c, p
                    continue
            raise ParseError(f"gadget vertex {self.coloring.classes[cw][0]} does not have "
                             "one value neighbor and one gadget neighbor")
        labels = self.symbols.u_label.values()
        if not all(self.label_colors[u] <= gadgets for u in labels):
            raise ParseError("a relation label is on a vertex that is not a gadget")
        back = {u: frozenset(map(partner.__getitem__, self.label_colors[u])) for u in labels}
        return TypedEdges(partner=partner, dest=[own[p] for p in partner], back=back)

    @property
    def d_col_size(self) -> int:
        return sum(map(len, self.label_colors.values())) + sum(map(len, self.deg))


def build(db: Database) -> ColorIndex:
    """Index a node-labeled-graph database: encode loops, refine, and build
    the lookup tables."""
    graph = encode_loops(db)
    coloring = refine(graph)
    return build_from_coloring(graph, coloring, source_size=db.size)


def build_from_coloring(graph: LabeledGraph, coloring: Coloring, source_size: int) -> ColorIndex:
    """The tables of a stable coloring.  The loader checks stability
    afterwards, on the neighbor tables built here."""
    nbr = color_buckets(graph, coloring.col)
    # stability makes every member of a class see what its first member sees
    firsts = [members[0] for members in coloring.classes]
    deg = tuple(tuple(sorted((cp, len(us)) for cp, us in nbr[v].items())) for v in firsts)
    label_colors: dict[str, list[int]] = {u: [] for u in graph.label_universe}
    for c, v in enumerate(firsts):
        for label in graph.vl[v]:
            label_colors[label].append(c)
    return ColorIndex(
        graph=graph,
        coloring=coloring,
        nbr=nbr,
        deg=deg,
        label_colors={u: frozenset(cs) for u, cs in label_colors.items()},
        source_size=source_size,
    )


@dataclass(frozen=True)
class IndexStats:
    source_size: int
    labeled_size: int
    num_colors: int
    d_col_size: int
    color_ratio: float


def stats(idx: ColorIndex) -> IndexStats:
    n = len(idx.graph.vertices)
    return IndexStats(
        source_size=idx.source_size,
        labeled_size=idx.labeled_size,
        num_colors=idx.colors,
        d_col_size=idx.d_col_size,
        color_ratio=idx.colors / n if n else 0.0,
    )


def check_colorindex(idx: ColorIndex) -> list[str]:
    """Consistency suite: numN well-definedness via stability, class sizes,
    degree sums, the per-label color sets, and the color-database
    definition."""
    problems: list[str] = []
    g = idx.graph
    col = idx.coloring.col
    for c, members in enumerate(idx.coloring.classes):
        for v in members:
            if col[v] != c:
                problems.append(f"class table disagrees with col at vertex {v}")
            per_color: dict[int, int] = {}
            for u in g.adj[v]:
                per_color[col[u]] = per_color.get(col[u], 0) + 1
            for cprime, n in per_color.items():
                if idx.num_n(c, cprime) != n:
                    problems.append(f"numN({c},{cprime}) not well-defined at vertex {v}")
                if idx.nbr[v].get(cprime, ()) != tuple(sorted(u for u in g.adj[v] if col[u] == cprime)):
                    problems.append(f"N({v},{cprime}) table incorrect")
            if sum(per_color.values()) != len(g.adj[v]):
                problems.append(f"degree mismatch at {v}")
    if sum(idx.n_c(c) for c in range(idx.colors)) != len(g.vertices):
        problems.append("class sizes do not sum to |V|")
    for c, row in enumerate(idx.deg):
        for cp, n in row:
            if n > 0 and not idx.d_col.contains(idx.edge_label, (c, cp)):
                problems.append(f"color edge ({c},{cp}) missing from color database")
    for c, cp in idx.d_col.rel(idx.edge_label):
        if idx.num_n(c, cp) <= 0:
            problems.append(f"color edge ({c},{cp}) has numN 0")
        if not idx.d_col.contains(idx.edge_label, (cp, c)):
            problems.append(f"color edge relation not symmetric at ({c},{cp})")
        for v in idx.coloring.classes[c]:
            if not any(col[u] == cp for u in g.adj[v]):
                problems.append(f"vertex {v} of color {c} has no {cp}-neighbor")
    for label in g.label_universe:
        expected = sorted({col[v] for v in g.vertices if label in g.vl[v]})
        if list(idx.d_col.rel(label)) != [(c,) for c in expected]:
            problems.append(f"unary color relation {label} incorrect")
        if idx.label_colors.get(label) != frozenset(expected):
            problems.append(f"color set of label {label} incorrect")
    if not idx.d_col.active_domain() <= set(range(idx.colors)):
        problems.append("color database domain exceeds color set")
    return problems


# --- serialization -----------------------------------------------------------
#
# Line-oriented, versioned sections; every section header carries its row
# count.  Only the loop-encoded graph and its coloring are written: the
# neighbor tables, numN and the color database are derived on load by
# build_from_coloring, as on build.  Writing is a pure function of the index,
# so write -> read -> write is bit-identical.

def write_section(lines: list[str], name: str, rows: list[str]) -> None:
    lines.append(f"[{name} {len(rows)}]")
    lines.extend(rows)


def write_sections(idx: ColorIndex) -> list[str]:
    g = idx.graph
    lines: list[str] = []
    write_section(lines, "LABELS", [f"{g.loop_label}\t{g.edge_label}"] + list(g.label_universe))
    write_section(lines, "VERTICES", [
        f"{v}\t{','.join(sorted(g.vl[v])) or '-'}\t{' '.join(map(str, g.adj[v]))}"
        for v in g.vertices
    ])
    write_section(lines, "CLASSES", [" ".join(map(str, members)) for members in idx.coloring.classes])
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


def read_sections(reader: SectionReader, source_size: int) -> ColorIndex:
    """Read LABELS, VERTICES and CLASSES, check that they describe an
    undirected graph and a stable coloring of it, and derive the rest of the
    index with build_from_coloring.  Any inconsistency raises ParseError."""
    with reader.numbers():
        graph = _read_graph(reader)
        classes = tuple(tuple(map(int, members.split())) for (members,) in reader.rows("CLASSES", 1))
    col = {v: c for c, members in enumerate(classes) for v in members}
    if not all(classes) or sum(map(len, classes)) != len(col) or col.keys() != graph.vl.keys():
        raise ParseError("[CLASSES] does not partition the vertices")
    coloring = Coloring(col=col, classes=classes)
    if not refines_labels(graph, coloring):
        raise ParseError("a color class mixes vertices with different labels")
    ci = build_from_coloring(graph, coloring, source_size)
    witness = unstable_witness(coloring, ci.nbr)
    if witness is not None:
        raise ParseError("unstable coloring: vertices {} and {} share a color but not "
                         "their number of color-{} neighbors".format(*witness))
    return ci


def _read_graph(reader: SectionReader) -> LabeledGraph:
    labels = list(reader.rows("LABELS", None))
    if not labels or len(labels[0]) != 2 or any(len(row) != 1 for row in labels[1:]):
        raise ParseError("[LABELS] holds `loop label<TAB>edge label`, then one label per row", line=reader.line)
    (loop_label, edge_label), universe = labels[0], tuple(row[0] for row in labels[1:])
    if len(set(universe) | {edge_label}) != len(universe) + 1:
        raise ParseError("[LABELS] names a label twice", line=reader.line)
    label_sets = {"-": frozenset()}  # one frozenset per distinct label list
    vertices: list[int] = []
    adj: dict[int, tuple[int, ...]] = {}
    vl: dict[int, frozenset[str]] = {}
    for v_s, lab_s, nbr_s in reader.rows("VERTICES", 3):
        v = int(v_s)
        if vertices and v <= vertices[-1]:
            raise ParseError(f"vertex {v} is out of order", line=reader.line)
        if lab_s not in label_sets:
            label_sets[lab_s] = frozenset(lab_s.split(","))
            if not label_sets[lab_s] <= set(universe):
                raise ParseError(f"undeclared label in {lab_s!r}", line=reader.line)
        vertices.append(v)
        vl[v] = label_sets[lab_s]
        adj[v] = tuple(map(int, nbr_s.split()))
    try:
        bad = asymmetric_vertex(vertices, adj)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if bad is not None:
        raise ParseError(f"the neighbors of vertex {bad} are unsorted or include an edge without its reverse")
    for v in vertices:
        if (loop_label in vl[v]) != (v in adj[v]):
            raise ParseError(f"loop label {loop_label!r} disagrees with the loops at vertex {v}")
    return LabeledGraph(tuple(vertices), adj, vl, universe, loop_label, edge_label)
