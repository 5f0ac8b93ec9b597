"""End-to-end orchestration: stage the input database down to one the color
index refines (skipping stages the schema does not need), build it, and
serve bool / count / enum queries with answers as source constants.  Indexes
serialize to a versioned, deterministic text format.  A value vertex is its
source id, so graph- and binary-stage answers need no decoding; a full-stage
answer reads its constants off `arb2bin`'s projection nodes (`node_proj`).

A binary- or full-stage build refines the values of the binary database
(the source, or `arb2bin`'s D2) with typed entries, and makes the typed
index from that coloring directly (`index.build_binary`): the value
vertices, their classes and the edge colors.  It makes no gadget graph:
`bin2graph.encode_db` is the reference for that index and the reduction
that criterion 7 checks, not the build path.  The typed index is what is
saved, loaded and served.  Given a `ColorIndex` of `bin2graph`'s graph and
its pair map, `DatabaseIndex` projects it to the same typed index
(`index.project`, the reference).  The file writes each fact once: a class
row names its labels (on a typed index also its edge colors, as its keys),
a vertex row its color and its adjacency row in bucket order, and a
full-stage `[PROJ]` row the tuple of the vertex in its place.  The label
names come from the schema and the stage.  The loader derives the members
of each class, the labels of each vertex, the projection of each node, the
degrees and the bucket offsets, and sorts nothing.

Serving compiles a query once per index: `DatabaseIndex.compile` checks it
against the schema and for free-connex acyclicity, translates it to the
query the evaluator runs, and splits that into components with their
variable orders and allowed edge colors, all in one `CompiledQuery` with
the decoder of its answers; a rejected query compiles to one without a
translated query.  The translation is the identity on the graph and binary
stages, where the query runs on the index's color edges or edge colors,
and `arb2bin`'s q2 on the full stage; `bin2graph`'s gadget translation of
queries is not on the serving path.  `compile` is a `functools.lru_cache`
of the COMPILED_LIMIT most recently asked queries, keyed by the query
itself; the least recently asked goes first, and a query that does not fit
the schema is not kept.  Only compile results are kept: bool, count and
enum run the dynamic program and the enumeration preprocessing on every
call.  An index is safe for concurrent readers: a `CompiledQuery` is
immutable, the cache is thread-safe with no lock of the index's own, and
two threads that miss it at once both compile the query and keep equal
results.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from . import arb2bin, bin2graph, evaluator, index as cindex_mod
from .analysis import compute_fc1ghd
from .errors import (
    ArityMismatch, AsymmetricEdgeRelation, NotAcyclic, NotFreeConnex, ParseError,
    TaskMismatch, UnknownSymbol,
)
from .index import ColorIndex, SectionReader, write_section
from .instrument import OpCounter
from .model import ConjunctiveQuery, ConstantPool, Database, Schema
from .refinement import asymmetric_vertex, edge_adjacency, loop_encoding_labels
from .textio import read_text

FORMAT_HEADER = "colorindex-file v11"
COMPILED_LIMIT = 64  # compiled queries kept per index

TASKS = ("bool", "count", "enum")


def choose_stage(db: Database) -> str:
    """The stage that `DatabaseIndex.build` picks for db."""
    if db.schema.is_graph_schema() and asymmetric_vertex(*edge_adjacency(db)) is None:
        return "graph"
    if db.schema.is_binary():
        return "binary"
    return "full"


@dataclass(frozen=True)
class CompiledQuery:
    """A query compiled against one index: the query the evaluator runs (the
    source query on the graph and binary stages, `arb2bin`'s q2 on the full
    stage), the decoder from its answers, over the index's vertices, to
    source constants, and its components.  A query that is not free-connex
    acyclic (for a Boolean query: not acyclic) compiles to one whose qhat is
    None."""

    qhat: ConjunctiveQuery | None
    decode: Callable[[tuple[int, ...]], tuple[int, ...]] | None = None
    components: tuple[evaluator.Component, ...] = ()  # of qhat


_REJECTED = CompiledQuery(qhat=None)


def _stage_schema(stage: str, schema: Schema) -> Schema:
    """The binary schema that a binary- or full-stage index refines."""
    return schema if stage == "binary" else arb2bin.binary_schema_for(schema)[0]


def _stage_symbols(stage: str, schema: Schema) -> bin2graph.GraphSymbols | None:
    """The graph symbols of the stage's binary schema, for an index given on
    `bin2graph`'s graph; None on the graph stage."""
    return None if stage == "graph" else bin2graph.graph_symbols_for(_stage_schema(stage, schema))


def _identity(t: tuple[int, ...]) -> tuple[int, ...]:
    return t


def _compile(schema: Schema, stage: str, cindex: ColorIndex, node_proj: dict[int, tuple[int, ...]],
             q: ConjunctiveQuery) -> CompiledQuery:
    """The compiled form of q on the index of these fields.  Raises
    UnknownSymbol or ArityMismatch when q does not fit the schema."""
    for a in q.atoms:
        arity = schema.arities.get(a.symbol)
        if arity is None:
            raise UnknownSymbol(f"unknown relation symbol {a.symbol!r}")
        if arity != a.arity:
            raise ArityMismatch(f"{a.symbol} expects {arity} arguments, got {a.arity}")
    if stage != "full":
        qhat, decode = q, _identity
    else:
        try:
            ghd = compute_fc1ghd(q)
        except NotFreeConnex:
            return _REJECTED
        enc2 = arb2bin.encode_query(ghd)
        qhat, decode = enc2.q2, lambda t: arb2bin.decode_answer(t, enc2, node_proj)
    try:
        comps = evaluator.components(qhat, cindex)
    except NotFreeConnex:
        # q2 is free-connex acyclic by construction: only a graph- or
        # binary-stage query gets here
        return _REJECTED
    return CompiledQuery(qhat=qhat, decode=decode, components=comps)


class DatabaseIndex:
    """A built index: the color index (typed on the binary and full stages),
    the projection nodes of a full-stage index, and `compile`, the bounded
    cache of compiled queries: the compiled form of a query, which raises
    UnknownSymbol or ArityMismatch when it does not fit the schema.  Safe
    for concurrent readers (see the module docstring).  A binary- or
    full-stage `cindex` on `bin2graph`'s graph is projected to the typed
    index with the graph's pair map `gadget_node`, which is required then
    and not kept.  `vmap` must be the identity; `node_tuple` is not
    saved."""

    def __init__(
        self,
        schema: Schema,
        pool: ConstantPool,
        stage: str,
        cindex: ColorIndex,
        source_size: int,
        vmap: dict[int, int] | None = None,
        gadget_node: dict[tuple[int, int], int] | None = None,
        node_proj: dict[int, tuple[int, ...]] | None = None,
        node_tuple: dict[int, tuple[int, ...]] | None = None,
    ):
        self.schema = schema
        self.pool = pool
        self.stage = stage
        self.cindex = cindex
        self.source_size = source_size
        if vmap and any(c != n for c, n in vmap.items()):
            raise ValueError("value vertices are numbered by their source ids: vmap must be the identity")
        self.node_proj = node_proj or {}
        self.node_tuple = node_tuple or {}
        symbols = None if cindex.edges is not None else _stage_symbols(stage, schema)
        if symbols is not None:
            # a binary- or full-stage index given on bin2graph's graph
            if gadget_node is None:
                raise ValueError(f"a {stage}-stage index on bin2graph's graph needs its pair map gadget_node")
            self.cindex = cindex_mod.project(cindex.graph, cindex.coloring, symbols, gadget_node, cindex.source_size)
        # over the index's fields, not a bound method: the cache holds no reference to the index
        self.compile = lru_cache(COMPILED_LIMIT)(partial(_compile, schema, stage, self.cindex, self.node_proj))

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, db: Database, stage: str = "auto") -> "DatabaseIndex":
        if stage == "auto" and db.schema.is_graph_schema():
            try:  # encode_loops checks the edge relation's symmetry: once per build
                return cls(db.schema, db.pool, "graph", cindex_mod.build(db), db.size)
            except AsymmetricEdgeRelation:
                stage = "binary"  # a graph schema is binary
        if stage == "auto":
            stage = choose_stage(db)
        if stage == "graph":
            # encode_loops rejects an asymmetric edge relation
            return cls(db.schema, db.pool, "graph", cindex_mod.build(db), db.size)
        if stage == "binary":
            return cls(db.schema, db.pool, "binary", cindex_mod.build_binary(db), db.size)
        if stage == "full":
            benc = arb2bin.encode_db(db)
            ci = cindex_mod.build_binary(benc.db2)
            return cls(db.schema, db.pool, "full", ci, db.size, node_proj=benc.node_proj, node_tuple=benc.node_tuple)
        raise ValueError(f"unknown stage {stage!r}")

    # -- compiling queries -----------------------------------------------------

    def _accepted(self, q: ConjunctiveQuery, error: type[Exception], message: str) -> CompiledQuery:
        compiled = self.compile(q)
        if compiled.qhat is None:
            raise error(message)
        return compiled

    def translate(self, q: ConjunctiveQuery) -> CompiledQuery:
        """The compiled form of a free-connex acyclic q: its qhat is the
        query the evaluator runs (q itself on the graph and binary stages,
        `arb2bin`'s q2 on the full stage) and its decode the answer
        decoder."""
        return self._accepted(q, NotFreeConnex, "translation requires a free-connex acyclic query")

    # -- evaluation ------------------------------------------------------------

    def eval_bool(self, q: ConjunctiveQuery, ops: OpCounter | None = None) -> bool:
        if not q.is_boolean():
            raise TaskMismatch("bool task is only allowed for Boolean queries")
        compiled = self._accepted(q, NotAcyclic, "bool task requires an acyclic query")
        return evaluator.count_components(compiled.components, self.cindex, ops) > 0

    def count(self, q: ConjunctiveQuery, ops: OpCounter | None = None) -> int:
        compiled = self._accepted(q, NotFreeConnex, "count task requires a free-connex acyclic query")
        return evaluator.count_components(compiled.components, self.cindex, ops)

    def enumerate(
        self,
        q: ConjunctiveQuery,
        ops: OpCounter | None = None,
        steps: OpCounter | None = None,
    ) -> Iterator[tuple[int, ...]]:
        compiled = self._accepted(q, NotFreeConnex, "enum task requires a free-connex acyclic query")
        plan = evaluator.prepare_components(compiled.components, len(compiled.qhat.head), self.cindex, ops)
        answers = evaluator.enumerate_prepared(plan, steps)
        yield from answers if compiled.decode is _identity else map(compiled.decode, answers)

    def display_tuple(self, t: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.pool.display(c) for c in t)

    # -- serialization ----------------------------------------------------------

    def save_text(self) -> str:
        lines: list[str] = [FORMAT_HEADER]
        write_section(lines, "META", [f"stage\t{self.stage}", f"source_size\t{self.source_size}",
                                      f"graph_size\t{self.cindex.source_size}"])
        write_section(lines, "SCHEMA", [f"{n}\t{ar}" for n, ar in self.schema.symbols])
        write_section(lines, "CONSTANTS", self.pool.names())
        proj = self.cindex.graph.vertices if self.stage == "full" else ()
        write_section(lines, "PROJ", [" ".join(map(str, self.node_proj[v])) for v in proj])
        lines.extend(cindex_mod.write_sections(self.cindex))
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.save_text())

    @classmethod
    def load_text(cls, text: str) -> "DatabaseIndex":
        """Parse and check an index file; any inconsistency raises ParseError."""
        lines = text.splitlines()
        if lines[:1] != [FORMAT_HEADER]:
            found = lines[0][:40] if lines else ""
            raise ParseError(f"expected {FORMAT_HEADER!r}, found {found!r}: index files of "
                             "other versions must be rebuilt with `colorindex index`", line=1)
        reader = SectionReader(lines, pos=1)
        with reader.numbers():
            meta = dict(reader.rows("META", 2))
            try:
                stage, source_size, graph_size = meta["stage"], int(meta["source_size"]), int(meta["graph_size"])
            except KeyError as e:
                raise ParseError(f"[META] lacks {e}") from None
            if stage not in ("graph", "binary", "full"):
                raise ParseError(f"unknown stage {stage!r}")
            try:
                schema = Schema(tuple((n, int(ar)) for n, ar in reader.rows("SCHEMA", 2)))
            except (UnknownSymbol, ArityMismatch) as e:
                raise ParseError(f"[SCHEMA] {e}") from None
            fits = {"graph": schema.is_graph_schema(), "binary": schema.is_binary(), "full": True}
            if not schema.symbols or not fits[stage]:
                raise ParseError(f"[SCHEMA] cannot be indexed in the {stage} stage")
            names = [name for (name,) in reader.rows("CONSTANTS", 1)]
            proj = [tuple(map(int, p.split())) for (p,) in reader.rows("PROJ", 1)]
        # the labels the build gives: (label universe, loop label, edge label)
        if stage == "graph":
            labels, relations = (*loop_encoding_labels(schema), schema.edge_symbol()), None
        else:
            *labels, relations = cindex_mod.typed_labels(_stage_schema(stage, schema))
        ci = cindex_mod.read_sections(reader, graph_size, labels, relations)
        if reader.pos != len(lines):
            raise ParseError("unexpected line after the last section", line=reader.pos + 1)
        pool = ConstantPool()
        for name in names:
            pool.intern(name)
        if len(pool) != len(names):
            raise ParseError("[CONSTANTS] lists a constant twice")
        values = ci.graph.vertices if stage == "full" else ()
        if len(proj) != len(values):
            raise ParseError(f"[PROJ] has {len(proj)} rows for {len(values)} projection nodes")
        idx = cls(schema, pool, stage, ci, source_size, node_proj=dict(zip(values, proj)))
        idx._check_values()
        return idx

    @classmethod
    def load(cls, path: str) -> "DatabaseIndex":
        return cls.load_text(read_text(path))

    def _check_values(self) -> None:
        """Check the value vertices and projection nodes of a loaded index
        against its constants and graph, so that every answer is a constant
        or reads its constants off a projection node of its arity, and no two
        nodes read one tuple: they would give one answer twice."""
        graph, constants = self.cindex.graph, range(len(self.pool))
        values = graph.vertices
        if self.stage != "full":
            if not all(v in constants for v in values):
                raise ParseError(f"a {self.stage}-stage value vertex is not a constant id")
            return
        # every arb2bin node is a projection of its own, and A<i> labels it by its arity i
        if len(set(self.node_proj.values())) != len(self.node_proj):
            raise ParseError("[PROJ] lists a tuple twice")
        a_labels = frozenset(f"A{i}" for i in range(self.schema.max_arity + 1))
        if any(graph.vl[v] & a_labels != {f"A{len(p)}"} for v, p in self.node_proj.items()):
            raise ParseError("a projection of [PROJ] does not have the arity of its A<i> label")
        if not all(c in constants for p in self.node_proj.values() for c in p):
            raise ParseError("[PROJ] names an id that is not a constant")
