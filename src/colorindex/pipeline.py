"""End-to-end orchestration: stage the input database down to a node-labeled
graph (skipping stages the schema does not need), build the color index, and
serve bool / count / enum queries with answers decoded back to the source
constants.  Indexes serialize to a versioned, deterministic text format.

Serving compiles a query once per index: `DatabaseIndex.compile` checks it
against the schema and for free-connex acyclicity, translates it to the
query the evaluator runs, and splits that into components with their
variable orders and typed edges, all in one `CompiledQuery`.  The
translation is the identity on the graph and binary stages, where the
query runs on the index's color edges and typed color edges, and
`arb2bin`'s q2 on the full stage; `bin2graph`'s gadget translation of
queries is not on the serving path.  The index keeps the last
COMPILED_LIMIT compiled queries, keyed by the parsed query; the oldest goes
first.  Only compile results are kept: bool, count and enum run the dynamic
program and the enumeration preprocessing on every call.  An index is safe for concurrent readers: a
`CompiledQuery` is immutable, a lock guards each look-up and change of the
map but not the compiling, and two threads that miss the map at once both
compile the query and store equal results.
"""
from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from . import arb2bin, bin2graph, evaluator, index as cindex_mod
from .analysis import compute_fc1ghd
from .errors import (
    ArityMismatch, FreeNotConnected, NotAcyclic, NotFreeConnex, NotTree, ParseError,
    TaskMismatch, UnknownSymbol,
)
from .index import ColorIndex, SectionReader, write_section
from .instrument import OpCounter
from .model import ConjunctiveQuery, ConstantPool, Database, Schema
from .refinement import loop_encoding_labels

FORMAT_HEADER = "colorindex-file v3"
COMPILED_LIMIT = 64  # compiled queries kept per index

TASKS = ("bool", "count", "enum")


def _edge_symmetric(db: Database) -> bool:
    if not db.schema.is_graph_schema():
        return False
    tuples = set(db.rel(db.schema.edge_symbol()))
    return all((b, a) in tuples for a, b in tuples)


def choose_stage(db: Database) -> str:
    if _edge_symmetric(db):
        return "graph"
    if db.schema.is_binary():
        return "binary"
    return "full"


@dataclass(frozen=True)
class Translation:
    """The query the evaluator runs (the source query on the graph and
    binary stages, `arb2bin`'s q2 on the full stage) and the decoder from
    its answers, over the index's vertices, to source constants."""

    qhat: ConjunctiveQuery
    decode: Callable[[tuple[int, ...]], tuple[int, ...]]


@dataclass(frozen=True)
class CompiledQuery:
    """A query compiled against one index.  When it is not free-connex
    acyclic (for a Boolean query: not acyclic), that is all it records."""

    free_connex: bool
    translation: Translation | None = None  # the query that runs, with the answer decoder
    components: tuple[evaluator.Component, ...] = ()  # of translation.qhat


_REJECTED = CompiledQuery(free_connex=False)


def _stage_symbols(stage: str, schema: Schema) -> bin2graph.GraphSymbols | None:
    """The graph symbols of the stage's binary schema, derived once per
    index; None on the graph stage and for a schema that the stage cannot
    index (the loader reports that)."""
    if stage == "binary" and schema.is_binary():
        return bin2graph.graph_symbols_for(schema)
    if stage == "full" and schema.symbols:
        return bin2graph.graph_symbols_for(arb2bin.binary_schema_for(schema)[0])
    return None


def _query_key(q: ConjunctiveQuery) -> tuple:
    """The parsed query as plain tuples: equal exactly when the queries are,
    and hashed and compared without running Python code."""
    return q.head, q.var_names, tuple((a.symbol, a.args) for a in q.atoms)


def _identity(t: tuple[int, ...]) -> tuple[int, ...]:
    return t


class DatabaseIndex:
    """A built index: reduction maps (when staged) plus the color index of
    the final node-labeled graph, and a bounded map of compiled queries.
    Safe for concurrent readers (see the module docstring)."""

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
        self.vmap = vmap or {}
        self.vmap_inv = {n: c for c, n in self.vmap.items()}
        self.gadget_node = gadget_node or {}  # for `index --dump-maps`; not saved
        self.node_proj = node_proj or {}
        self.node_tuple = node_tuple or {}
        self._symbols = _stage_symbols(stage, schema)
        if cindex.symbols != self._symbols:
            # the typed color edges read the stage's gadget symbols
            self.cindex = dataclasses.replace(cindex, symbols=self._symbols)
        self._compiled: dict[tuple, CompiledQuery] = {}  # insertion order: oldest first
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, db: Database, stage: str = "auto") -> "DatabaseIndex":
        if stage == "auto":
            stage = choose_stage(db)
        if stage == "graph":
            # encode_loops rejects an asymmetric edge relation
            return cls(db.schema, db.pool, "graph", cindex_mod.build(db), db.size)
        if stage == "binary":
            genc = bin2graph.encode_db(db)
            ci = cindex_mod.build(genc.dhat)
            return cls(
                db.schema, db.pool, "binary", ci, db.size,
                vmap=genc.vmap, gadget_node=genc.gadget_node,
            )
        if stage == "full":
            benc = arb2bin.encode_db(db)
            genc = bin2graph.encode_db(benc.db2)
            ci = cindex_mod.build(genc.dhat)
            return cls(
                db.schema, db.pool, "full", ci, db.size,
                vmap=genc.vmap, gadget_node=genc.gadget_node,
                node_proj=benc.node_proj, node_tuple=benc.node_tuple,
            )
        raise ValueError(f"unknown stage {stage!r}")

    # -- compiling queries -----------------------------------------------------

    def compile(self, q: ConjunctiveQuery) -> CompiledQuery:
        """The compiled form of q, from the map or compiled now.  Raises
        UnknownSymbol or ArityMismatch when q does not fit the schema."""
        key = _query_key(q)
        with self._lock:
            compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._compile(q)
            with self._lock:
                self._compiled[key] = compiled
                while len(self._compiled) > COMPILED_LIMIT:
                    del self._compiled[next(iter(self._compiled))]
        return compiled

    def _compile(self, q: ConjunctiveQuery) -> CompiledQuery:
        for a in q.atoms:
            arity = self.schema.arities.get(a.symbol)
            if arity is None:
                raise UnknownSymbol(f"unknown relation symbol {a.symbol!r}")
            if arity != a.arity:
                raise ArityMismatch(f"{a.symbol} expects {arity} arguments, got {a.arity}")
        source_of = self.vmap_inv.__getitem__
        if self.stage == "graph":
            tr = Translation(qhat=q, decode=_identity)
        elif self.stage == "binary":
            tr = Translation(qhat=q, decode=lambda t: tuple(map(source_of, t)))
        else:
            try:
                ghd = compute_fc1ghd(q)
            except NotFreeConnex:
                return _REJECTED
            enc2 = arb2bin.encode_query(q, ghd, self.schema)
            node_proj = self.node_proj

            def decode(t: tuple[int, ...]) -> tuple[int, ...]:
                return arb2bin.decode_answer(tuple(map(source_of, t)), enc2, node_proj)

            tr = Translation(qhat=enc2.q2, decode=decode)
        try:
            comps = evaluator.components(tr.qhat, self.cindex)
        except (NotTree, FreeNotConnected):
            # q2 is free-connex acyclic by construction: only a graph- or
            # binary-stage query gets here
            return _REJECTED
        return CompiledQuery(free_connex=True, translation=tr, components=comps)

    def _accepted(self, q: ConjunctiveQuery, error: type[Exception], message: str) -> CompiledQuery:
        compiled = self.compile(q)
        if not compiled.free_connex:
            raise error(message)
        return compiled

    def translate(self, q: ConjunctiveQuery) -> Translation:
        """The query the evaluator runs for q, and its answer decoder: q
        itself on the graph and binary stages, `arb2bin`'s q2 on the full
        stage."""
        return self._accepted(q, NotFreeConnex, "translation requires a free-connex acyclic query").translation

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
        tr = compiled.translation
        plan = evaluator.prepare_components(compiled.components, len(tr.qhat.head), self.cindex, ops)
        yield from map(tr.decode, evaluator.enumerate_prepared(plan, steps))

    def display_tuple(self, t: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.pool.display(c) for c in t)

    # -- serialization ----------------------------------------------------------

    def save_text(self) -> str:
        lines: list[str] = [FORMAT_HEADER]
        write_section(lines, "META", [f"stage\t{self.stage}", f"source_size\t{self.source_size}",
                                      f"graph_size\t{self.cindex.source_size}"])
        write_section(lines, "SCHEMA", [f"{n}\t{ar}" for n, ar in self.schema.symbols])
        write_section(lines, "CONSTANTS", self.pool.names())
        write_section(lines, "VMAP", [f"{c}\t{n}" for c, n in sorted(self.vmap.items())])
        write_section(lines, "PROJ", [f"{n}\t{' '.join(map(str, p))}" for n, p in sorted(self.node_proj.items())])
        write_section(lines, "TUPLES", [f"{n}\t{' '.join(map(str, p))}" for n, p in sorted(self.node_tuple.items())])
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
            names = [name for (name,) in reader.rows("CONSTANTS", 1)]
            vmap = {int(c): int(n) for c, n in reader.rows("VMAP", 2)}
            node_proj = {int(n): tuple(map(int, p.split())) for n, p in reader.rows("PROJ", 2)}
            node_tuple = {int(n): tuple(map(int, p.split())) for n, p in reader.rows("TUPLES", 2)}
        ci = cindex_mod.read_sections(reader, graph_size)
        if reader.pos != len(lines):
            raise ParseError("unexpected line after the last section", line=reader.pos + 1)
        pool = ConstantPool()
        for name in names:
            pool.intern(name)
        if len(pool) != len(names):
            raise ParseError("[CONSTANTS] lists a constant twice")
        idx = cls(schema, pool, stage, ci, source_size, vmap, node_proj=node_proj, node_tuple=node_tuple)
        idx._check_maps()
        return idx

    @classmethod
    def load(cls, path: str) -> "DatabaseIndex":
        with open(path, encoding="utf-8") as fh:
            return cls.load_text(fh.read())

    def _check_maps(self) -> None:
        """Check the labels and reduction maps of a loaded index against its
        schema and graph, so that every answer decodes to a constant."""
        graph, vmap, constants = self.cindex.graph, self.vmap, range(len(self.pool))
        fits = {"graph": self.schema.is_graph_schema(), "binary": self.schema.is_binary(), "full": True}
        if not self.schema.symbols or not fits[self.stage]:
            raise ParseError(f"[SCHEMA] cannot be indexed in the {self.stage} stage")
        gschema, v_label = self.schema, None
        if self.stage != "graph":
            gschema, v_label = self._symbols.schema(), self._symbols.v_label
        universe, loop_label = loop_encoding_labels(gschema)
        if (graph.label_universe, graph.loop_label, graph.edge_label) != (universe, loop_label, gschema.edge_symbol()):
            raise ParseError(f"[LABELS] does not match the {self.stage}-stage graph of [SCHEMA]")
        if v_label is None:
            if not all(v in constants for v in graph.vertices):
                raise ParseError("a graph-stage vertex is not a constant id")
            return
        v_nodes = {v for v in graph.vertices if v_label in graph.vl[v]}
        if len(vmap) != len(v_nodes) or set(vmap.values()) != v_nodes:
            raise ParseError(f"[VMAP] does not map one to one onto the {v_label!r}-labeled vertices")
        sources = constants if self.stage == "binary" else self.node_proj.keys() | self.node_tuple.keys()
        if not all(c in sources for c in vmap):
            raise ParseError("[VMAP] maps an id that is not a constant (binary stage) "
                             "or a node of [PROJ] or [TUPLES] (full stage)")
        if not all(n in vmap and all(c in constants for c in t)
                   for table in (self.node_proj, self.node_tuple) for n, t in table.items()):
            raise ParseError("[PROJ] or [TUPLES] names an unmapped node or an id that is not a constant")
