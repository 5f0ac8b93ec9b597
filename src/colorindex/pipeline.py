"""End-to-end orchestration: stage the input database down to a node-labeled
graph (skipping stages the schema does not need), build the color index, and
serve bool / count / enum queries with answers decoded back to the source
constants.  Indexes serialize to a versioned, deterministic text format.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import arb2bin, bin2graph, evaluator, index as cindex_mod
from .analysis import compute_fc1ghd, is_acyclic, is_free_connex_acyclic
from .errors import (
    ArityMismatch, AsymmetricEdgeRelation, NotAcyclic, NotFreeConnex, ParseError, TaskMismatch, UnknownSymbol,
)
from .index import ColorIndex, SectionReader, write_section
from .instrument import OpCounter
from .model import ConjunctiveQuery, ConstantPool, Database, Schema
from .refinement import loop_encoding_labels

FORMAT_HEADER = "colorindex-file v2"

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


@dataclass
class Translation:
    qhat: ConjunctiveQuery
    decode: Callable[[tuple[int, ...]], tuple[int, ...]]


class DatabaseIndex:
    """A built index: reduction maps (when staged) plus the color index of
    the final node-labeled graph."""

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
        self.gadget_node = gadget_node or {}
        self.node_proj = node_proj or {}
        self.node_tuple = node_tuple or {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, db: Database, stage: str = "auto") -> "DatabaseIndex":
        if stage == "auto":
            stage = choose_stage(db)
        if stage == "graph":
            if not _edge_symmetric(db):
                raise AsymmetricEdgeRelation("direct graph indexing needs a symmetric edge relation")
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

    # -- query translation ----------------------------------------------------

    def translate(self, q: ConjunctiveQuery) -> Translation:
        if self.stage == "graph":
            return Translation(qhat=q, decode=lambda t: t)
        if self.stage == "binary":
            ench = bin2graph.encode_query(q, self.schema)
            vmap_inv = self.vmap_inv
            return Translation(
                qhat=ench.qhat,
                decode=lambda t: bin2graph.decode_answer(t, ench, vmap_inv),
            )
        sigma2, _ = arb2bin.binary_schema_for(self.schema)
        ghd = compute_fc1ghd(q)
        enc2 = arb2bin.encode_query(q, ghd, self.schema)
        ench = bin2graph.encode_query(enc2.q2, sigma2)
        vmap_inv = self.vmap_inv
        node_proj = self.node_proj

        def decode(t: tuple[int, ...]) -> tuple[int, ...]:
            mid = bin2graph.decode_answer(t, ench, vmap_inv)
            return arb2bin.decode_answer(mid, enc2, node_proj)

        return Translation(qhat=ench.qhat, decode=decode)

    # -- evaluation ------------------------------------------------------------

    def eval_bool(self, q: ConjunctiveQuery, ops: OpCounter | None = None) -> bool:
        if not q.is_boolean():
            raise TaskMismatch("bool task is only allowed for Boolean queries")
        if not is_acyclic(q):
            raise NotAcyclic("bool task requires an acyclic query")
        tr = self.translate(q)
        return evaluator.eval_bool(tr.qhat, self.cindex, ops)

    def count(self, q: ConjunctiveQuery, ops: OpCounter | None = None) -> int:
        if not is_free_connex_acyclic(q):
            raise NotFreeConnex("count task requires a free-connex acyclic query")
        tr = self.translate(q)
        return evaluator.count_answers(tr.qhat, self.cindex, ops)

    def enumerate(
        self,
        q: ConjunctiveQuery,
        ops: OpCounter | None = None,
        steps: OpCounter | None = None,
    ) -> Iterator[tuple[int, ...]]:
        if not is_free_connex_acyclic(q):
            raise NotFreeConnex("enum task requires a free-connex acyclic query")
        tr = self.translate(q)
        for t in evaluator.enumerate_answers(tr.qhat, self.cindex, ops, steps):
            yield tr.decode(t)

    def evaluate(self, q: ConjunctiveQuery, task: str):
        if task == "bool":
            return self.eval_bool(q)
        if task == "count":
            return self.count(q)
        if task == "enum":
            return self.enumerate(q)
        raise TaskMismatch(f"unknown task {task!r}")

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
        write_section(lines, "GADGET", [f"{n}\t{a}\t{b}" for (a, b), n in sorted(self.gadget_node.items())])
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
            gadget_node = {(int(a), int(b)): int(n) for n, a, b in reader.rows("GADGET", 3)}
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
        idx = cls(schema, pool, stage, ci, source_size, vmap, gadget_node, node_proj, node_tuple)
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
            binary = self.schema if self.stage == "binary" else arb2bin.binary_schema_for(self.schema)[0]
            symbols = bin2graph.graph_symbols_for(binary)
            gschema, v_label = symbols.schema(), symbols.v_label
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
        if not all(a in vmap and b in vmap and n in graph.vl for (a, b), n in self.gadget_node.items()):
            raise ParseError("[GADGET] names an unmapped pair or a node that is not a vertex")
        if not all(n in vmap and all(c in constants for c in t)
                   for table in (self.node_proj, self.node_tuple) for n, t in table.items()):
            raise ParseError("[PROJ] or [TUPLES] names an unmapped node or an id that is not a constant")


def eval_pipeline(q: ConjunctiveQuery, db: Database, task: str):
    """Build an index for the database (skipping unneeded stages) and solve
    the task; enum yields tuples of source constant ids."""
    return DatabaseIndex.build(db).evaluate(q, task)
