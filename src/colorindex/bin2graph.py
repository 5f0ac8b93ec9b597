"""Reduction from binary schemas to node-labeled graphs.

Every ordered pair (a,b) in the symmetric closure of the binary relations
becomes a fresh gadget node w_ab; the single symmetric edge relation links
a - w_ab - w_ba - b (with a self-looped w_aa for reflexive pairs).  Gadget
nodes carry one label per binary relation containing their pair; original
unary relations and the V / W membership labels complete the graph.

`encode_db` is the reference for binary- and full-stage indexes and the
reduction that criterion 7 checks, not the build path.  The typed index
that `index.build_binary` refines on the values directly is the coloring of
this graph kept on its value nodes, with one edge color per gadget color,
as `index.project` reads it off the pair map `gadget_node`.  Queries do not
pass through it either; they run on those edge colors.  `encode_query`,
which subdivides each oriented Gaifman edge with two gadget variables and
labels them, and `decode_answer`, which projects onto the original head
prefix, state the reduction on queries, which criterion 7 checks.

A value node is its source id: a constant id on the binary stage, an
`arb2bin` node id on the full stage.  The gadget nodes are numbered on from
the largest of them, in pair order, so an answer over the value nodes needs
no decoding.  `GraphEncoding` stores only the pair map; the identity maps
`vmap` and `vmap_inv` and the inverse `node_gadget` are derived on read,
since no build step reads them.  Only the values and the pairs are sorted,
the pairs because their order numbers the gadgets; the order of the tuples
of a relation is not read (`encode_loops` builds ascending rows from any
order).
"""
from __future__ import annotations

from dataclasses import dataclass

from .analysis import is_free_connex_acyclic, spanning_forest
from .errors import NotBinarySchema, NotFreeConnex
from .model import ConjunctiveQuery, Database, Schema, cq
from .refinement import fresh_name


@dataclass(frozen=True)
class GraphSymbols:
    edge: str
    v_label: str
    w_label: str
    unary: tuple[str, ...]  # original unary symbols, kept as-is
    u_label: dict[str, str]  # binary source symbol -> gadget label

    def schema(self) -> Schema:
        symbols = [(self.edge, 2)]
        symbols += [(u, 1) for u in self.unary]
        symbols += [(self.u_label[f], 1) for f in sorted(self.u_label)]
        symbols += [(self.v_label, 1), (self.w_label, 1)]
        return Schema(tuple(symbols))


def graph_symbols_for(schema: Schema) -> GraphSymbols:
    if not schema.is_binary():
        raise NotBinarySchema("graph encoding requires a binary schema")
    taken = set(schema.names)
    edge = fresh_name("E", taken)
    taken.add(edge)
    v_label = fresh_name("V", taken)
    taken.add(v_label)
    w_label = fresh_name("W", taken)
    taken.add(w_label)
    u_label: dict[str, str] = {}
    for f in schema.binary_symbols():
        u_label[f] = fresh_name(f"U_{f}", taken)
        taken.add(u_label[f])
    return GraphSymbols(
        edge=edge,
        v_label=v_label,
        w_label=w_label,
        unary=schema.unary_symbols(),
        u_label=u_label,
    )


@dataclass(frozen=True)
class GraphEncoding:
    dhat: Database
    symbols: GraphSymbols
    gadget_node: dict[tuple[int, int], int]  # source pair -> W node
    source: Database

    @property
    def vmap(self) -> dict[int, int]:
        """Source constant -> V node: the identity on the source's values."""
        values = sorted(self.source.active_domain())
        return dict(zip(values, values))

    @property
    def vmap_inv(self) -> dict[int, int]:
        """V node -> source constant: the same identity map."""
        return self.vmap

    @property
    def node_gadget(self) -> dict[int, tuple[int, int]]:
        """W node -> source pair: the inverse of the pair map."""
        return {n: p for p, n in self.gadget_node.items()}

    def to_dot(self) -> str:
        """The graph in DOT: a value node shows its constant, a gadget node
        w(a,b) its pair."""
        show = self.source.display
        lines = ["graph encoded {"]
        seen = set()
        node_gadget = self.node_gadget
        for v in sorted(self.dhat.active_domain()):
            if v in node_gadget:
                a, b = node_gadget[v]
                lines.append(f'  n{v} [label="w({show(a)},{show(b)})", shape=box];')
            else:
                lines.append(f'  n{v} [label="{show(v)}", shape=circle];')
        for a, b in sorted(self.dhat.rel(self.symbols.edge)):
            if (b, a) not in seen:
                seen.add((a, b))
                lines.append(f"  n{a} -- n{b};")
        lines.append("}")
        return "\n".join(lines)


def encode_db(db: Database) -> GraphEncoding:
    symbols = graph_symbols_for(db.schema)
    sigma_hat = symbols.schema()
    values = sorted(db.active_domain())

    pairs: set[tuple[int, int]] = set()
    for f in db.schema.binary_symbols():
        for a, b in db.rel(f):
            pairs.add((a, b))
            pairs.add((b, a))
    first = values[-1] + 1 if values else 0
    gadget_node = {pair: first + i for i, pair in enumerate(sorted(pairs))}

    # each directed edge once: w_ab -> w_ba comes from (a, b) only
    edges: list[tuple[int, int]] = []
    for (a, b), w_ab in gadget_node.items():
        edges += ((a, w_ab), (w_ab, a), (w_ab, gadget_node[(b, a)]))

    relations: dict[str, tuple[tuple[int, ...], ...]] = {}
    relations[symbols.edge] = tuple(edges)
    for u in symbols.unary:
        relations[u] = db.rel(u)
    for f in db.schema.binary_symbols():
        relations[symbols.u_label[f]] = tuple((gadget_node[(a, b)],) for a, b in db.rel(f))
    relations[symbols.v_label] = tuple((v,) for v in values)
    relations[symbols.w_label] = tuple((w,) for w in gadget_node.values())
    return GraphEncoding(dhat=Database(schema=sigma_hat, relations=relations), symbols=symbols,
                         gadget_node=gadget_node, source=db)


@dataclass(frozen=True)
class QueryEncodingHat:
    qhat: ConjunctiveQuery
    source_head_len: int
    appended: tuple[tuple[str, str], ...]  # (z_xy, z_yx) names appended for free-free edges


def encode_query(q: ConjunctiveQuery, schema: Schema) -> QueryEncodingHat:
    """The graph query of a free-connex acyclic query over a binary schema:
    each edge of its spanning forest, oriented away from the root, gets two
    gadget variables.  Raises NotBinarySchema for an atom of arity above 2
    and NotFreeConnex for any other query."""
    if any(a.arity > 2 for a in q.atoms):
        raise NotBinarySchema("graph encoding requires atoms of arity 1 and 2")
    if not is_free_connex_acyclic(q):
        raise NotFreeConnex("graph encoding requires a free-connex acyclic query")
    symbols = graph_symbols_for(schema)
    free = q.free()
    edges = spanning_forest(q).edges()

    def name(v: int) -> str:
        return q.var_name(v)

    def z(x: int, y: int) -> str:
        # '@' cannot occur in source variable names, so these are fresh
        return f"z@{name(x)}@{name(y)}"

    atoms: list[tuple[str, list[str]]] = []
    for a in q.atoms:
        if a.arity == 1:
            atoms.append((a.symbol, [name(a.args[0])]))
    for v in sorted(q.vars()):
        atoms.append((symbols.v_label, [name(v)]))
    loops = sorted({a.args[0] for a in q.atoms if a.arity == 2 and a.args[0] == a.args[1]})
    for x in loops:
        atoms.append((symbols.w_label, [z(x, x)]))
        atoms.append((symbols.edge, [name(x), z(x, x)]))
        atoms.append((symbols.edge, [z(x, x), z(x, x)]))
    for x, y in edges:
        atoms.append((symbols.w_label, [z(x, y)]))
        atoms.append((symbols.w_label, [z(y, x)]))
        atoms.append((symbols.edge, [name(x), z(x, y)]))
        atoms.append((symbols.edge, [z(x, y), z(y, x)]))
        atoms.append((symbols.edge, [z(y, x), name(y)]))
    for a in q.atoms:
        if a.arity == 2:
            u, v = a.args
            atoms.append((symbols.u_label[a.symbol], [z(u, v)]))

    head = [name(v) for v in q.head]
    appended: list[tuple[str, str]] = []
    for x, y in edges:
        if x in free and y in free:
            appended.append((z(x, y), z(y, x)))
            head.append(z(x, y))
            head.append(z(y, x))
    qhat = cq(head, atoms)
    return QueryEncodingHat(
        qhat=qhat,
        source_head_len=len(q.head),
        appended=tuple(appended),
    )


def decode_answer(answer: tuple[int, ...], enc_q: QueryEncodingHat, vmap_inv: dict[int, int]) -> tuple[int, ...]:
    """Project onto the original head prefix and map V nodes back to source
    constants."""
    return tuple(vmap_inv[a] for a in answer[: enc_q.source_head_len])
