"""Reduction from arbitrary schemas to binary schemas.

A database maps to one node per tuple plus one node per projection of a
tuple (subtuples selected by pairwise-distinct positions, the empty tuple
included).  Unary relations tag tuple nodes with their relation symbol and
projection nodes with their arity.  Binary relations record equal entries,
`E<i>_<j>(w, v)` when position i of tuple w equals position j of projection
v and `F<i>_<j>` likewise between projections, but only on the pairs a
translated query can match:

- E links a tuple to its projections over all of its values;
- F links a projection p to each sub-selection p[S] at increasing positions
  S, S = all positions included, in both directions.

Query translation runs over a complete fc-1-GHD with bag containment on
every edge: one node variable per GHD node, one extra tuple variable per
atom node, head variables taken from the witness nodes with non-empty bags.
A source homomorphism g answers the translated query by binding each node
variable to the projection g(bag), the bag's variables taken in id order,
and each tuple variable to its atom's image.  An atom node's bag is
exactly its atom's variables, so g(bag) has the values of that tuple; along
a containment edge the smaller bag's projection is the larger one's at
increasing positions.  So the facts kept, a subset of all equal-entry
facts, hold every fact such a witness uses, and the answers and their
decoding are the same as over all of them.

The nodes are numbered by counting, tuple nodes first, and have no names:
the maps `node_tuple` and `node_proj` say what each one stands for.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .analysis import FcGHD
from .errors import BadGHD, MalformedAnswer
from .model import ConjunctiveQuery, Database, Schema, cq


def binary_schema_for(schema: Schema) -> tuple[Schema, int]:
    """The derived binary schema: U_<R> per source symbol, A<i> for arities
    0..k, E<i>_<j> / F<i>_<j> for positions i,j in 1..k (k = max arity)."""
    k = schema.max_arity
    symbols: list[tuple[str, int]] = [(f"U_{name}", 1) for name in schema.names]
    symbols += [(f"A{i}", 1) for i in range(k + 1)]
    symbols += [(f"E{i}_{j}", 2) for i in range(1, k + 1) for j in range(1, k + 1)]
    symbols += [(f"F{i}_{j}", 2) for i in range(1, k + 1) for j in range(1, k + 1)]
    return Schema(tuple(symbols)), k


def projections_of(t: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All value tuples selected by pairwise-distinct positions of t,
    including the empty tuple; deduplicated as value tuples."""
    out: set[tuple[int, ...]] = set()
    for m in range(len(t) + 1):
        for positions in itertools.permutations(range(len(t)), m):
            out.add(tuple(t[i] for i in positions))
    return out


@dataclass(frozen=True)
class BinaryEncoding:
    db2: Database  # over binary_schema_for(db.schema)
    tuple_node: dict[tuple[int, ...], int]
    proj_node: dict[tuple[int, ...], int]
    node_tuple: dict[int, tuple[int, ...]]
    node_proj: dict[int, tuple[int, ...]]


def encode_db(db: Database) -> BinaryEncoding:
    schema = db.schema
    sigma2, k = binary_schema_for(schema)

    # tuple nodes, deduplicated across relations, in relation order; then the
    # projection nodes in order of first appearance, numbered on from there
    tuple_node: dict[tuple[int, ...], int] = {}
    for name in schema.names:
        for t in db.rel(name):
            tuple_node.setdefault(t, len(tuple_node))

    proj_node: dict[tuple[int, ...], int] = {}
    projections_by_tuple: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for t in tuple_node:
        projs = sorted(projections_of(t), key=lambda p: (len(p), p))
        projections_by_tuple[t] = projs
        for p in projs:
            if p not in proj_node:
                proj_node[p] = len(tuple_node) + len(proj_node)

    relations: dict[str, set[tuple[int, ...]]] = {name: set() for name in sigma2.names}
    for name in schema.names:
        for t in db.rel(name):
            relations[f"U_{name}"].add((tuple_node[t],))
    for p, node in proj_node.items():
        relations[f"A{len(p)}"].add((node,))
    positions = range(1, k + 1)
    e_rel = [[relations[f"E{i}_{j}"] for j in positions] for i in positions]
    f_rel = [[relations[f"F{i}_{j}"] for j in positions] for i in positions]
    # E: a tuple and its projections over all of its values
    for t, wt in tuple_node.items():
        values = set(t)
        for p in projections_by_tuple[t]:
            if set(p) != values:
                continue
            vp = proj_node[p]
            for i, x in enumerate(t):
                for j, y in enumerate(p):
                    if x == y:
                        e_rel[i][j].add((wt, vp))
    # F: a projection and its order-preserving sub-selections, both ways
    for p, vp in proj_node.items():
        for m in range(1, len(p) + 1):
            for sel in itertools.combinations(range(len(p)), m):
                vq = proj_node[tuple(p[s] for s in sel)]
                for i, x in enumerate(p):
                    for j, s in enumerate(sel):
                        if x == p[s]:
                            f_rel[i][j].add((vp, vq))
                            f_rel[j][i].add((vq, vp))
    db2 = Database(schema=sigma2, relations={name: tuple(sorted(ts)) for name, ts in relations.items()})
    return BinaryEncoding(
        db2=db2,
        tuple_node=tuple_node,
        proj_node=proj_node,
        node_tuple={n: t for t, n in tuple_node.items()},
        node_proj={n: p for p, n in proj_node.items()},
    )


@dataclass(frozen=True)
class QueryEncoding2:
    q2: ConjunctiveQuery
    # per head variable of the source query: the q2 head position of its
    # witness node, that node's bag size, and its 0-based place in the bag
    decode_plan: tuple[tuple[int, int, int], ...]


def encode_query(q: ConjunctiveQuery, ghd: FcGHD, schema: Schema) -> QueryEncoding2:
    """Translate an fc-ACQ into the binary schema, given a complete fc-1-GHD
    with bag containment along every edge.  The atoms of q name everything
    the translation reads; schema, q's source schema, is not consulted."""
    if ghd.query is not q:
        raise BadGHD("decomposition does not belong to the query")
    for a, b in ghd.edges:
        if not (ghd.bag[a] <= ghd.bag[b] or ghd.bag[b] <= ghd.bag[a]):
            raise BadGHD("decomposition lacks bag containment on an edge")
    bag_tuple = [tuple(sorted(ghd.bag[t])) for t in ghd.nodes]
    node_of_atom = dict(ghd.atom_node)
    atom_of_node = {t: ai for ai, t in node_of_atom.items()}
    _, parent = ghd.bfs()

    # an empty-bag witness node decodes no variable, and its one value (the
    # empty projection) leaves the count unchanged: it stays quantified
    head_nodes = tuple(sorted(t for t in ghd.witness if ghd.bag[t]))
    head_names = [f"v{t}" for t in head_nodes]
    atoms: list[tuple[str, list[str]]] = []
    for t in ghd.nodes:
        atoms.append((f"A{len(ghd.bag[t])}", [f"v{t}"]))
        ai = atom_of_node.get(t)
        if ai is not None:
            atom = q.atoms[ai]
            atoms.append((f"U_{atom.symbol}", [f"w{t}"]))
            for i in range(1, atom.arity + 1):
                for j in range(1, len(bag_tuple[t]) + 1):
                    if atom.args[i - 1] == bag_tuple[t][j - 1]:
                        atoms.append((f"E{i}_{j}", [f"w{t}", f"v{t}"]))
        if t in parent:
            p = parent[t]
            for i in range(1, len(bag_tuple[t]) + 1):
                for j in range(1, len(bag_tuple[p]) + 1):
                    if bag_tuple[t][i - 1] == bag_tuple[p][j - 1]:
                        atoms.append((f"F{i}_{j}", [f"v{t}", f"v{p}"]))
    q2 = cq(head_names, atoms)

    head_index = {t: i for i, t in enumerate(head_nodes)}
    decode_plan = []
    for y in q.head:
        t_y = min(t for t in ghd.witness if y in ghd.bag[t])
        decode_plan.append((head_index[t_y], len(bag_tuple[t_y]), bag_tuple[t_y].index(y)))
    return QueryEncoding2(q2=q2, decode_plan=tuple(decode_plan))


def decode_answer(
    answer: tuple[int, ...],
    enc_q: QueryEncoding2,
    node_proj: dict[int, tuple[int, ...]],
) -> tuple[int, ...]:
    """Map an answer of the translated query back to source constants: for
    each free source variable read the projection node of its witness node
    and take the recorded position."""
    out: list[int] = []
    for slot, size, pos in enc_q.decode_plan:
        component = answer[slot]
        proj = node_proj.get(component)
        if proj is None:
            raise MalformedAnswer(f"answer component {component} is not a projection node")
        if len(proj) != size:
            raise MalformedAnswer(f"projection node arity {len(proj)} does not match bag size {size}")
        out.append(proj[pos])
    return tuple(out)
