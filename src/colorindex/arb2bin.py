"""Reduction from arbitrary schemas to binary schemas.

A database maps to one node per distinct value tuple selected at increasing
positions of a source tuple: the empty tuple, the source tuple itself, and
every selection between.  A source tuple is its own full projection, so it
has no node of its own: `U_R` labels the node of each tuple of R, and `A<i>`
labels every node by its arity.  The binary relations record equal entries,
`F<i>_<j>(p, q)` and `F<j>_<i>(q, p)` when position i of p equals position j
of q, but only on the pairs a translated query can match: q is a node whose
tuple is a reordering of some sub-selection p[S] at non-empty increasing
positions S, and q is not p itself when p's values are pairwise distinct.
Such a pair (p, p) would hold only F<i>_<i>(p, p), which no translated
query asks for; a node with a repeated value keeps its self pair, since a
bag order that swaps two equal values needs its F<i>_<j> with i != j.

Query translation runs over a complete fc-1-GHD with bag containment on
every edge: one node variable v_t per GHD node, head variables taken from
the witness nodes with non-empty bags.  A bag is ordered by first occurrence
in the atom that covers it, an atom node's bag by its own atom.  A tree edge
whose two bags list the same variables in the same order is contracted: its
two ends share the node variable of the end nearer the root, which takes
the `U_R` labels, the `w_t` links and the witness role of both.  An atom
R(..) with no repeated variable puts `U_R` on its node variable.  An atom
with a repeated variable, such as R(x,x,y), gets a tuple variable w_t with
`U_R` and `A<arity>`, linked to v_t by an F atom for each atom position and
bag position that hold the same variable.  Each tree edge gets an F atom for
each pair of positions of its two bags that hold the same variable.

A source homomorphism g answers the translated query by binding v_t to the
values of its bag in bag order, g(cover)[S] at increasing positions S: a
node.  An atom node with no repeated variable is bound to its atom's tuple,
which `U_R` labels.  Along a containment edge the smaller bag's values are
the larger bag's at increasing positions, but in the smaller bag's order,
which its own covering atom fixes; since F links a node to every reordering
of each of its sub-selections, the edge's F facts are there in any such
order.  Two bags that list the same variables in the same order bind to
one node, so contracting their edge loses no answer; merging two adjacent
nodes keeps the tree a tree and the witness nodes connected, so q2 stays
free-connex.  Two bags that hold the same variables in another order bind
to one node only when its values repeat, and such a node keeps its self
pair.  Conversely an F fact holds only on equal entries, so a variable
reads the same value in every bag that holds it (the bags that hold it form
a subtree), and `U_R`, with w_t's F links for a repeated variable, puts each
atom's image in R.  A node is its value tuple, so the answers over the
witness nodes and the source answers correspond one to one, and
`decode_answer` reads each head variable off its witness node.

The nodes are numbered by counting, the source tuples first in relation
order, and have no names: `node_proj` maps each node to its value tuple, and
`node_tuple` each source tuple's node to its tuple.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .analysis import FcGHD
from .errors import BadGHD, MalformedAnswer
from .model import ConjunctiveQuery, Database, Schema, cq


def binary_schema_for(schema: Schema) -> tuple[Schema, int]:
    """The derived binary schema: U_<R> per source symbol, A<i> for arities
    0..k, F<i>_<j> for positions i,j in 1..k (k = max arity)."""
    k = schema.max_arity
    symbols: list[tuple[str, int]] = [(f"U_{name}", 1) for name in schema.names]
    symbols += [(f"A{i}", 1) for i in range(k + 1)]
    symbols += [(f"F{i}_{j}", 2) for i in range(1, k + 1) for j in range(1, k + 1)]
    return Schema(tuple(symbols)), k


def projections_of(t: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All value tuples selected at increasing positions of t, the empty
    tuple and t included; deduplicated as value tuples."""
    return {tuple(t[i] for i in sel) for m in range(len(t) + 1) for sel in itertools.combinations(range(len(t)), m)}


@dataclass(frozen=True)
class BinaryEncoding:
    db2: Database  # over binary_schema_for(db.schema)
    node_proj: dict[int, tuple[int, ...]]  # every node
    node_tuple: dict[int, tuple[int, ...]]  # the nodes of source tuples


def encode_db(db: Database) -> BinaryEncoding:
    schema = db.schema
    sigma2, k = binary_schema_for(schema)

    # the source tuples, deduplicated across relations, in relation order;
    # then their other projections in order of first appearance
    proj_node: dict[tuple[int, ...], int] = {}
    for name in schema.names:
        for t in db.rel(name):
            proj_node.setdefault(t, len(proj_node))
    node_tuple = {n: t for t, n in proj_node.items()}
    for t in node_tuple.values():
        for p in sorted(projections_of(t), key=lambda p: (len(p), p)):
            proj_node.setdefault(p, len(proj_node))

    relations: dict[str, set[tuple[int, ...]]] = {name: set() for name in sigma2.names}
    for name in schema.names:
        relations[f"U_{name}"] = {(proj_node[t],) for t in db.rel(name)}
    for p, node in proj_node.items():
        relations[f"A{len(p)}"].add((node,))
    # F: a node and every node whose tuple reorders one of its sub-selections,
    # but a node with pairwise distinct values not with itself
    reorderings: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for p, node in proj_node.items():
        reorderings.setdefault(tuple(sorted(p)), []).append((p, node))
    positions = range(1, k + 1)
    f_rel = [[relations[f"F{i}_{j}"] for j in positions] for i in positions]
    for p, vp in proj_node.items():
        distinct = len(set(p)) == len(p)
        for values in {tuple(sorted(s)) for s in projections_of(p) if s}:
            for q, vq in reorderings[values]:
                if distinct and vq == vp:
                    continue  # only F<i>_<i>(p, p): no translated query asks for it
                for i, x in enumerate(p):
                    for j, y in enumerate(q):
                        if x == y:
                            f_rel[i][j].add((vp, vq))
                            f_rel[j][i].add((vq, vp))
    db2 = Database(schema=sigma2, relations={name: tuple(sorted(ts)) for name, ts in relations.items()})
    return BinaryEncoding(db2=db2, node_proj={n: p for p, n in proj_node.items()}, node_tuple=node_tuple)


@dataclass(frozen=True)
class QueryEncoding2:
    q2: ConjunctiveQuery
    # per head variable of the source query: the q2 head position of its
    # witness node, that node's bag size, and its 0-based place in the bag
    decode_plan: tuple[tuple[int, int, int], ...]


def encode_query(ghd: FcGHD) -> QueryEncoding2:
    """Translate the query of ghd, an fc-ACQ, into the binary schema, given
    a complete fc-1-GHD with bag containment along every edge, contracting
    each tree edge whose bags list the same variables in the same order into
    one node variable.  The query's atoms name everything the translation
    reads, so it needs no schema."""
    q, parent = ghd.query, ghd.parent
    for t, p in enumerate(parent):
        if p >= 0 and not (ghd.bag[t] <= ghd.bag[p] or ghd.bag[p] <= ghd.bag[t]):
            raise BadGHD("decomposition lacks bag containment on an edge")
    # each bag in first-occurrence order of the atom that covers it, an atom
    # node's bag in that of its own atom
    bag_tuple = [tuple(dict.fromkeys(x for x in ghd.cover[t].args if x in ghd.bag[t])) for t in ghd.nodes]
    if any(len(bag_tuple[t]) != len(ghd.bag[t]) for t in ghd.nodes):
        raise BadGHD("decomposition has a bag that its covering atom does not contain")
    # a tree edge whose two bags list the same variables in the same order
    # binds both ends to one node: it contracts into the end nearer the root
    rep = list(ghd.nodes)
    for t in ghd.order[1:]:  # every node but the root, parents first
        if bag_tuple[t] == bag_tuple[parent[t]]:
            rep[t] = rep[parent[t]]
    v = [f"v{rep[t]}" for t in ghd.nodes]

    # an empty-bag witness node decodes no variable, and its one value (the
    # empty projection) leaves the count unchanged: it stays quantified
    head_nodes = tuple(sorted({rep[t] for t in ghd.witness if ghd.bag[t]}))
    atom_nodes = set(ghd.atom_node.values())
    atoms: list[tuple[str, tuple[str, ...]]] = []
    for t in ghd.nodes:
        if rep[t] == t:
            atoms.append((f"A{len(ghd.bag[t])}", (v[t],)))
        if t in atom_nodes:
            atom = ghd.cover[t]
            if len(bag_tuple[t]) == atom.arity:  # the node is the atom's tuple
                atoms.append((f"U_{atom.symbol}", (v[t],)))
            else:
                atoms += [(f"U_{atom.symbol}", (f"w{t}",)), (f"A{atom.arity}", (f"w{t}",))]
                atoms += [(f"F{i}_{bag_tuple[t].index(x) + 1}", (f"w{t}", v[t]))
                          for i, x in enumerate(atom.args, 1)]
        p = parent[t]
        if p >= 0 and rep[t] == t:
            for i, x in enumerate(bag_tuple[t], 1):
                if x in ghd.bag[p]:
                    atoms.append((f"F{i}_{bag_tuple[p].index(x) + 1}", (v[t], v[p])))
    # a source atom that q repeats gives its atoms twice: q2 keeps one copy
    q2 = cq([f"v{t}" for t in head_nodes], list(dict.fromkeys(atoms)))

    head_index = {t: i for i, t in enumerate(head_nodes)}
    least: dict[int, int] = {}  # head variable -> the least witness node holding it
    for t in sorted(ghd.witness):
        for y in ghd.bag[t]:
            least.setdefault(y, t)
    decode_plan = []
    for y in q.head:
        t_y = least[y]
        decode_plan.append((head_index[rep[t_y]], len(bag_tuple[t_y]), bag_tuple[t_y].index(y)))
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
