"""Baseline evaluator for free-connex acyclic queries: preprocessing in
O(|Q| * |D|) builds a semijoin-reduced join plan over a complete fc-1-GHD;
enumeration then streams the duplicate-free answer set with delay bounded by
the witness size (and hence by O(|free(Q)|)), independent of |D|.  The
full reducer and the enumeration read the decomposition's one tree, its
breadth-first order and parent array.

Used directly on a database as the unindexed baseline that the indexed path
is checked and measured against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .analysis import FcGHD, compute_fc1ghd, is_acyclic
from .errors import NotAcyclic, TaskMismatch
from .instrument import OpCounter
from .model import Atom, ConjunctiveQuery, Database


@dataclass
class JoinPlan:
    query: ConjunctiveQuery
    ghd: FcGHD
    node_rel: list[list[tuple[int, ...]]]
    node_vars: list[tuple[int, ...]]  # bag in ascending var-id order
    witness_order: list[int]  # BFS over the witness subtree, root first
    # per non-root witness node: shared vars with its tree parent, and
    # buckets of its relation keyed by those shared values
    shared_vars: dict[int, tuple[int, ...]]
    buckets: dict[int, dict[tuple[int, ...], list[tuple[int, ...]]]]
    satisfiable: bool


def _match_atom(db: Database, atom: Atom, out_vars: tuple[int, ...], ops: OpCounter) -> list[tuple[int, ...]]:
    """Tuples of the atom's relation consistent with repeated variables,
    projected (duplicate-free, first-occurrence order) onto out_vars."""
    res: dict[tuple[int, ...], None] = {}
    for tup in db.rel(atom.symbol):
        ops.tick()
        env: dict[int, int] = {}
        ok = True
        for v, c in zip(atom.args, tup):
            cur = env.get(v)
            if cur is None:
                env[v] = c
            elif cur != c:
                ok = False
                break
        if ok:
            res.setdefault(tuple(env[v] for v in out_vars))
    return list(res)


def _semijoin(
    outer: list[tuple[int, ...]],
    outer_vars: tuple[int, ...],
    inner: list[tuple[int, ...]],
    inner_vars: tuple[int, ...],
    ops: OpCounter,
) -> list[tuple[int, ...]]:
    shared = tuple(v for v in outer_vars if v in inner_vars)
    pos_out = tuple(outer_vars.index(v) for v in shared)
    pos_in = tuple(inner_vars.index(v) for v in shared)
    keys = set()
    for t in inner:
        ops.tick()
        keys.add(tuple(t[i] for i in pos_in))
    out = []
    for t in outer:
        ops.tick()
        if tuple(t[i] for i in pos_out) in keys:
            out.append(t)
    return out


def preprocess(q: ConjunctiveQuery, db: Database, ops: OpCounter | None = None) -> JoinPlan:
    """Materialize per-node relations, run the full reducer (two semijoin
    passes), and bucket the witness subtree for enumeration."""
    ops = ops if ops is not None else OpCounter()
    ghd = compute_fc1ghd(q)  # raises NotFreeConnex
    node_vars = [tuple(sorted(b)) for b in ghd.bag]
    node_rel = [_match_atom(db, ghd.cover[t], node_vars[t], ops) for t in ghd.nodes]

    order, parent = ghd.order, ghd.parent
    # leaves -> root
    for t in reversed(order[1:]):
        p = parent[t]
        node_rel[p] = _semijoin(node_rel[p], node_vars[p], node_rel[t], node_vars[t], ops)
    # root -> leaves
    for t in order[1:]:
        p = parent[t]
        node_rel[t] = _semijoin(node_rel[t], node_vars[t], node_rel[p], node_vars[p], ops)

    satisfiable = all(node_rel[t] for t in ghd.nodes)

    # the witness is connected and holds the root, so each of its nodes but
    # the root has its tree parent in it
    witness_order = [t for t in order if t in ghd.witness]
    shared_vars: dict[int, tuple[int, ...]] = {}
    buckets: dict[int, dict[tuple[int, ...], list[tuple[int, ...]]]] = {}
    for t in witness_order[1:]:
        p = parent[t]
        shared = tuple(v for v in node_vars[t] if v in ghd.bag[p])
        shared_vars[t] = shared
        pos = tuple(node_vars[t].index(v) for v in shared)
        bucket: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for tup in node_rel[t]:
            ops.tick()
            bucket.setdefault(tuple(tup[i] for i in pos), []).append(tup)
        buckets[t] = bucket
    return JoinPlan(
        query=q,
        ghd=ghd,
        node_rel=node_rel,
        node_vars=node_vars,
        witness_order=witness_order,
        shared_vars=shared_vars,
        buckets=buckets,
        satisfiable=satisfiable,
    )


def enumerate_plan(plan: JoinPlan, steps: OpCounter | None = None) -> Iterator[tuple[int, ...]]:
    """Stream the answer set, each tuple exactly once, in a deterministic
    order.  A fresh iterator can be opened at any time over the same plan."""
    steps = steps if steps is not None else OpCounter()
    q = plan.query
    if not plan.satisfiable:
        return
    if not plan.witness_order:
        steps.tick()
        yield ()
        return

    worder = plan.witness_order
    depth_vars = [plan.node_vars[t] for t in worder]
    root_rel = plan.node_rel[worder[0]]
    k = len(worder)
    env: dict[int, int] = {}
    head = q.head

    def key_of(t: int) -> tuple[int, ...]:
        return tuple(env[v] for v in plan.shared_vars[t])

    iters: list[Iterator[tuple[int, ...]]] = [iter(root_rel)]
    while iters:
        d = len(iters) - 1
        steps.tick()
        tup = next(iters[-1], None)
        if tup is None:
            iters.pop()
            continue
        for v, c in zip(depth_vars[d], tup):
            env[v] = c
        if d + 1 == k:
            yield tuple(env[v] for v in head)
        else:
            t_next = worder[d + 1]
            bucket = plan.buckets[t_next].get(key_of(t_next))
            # full reduction guarantees a match for every surviving tuple
            iters.append(iter(bucket if bucket is not None else ()))


def answers(q: ConjunctiveQuery, db: Database, ops: OpCounter | None = None) -> set[tuple[int, ...]]:
    return set(enumerate_plan(preprocess(q, db, ops)))


def bool_eval(q: ConjunctiveQuery, db: Database, ops: OpCounter | None = None) -> bool:
    """Boolean acyclic evaluation: satisfiability after the full reducer."""
    if not q.is_boolean():
        raise TaskMismatch("bool task is only allowed for Boolean queries")
    if not is_acyclic(q):
        raise NotAcyclic("Boolean evaluation requires an acyclic query")
    return preprocess(q, db, ops).satisfiable
