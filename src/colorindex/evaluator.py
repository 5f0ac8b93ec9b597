"""Indexed evaluation of fc-ACQs over node-labeled graphs: rewrite self-loop
atoms to the loop label, decompose into connected components, order variables
by a free-first BFS, and answer bool / enum / count tasks against the color
index.

Per-query preprocessing only touches the color database; enumeration expands
each color tuple into vertex tuples through the class and neighbor tables,
with delay proportional to the number of free variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import engine
from .analysis import VariableOrder, connected_components, is_acyclic, is_free_connex_acyclic, variable_order
from .errors import NotAcyclic, NotFreeConnex
from .index import ColorIndex
from .instrument import OpCounter
from .model import ConjunctiveQuery, cq


@dataclass(frozen=True)
class LoopFreeQuery:
    """Original query with every reflexive edge atom replaced by the loop
    label; the Gaifman graph is unchanged."""

    q_l: ConjunctiveQuery
    original: ConjunctiveQuery
    rewritten_atoms: int


def rewrite_loops(q: ConjunctiveQuery, edge_symbol: str, loop_label: str) -> LoopFreeQuery:
    atoms: list[tuple[str, list[str]]] = []
    rewritten = 0
    for a in q.atoms:
        if a.symbol == edge_symbol and a.arity == 2 and a.args[0] == a.args[1]:
            atoms.append((loop_label, [q.var_name(a.args[0])]))
            rewritten += 1
        else:
            atoms.append((a.symbol, [q.var_name(v) for v in a.args]))
    q_l = cq([q.var_name(v) for v in q.head], atoms)
    return LoopFreeQuery(q_l=q_l, original=q, rewritten_atoms=rewritten)


def eval_bool(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> bool:
    """Boolean evaluation by the counting dynamic program, component-wise."""
    ops = ops if ops is not None else OpCounter()
    if not q.is_boolean():
        raise ValueError("eval_bool expects a Boolean query")
    if not is_acyclic(q):
        raise NotAcyclic("Boolean evaluation requires an acyclic query")
    lfq = rewrite_loops(q, idx.edge_label, idx.loop_label)
    return all(_count_component(comp, idx, ops) for comp, _ in connected_components(lfq.q_l))


@dataclass
class _Component:
    query: ConjunctiveQuery
    head_positions: tuple[int, ...]
    order: VariableOrder
    free_order: tuple[int, ...]  # free variables in BFS order
    sel: tuple[int, ...]  # output index per component-head position
    parent_pos: tuple[int, ...]  # BFS position of each free variable's parent
    plan: engine.JoinPlan  # color-tuple plan over the color database


@dataclass
class EnumPlan:
    query: ConjunctiveQuery
    idx: ColorIndex
    components: list[_Component]
    empty: bool  # some Boolean component evaluated to no


def prepare(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> EnumPlan:
    """Per-query preprocessing for enumeration: O(|Q| * |D_col|)."""
    ops = ops if ops is not None else OpCounter()
    if not is_free_connex_acyclic(q):
        raise NotFreeConnex("enumeration requires a free-connex acyclic query")
    lfq = rewrite_loops(q, idx.edge_label, idx.loop_label)
    components: list[_Component] = []
    empty = False
    for comp, head_positions in connected_components(lfq.q_l):
        if comp.is_boolean():
            empty = empty or not _count_component(comp, idx, ops)
            continue
        vo = variable_order(comp)
        k = len(comp.free())
        free_order = vo.order[:k]
        assert set(free_order) == set(comp.free())
        ordered_names = [comp.var_name(v) for v in free_order]
        reordered = cq(
            ordered_names,
            [(a.symbol, [comp.var_name(v) for v in a.args]) for a in comp.atoms],
        )
        plan = engine.preprocess(reordered, idx.d_col, ops)
        head_names = [comp.var_name(v) for v in comp.head]
        sel = tuple(ordered_names.index(n) for n in head_names)
        parent_pos = [0] * k
        for i in range(1, k):
            parent = vo.parent[free_order[i]]
            parent_pos[i] = free_order.index(parent)
        components.append(
            _Component(
                query=comp,
                head_positions=head_positions,
                order=vo,
                free_order=free_order,
                sel=sel,
                parent_pos=tuple(parent_pos),
                plan=plan,
            )
        )
    return EnumPlan(query=q, idx=idx, components=components, empty=empty)


def _expand(idx: ColorIndex, cbar: tuple[int, ...], parent_pos: tuple[int, ...],
            steps: OpCounter) -> Iterator[tuple[int, ...]]:
    """Expand one color tuple into all vertex tuples of that color pattern.

    Every neighbor set encountered is non-empty by stability of the coloring;
    an empty one indicates a broken index and raises instead of filtering.
    """
    k = len(cbar)
    vals = [0] * k
    iters: list[Iterator[int]] = [iter(idx.coloring.classes[cbar[0]])]
    while iters:
        d = len(iters) - 1
        steps.tick()
        v = next(iters[-1], None)
        if v is None:
            iters.pop()
            continue
        vals[d] = v
        if d + 1 == k:
            yield tuple(vals)
        else:
            bucket = idx.nbr[vals[parent_pos[d + 1]]].get(cbar[d + 1])
            if not bucket:
                raise AssertionError("empty neighbor set during expansion (stability violated)")
            iters.append(iter(bucket))


def _component_stream(comp: _Component, idx: ColorIndex, steps: OpCounter) -> Iterator[tuple[int, ...]]:
    for cbar in engine.enumerate_plan(comp.plan, steps):
        yield from _expand(idx, cbar, comp.parent_pos, steps)


def enumerate_prepared(plan: EnumPlan, steps: OpCounter | None = None) -> Iterator[tuple[int, ...]]:
    """Stream the answers of the prepared query, each exactly once, assembled
    in the original head order."""
    steps = steps if steps is not None else OpCounter()
    idx = plan.idx
    if plan.empty:
        return
    comps = plan.components
    if not comps:
        steps.tick()
        yield ()
        return
    factories: list[Callable[[], Iterator[tuple[int, ...]]]] = [
        (lambda c=c: _component_stream(c, idx, steps)) for c in comps
    ]
    width = len(plan.query.head)
    n = len(comps)
    iters: list[Iterator[tuple[int, ...]] | None] = [factories[0]()] + [None] * (n - 1)
    current: list[tuple[int, ...] | None] = [None] * n
    depth = 0
    while depth >= 0:
        steps.tick()
        tup = next(iters[depth], None)  # type: ignore[arg-type]
        if tup is None:
            depth -= 1
            continue
        current[depth] = tup
        if depth + 1 == n:
            out = [0] * width
            for comp, ctup in zip(comps, current):
                for j, pos in enumerate(comp.head_positions):
                    out[pos] = ctup[comp.sel[j]]  # type: ignore[index]
            yield tuple(out)
        else:
            depth += 1
            iters[depth] = factories[depth]()


def enumerate_answers(q: ConjunctiveQuery, idx: ColorIndex,
                      ops: OpCounter | None = None,
                      steps: OpCounter | None = None) -> Iterator[tuple[int, ...]]:
    return enumerate_prepared(prepare(q, idx, ops), steps)


def _count_component(comp: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter) -> int:
    """|Q(D)| of one connected component; 1 or 0 for a Boolean one."""
    vo = variable_order(comp)
    order = vo.order
    ncolors = idx.colors
    classes = idx.coloring.classes
    free = comp.free()
    kfree = sum(1 for v in order if v in free)

    color_edges: list[tuple[int, int, int]] = [(c, cp, n) for (c, cp), n in idx.deg.items() if n > 0]

    def f1_row(x: int) -> list[int]:
        lam = vo.labels[x]
        row = []
        for c in range(ncolors):
            rep = classes[c][0]
            ops.tick()
            row.append(1 if lam <= idx.graph.vl[rep] else 0)
        return row

    f1 = {x: f1_row(x) for x in order}
    f_down: dict[int, list[int]] = {}
    g: dict[int, list[int]] = {}
    for x in reversed(order):
        row = list(f1[x])
        for y in vo.children[x]:
            gy = g[y]
            for c in range(ncolors):
                row[c] *= gy[c]
        f_down[x] = row
        if x != vo.root:
            gx = [0] * ncolors
            fd = row
            for c, cp, n in color_edges:
                ops.tick()
                gx[c] += fd[cp] * n
            g[x] = gx

    if not free:
        return 1 if any(f_down[vo.root]) else 0
    n_c = [len(members) for members in classes]
    if kfree == len(order):
        return sum(n_c[c] * f_down[vo.root][c] for c in range(ncolors))

    # free variables induce a subtree: same recursion over it, with existence
    # (not multiplicity) taken from the quantified side
    f_prime: dict[int, list[int]] = {}
    g_prime: dict[int, list[int]] = {}
    free_prefix = [x for x in order if x in free]
    for x in reversed(free_prefix):
        free_children = [y for y in vo.children[x] if y in free]
        quant_children = [y for y in vo.children[x] if y not in free]
        row = [0] * ncolors
        if not free_children:
            fd = f_down[x]
            for c in range(ncolors):
                ops.tick()
                row[c] = 1 if fd[c] >= 1 else 0
        else:
            for c in range(ncolors):
                ops.tick()
                val = f1[x][c]
                for z in quant_children:
                    if g[z][c] < 1:
                        val = 0
                        break
                if val:
                    for y in free_children:
                        val *= g_prime[y][c]
                row[c] = val
        f_prime[x] = row
        if x != vo.root:
            gx = [0] * ncolors
            for c, cp, n in color_edges:
                ops.tick()
                gx[c] += row[cp] * n
            g_prime[x] = gx
    return sum(n_c[c] * f_prime[vo.root][c] for c in range(ncolors))


def count_answers(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> int:
    """Exact |Q(D)| via the color-database dynamic programs; components
    multiply (arbitrary-precision)."""
    ops = ops if ops is not None else OpCounter()
    if not is_free_connex_acyclic(q):
        raise NotFreeConnex("counting requires a free-connex acyclic query")
    lfq = rewrite_loops(q, idx.edge_label, idx.loop_label)
    total = 1
    for comp, _ in connected_components(lfq.q_l):
        total *= _count_component(comp, idx, ops)
        if total == 0:
            return 0
    return total
