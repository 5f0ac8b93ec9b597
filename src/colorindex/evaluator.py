"""Indexed evaluation of fc-ACQs over node-labeled graphs: rewrite self-loop
atoms to the loop label, decompose into connected components, order variables
by a free-first BFS, and answer bool / enum / count tasks against the color
index.

All three tasks run one counting dynamic program per component over the
color tables, in O(|Q| * |D_col|). Enumeration keeps the rows of the free
variables: a color is alive at a free variable when its entry is non-zero,
and tables from each parent color to the alive child colors stream color
tuples whose every prefix extends. Each color tuple expands into vertex
tuples through the class and neighbor tables, with delay proportional to the
number of free variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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
    if not q.is_boolean():
        raise ValueError("eval_bool expects a Boolean query")
    if not is_acyclic(q):
        raise NotAcyclic("Boolean evaluation requires an acyclic query")
    return _count(q, idx, ops) > 0


@dataclass
class _Component:
    query: ConjunctiveQuery
    head_positions: tuple[int, ...]
    free_order: tuple[int, ...]  # free variables in BFS order
    sel: tuple[int, ...]  # output index per component-head position
    parent_pos: tuple[int, ...]  # BFS position of each free variable's parent
    roots: list[int]  # alive colors of the root
    # per free variable after the root: parent color -> its alive colors
    tables: list[dict[int, list[int]]]


@dataclass
class EnumPlan:
    query: ConjunctiveQuery
    idx: ColorIndex
    components: list[_Component]
    empty: bool  # some component has no answer


def prepare(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> EnumPlan:
    """Per-query preprocessing for enumeration: O(|Q| * |D_col|)."""
    ops = ops if ops is not None else OpCounter()
    if not is_free_connex_acyclic(q):
        raise NotFreeConnex("enumeration requires a free-connex acyclic query")
    lfq = rewrite_loops(q, idx.edge_label, idx.loop_label)
    f1: dict[frozenset[str], list[int]] = {}
    components: list[_Component] = []
    for comp, head_positions in connected_components(lfq.q_l):
        vo = variable_order(comp)
        rows = _dp_rows(comp, vo, idx, f1, ops)
        if not any(rows[vo.root]):
            return EnumPlan(query=q, idx=idx, components=[], empty=True)
        if comp.is_boolean():
            continue
        free_order = vo.order[: len(comp.free())]
        parent_pos = (0,) + tuple(free_order.index(vo.parent[x]) for x in free_order[1:])
        alive = [rows[x] for x in free_order]
        tables: list[dict[int, list[int]]] = [{} for _ in free_order[1:]]
        links = [(alive[parent_pos[i]], alive[i], tables[i - 1]) for i in range(1, len(free_order))]
        ops.tick(idx.colors + len(idx.deg) * len(links))
        if links:
            for c, cp in idx.deg:
                for up, down, table in links:
                    if up[c] and down[cp]:
                        table.setdefault(c, []).append(cp)
        components.append(_Component(
            query=comp, head_positions=head_positions, free_order=free_order,
            sel=tuple(free_order.index(v) for v in comp.head), parent_pos=parent_pos,
            roots=[c for c, n in enumerate(alive[0]) if n], tables=tables))
    return EnumPlan(query=q, idx=idx, components=components, empty=False)


def _walk(first: Iterable, k: int, child: Callable[[int, list], Iterable],
          steps: OpCounter) -> Iterator[tuple]:
    """Depth-first over k levels with an explicit iterator stack: level 0
    draws from first, level d from child(d, values of the levels above).
    One step per draw; when no level but the last can run dry, consecutive
    outputs are O(k) steps apart."""
    vals: list = [None] * k
    iters = [iter(first)]
    while iters:
        d = len(iters) - 1
        steps.tick()
        v = next(iters[-1], None)  # values are never None
        if v is None:
            iters.pop()
            continue
        vals[d] = v
        if d + 1 == k:
            yield tuple(vals)
        else:
            iters.append(iter(child(d + 1, vals)))


def _expand(idx: ColorIndex, cbar: tuple[int, ...], parent_pos: tuple[int, ...],
            steps: OpCounter) -> Iterator[tuple[int, ...]]:
    """Expand one color tuple into all vertex tuples of that color pattern.

    Every neighbor set encountered is non-empty by stability of the coloring;
    an empty one indicates a broken index and raises instead of filtering.
    """
    nbr = idx.nbr

    def bucket(d: int, vals: list) -> tuple[int, ...]:
        found = nbr[vals[parent_pos[d]]].get(cbar[d])
        if not found:
            raise AssertionError("empty neighbor set during expansion (stability violated)")
        return found

    return _walk(idx.coloring.classes[cbar[0]], len(cbar), bucket, steps)


def _component_stream(comp: _Component, idx: ColorIndex, steps: OpCounter) -> Iterator[tuple[int, ...]]:
    tables, parent_pos = comp.tables, comp.parent_pos
    colors = _walk(comp.roots, len(comp.free_order),
                   lambda d, vals: tables[d - 1][vals[parent_pos[d]]], steps)
    for cbar in colors:
        yield from _expand(idx, cbar, parent_pos, steps)


def enumerate_prepared(plan: EnumPlan, steps: OpCounter | None = None) -> Iterator[tuple[int, ...]]:
    """Stream the answers of the prepared query, each exactly once, assembled
    in the original head order."""
    steps = steps if steps is not None else OpCounter()
    if plan.empty:
        return
    comps = plan.components
    if not comps:
        steps.tick()
        yield ()
        return
    idx = plan.idx
    width = len(plan.query.head)
    parts = _walk(_component_stream(comps[0], idx, steps), len(comps),
                  lambda d, _: _component_stream(comps[d], idx, steps), steps)
    for current in parts:
        out = [0] * width
        for comp, ctup in zip(comps, current):
            for j, pos in enumerate(comp.head_positions):
                out[pos] = ctup[comp.sel[j]]
        yield tuple(out)


def enumerate_answers(q: ConjunctiveQuery, idx: ColorIndex,
                      ops: OpCounter | None = None,
                      steps: OpCounter | None = None) -> Iterator[tuple[int, ...]]:
    return enumerate_prepared(prepare(q, idx, ops), steps)


def _dp_rows(comp: ConjunctiveQuery, vo: VariableOrder, idx: ColorIndex,
             f1: dict[frozenset[str], list[int]], ops: OpCounter) -> dict[int, list[int]]:
    """The counting dynamic program of one connected component.

    f_down[x][c] counts the matches of x's subtree with x on a fixed vertex
    of color c; a Boolean component returns the root's row of it. Otherwise
    row[c] of a free variable x counts the assignments to the free variables
    of x's subtree that extend x on a vertex of color c: f_down when all
    variables are free, else f_prime, a pass over the free subtree that asks
    only for the existence of the quantified side. f1 memoizes the label rows
    of one query, one scan of the colors per label set. Rows are never
    changed after they are made.
    """
    order, root = vo.order, vo.root
    ncolors, deg, free = idx.colors, idx.deg, comp.free()
    classes, vl = idx.coloring.classes, idx.graph.vl

    def label_row(x: int) -> list[int]:
        labels = vo.labels[x]
        if labels not in f1:
            ops.tick(ncolors)
            f1[labels] = [1 if labels <= vl[members[0]] else 0 for members in classes]
        return f1[labels]

    def lift(row: list[int]) -> list[int]:
        # g[c]: extensions of a child row along the color edges from color c
        ops.tick(len(deg))
        g = [0] * ncolors
        for (c, cp), n in deg.items():
            r = row[cp]
            if r:
                g[c] += r * n
        return g

    f_down: dict[int, list[int]] = {}
    g: dict[int, list[int]] = {}
    for x in reversed(order):
        row = label_row(x)
        for y in vo.children[x]:
            row = [a * b for a, b in zip(row, g[y])]
        f_down[x] = row
        if x != root:
            g[x] = lift(row)
    if not free:
        return {root: f_down[root]}
    if len(free) == len(order):
        return f_down

    # the free variables are a prefix of the order and induce a subtree
    f_prime: dict[int, list[int]] = {}
    g_prime: dict[int, list[int]] = {}
    for x in reversed(order[: len(free)]):
        ops.tick(ncolors)
        free_children = [y for y in vo.children[x] if y in free]
        if not free_children:
            row = [1 if n else 0 for n in f_down[x]]
        else:
            row = label_row(x)
            for z in vo.children[x]:
                if z not in free:
                    row = [a if b else 0 for a, b in zip(row, g[z])]
            for y in free_children:
                row = [a * b for a, b in zip(row, g_prime[y])]
        f_prime[x] = row
        if x != root:
            g_prime[x] = lift(row)
    return f_prime


def count_answers(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> int:
    """Exact |Q(D)| via the color-database dynamic programs; components
    multiply (arbitrary-precision)."""
    if not is_free_connex_acyclic(q):
        raise NotFreeConnex("counting requires a free-connex acyclic query")
    return _count(q, idx, ops)


def _count(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None) -> int:
    """Product over the components of |Q(D)|, taken as 1 or 0 for a Boolean
    component; stops at the first zero."""
    ops = ops if ops is not None else OpCounter()
    lfq = rewrite_loops(q, idx.edge_label, idx.loop_label)
    f1: dict[frozenset[str], list[int]] = {}
    classes = idx.coloring.classes
    total = 1
    for comp, _ in connected_components(lfq.q_l):
        vo = variable_order(comp)
        row = _dp_rows(comp, vo, idx, f1, ops)[vo.root]
        if comp.is_boolean():
            total *= 1 if any(row) else 0
        else:
            total *= sum(len(classes[c]) * n for c, n in enumerate(row) if n)
        if total == 0:
            return 0
    return total
