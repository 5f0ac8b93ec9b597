"""Indexed evaluation of fc-ACQs: split a query into the connected
components of its Gaifman graph, one `Component` each with its variables in
a free-first BFS order, and answer bool / enum / count tasks against the
color index.

On the graph stage a query is over the graph schema: an edge atom E(x, y)
is a color edge, and E(x, x) is the loop label on x.  On the binary and
full stages a query is over the binary schema and runs on the typed index
(`index.EdgeColors`): every variable takes a value color, all binary atoms
on one variable pair merge into one typed edge, whose allowed edge colors
must carry the relations of the atoms read forward and whose reverses must
carry those read backward, and an atom R(x, x) restricts x to the value
colors at which a loop edge color that carries R starts.

`components` is the per-query compile step: one pass over the query's
atoms reads the color sets of its labels, its loop relations, typed
variable pairs and Gaifman graph; the breadth-first search it shares with
`analysis.spanning_forest` (`analysis.bfs_forest`) splits the graph into
trees; and one loop over each tree's order makes its `Component`, with the
colors each variable may take under its unary and loop atoms and the
allowed edge colors of each typed edge, which run between such colors.
Its result is immutable and depends only on the query and the index, so a
caller may keep it and pass it to `count_components` and
`prepare_components` again (`pipeline.DatabaseIndex` does).  The dynamic
program runs on every call; no row, count or answer is kept.

All three tasks run one counting dynamic program per component over the
color tables, in O(|Q| * |D_col|): one bottom-up pass over the component's
parent array that lifts each variable but the root once and multiplies it
into its parent's row (see `_dp_rows`).  Its rows are sparse, {color: count}
with only the non-zero entries, so the work is spent on the colors that can
still match: a variable's row starts at 1 on the colors its unary and loop
atoms allow, and a product walks the smaller row.  A variable with no such
atom has no row until one is read, so a product passes the other row
through.  On a typed index a lift walks the edge colors e that its tree
edge allows, the color-database facts (src[e], e, dst[e]) that can match
it, and adds num[e] * row[dst[e]] to the parent's entry at src[e], or
num[e] when the child has no row.  Compile keeps only the edge colors e
whose src[e] the parent may take and whose dst[e] the child may take under
their unary and loop atoms.  The others never add anything: the child's row
has no entry at any other end, and the product with the parent's row drops
any other start.  On the graph stage a lift walks the per-color neighbor
lists (`deg`) of the child row's colors.

Enumeration keeps the rows of the free variables: a color is alive at a
free variable when it has an entry, and each free variable after a root
gets a table from its parent's alive colors to its allowed edges toward
alive colors.  One depth-first iterator stack then walks vertices, with
one level per free variable of every non-Boolean component in turn, so a
product of components is just more levels.  A root level draws the
members of its alive root colors.  A later level, for the vertex u drawn
at its parent's level, draws the bucket adj[u][s] of each table entry s of
u's color: the slice of u's row that holds the bucket of a neighbor color,
or of an edge color whose bucket lists the far values.  A step is one draw,
the one that finds a bucket spent included, or one bucket opened.  Every
table entry opens a non-empty bucket: its key is in deg[col[u]], and
stability gives every vertex of a color the same bucket sizes.  Every alive
color has at least one entry, and every prefix extends.  So each draw is
O(1) work, no level runs dry before it yields, and consecutive answers are
O(|free variables|) steps apart.

A query is acyclic here exactly when its Gaifman graph is a forest, since
every atom has arity at most 2, and free-connex acyclic when in addition
each component's free variables induce a connected subgraph.  Those are the
checks `components` makes, so no separate acyclicity pass runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .analysis import bfs_forest
from .errors import ArityMismatch, NotAcyclic, NotFreeConnex, TaskMismatch, UnknownSymbol
from .index import ColorIndex
from .instrument import OpCounter
from .model import ConjunctiveQuery

Row = dict[int, int]  # color -> non-zero count; absent colors count 0


@dataclass(frozen=True)
class Component:
    """One connected component of a query: one tree of its spanning forest,
    as a parent array over its variables in a free-first BFS order, with
    the colors each position may take, the allowed edge colors of its tree
    edge, and the head positions its free variables fill."""

    order: tuple[int, ...]  # the free variables first; parents precede children
    n_free: int  # the free variables are order[:n_free]
    parent: tuple[int, ...]  # per position, its parent's position; -1 at the root
    # per position, the colors its variable may take under its unary atoms
    # and its atoms E(x, x) or R(x, x); None when it has none
    only: tuple[frozenset[int] | None, ...]
    # per position, the edge colors allowed from its parent's vertex toward
    # its own: those that carry the relations of the atoms between the two,
    # start at a color in the parent's `only` and end at one in its own,
    # where those are set; None at the root and on the graph stage
    down: tuple[frozenset[int] | None, ...]
    collapse: tuple[int, ...]  # the free positions that have a quantified child
    head_positions: tuple[int, ...]  # ascending
    sel: tuple[int, ...]  # per head position, the position of its variable


def _meet(sets: list[frozenset[int]]) -> frozenset[int]:
    """The intersection of a non-empty list of sets, walked from the
    smallest; that set itself when the rest keep all of it, so a compiled
    query shares the index's sets instead of holding copies (for a typed
    edge, when neither end has a unary or loop atom to prune it by)."""
    first, *rest = sorted(sets, key=len)
    meet = first.intersection(*rest) if rest else first
    return first if len(meet) == len(first) else meet


def components(q: ConjunctiveQuery, idx: ColorIndex) -> tuple[Component, ...]:
    """The components of a query over the index's schema: one pass over the
    atoms reads the label colors, the loop relations, the typed variable
    pairs and the Gaifman graph, and the one search `analysis.bfs_forest`
    splits that graph into trees.  Components with head variables come
    first, by their earliest head position, then the Boolean ones by
    smallest variable.  A tree is rooted at its lowest-id free variable,
    else at its lowest-id variable, and its free variables precede the
    quantified ones.  Raises UnknownSymbol for a unary atom that is not a
    vertex label or a binary atom that is not a relation of the index,
    ArityMismatch for a wider atom, and NotFreeConnex when the Gaifman graph
    has a cycle or the free variables of a component do not induce a
    connected subgraph (see the module docstring)."""
    edges, label_colors = idx.edges, idx.label_colors
    adj: dict[int, set[int]] = {}  # the Gaifman graph
    only: dict[int, list[frozenset[int]]] = {}  # x -> the color sets its unary and loop atoms allow
    loop_labels: dict[int, set[str]] = {}
    pairs: dict[tuple[int, int], set[str]] = {}  # (x, y) -> the relations read from x toward y
    for a in q.atoms:
        args = a.args
        if len(args) > 2:
            raise ArityMismatch(f"{a.symbol} has arity {a.arity}; an indexed query has arities 1 and 2")
        if len(args) == 1:
            if a.symbol not in label_colors:
                raise UnknownSymbol(f"{a.symbol!r} is not a vertex label of the index")
            adj.setdefault(args[0], set())
            only.setdefault(args[0], []).append(label_colors[a.symbol])
            continue
        x, y = args
        if edges is None:
            if a.symbol != idx.edge_label:
                raise UnknownSymbol(f"{a.symbol!r} is not the edge label {idx.edge_label!r} of the index")
        elif a.symbol not in edges.relations:
            raise UnknownSymbol(f"{a.symbol!r} is not a binary relation of the index")
        if x == y:
            adj.setdefault(x, set())
            if edges is None:
                only.setdefault(x, []).append(label_colors[idx.loop_label])
            else:
                loop_labels.setdefault(x, set()).add(a.symbol)
            continue
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
        if edges is not None:
            pairs.setdefault((x, y), set()).add(a.symbol)
    free = q.free()
    trees, parent = bfs_forest(adj, free)
    if sum(map(len, adj.values())) // 2 != len(adj) - len(trees):
        raise NotFreeConnex("Gaifman graph has a cycle")

    if edges is not None:
        with_label, back, src, dst = edges.with_label, edges.back, edges.src, edges.dst
        for x, rs in loop_labels.items():
            looped = _meet([with_label.get(idx.loop_label, frozenset())] + [with_label[r] for r in rs])
            only.setdefault(x, []).append(frozenset(src[e] for e in looped))
    allowed = {x: _meet(sets) for x, sets in only.items()}
    position = {v: i for i, v in enumerate(q.head)}
    out: list[Component] = []
    for tree in trees:
        # a tree with free variables is rooted at one, so when each free
        # variable's parent is free they form a subtree at the root, and
        # taking them first keeps every parent before its children
        order = [v for v in tree if v in free]
        n_free = len(order)
        order += [v for v in tree if v not in free]
        index = {v: i for i, v in enumerate(order)}
        up, down = [-1], [None]
        for i in range(1, len(order)):
            y = order[i]
            x = parent[y]
            p = index[x]
            if i < n_free <= p:
                raise NotFreeConnex("free variables do not induce a connected subgraph")
            up.append(p)
            if edges is None:
                down.append(None)
                continue
            # the relations read from x to y label the edge colors from x's
            # value toward y's, those read from y to x their reverses
            es = _meet([with_label[r] for r in pairs.get((x, y), ())] + [back[r] for r in pairs.get((y, x), ())])
            # an edge color that starts at a color x may not take, or ends at
            # one y may not take, matches nothing: x's row has no entry at
            # its start, y's row none at its end
            a, b = allowed.get(x), allowed.get(y)
            if a is not None or b is not None:
                es = frozenset([e for e in es if (a is None or src[e] in a) and (b is None or dst[e] in b)])
            down.append(es)
        head_positions = tuple(sorted([position[v] for v in order[:n_free]]))
        out.append(Component(
            order=tuple(order),
            n_free=n_free,
            parent=tuple(up),
            only=tuple([allowed.get(v) for v in order]),
            down=tuple(down),
            collapse=tuple(sorted({p for p in up[n_free:] if 0 <= p < n_free})),
            head_positions=head_positions,
            sel=tuple([index[q.head[i]] for i in head_positions])))
    out.sort(key=lambda c: c.head_positions[0] if c.head_positions else len(q.head))
    return tuple(out)


def _checked(q: ConjunctiveQuery, idx: ColorIndex, error: type[Exception],
             message: str) -> tuple[Component, ...]:
    try:
        return components(q, idx)
    except NotFreeConnex:
        raise error(message) from None


def eval_bool(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> bool:
    """Boolean evaluation by the counting dynamic program, component-wise."""
    if not q.is_boolean():
        raise TaskMismatch("bool task is only allowed for Boolean queries")
    comps = _checked(q, idx, NotAcyclic, "Boolean evaluation requires an acyclic query")
    return count_components(comps, idx, ops) > 0


@dataclass
class EnumPlan:
    """What enumeration reads: the free variables of the non-Boolean
    components, in order, are the levels of one iterator stack."""

    idx: ColorIndex
    width: int  # of the query head
    components: list[Component]  # the non-Boolean ones
    # per component, the alive colors of its root: its root level opens
    # their classes
    roots: list[list[int]]
    # per component and free variable after the root: alive parent color ->
    # the slices of the buckets of its allowed edge colors toward alive
    # colors (on the graph stage, of those alive colors).  The level of that
    # variable, for a vertex u of its parent's level, opens the bucket
    # adj[u][s] of each entry s of u's color; every one is non-empty.
    tables: list[list[dict[int, list[slice]]]]
    empty: bool  # some component has no answer


def prepare(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> EnumPlan:
    """Per-query preprocessing for enumeration: O(|Q| * |D_col|)."""
    comps = _checked(q, idx, NotFreeConnex, "enumeration requires a free-connex acyclic query")
    return prepare_components(comps, len(q.head), idx, ops)


def prepare_components(comps: tuple[Component, ...], width: int, idx: ColorIndex,
                       ops: OpCounter | None = None) -> EnumPlan:
    """prepare() on the components of a query whose head has width
    variables."""
    ops = ops if ops is not None else OpCounter()
    buckets, dest = idx.buckets, idx.dest
    plan = EnumPlan(idx=idx, width=width, components=[], roots=[], tables=[], empty=False)
    for comp in comps:
        rows = _dp_rows(comp, idx, ops)
        if not _read(rows[0], idx, ops):
            return EnumPlan(idx=idx, width=width, components=[], roots=[], tables=[], empty=True)
        if not comp.n_free:
            continue
        alive = [_read(row, idx, ops) for row in rows[:comp.n_free]]
        tables: list[dict[int, list[slice]]] = []
        for i in range(1, comp.n_free):
            up, down, allowed = alive[comp.parent[i]], alive[i], comp.down[i]
            ops.tick(sum(len(buckets[c]) for c in up))
            tables.append({c: [s for k, s in buckets[c].items()
                               if dest[k] in down and (allowed is None or k in allowed)] for c in up})
        plan.components.append(comp)
        plan.roots.append(list(alive[0]))
        plan.tables.append(tables)
    return plan


def enumerate_prepared(plan: EnumPlan, steps: OpCounter | None = None) -> Iterator[tuple[int, ...]]:
    """Stream the answers of the prepared query, each exactly once, as
    vertex tuples in the original head order, from one iterator stack over
    vertices (see the module docstring).  Steps are counted in a local and
    added to `steps` before each answer and at the end.  An empty bucket
    means a broken index, and raises instead of being skipped."""
    steps = steps if steps is not None else OpCounter()
    if plan.empty:
        return
    if not plan.components:
        steps.n += 1
        yield ()
        return
    idx = plan.idx
    adj, col, classes = idx.graph.adj, idx.coloring.col, idx.coloring.classes
    parent: list[int] = []  # per level, its parent level; -1 at a component root
    source: list = []  # per level, the alive root colors at a root, else the table
    heads = [0] * plan.width  # per head position, its level
    for comp, roots, tables in zip(plan.components, plan.roots, plan.tables):
        base = len(parent)
        parent += [-1] + [base + p for p in comp.parent[1:comp.n_free]]
        source += [roots] + tables
        for pos, j in zip(comp.head_positions, comp.sel):
            heads[pos] = base + j
    # a head in level order, as every one-level head is, is the value list itself
    answer = tuple if heads == sorted(heads) else itemgetter(*heads)
    last = len(parent) - 1
    vals = [0] * (last + 1)
    entries: list[Iterator[int]] = [iter(source[0])] + [iter(())] * last
    bucket: list[Iterator[int]] = [iter(())] * (last + 1)
    around: list[tuple[int, ...]] = [()] * (last + 1)  # the parent vertex's row
    n = d = 0
    while True:
        # open the next bucket of level d, or back up when it has none
        k = next(entries[d], None)
        if k is None:
            if d == 0:
                break
            d -= 1
        else:
            n += 1
            found = classes[k] if parent[d] < 0 else around[d][k]
            if not found:
                raise AssertionError(f"an empty bucket {k} at level {d} (stability violated)")
            bucket[d] = iter(found)
        # draw from level d: answer at the last level, else go down
        while True:
            v = next(bucket[d], None)  # vertices are never None
            n += 1
            if v is None:
                break
            vals[d] = v
            if d < last:
                d += 1
                p = parent[d]
                if p < 0:
                    entries[d] = iter(source[d])
                else:
                    u = vals[p]
                    around[d] = adj[u]
                    entries[d] = iter(source[d][col[u]])
                break
            steps.n += n
            n = 0
            yield answer(vals)
    steps.n += n


def _read(row: Row | None, idx: ColorIndex, ops: OpCounter) -> Row:
    """A row of `_dp_rows`, built when it is the all-ones row None."""
    if row is not None:
        return row
    ops.tick(idx.coloring.num_colors)
    return dict.fromkeys(range(idx.coloring.num_colors), 1)


def _dp_rows(comp: Component, idx: ColorIndex, ops: OpCounter) -> list[Row | None]:
    """The counting dynamic program of one connected component, one row per
    position, on sparse rows that hold only the non-zero entries: one
    bottom-up pass that lifts every position but the root once and
    multiplies it into its parent's row.

    The pass folds the quantified positions first, from the last one, so
    that the row of a quantified variable x counts, per color c, the
    matches of x's subtree with x on a fixed vertex of color c.  A free
    variable with a quantified child asks only whether the quantified side
    extends it, so its row then drops to 1 at each of its colors; a color
    extends the whole subtree exactly when it has an entry, whatever the
    free side below it counts.  The free positions then fold the same way,
    so the row of a free variable x counts the assignments to the free
    variables of x's subtree that extend x on a vertex of color c.  On a
    Boolean component the root's row is the first kind.

    A position starts at 1 on each color its unary and loop atoms allow
    (`Component.only`).  One with no such atom has the all-ones row, which
    stays None: a product passes the other row through, a typed lift sums
    num[e] over the allowed edge colors, and a graph-stage lift builds it
    with `_read`, as a caller does when it reads a returned None row.

    The pass is one loop, each step a lift and a product, and it counts its
    ops in a local that it adds to `ops` once, at the end: one per first-row
    entry, per allowed edge color or `deg` entry a lift walks, per entry of
    the smaller row of a product, and per entry of a row that drops to 1s
    (`_read` counts the all-ones rows it builds itself).
    """
    deg, classes, edges = idx.deg, idx.coloring.classes, idx.edges
    src, dst, num = (edges.src, edges.dst, edges.num) if edges is not None else ((), (), ())
    parent, down, n_free = comp.parent, comp.down, comp.n_free
    rows: list[Row | None] = [None if only is None else dict.fromkeys(only, 1) for only in comp.only]
    n = sum(map(len, filter(None, comp.only)))
    # the quantified positions but a root fold first, from the last one;
    # then (None) the free rows with a quantified child drop to 1s; then
    # the free positions but the root fold
    for i in [*range(len(rows) - 1, max(n_free, 1) - 1, -1), None, *range(n_free - 1, 0, -1)]:
        if i is None:
            for j in comp.collapse:
                n += len(rows[j])
                rows[j] = dict.fromkeys(rows[j], 1)
            continue
        row, allowed = rows[i], down[i]
        total: Row = {}
        if allowed is None:
            # the graph stage: g[c] = sum over the colors c' of the row of
            # numN(c, c') * row[c'], walked along deg[c'] from c': the
            # edges between two classes number |C_c| * numN(c, c') =
            # |C_c'| * numN(c', c), so the division is exact
            for cp, r in _read(row, idx, ops).items():
                w = r * len(classes[cp])
                n += len(deg[cp])
                for c, k in deg[cp]:
                    total[c] = total.get(c, 0) + w * k
            total = {c: t // len(classes[c]) for c, t in total.items()}
        else:
            # typed: g[src[e]] sums num[e] * row[dst[e]] over the allowed
            # edge colors e, which run from the parent's value toward the
            # child's
            n += len(allowed)
            if row is None:
                for e in allowed:
                    c = src[e]
                    total[c] = total.get(c, 0) + num[e]
            else:
                for e in allowed:
                    r = row.get(dst[e])
                    if r is not None:
                        c = src[e]
                        total[c] = total.get(c, 0) + num[e] * r
        # the product with the parent's row walks the smaller row
        p = parent[i]
        a = rows[p]
        if a is not None:
            if len(total) < len(a):
                a, total = total, a
            n += len(a)
            total = {c: k * total[c] for c, k in a.items() if c in total}
        rows[p] = total
    ops.tick(n)
    return rows


def count_answers(q: ConjunctiveQuery, idx: ColorIndex, ops: OpCounter | None = None) -> int:
    """Exact |Q(D)| via the color-database dynamic programs; components
    multiply (arbitrary-precision)."""
    comps = _checked(q, idx, NotFreeConnex, "counting requires a free-connex acyclic query")
    return count_components(comps, idx, ops)


def count_components(comps: tuple[Component, ...], idx: ColorIndex, ops: OpCounter | None = None) -> int:
    """Product over the components of |Q(D)|, taken as 1 or 0 for a Boolean
    component; stops at the first zero."""
    ops = ops if ops is not None else OpCounter()
    classes = idx.coloring.classes
    total = 1
    for comp in comps:
        row = _read(_dp_rows(comp, idx, ops)[0], idx, ops)
        if not comp.n_free:
            total *= 1 if row else 0
        else:
            total *= sum(len(classes[c]) * n for c, n in row.items())
        if total == 0:
            return 0
    return total
