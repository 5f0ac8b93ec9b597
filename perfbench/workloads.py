"""Seeded inputs, query streams and independent expected answers for the
three benchmark workloads.

Each workload writes its input as schema and database text, hands the
serving process a stream of query texts per round, and checks the answers
the index returned against values computed here without the index path:
walk counts and set operations on the generated edge lists (graph-symmetric),
`oracle.brute_answers` on each small base times its number of copies
(relational-replicas), and `oracle.brute_answers` on the whole source
database (ternary-random).
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from colorindex import generators, oracle
from colorindex.model import ConjunctiveQuery, Schema, cq, validate_database
from colorindex.textio import format_query, parse_query

ENUM_CAP = 1000  # answers taken from each enumeration
TASKS = ("bool", "count", "enum")


def answer_digest(answers: list[list[str]]) -> str:
    """Order-free digest of an answer list, to compare repeated calls."""
    return hashlib.sha1("\n".join(sorted(",".join(a) for a in answers)).encode()).hexdigest()


def boolean(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The Boolean variant of a query: the same body with an empty head."""
    return cq([], _named_atoms(query))


def _named_atoms(query: ConjunctiveQuery) -> list[tuple[str, list[str]]]:
    return [(a.symbol, [query.var_name(v) for v in a.args]) for a in query.atoms]


def _components(query: ConjunctiveQuery) -> list[ConjunctiveQuery]:
    """Connected components of the query's atoms (shared variables), each
    with the head variables it contains, in head order."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for a in query.atoms:
        for v in a.args[1:]:
            parent[find(v)] = find(a.args[0])
    groups: dict[int, list[tuple[str, list[str]]]] = {}
    for a, named in zip(query.atoms, _named_atoms(query)):
        groups.setdefault(find(a.args[0]), []).append(named)
    return [
        cq([query.var_name(v) for v in query.head if find(v) == root], atoms)
        for root, atoms in groups.items()
    ]


class Relations:
    """The generated tuples by relation name, with a witness search that
    shares no code with the program."""

    def __init__(self, relations: dict[str, list[tuple[str, ...]]]):
        self.rel = {s: set(ts) for s, ts in relations.items()}
        self._by_pos: dict[tuple[str, int], dict[str, list[tuple[str, ...]]]] = {}

    def _lookup(self, sym: str, pos: int, value: str) -> list[tuple[str, ...]]:
        key = (sym, pos)
        if key not in self._by_pos:
            index: dict[str, list[tuple[str, ...]]] = {}
            for t in self.rel[sym]:
                index.setdefault(t[pos], []).append(t)
            self._by_pos[key] = index
        return self._by_pos[key].get(value, [])

    def has_witness(self, query: ConjunctiveQuery, answer: tuple[str, ...]) -> bool:
        """True when the body has a match that puts `answer` on the head."""
        binding = dict(zip(query.head, answer))
        atoms = [(a.symbol, a.args) for a in query.atoms]

        def extend(i: int) -> bool:
            if i == len(atoms):
                return True
            sym, args = atoms[i]
            bound = [(p, binding[v]) for p, v in enumerate(args) if v in binding]
            candidates = self._lookup(sym, *bound[0]) if bound else self.rel[sym]
            for t in candidates:
                new: dict[int, str] = {}
                if all(new.setdefault(v, c) == c and binding.get(v, c) == c for v, c in zip(args, t)):
                    added = [v for v in new if v not in binding]
                    binding.update(new)
                    if extend(i + 1):
                        return True
                    for v in added:
                        del binding[v]
            return False

        return extend(0)


@dataclass
class Workload:
    name: str
    schema: Schema
    relations: dict[str, list[tuple[str, ...]]]
    rounds: list[dict[str, list[ConjunctiveQuery]]]  # round r asks rounds[r % len(rounds)]
    repeats: bool  # True: every round asks the same queries
    facts: Relations = field(init=False)

    def __post_init__(self) -> None:
        self.facts = Relations(self.relations)

    @property
    def schema_text(self) -> str:
        return "".join(f"{n}/{ar}\n" for n, ar in self.schema.symbols)

    @property
    def db_text(self) -> str:
        return "".join(f"{s}({','.join(t)}).\n" for s, ts in self.relations.items() for t in ts)

    def stream(self) -> list[dict[str, list[str]]]:
        return [{t: [format_query(x) for x in r[t]] for t in TASKS} for r in self.rounds]

    def query_by_text(self) -> dict[str, ConjunctiveQuery]:
        return {format_query(x): x for r in self.rounds for t in TASKS for x in r[t]}

    # -- expectations, overridden per workload ---------------------------------

    def expected_count(self, query: ConjunctiveQuery) -> int:
        """|Q(D)|; 1 or 0 for a Boolean query."""
        raise NotImplementedError

    def expected_answers(self, query: ConjunctiveQuery) -> set[tuple[str, ...]] | None:
        """The full answer set when it is cheap to compute, else None."""
        return None

    def is_answer(self, query: ConjunctiveQuery, answer: tuple[str, ...]) -> bool:
        return self.facts.has_witness(query, answer)

    def index_problem(self, colors: int) -> str | None:
        """A property the built index must have, beyond its answers."""
        return None


# --- graph-symmetric ----------------------------------------------------------

GRAPH_SCHEMA = Schema.of(("E", 2), ("A", 1), ("B", 1))
TREES, TREE_HEIGHT = 2, 12
CYCLES, CYCLE_LEN = 10, 1000
PATH_LEN = 1500
RANDOM_VERTICES, RANDOM_EDGES = 150, 300

GRAPH_QUERIES = tuple(parse_query(text, GRAPH_SCHEMA) for text in (
    "Ans(x,y,z) :- E(x,y), E(y,z).",                   # path, full
    "Ans(w,x,y,z) :- E(w,x), E(x,y), E(y,z).",         # path, full
    "Ans(c,x,y,z) :- E(c,x), E(c,y), E(c,z).",         # star, full
    "Ans(x,y) :- A(x), E(x,y), B(y).",                 # labels, full
    "Ans(x) :- E(x,y), E(y,z), A(z).",                 # labels, projected
    "Ans(x,y) :- E(x,y), E(y,z), B(z).",               # labels, projected
    "Ans(x,y) :- E(x,x), E(x,y).",                     # loop, full
    "Ans(x) :- E(x,x), E(x,y), A(y).",                 # loop, projected
))


class GraphSymmetric(Workload):
    """Complete binary trees, labelled cycles, one long path and a small
    seeded random part with self-loops, as one symmetric edge relation."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        edges: set[tuple[str, str]] = set()
        labels: dict[str, set[str]] = {"A": set(), "B": set()}

        def link(a: str, b: str) -> None:
            edges.add((a, b))
            edges.add((b, a))

        for t in range(TREES):
            for i in range(2, 2 ** (TREE_HEIGHT + 1)):
                link(f"t{t}_{i // 2}", f"t{t}_{i}")
        for c in range(CYCLES):
            for i in range(CYCLE_LEN):
                link(f"c{c}_{i}", f"c{c}_{(i + 1) % CYCLE_LEN}")
                if i % 5 == 0:
                    labels["A"].add(f"c{c}_{i}")
                if i % 8 == 0:
                    labels["B"].add(f"c{c}_{i}")
        for i in range(PATH_LEN - 1):
            link(f"p{i}", f"p{i + 1}")
        for _ in range(RANDOM_EDGES):
            link(f"r{rng.randrange(RANDOM_VERTICES)}", f"r{rng.randrange(RANDOM_VERTICES)}")
        for i in range(RANDOM_VERTICES):
            v = f"r{i}"
            if rng.random() < 0.2:
                link(v, v)
            for lab in ("A", "B"):
                if rng.random() < 0.3:
                    labels[lab].add(v)
        relations = {"E": sorted(edges), "A": [(v,) for v in sorted(labels["A"])],
                     "B": [(v,) for v in sorted(labels["B"])]}
        rounds = [{
            "bool": [boolean(x) for x in GRAPH_QUERIES],
            "count": list(GRAPH_QUERIES),
            "enum": list(GRAPH_QUERIES),
        }]
        super().__init__("graph-symmetric", GRAPH_SCHEMA, relations, rounds, repeats=True)
        self.adj: dict[str, set[str]] = {v: set() for vs in labels.values() for v in vs}
        for a, b in edges:
            self.adj.setdefault(a, set()).add(b)
        self.lab = labels

    def _walks(self, k: int) -> int:
        """Number of walks with k edges (the full path query with k atoms)."""
        w = {v: 1 for v in self.adj}
        for _ in range(k):
            w = {v: sum(w[u] for u in ns) for v, ns in self.adj.items()}
        return sum(w.values())

    def expected_count(self, query: ConjunctiveQuery) -> int:
        if not query.head:
            headed = next(x for x in GRAPH_QUERIES if boolean(x) == query)
            return int(self.expected_count(headed) > 0)
        adj, lab = self.adj, self.lab
        loops = {v for v, ns in adj.items() if v in ns}
        near = {x: {v for v, ns in adj.items() if ns & lab[x]} for x in lab}
        i = GRAPH_QUERIES.index(query)
        if i == 0:
            return self._walks(2)
        if i == 1:
            return self._walks(3)
        if i == 2:
            return sum(len(ns) ** 3 for ns in adj.values())
        if i == 3:
            return sum(len(adj[x] & lab["B"]) for x in lab["A"])
        if i == 4:
            return len({x for x, ns in adj.items() if ns & near["A"]})
        if i == 5:
            return sum(len(adj[y]) for y in near["B"])
        if i == 6:
            return sum(len(adj[x]) for x in loops)
        return len(loops & near["A"])


# --- relational-replicas --------------------------------------------------------

BASES, COPIES, BASE_CONSTANTS, BASE_TUPLES, BASES_SEED = 4, 150, 8, 9, 1
SMALL_COPIES = 2  # the color count must not depend on the number of copies
REPLICA_ROUND = {"bool": 24, "count": 80, "enum": 16}
REPLICA_ROUNDS, QUERIES_SEED = 6, 1  # asked once per loaded index; a serving process loads again to go on
VARIABLE_NAMES = "abcdefghijklmnopqrstuvwxyz"


def replica_relations(bases: list, copies: int) -> dict[str, list[tuple[str, ...]]]:
    """Disjoint copies of each base; constant a of copy c of base b is
    renamed to `a_b_c`."""
    out: dict[str, list[tuple[str, ...]]] = {s: [] for s in generators.BINARY_SCHEMA.names}
    for b, base in enumerate(bases):
        for s in out:
            for t in base.rel(s):
                names = [base.display(x) for x in t]
                out[s].extend(tuple(f"{a}_{b}_{c}" for a in names) for c in range(copies))
    return out


class RelationalReplicas(Workload):
    """Many renamed copies of a few small random binary databases, asked a
    stream of distinct fc-ACQs: no query text repeats.

    The bases and the queries are drawn once, from BASES_SEED and
    QUERIES_SEED; the run's seed renames the query variables and shuffles
    the queries within each round.  Bases drawn from each seed doubled the
    seed-to-seed spread of the answer and op counts over 8 rounds (6%
    against 3%); the queries are drawn once for the same reason."""

    def __init__(self, seed: int):
        base_rng = random.Random(BASES_SEED)
        self.bases = [
            generators.random_relational_db(generators.BINARY_SCHEMA, BASE_CONSTANTS, BASE_TUPLES,
                                            base_rng.randrange(2**31))
            for _ in range(BASES)
        ]
        query_rng = random.Random(QUERIES_SEED)
        seen: set[ConjunctiveQuery] = set()  # bodies

        def fresh() -> ConjunctiveQuery:
            while True:
                g = generators.random_fc_query(generators.BINARY_SCHEMA, query_rng, max_atoms=4, max_vars=5)
                if g.head and boolean(g) not in seen:
                    seen.add(boolean(g))
                    return g

        rng = random.Random(seed)
        names = dict(zip((f"x{i}" for i in range(5)), rng.sample(VARIABLE_NAMES, 5)))

        def renamed(queries: list[ConjunctiveQuery]) -> list[ConjunctiveQuery]:
            out = [cq([names[query.var_name(v)] for v in query.head],
                      [(sym, [names[x] for x in args]) for sym, args in _named_atoms(query)])
                   for query in queries]
            rng.shuffle(out)
            return out

        rounds = []
        for _ in range(REPLICA_ROUNDS):
            counted = [fresh() for _ in range(REPLICA_ROUND["count"])]
            rounds.append({
                "bool": renamed([boolean(x) for x in counted[: REPLICA_ROUND["bool"]]]),
                "count": renamed(counted),
                "enum": renamed([fresh() for _ in range(REPLICA_ROUND["enum"])]),
            })
        relations = replica_relations(self.bases, COPIES)
        super().__init__("relational-replicas", generators.BINARY_SCHEMA, relations, rounds, repeats=False)
        self._base_answers: dict[ConjunctiveQuery, list[set[tuple[str, ...]]]] = {}

    def index_problem(self, colors: int) -> str | None:
        from colorindex import DatabaseIndex
        db = validate_database(self.schema, replica_relations(self.bases, SMALL_COPIES))
        few = DatabaseIndex.build(db).cindex.colors
        if colors != few:
            return f"{colors} colors with {COPIES} copies but {few} with {SMALL_COPIES}"
        return None

    def _per_base(self, comp: ConjunctiveQuery) -> list[set[tuple[str, ...]]]:
        if comp not in self._base_answers:
            self._base_answers[comp] = [
                {tuple(base.display(c) for c in t) for t in oracle.brute_answers(comp, base).answers.tuples}
                for base in self.bases
            ]
        return self._base_answers[comp]

    def expected_count(self, query: ConjunctiveQuery) -> int:
        # a connected query has copies x |answers on the base| answers per base
        total = 1
        for comp in _components(query):
            n = sum(COPIES * len(a) for a in self._per_base(comp))
            total *= n if comp.head else int(n > 0)
        return total

    def is_answer(self, query: ConjunctiveQuery, answer: tuple[str, ...]) -> bool:
        value = {query.var_name(v): x for v, x in zip(query.head, answer)}
        for comp in _components(query):
            per_base = self._per_base(comp)
            if not comp.head:
                if not any(per_base):
                    return False
                continue
            parts = [value[comp.var_name(v)].rsplit("_", 2) for v in comp.head]
            if any(len(p) != 3 for p in parts) or len({(b, c) for _, b, c in parts}) != 1:
                return False  # a connected query's answer lies in one copy
            if tuple(a for a, _, _ in parts) not in per_base[int(parts[0][1])]:
                return False
        return True


# --- ternary-random -----------------------------------------------------------

# n = 4: the coloring is still discrete and |D_col| still hundreds of times
# |D|, but the longest call takes about 0.2 s, against about 0.5 s at n = 6
TERNARY_CONSTANTS, TERNARY_DB_SEED = 4, 1
TERNARY_QUERIES = tuple(parse_query(text, generators.TERNARY_SCHEMA) for text in (
    "Ans(x) :- T(x,y,z), R(z,w).",
    "Ans(x,y) :- T(x,y,z), R(y,w), P(w).",
    "Ans(x,y,z) :- T(x,y,z).",
    "Ans(x,z) :- T(x,y,z), P(y).",
    "Ans(x) :- R(x,y), P(y).",
    "Ans(x,y) :- R(x,y).",
    "Ans(x) :- P(x).",
))
TERNARY_BOOL = (0, 4)  # Boolean variants asked, by position above
TERNARY_ENUM = (0, 3)
TERNARY_COUNT_REPEATS = 4  # counts are cheap: ask the set several times a round


class TernaryRandom(Workload):
    """`random_relational_db(TERNARY_SCHEMA, n, 2n)` at a small n: a discrete
    coloring and a color database far larger than the data.

    The database is drawn once, from TERNARY_DB_SEED; the run's seed renames
    its constants and shuffles its tuples.  A database drawn from each seed
    moves the op count of a fixed query by up to 1.46x from seed to seed,
    which would hide any change smaller than that."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        n = TERNARY_CONSTANTS
        drawn = generators.random_relational_db(generators.TERNARY_SCHEMA, n, 2 * n, TERNARY_DB_SEED)
        names = [f"k{i}" for i in range(n)]
        rng.shuffle(names)
        rename = {c: names[int(drawn.display(c)[1:])] for c in drawn.active_domain()}
        relations: dict[str, list[tuple[str, ...]]] = {}
        for s in generators.TERNARY_SCHEMA.names:
            relations[s] = [tuple(rename[c] for c in t) for t in drawn.rel(s)]
            rng.shuffle(relations[s])
        self.db = validate_database(generators.TERNARY_SCHEMA, relations)
        rounds = [{
            "bool": [boolean(TERNARY_QUERIES[i]) for i in TERNARY_BOOL],
            "count": list(TERNARY_QUERIES) * TERNARY_COUNT_REPEATS,
            "enum": [TERNARY_QUERIES[i] for i in TERNARY_ENUM],
        }]
        super().__init__("ternary-random", generators.TERNARY_SCHEMA, relations, rounds, repeats=True)
        self._answers: dict[ConjunctiveQuery, set[tuple[str, ...]]] = {}

    def expected_answers(self, query: ConjunctiveQuery) -> set[tuple[str, ...]]:
        if query not in self._answers:
            self._answers[query] = {
                tuple(self.db.display(c) for c in t)
                for t in oracle.brute_answers(query, self.db).answers.tuples
            }
        return self._answers[query]

    def expected_count(self, query: ConjunctiveQuery) -> int:
        return len(self.expected_answers(query))

    def is_answer(self, query: ConjunctiveQuery, answer: tuple[str, ...]) -> bool:
        return answer in self.expected_answers(query)


WORKLOADS = {
    "graph-symmetric": GraphSymmetric,
    "relational-replicas": RelationalReplicas,
    "ternary-random": TernaryRandom,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
