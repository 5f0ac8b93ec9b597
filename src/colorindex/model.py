"""Canonical representations of schemas, databases, and conjunctive queries.

Constants are interned to dense non-negative integers so that relations can
be stored and compared as plain integer tuples.  Variables are interned per
query, independently of constants.  An atom is a named tuple, so a query
is built, hashed and compared over plain tuples; `DatabaseIndex` keys its
compiled queries by the query itself.  A schema is looked up one way, by
`Schema.arities`.  All structures are immutable after construction and
safe for concurrent readers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .errors import ArityMismatch, UnknownSymbol

# The widest relation a schema may declare.  `arb2bin` makes a node and F
# facts for the sub-selections of every tuple, so the full stage grows
# exponentially in the arity: two facts of arity 6 index in 0.01 s and 17 MB
# of peak RSS (one process on a 2-vCPU VM), where ordered sub-selections
# with tuple nodes took 2.3 s and 217 MB.
MAX_ARITY = 6


class ConstantPool:
    """Bijective interning of constant display strings to dense ids."""

    def __init__(self) -> None:
        self._by_name: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        cid = self._by_name.get(name)
        if cid is None:
            cid = len(self._names)
            self._by_name[name] = cid
            self._names.append(name)
        return cid

    def display(self, cid: int) -> str:
        return self._names[cid]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return list(self._names)


@dataclass(frozen=True)
class Schema:
    """A finite, non-empty set of relation symbols with fixed arities from 1
    to MAX_ARITY."""

    symbols: tuple[tuple[str, int], ...]
    arities: dict[str, int] = field(init=False, repr=False, compare=False)  # name -> arity

    def __post_init__(self) -> None:
        object.__setattr__(self, "arities", dict(self.symbols))
        if len(self.arities) != len(self.symbols):
            raise UnknownSymbol(f"duplicate symbol names in schema: {[n for n, _ in self.symbols]}")
        for name, ar in self.symbols:
            if not 1 <= ar <= MAX_ARITY:
                raise ArityMismatch(f"symbol {name} has arity {ar}; arities must be from 1 to {MAX_ARITY}")

    @staticmethod
    def of(*symbols: tuple[str, int]) -> "Schema":
        return Schema(tuple(symbols))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)

    @property
    def max_arity(self) -> int:
        return max(ar for _, ar in self.symbols)

    def unary_symbols(self) -> tuple[str, ...]:
        return tuple(n for n, ar in self.symbols if ar == 1)

    def binary_symbols(self) -> tuple[str, ...]:
        return tuple(n for n, ar in self.symbols if ar == 2)

    def is_binary(self) -> bool:
        return all(ar <= 2 for _, ar in self.symbols)

    def is_graph_schema(self) -> bool:
        """Exactly one binary symbol, all remaining symbols unary."""
        return len(self.binary_symbols()) == 1 and all(ar <= 2 for _, ar in self.symbols)

    def edge_symbol(self) -> str:
        if not self.is_graph_schema():
            raise UnknownSymbol("schema is not a node-labeled-graph schema")
        return self.binary_symbols()[0]


@dataclass(frozen=True)
class Database:
    """Relations over interned constants; duplicate-free within each relation.
    A database without a pool, such as a reduction's output, shows each
    constant by its id."""

    schema: Schema
    relations: dict[str, tuple[tuple[int, ...], ...]]
    pool: ConstantPool | None = None
    dropped_duplicates: int = 0

    def __post_init__(self) -> None:
        for name in self.schema.names:
            self.relations.setdefault(name, ())

    def rel(self, name: str) -> tuple[tuple[int, ...], ...]:
        if name not in self.schema.arities:
            raise UnknownSymbol(f"unknown relation symbol {name!r}")
        return self.relations[name]

    @property
    def size(self) -> int:
        return sum(len(t) for t in self.relations.values())

    def active_domain(self) -> frozenset[int]:
        return frozenset(chain.from_iterable(chain.from_iterable(self.relations.values())))

    def display(self, cid: int) -> str:
        return str(cid) if self.pool is None else self.pool.display(cid)


def validate_database(
    schema: Schema,
    raw: dict[str, list[tuple[str, ...]]],
    pool: ConstantPool | None = None,
) -> Database:
    """Intern and deduplicate raw named tuple lists into a Database.

    The dropped-duplicate count is recorded on the result.  Unknown relation
    names and tuples of the wrong length are rejected.
    """
    pool = pool if pool is not None else ConstantPool()
    relations: dict[str, tuple[tuple[int, ...], ...]] = {}
    dropped = 0
    for name, ar in schema.symbols:
        rows = raw.get(name, [])
        seen: set[tuple[int, ...]] = set()
        out: list[tuple[int, ...]] = []
        for row in rows:
            if len(row) != ar:
                raise ArityMismatch(f"{name} expects arity {ar}, got tuple of length {len(row)}: {row}")
            tup = tuple(pool.intern(str(c)) for c in row)
            if tup in seen:
                dropped += 1
            else:
                seen.add(tup)
                out.append(tup)
        relations[name] = tuple(out)
    for name in raw:
        if name not in schema.arities:
            raise UnknownSymbol(f"relation {name!r} not declared in schema")
    return Database(schema=schema, relations=relations, pool=pool, dropped_duplicates=dropped)


class Atom(NamedTuple):
    symbol: str
    args: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def var_set(self) -> frozenset[int]:
        return frozenset(self.args)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """head variables (pairwise distinct) plus a non-empty atom list.

    Variables are dense per-query ids; ``var_names`` maps them back to the
    source identifiers.
    """

    head: tuple[int, ...]
    atoms: tuple[Atom, ...]
    var_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ArityMismatch("query must have at least one atom")
        if len(set(self.head)) != len(self.head):
            raise ArityMismatch("head variables must be pairwise distinct")
        body_vars = {v for a in self.atoms for v in a.args}
        for v in self.head:
            if v not in body_vars:
                raise UnknownSymbol(f"head variable {self.var_names[v]!r} does not occur in any atom")

    def vars(self) -> frozenset[int]:
        return frozenset(v for a in self.atoms for v in a.args)

    def free(self) -> frozenset[int]:
        return frozenset(self.head)

    def quant(self) -> frozenset[int]:
        return self.vars() - self.free()

    def is_boolean(self) -> bool:
        return not self.head

    def is_full(self) -> bool:
        return not self.quant()

    def var_name(self, v: int) -> str:
        return self.var_names[v]


def cq(head: list[str], atoms: list[tuple[str, list[str]]]) -> ConjunctiveQuery:
    """Build a query from variable names, interning variables in first-occurrence
    order (head first, then atom arguments left to right).  The symbols are
    not checked against a schema: `textio.parse_query` checks them as it
    reads, and `DatabaseIndex.compile` checks every query it serves."""
    ids: dict[str, int] = {}  # insertion order is id order
    head_ids = tuple([ids.setdefault(v, len(ids)) for v in head])
    atom_objs = tuple([Atom(sym, tuple([ids.setdefault(v, len(ids)) for v in args])) for sym, args in atoms])
    return ConjunctiveQuery(head=head_ids, atoms=atom_objs, var_names=tuple(ids))


@dataclass(frozen=True)
class AnswerSet:
    """Duplicate-free set of k-tuples of constant ids (set semantics)."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        for t in self.tuples:
            if len(t) != self.arity:
                raise ArityMismatch(f"answer tuple {t} has arity {len(t)}, expected {self.arity}")

    def __len__(self) -> int:
        return len(self.tuples)

    def sorted(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)
