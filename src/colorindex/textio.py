"""Text formats: schema files (`R/2`), database files (`R(a,b).`), and the
rule syntax for queries (`Ans(x,y) :- R(x,y), S(y,z).`).

All formats are line oriented, whitespace-insensitive, and support `#`
comments.  Parse errors carry the offending line number.
"""
from __future__ import annotations

import re

from .errors import ArityMismatch, ParseError, UnknownSymbol
from .model import Atom, ConjunctiveQuery, ConstantPool, Database, Schema, validate_database

_SYMBOL_RE = re.compile(r"^([A-Za-z_]\w*)\s*/\s*(\d{1,9})$")  # int() refuses numbers of thousands of digits
_FACT_RE = re.compile(r"^([A-Za-z_]\w*)\s*\(([^()]*)\)\s*\.$")
_CONST_RE = re.compile(r"^[\w.\-]+$")
_VAR_RE = re.compile(r"^[A-Za-z]\w*$")
_RULE_RE = re.compile(r"^([A-Za-z_]\w*)\s*\(([^()]*)\)\s*:-\s*(.*?)\s*\.?$", re.S)
_BODY_ATOM_RE = re.compile(r"([A-Za-z_]\w*)\s*\(([^()]*)\)")


def read_text(path: str) -> str:
    """The text of a UTF-8 file.  Other bytes raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_schema(text: str) -> Schema:
    symbols: list[tuple[str, int]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _SYMBOL_RE.match(line)
        if not m:
            raise ParseError(f"expected `Name/arity`, got {line!r}", line=no)
        name, ar = m.group(1), int(m.group(2))
        if ar < 1:
            raise ParseError(f"arity of {name} must be >= 1", line=no)
        symbols.append((name, ar))
    if not symbols:
        raise ParseError("schema file declares no symbols")
    return Schema(tuple(symbols))


def parse_database(text: str, schema: Schema, pool: ConstantPool | None = None) -> Database:
    raw: dict[str, list[tuple[str, ...]]] = {name: [] for name in schema.names}
    for no, rawline in enumerate(text.splitlines(), start=1):
        line = _strip(rawline)
        if not line:
            continue
        m = _FACT_RE.match(line)
        if not m:
            raise ParseError(f"expected `R(a,b).`, got {line!r}", line=no)
        name, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
        ar = schema.arities.get(name)
        if ar is None:
            raise ParseError(f"unknown relation symbol {name!r}", line=no)
        if args == [""]:
            raise ParseError(f"empty argument list in {line!r}", line=no)
        for a in args:
            if not _CONST_RE.match(a):
                raise ParseError(f"bad constant token {a!r}", line=no)
        if len(args) != ar:
            raise ParseError(f"{name} expects arity {ar}, got {len(args)}", line=no)
        raw[name].append(tuple(args))
    return validate_database(schema, raw, pool)


def parse_query(text: str, schema: Schema) -> ConjunctiveQuery:
    """Parse rule syntax.  Arguments must be variables (identifiers starting
    with a letter); constants are not permitted in queries.  Body atoms are
    separated by exactly one comma each.  Variables are interned as `cq`
    interns them, head first, and each symbol and its arity are checked
    against the schema as the atom is read; a wrong arity is reported once
    the whole text has parsed."""
    body_lines = []
    for rawline in text.splitlines():
        line = _strip(rawline)
        if line:
            body_lines.append(line)
    source = " ".join(body_lines)
    m = _RULE_RE.match(source)
    if not m:
        raise ParseError(f"expected `Ans(...) :- atom, ...`, got {source!r}")
    head_args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    for v in head_args:
        if not _VAR_RE.match(v):
            raise ParseError(f"bad head variable {v!r}")
    ids: dict[str, int] = {}  # insertion order is id order
    head = tuple([ids.setdefault(v, len(ids)) for v in head_args])
    atoms: list[Atom] = []
    mismatch = None
    body = m.group(3)
    end = 0
    for am in _BODY_ATOM_RE.finditer(body):
        # exactly one comma between two atoms, and nothing before the first
        gap = body[end : am.start()].strip()
        if gap != ("," if atoms else ""):
            raise ParseError(f"body atoms are separated by exactly one comma: got {gap!r} before {am.group(0)!r}")
        end = am.end()
        sym, arglist = am.group(1), [a.strip() for a in am.group(2).split(",")]
        if arglist == [""]:
            raise ParseError(f"empty argument list in atom {sym}()")
        for v in arglist:
            if not _VAR_RE.match(v):
                raise ParseError(f"bad variable {v!r} in atom {sym} (constants are not permitted)")
        ar = schema.arities.get(sym)
        if ar is None:
            raise UnknownSymbol(f"unknown relation symbol {sym!r}")
        if ar != len(arglist) and mismatch is None:
            mismatch = ArityMismatch(f"{sym} expects {ar} arguments, got {len(arglist)}")
        atoms.append(Atom(sym, tuple([ids.setdefault(v, len(ids)) for v in arglist])))
    if not atoms:
        raise ParseError("query body has no atoms")
    leftover = body[end:].strip()
    if leftover:
        raise ParseError(f"trailing junk in query body: {leftover!r}")
    if mismatch is not None:
        raise mismatch
    return ConjunctiveQuery(head=head, atoms=tuple(atoms), var_names=tuple(ids))


def format_query(q: ConjunctiveQuery) -> str:
    head = ",".join(q.var_name(v) for v in q.head)
    body = ", ".join(f"{a.symbol}({','.join(q.var_name(v) for v in a.args)})" for a in q.atoms)
    return f"Ans({head}) :- {body}."
