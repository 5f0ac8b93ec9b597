import pytest

from colorindex.errors import ParseError, UnknownSymbol
from colorindex.model import Schema
from colorindex.textio import format_query, parse_database, parse_query, parse_schema


def test_parse_schema_with_comments():
    s = parse_schema("# header\nR/2\n\n  S / 1  # inline\n")
    assert s.symbols == (("R", 2), ("S", 1))


def test_parse_schema_bad_line_number():
    with pytest.raises(ParseError) as exc:
        parse_schema("R/2\nnonsense\n")
    assert exc.value.line == 2


def test_parse_schema_arity_of_many_digits():
    with pytest.raises(ParseError, match="expected `Name/arity`") as exc:
        parse_schema("R/2\nT/" + "9" * 5000 + "\n")
    assert exc.value.line == 2


def test_parse_database_roundtrip():
    schema = parse_schema("R/2\nU/1")
    db = parse_database("R(a,b).\n# c\nU(a).\nR(a,b).\n", schema)
    assert db.size == 2
    assert db.dropped_duplicates == 1


def test_parse_database_malformed_line():
    schema = parse_schema("R/2")
    with pytest.raises(ParseError) as exc:
        parse_database("R(a,b).\nR(a,\n", schema)
    assert exc.value.line == 2


def test_parse_database_wrong_arity():
    schema = parse_schema("R/2")
    with pytest.raises(ParseError):
        parse_database("R(a).\n", schema)


def test_parse_query_basic():
    schema = Schema.of(("R", 2), ("S", 2))
    q = parse_query("Ans(x,y) :- R(x,y), S(y,z).", schema)
    assert [q.var_name(v) for v in q.head] == ["x", "y"]
    assert len(q.atoms) == 2
    assert format_query(q) == "Ans(x,y) :- R(x,y), S(y,z)."


def test_parse_query_boolean():
    schema = Schema.of(("R", 2))
    q = parse_query("Ans() :- R(x,y).", schema)
    assert q.is_boolean()


def test_parse_query_rejects_constants():
    schema = Schema.of(("R", 2))
    with pytest.raises(ParseError):
        parse_query("Ans(x) :- R(x,18m).", schema)


@pytest.mark.parametrize("body,message", [
    ("R(x,y),, P(x)", "exactly one comma: got ',,'"),
    ("R(x,y) ,\n , P(x)", "exactly one comma: got ', ,'"),
    ("R(x,y)P(x)", "exactly one comma: got ''"),
    ("R(x,y) P(x)", "exactly one comma: got ''"),
    (", R(x,y), P(x)", "exactly one comma: got ','"),
    ("junk R(x,y)", "exactly one comma: got 'junk'"),
    ("R(x,y), P(x),", "trailing junk in query body: ','"),
    ("R(x,y), P(x) junk", "trailing junk in query body: 'junk'"),
    (",", "no atoms"),
])
def test_parse_query_requires_one_comma_between_atoms(body, message):
    schema = Schema.of(("R", 2), ("P", 1))
    with pytest.raises(ParseError, match=message):
        parse_query(f"Ans(x) :- {body}.", schema)


def test_parse_query_accepts_spaces_and_line_breaks_around_commas():
    schema = Schema.of(("R", 2), ("P", 1))
    q = parse_query("Ans(x) :-\n  R(x,y) ,\n  P(x)\n  .", schema)
    assert format_query(q) == "Ans(x) :- R(x,y), P(x)."


def test_parse_query_unknown_symbol():
    schema = Schema.of(("R", 2))
    with pytest.raises(UnknownSymbol):
        parse_query("Ans(x) :- T(x,y).", schema)
