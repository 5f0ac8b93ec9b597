"""Random edits to the schema, database, query and index texts never end the
CLI in a traceback: `index`, `query` and `check` exit 0, 2 (data error) or 3
(task error), and `bench` also 1 (usage error) for a size outside its
family's range, with a message on stderr when they fail."""
import contextlib
import functools
import io

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from colorindex.cli import _FAMILIES, main
from colorindex.pipeline import DatabaseIndex
from colorindex.textio import parse_database, parse_schema

from test_cli import MOVIE_DB, MOVIE_SCHEMA, Q47
from test_index_file import GRAPH_DB, GRAPH_QUERIES, GRAPH_SCHEMA

# what an edit inserts: the tokens of the four formats, and ids and headers
# that are out of place
SNIPPETS = ("(", ")", ",", ".", "/", ":-", "\t", "\n", " ", "-", "#", "[", "]", "0", "1", "7", "999999",
            "x", "E", "P", "L", "Ans(x)", "E(x,x).", "[CLASSES 1]", "colorindex-file v7")
CORPORA = (("movie", "binary"), ("movie", "full"), ("graph", "graph"))
# per bench schema, the graph schema and the ternary one of random-relational,
# a free-connex acyclic query and one that is not
BENCH_QUERIES = {
    "graph": (GRAPH_QUERIES["count"], "Ans(x,z) :- E(x,y), E(y,z).\n"),
    "ternary": ("Ans(x,y) :- T(x,y,z), R(z,x), P(y).\n", "Ans() :- R(x,y), R(y,z), R(z,x).\n"),
}


@functools.cache
def corpus(name: str, stage: str) -> dict[str, str]:
    schema, db, query = (MOVIE_SCHEMA, MOVIE_DB, Q47) if name == "movie" else (
        GRAPH_SCHEMA, GRAPH_DB, GRAPH_QUERIES["count"])
    index = DatabaseIndex.build(parse_database(db, parse_schema(schema)), stage=stage).save_text()
    return {"schema": schema, "db": db, "query": query, "index": index}


@st.composite
def edited(draw, text: str) -> str:
    """text after one to three edits: insert a snippet, delete up to eight
    characters, or repeat or drop a line."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "line")))
        if kind == "insert":
            text = text[:i] + draw(st.sampled_from(SNIPPETS)) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        else:
            start, end = text.rfind("\n", 0, i) + 1, text.find("\n", i) + 1 or len(text)
            text = text[:start] + text[start:end] * draw(st.sampled_from((0, 2))) + text[end:]
    return text


@st.composite
def inputs(draw):
    texts = dict(corpus(*draw(st.sampled_from(CORPORA))))
    for name in draw(st.sets(st.sampled_from(sorted(texts)), min_size=1)):
        texts[name] = draw(edited(texts[name]))
    return texts, draw(st.sampled_from(("bool", "count", "enum")))


@st.composite
def bench_inputs(draw):
    """A family, one or two sizes from 0 to 4, at times with one past the
    family's largest, and a query over the family's schema, edited or not."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        sizes.append(_FAMILIES[family][1] + 1)
    query = draw(st.sampled_from(BENCH_QUERIES["ternary" if family == "random-relational" else "graph"]))
    return family, sizes, draw(st.one_of(st.just(query), edited(query)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_exit_with_message(argv, codes):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, (argv[0], code, err.getvalue())
    assert code == 0 or err.getvalue().strip(), (argv[0], code)
    assert "Traceback" not in err.getvalue()


@seed(16)
@settings(max_examples=150, deadline=None)
@given(case=inputs())
def test_edited_inputs_end_in_an_exit_code_with_a_message(workdir, case):
    texts, task = case
    path = {}
    for name, text in texts.items():
        path[name] = str(workdir / name)
        (workdir / name).write_text(text, encoding="utf-8")
    runs = (
        ["index", "--db", path["db"], "--schema", path["schema"], "--out", str(workdir / "built.idx")],
        ["query", "--idx", path["index"], "--query", path["query"], "--task", task],
        ["check", "--db", path["db"], "--schema", path["schema"], "--query", path["query"], "--task", task],
    )
    for argv in runs:
        assert_exit_with_message(argv, (0, 2, 3))


@seed(17)
@settings(max_examples=100, deadline=None)
@given(case=bench_inputs())
def test_edited_bench_queries_end_in_an_exit_code_with_a_message(workdir, case):
    family, sizes, text = case
    (workdir / "bench.cq").write_text(text, encoding="utf-8")
    argv = ["bench", "--family", family, "--sizes", ",".join(map(str, sizes)), "--query", str(workdir / "bench.cq")]
    assert_exit_with_message(argv, (0, 1, 2, 3))
