"""The v11 index file: what it stores, and that a damaged file ends in a data
error (exit 2 with a message) rather than a traceback or a wrong answer."""
import hashlib
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from colorindex.cli import main
from colorindex.errors import ParseError
from colorindex.generators import TERNARY_SCHEMA, path_db, random_relational_db
from colorindex.index import SectionReader, build, read_sections, write_sections
from colorindex.pipeline import FORMAT_HEADER, DatabaseIndex
from colorindex.refinement import unstable_witness
from colorindex.textio import parse_database, parse_query, parse_schema

from test_cli import MOVIE_DB, MOVIE_SCHEMA, Q47

GRAPH_SCHEMA = "E/2\nP/1\n"
# a path a-b-c-d-e labeled in its middle, and a labeled vertex f with a loop
GRAPH_DB = "".join(f"E({x},{y}).\nE({y},{x}).\n" for x, y in zip("abcd", "bcde")) + "P(c).\nE(f,f).\nP(f).\n"
GRAPH_QUERIES = {"count": "Ans(x,y) :- E(x,y), E(y,z).\n", "enum": "Ans(x) :- E(x,y), P(y).\n"}

# tab-separated fields that hold ids, per section: a PROJ row is a tuple, an
# EDGE_COLORS row `labels, rev`, a typed CLASSES row `labels, keys` (edge
# colors), a VERTICES row `v, color, row`
ID_FIELDS = {
    "PROJ": (0,),
    "EDGE_COLORS": (1,),
    "CLASSES": (1,),
    "VERTICES": (0, 1, 2),
}
OUT_OF_RANGE = "999999"


def sections(lines: list[str]) -> dict[str, tuple[int, int]]:
    """Section name -> (header line index, row count)."""
    out = {}
    for i, line in enumerate(lines):
        if line.startswith("["):
            name, count = line[1:-1].split()
            out[name] = (i, int(count))
    return out


def header_mutants(lines):
    for name, (i, count) in sections(lines).items():
        yield f"[{name}] non-numeric count", lines[:i] + [f"[{name} x]"] + lines[i + 1:]
        yield f"[{name}] cut off", lines[: i + 1 + count // 2]


def id_mutants(lines):
    for name, (i, count) in sections(lines).items():
        rows = range(i + 1, i + 1 + count)
        for field in ID_FIELDS.get(name, ()):
            row = next((r for r in rows if len(lines[r].split("\t")) > field
                        and all(f.strip() for f in lines[r].split("\t"))), None)
            if row is None:
                continue
            fields = lines[row].split("\t")
            fields[field] = " ".join(fields[field].split()[:-1] + [OUT_OF_RANGE])
            yield f"[{name}] field {field} out of range", lines[:row] + ["\t".join(fields)] + lines[row + 1:]


def unstable_swap(lines):
    """Swap the colors of the first members of two classes of one label set
    so that the coloring is no longer stable.  A graph-stage row is put in
    the bucket order of the new colors, so that only the stability check can
    find the fault.  On a typed index the two members have different numbers
    of entries, and each class keeps its keys."""
    ci = DatabaseIndex.load_text("\n".join(lines) + "\n").cindex
    g, classes = ci.graph, ci.coloring.classes
    for a, b in itertools.combinations(range(len(classes)), 2):
        va, vb = classes[a][0], classes[b][0]
        col = {**ci.coloring.col, va: b, vb: a}
        swapped = tuple(tuple(v for v in g.vertices if col[v] == c) for c in range(len(classes)))
        if ci.edges is None:
            adj = {v: sorted(g.adj[v], key=lambda u: (col[u], u)) for v in g.vertices}
            unstable = unstable_witness(swapped, lambda v: [col[u] for u in adj[v]]) is not None
        else:
            adj = g.adj
            unstable = len(adj[va]) != len(adj[vb])
        if g.vl[va] == g.vl[vb] and unstable:
            i, _ = sections(lines)["VERTICES"]
            rows = [f"{v}\t{col[v]}\t{' '.join(map(str, adj[v]))}" for v in g.vertices]
            return lines[: i + 1] + rows + lines[i + 1 + len(rows):]
    raise AssertionError("no swap makes the coloring unstable")


@pytest.fixture(params=["graph", "binary", "movie"])
def saved_index(request, tmp_path, capsys):
    schema, db, queries = (
        (GRAPH_SCHEMA, GRAPH_DB, GRAPH_QUERIES) if request.param == "graph"
        else (MOVIE_SCHEMA, MOVIE_DB, {"count": Q47, "enum": Q47})
    )
    (tmp_path / "s").write_text(schema)
    (tmp_path / "d").write_text(db)
    for task, text in queries.items():
        (tmp_path / f"{task}.cq").write_text(text)
    out = tmp_path / "x.idx"
    stage = {"graph": [], "binary": ["--stage", "binary"], "movie": ["--stage", "full"]}[request.param]
    assert main(["index", "--db", str(tmp_path / "d"), "--schema", str(tmp_path / "s"), "--out", str(out), *stage]) == 0
    capsys.readouterr()
    return tmp_path, out.read_text().splitlines()


def query(tmp_path, lines, task, capsys):
    path = tmp_path / "mutant.idx"
    path.write_text("\n".join(lines) + "\n")
    code = main(["query", "--idx", str(path), "--query", str(tmp_path / f"{task}.cq"), "--task", task])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_saved_index_stores_only_graph_and_classes(saved_index):
    # a binary- or full-stage file holds the value rows and the edge colors,
    # not bin2graph's gadget vertices
    _, lines = saved_index
    assert lines[0] == FORMAT_HEADER == "colorindex-file v11"
    stage = lines[sections(lines)["META"][0] + 1].split("\t")[1]
    typed = [] if stage == "graph" else ["EDGE_COLORS"]
    assert list(sections(lines)) == ["META", "SCHEMA", "CONSTANTS", "PROJ", *typed, "CLASSES", "VERTICES"]
    i, count = sections(lines)["VERTICES"]  # v, its color, its row
    vertex_rows = [row.split("\t") for row in lines[i + 1 : i + 1 + count]]
    assert {len(row) for row in vertex_rows} == {3}
    j, classes = sections(lines)["CLASSES"]  # its labels; on a typed index, its keys
    assert {len(row.split("\t")) for row in lines[j + 1 : j + 1 + classes]} == {1 if stage == "graph" else 2}
    assert {int(c) for _, c, _ in vertex_rows} == set(range(classes))
    # a full-stage PROJ row is the tuple of the vertex of its place
    assert sections(lines)["PROJ"][1] == (count if stage == "full" else 0)
    if stage == "binary":  # one row per constant of the movie database, and no gadget rows
        assert count == sections(lines)["CONSTANTS"][1]


def test_unchanged_file_answers(saved_index, capsys):
    tmp_path, lines = saved_index
    for task in ("count", "enum"):
        code, out, err = query(tmp_path, lines, task, capsys)
        assert code == 0 and out and not err


def test_every_mutation_is_a_data_error(saved_index, capsys):
    tmp_path, lines = saved_index
    ids = list(id_mutants(lines))
    fields = {" ".join(what.split()[:3]) for what, _ in ids}
    assert fields >= {"[VERTICES] field 0", "[VERTICES] field 1", "[VERTICES] field 2"}
    if "EDGE_COLORS" in sections(lines):  # the keys of the classes, and the reverses of the edge colors
        assert fields >= {"[CLASSES] field 1", "[EDGE_COLORS] field 1"}
    mutants = list(header_mutants(lines)) + ids
    mutants.append(("unstable coloring", unstable_swap(lines)))
    mutants.append(("v1 header", ["colorindex-file v1"] + lines[1:]))
    mutants.append(("v2 header", ["colorindex-file v2"] + lines[1:]))
    mutants.append(("v3 header", ["colorindex-file v3"] + lines[1:]))
    mutants.append(("v4 header", ["colorindex-file v4"] + lines[1:]))
    mutants.append(("v5 header", ["colorindex-file v5"] + lines[1:]))
    mutants.append(("v6 header", ["colorindex-file v6"] + lines[1:]))
    mutants.append(("v7 header", ["colorindex-file v7"] + lines[1:]))
    mutants.append(("v8 header", ["colorindex-file v8"] + lines[1:]))
    mutants.append(("v9 header", ["colorindex-file v9"] + lines[1:]))
    mutants.append(("v10 header", ["colorindex-file v10"] + lines[1:]))
    missed = []
    for (what, mutant), task in itertools.product(mutants, ("count", "enum")):
        code, out, err = query(tmp_path, mutant, task, capsys)
        if code != 2 or not err.startswith("data error:"):
            missed.append(f"{what} ({task}): exit {code}, stdout {out!r}, stderr {err!r}")
    assert not missed, "\n".join(missed)


def test_mutation_messages(saved_index, capsys):
    tmp_path, lines = saved_index
    _, _, err = query(tmp_path, unstable_swap(lines), "count", capsys)
    assert "unstable coloring" in err
    for old in ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10"):
        _, _, err = query(tmp_path, [f"colorindex-file {old}"] + lines[1:], "count", capsys)
        assert f"'colorindex-file {old}'" in err and "rebuilt with `colorindex index`" in err


# the full-stage v8 file of R(a): built under the earlier arb2bin, with a
# tuple node and its E facts
V8_FULL = ("colorindex-file v8\n[META 3]\nstage\tfull\nsource_size\t1\ngraph_size\t20\n[SCHEMA 1]\nR\t1\n"
           "[CONSTANTS 1]\na\n[PROJ 2]\n1\t\n2\t0\n[EDGE_COLORS 3]\nE1_1\t1\n-\t0\nF1_1,L\t2\n[VERTICES 3]\n"
           "0\tU_R\t2\n1\tA0\t\n2\tA1\t0 2\n[CLASSES 3]\n0\t0\n1\t\n2\t1 2\n")


def test_full_stage_v8_file_is_refused_by_its_header():
    # its arb2bin encoding is gone: the header refuses it, and under the
    # current header its keyed [PROJ] rows, then its labels
    with pytest.raises(ParseError, match="found 'colorindex-file v8'.*rebuilt with `colorindex index`"):
        DatabaseIndex.load_text(V8_FULL)
    current = V8_FULL.replace("colorindex-file v8", FORMAT_HEADER)
    with pytest.raises(ParseError, match="\\[PROJ\\] rows have 1 tab-separated fields, not 2"):
        DatabaseIndex.load_text(current)
    with pytest.raises(ParseError, match="undeclared label.*'E1_1'"):
        DatabaseIndex.load_text(current.replace("[PROJ 2]\n1\t\n2\t0\n", "[PROJ 0]\n"))


def _read(lines):
    return read_sections(SectionReader(lines), 0, (("L",), "L", "E"))


def test_loader_rejects_inconsistent_graphs():
    lines = write_sections(build(path_db(3)))
    assert lines == ["[CLASSES 2]", "-", "-", "[VERTICES 3]", "0\t0\t1", "1\t1\t0 2", "2\t0\t1"]
    c0, v0 = 1, 4
    v0_id, color, row = lines[v0].split("\t")
    cases = {
        "without its reverse": lines[:v0] + [f"{v0_id}\t{color}\t{row} 2"] + lines[v0 + 1:],
        "undeclared label": lines[:c0] + ["Nope"] + lines[c0 + 1:],
        "not in bucket order": lines[:v0 + 1] + [lines[v0 + 1].replace("0 2", "2 0")] + lines[v0 + 2:],
        "listed twice": lines[:v0] + [f"{v0_id}\t{color}\t{row} {row}",
                                      lines[v0 + 1].replace("0 2", "0 0 2")] + lines[v0 + 2:],
        "not a vertex": lines[:v0] + [f"{v0_id}\t{color}\t{row} 7"] + lines[v0 + 1:],
        "vertex 0 has color 2, which \\[CLASSES\\] does not have": lines[:v0] + [f"{v0_id}\t2\t{row}"] + lines[v0 + 1:],
        "color 2 of \\[CLASSES\\] has no vertex": ["[CLASSES 3]", "-", "-", "-"] + lines[3:],
        "bad number": lines[:v0] + [f"v\t{color}\t{row}"] + lines[v0 + 1:],
    }
    for message, mutant in cases.items():
        with pytest.raises(ParseError, match=message):
            _read(mutant)


def test_loader_rejects_schema_and_label_mismatches():
    text = DatabaseIndex.build(path_db(3)).save_text()
    cases = {
        "after the last section": text + "extra\n",
        "arity 0": text.replace("E\t2", "E\t0"),
        "duplicate symbol": text.replace("[SCHEMA 1]\nE\t2", "[SCHEMA 2]\nE\t2\nE\t2"),
        "cannot be indexed in the graph stage": text.replace("E\t2", "E\t3"),
        "lists a constant twice": text.replace("v1\n", "v0\n"),
        "not a constant id": text.replace("[CONSTANTS 3]\nv0\nv1\nv2", "[CONSTANTS 2]\nv0\nv1"),
    }
    # the labels come from [SCHEMA]: a schema that does not declare the
    # labels of the rows, or that makes the loop label another name
    labeled = DatabaseIndex.build(parse_database(GRAPH_DB, parse_schema(GRAPH_SCHEMA))).save_text()
    schema = "[SCHEMA 2]\nE\t2\nP\t1\n"
    assert schema in labeled and "\nL,P\n[VERTICES 6]\n" in labeled and "\n5\t3\t5\n" in labeled
    cases["undeclared label"] = labeled.replace(schema, "[SCHEMA 2]\nE\t2\nL\t1\n")
    cases["disagrees with the loops"] = labeled.replace(schema, "[SCHEMA 3]\nE\t2\nP\t1\nL\t1\n")
    # an arity above the bound is refused before arb2bin's schema for it is made
    ternary = DatabaseIndex.build(random_relational_db(TERNARY_SCHEMA, 4, 6, seed=1)).save_text()
    assert "[SCHEMA 3]\nT\t3\n" in ternary
    cases["T has arity 1000000; arities must be from 1 to 6"] = ternary.replace("T\t3", "T\t1000000")
    for message, mutant in cases.items():
        assert mutant not in (text, labeled)
        with pytest.raises(ParseError, match=message):
            DatabaseIndex.load_text(mutant)


def _replace_rows(text, name, edit):
    """text with the rows of section [name] replaced by edit(rows)."""
    lines = text.splitlines()
    i, count = sections(lines)[name]
    rows = edit(lines[i + 1 : i + 1 + count])
    return "\n".join(lines[:i] + [f"[{name} {len(rows)}]"] + rows + lines[i + 1 + count :]) + "\n"


def test_loader_checks_value_vertices(movie_db):
    # a value vertex is its source id: a constant id on the binary stage,
    # and on the full stage a node whose A<i> label makes it a projection
    # node of arity i
    binary = DatabaseIndex.build(movie_db, stage="binary").save_text()
    full = DatabaseIndex.build(movie_db, stage="full").save_text()
    proj = full.splitlines()[sections(full.splitlines())["PROJ"][0] + 1 :][:2]
    assert proj == ["0 1", "0 2"]  # the projection nodes of P(PS,LM) and P(PS,MM)
    cases = {
        "binary-stage value vertex is not a constant id": _replace_rows(binary, "CONSTANTS", lambda rows: rows[:-1]),
        # one row per value vertex on the full stage, none on the others
        "\\[PROJ\\] has \\d+ rows for \\d+ projection nodes": [
            _replace_rows(full, "PROJ", lambda rows: rows[1:]),
            _replace_rows(full, "PROJ", lambda rows: rows + ["0 0"]),
            _replace_rows(binary, "PROJ", lambda rows: ["0"]),
        ],
        "\\[PROJ\\] lists a tuple twice": _replace_rows(full, "PROJ", lambda rows: [rows[1]] + rows[1:]),
        "arity of its A<i> label": _replace_rows(full, "PROJ", lambda rows: rows[:-1] + [rows[-1] + " 0"]),
        "not a constant": _replace_rows(full, "PROJ", lambda rows: rows[:-1] + [rows[-1][:-1] + OUT_OF_RANGE]),
    }
    for message, mutants in cases.items():
        for mutant in mutants if isinstance(mutants, list) else [mutants]:
            assert mutant not in (binary, full)
            with pytest.raises(ParseError, match=message):
                DatabaseIndex.load_text(mutant)


# sha1 prefixes of the saved seed-1 benchmark inputs: a change to the file
# format, or to any vertex id or color class, must update them on purpose
PINNED = {
    "relational-replicas": "9f6fc904e037",
    "ternary-random": "1a07ec3d3419",
    "graph-symmetric": "36d49101e705",
}
# sha256 prefixes of the seed-1 benchmark query streams with their database
# text: a change to `cq`, `parse_query` or `format_query` that alters the
# benchmark's queries fails here
STREAMS = {
    "relational-replicas": "48d5a90ba152427a",
    "ternary-random": "6e7ddc5d1fa50511",
    "graph-symmetric": "2073eca1cdbfc498",
}
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def saved_bench_input(monkeypatch):
    """The saved index text of a benchmark workload's seed-1 input; its
    `workload` gives the workload itself."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)

    def saved(name: str) -> str:
        wl = saved.workload(name)
        return DatabaseIndex.build(parse_database(wl.db_text, parse_schema(wl.schema_text))).save_text()
    saved.workload = lambda name: workloads.make(name, 1)
    return saved


def test_saved_benchmark_inputs_are_pinned(saved_bench_input):
    for name, prefix in PINNED.items():
        text = saved_bench_input(name)
        assert hashlib.sha1(text.encode()).hexdigest()[:12] == prefix, name
        wl = saved_bench_input.workload(name)
        stream = hashlib.sha256((json.dumps(wl.stream()) + wl.db_text).encode()).hexdigest()[:16]
        assert stream == STREAMS[name], name


def test_a_proj_tuple_listed_twice_is_a_data_error(saved_bench_input, tmp_path, capsys):
    # ternary-random's nodes 14 and 15 are the projections (k0) and (k2),
    # both with P: giving node 14 the tuple of node 15 would make
    # `Ans(x) :- P(x).` enumerate k2 twice and count it twice
    lines = saved_bench_input("ternary-random").splitlines()
    i, _ = sections(lines)["PROJ"]
    assert lines[i + 15 : i + 17] == ["3", "1"]
    mutant = lines[: i + 15] + ["1"] + lines[i + 16 :]
    with pytest.raises(ParseError, match="\\[PROJ\\] lists a tuple twice"):
        DatabaseIndex.load_text("\n".join(mutant) + "\n")
    (tmp_path / "count.cq").write_text("Ans(x) :- P(x).\n")
    code, out, err = query(tmp_path, mutant, "count", capsys)
    assert (code, out) == (2, "") and err.startswith("data error:") and "lists a tuple twice" in err


def set_semantics_queries(schema):
    """Per relation symbol: the query text of all its tuples, and of each of
    its columns."""
    for name, arity in schema.symbols:
        xs = [f"x{i}" for i in range(arity)]
        atom = f"{name}({','.join(xs)})"
        for head in [xs] + ([[x] for x in xs] if arity > 1 else []):
            yield f"Ans({','.join(head)}) :- {atom}."


def field_edits(lines, rng, count):
    """count edits of one tab-separated field of one row each, in the
    sections that hold the index (not META, SCHEMA or CONSTANTS): the field
    becomes that of another row of its section, or one of its tokens is
    dropped, repeated, moved by one or replaced by a token of the same field
    of another row."""
    rows = {r: range(i + 1, i + 1 + n) for name, (i, n) in sections(lines).items()
            if name in ("PROJ", "EDGE_COLORS", "CLASSES", "VERTICES") for r in range(i + 1, i + 1 + n)}
    cells = [(r, f) for r in rows for f in range(len(lines[r].split("\t")))]
    for _ in range(count):
        r, f = rng.choice(cells)
        fields = lines[r].split("\t")
        others = [row[f] for row in (lines[o].split("\t") for o in rows[r]) if len(row) > f]
        tokens = fields[f].split()
        kind = rng.choice(("copy", "swap", "drop", "repeat", "step") if tokens else ("copy", "swap"))
        j = rng.randrange(len(tokens)) if tokens else 0
        if kind == "copy":
            fields[f] = rng.choice(others)
        else:
            if kind == "swap":
                tokens[j : j + 1] = [rng.choice([t for o in others for t in o.split()] or ["0"])]
            elif kind == "drop":
                del tokens[j]
            elif kind == "repeat":
                tokens.insert(j, tokens[j])
            elif tokens[j].isdecimal():
                tokens[j] = str(int(tokens[j]) + rng.choice((-1, 1)))
            fields[f] = " ".join(tokens)
        yield lines[:r] + ["\t".join(fields)] + lines[r + 1 :]


def test_single_field_edits_keep_set_semantics(saved_index):
    # an edited file that still loads answers every query without repeats,
    # and counts what it enumerates
    _, lines = saved_index
    loaded, broken = 0, []
    for mutant in field_edits(lines, random.Random(1), 400):
        try:
            idx = DatabaseIndex.load_text("\n".join(mutant) + "\n")
        except ParseError:
            continue
        loaded += 1
        for text in set_semantics_queries(idx.schema):
            q = parse_query(text, idx.schema)
            answers = list(idx.enumerate(q))
            if not len(set(answers)) == len(answers) == idx.count(q):
                broken.append(f"{text} {len(answers)} answers, {len(set(answers))} distinct, count {idx.count(q)}")
    assert loaded and not broken, broken
