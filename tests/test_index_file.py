"""The v4 index file: what it stores, and that a damaged file ends in a data
error (exit 2 with a message) rather than a traceback or a wrong answer."""
import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from colorindex.cli import main
from colorindex.errors import ParseError
from colorindex.generators import path_db
from colorindex.index import SectionReader, build, read_sections, write_sections
from colorindex.pipeline import FORMAT_HEADER, DatabaseIndex
from colorindex.refinement import Coloring, is_stable, refines_labels
from colorindex.textio import parse_database, parse_schema

from test_cli import MOVIE_DB, MOVIE_SCHEMA, Q47

GRAPH_SCHEMA = "E/2\nP/1\n"
# a path a-b-c-d-e labeled in its middle, and a labeled vertex f with a loop
GRAPH_DB = "".join(f"E({x},{y}).\nE({y},{x}).\n" for x, y in zip("abcd", "bcde")) + "P(c).\nE(f,f).\nP(f).\n"
GRAPH_QUERIES = {"count": "Ans(x,y) :- E(x,y), E(y,z).\n", "enum": "Ans(x) :- E(x,y), P(y).\n"}

# tab-separated fields that hold ids, per section
ID_FIELDS = {
    "PROJ": (0, 1),
    "VERTICES": (0, 2),
    "CLASSES": (0,),
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
            row = next((r for r in rows if all(f.strip() for f in lines[r].split("\t"))), None)
            if row is None:
                continue
            fields = lines[row].split("\t")
            fields[field] = " ".join(fields[field].split()[:-1] + [OUT_OF_RANGE])
            yield f"[{name}] field {field} out of range", lines[:row] + ["\t".join(fields)] + lines[row + 1:]


def unstable_swap(lines):
    """Swap the first members of two same-labeled classes so that the
    coloring is no longer stable."""
    idx = DatabaseIndex.load_text("\n".join(lines) + "\n")
    g, classes = idx.cindex.graph, [list(m) for m in idx.cindex.coloring.classes]
    for a, b in itertools.combinations(range(len(classes)), 2):
        swapped = [list(m) for m in classes]
        swapped[a][0], swapped[b][0] = swapped[b][0], swapped[a][0]
        swapped = tuple(tuple(sorted(m)) for m in swapped)
        coloring = Coloring(col={v: c for c, m in enumerate(swapped) for v in m}, classes=swapped)
        if refines_labels(g, coloring) and not is_stable(g, coloring)[0]:
            i, _ = sections(lines)["CLASSES"]
            rows = [" ".join(map(str, m)) for m in swapped]
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
    _, lines = saved_index
    assert lines[0] == FORMAT_HEADER == "colorindex-file v4"
    assert list(sections(lines)) == ["META", "SCHEMA", "CONSTANTS", "PROJ", "LABELS", "VERTICES", "CLASSES"]


def test_unchanged_file_answers(saved_index, capsys):
    tmp_path, lines = saved_index
    for task in ("count", "enum"):
        code, out, err = query(tmp_path, lines, task, capsys)
        assert code == 0 and out and not err


def test_every_mutation_is_a_data_error(saved_index, capsys):
    tmp_path, lines = saved_index
    ids = list(id_mutants(lines))
    assert {what.split()[0] for what, _ in ids} >= {"[VERTICES]", "[CLASSES]"}
    mutants = list(header_mutants(lines)) + ids
    mutants.append(("unstable coloring", unstable_swap(lines)))
    mutants.append(("v1 header", ["colorindex-file v1"] + lines[1:]))
    mutants.append(("v2 header", ["colorindex-file v2"] + lines[1:]))
    mutants.append(("v3 header", ["colorindex-file v3"] + lines[1:]))
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
    for old in ("v1", "v2", "v3"):
        _, _, err = query(tmp_path, [f"colorindex-file {old}"] + lines[1:], "count", capsys)
        assert f"'colorindex-file {old}'" in err and "rebuilt with `colorindex index`" in err


def _read(lines):
    return read_sections(SectionReader(lines), 0)


def test_loader_rejects_inconsistent_graphs():
    lines = write_sections(build(path_db(3)))
    rows = {name: i for name, (i, _) in sections(lines).items()}
    v0 = rows["VERTICES"] + 1
    v0_id, labels, nbrs = lines[v0].split("\t")
    cases = {
        "without its reverse": lines[:v0] + [f"{v0_id}\t{labels}\t{nbrs} 2"] + lines[v0 + 1:],
        "undeclared label": lines[:v0] + [f"{v0_id}\tNope\t{nbrs}"] + lines[v0 + 1:],
        "unsorted": lines[:v0 + 1] + [lines[v0 + 1].replace("0 2", "2 0")] + lines[v0 + 2:],
        "listed twice": lines[:v0] + [f"{v0_id}\t{labels}\t{nbrs} {nbrs}",
                                      lines[v0 + 1].replace("0 2", "0 0 2")] + lines[v0 + 2:],
        "not a vertex": lines[:v0] + [f"{v0_id}\t{labels}\t{nbrs} 7"] + lines[v0 + 1:],
        "does not partition": lines[:-1] + [lines[-1] + " 1"],
        "bad number": lines[:v0] + [f"v\t{labels}\t{nbrs}"] + lines[v0 + 1:],
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
        "names a label twice": text.replace("[LABELS 2]\nL\tE\nL", "[LABELS 3]\nL\tE\nL\nL"),
        "does not match": text.replace("[LABELS 2]\nL\tE\nL", "[LABELS 2]\nK\tE\nK"),
        "not a constant id": text.replace("[CONSTANTS 3]\nv0\nv1\nv2", "[CONSTANTS 2]\nv0\nv1"),
    }
    for message, mutant in cases.items():
        assert mutant != text
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
    cases = {
        "binary-stage value vertex is not a constant id": _replace_rows(binary, "CONSTANTS", lambda rows: rows[:-1]),
        "does not list exactly": [
            _replace_rows(full, "PROJ", lambda rows: rows[1:]),
            # arb2bin numbers the tuple nodes first: node 0 is R(...), not a projection
            _replace_rows(full, "PROJ", lambda rows: ["0\t" + rows[0].split("\t")[1]] + rows[1:]),
        ],
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
    "relational-replicas": "6159aac8a07e",
    "ternary-random": "094fc350f141",
    "graph-symmetric": "2ab8f07319f6",
}
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_saved_benchmark_inputs_are_pinned(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    for name, prefix in PINNED.items():
        wl = workloads.make(name, 1)
        text = DatabaseIndex.build(parse_database(wl.db_text, parse_schema(wl.schema_text))).save_text()
        assert hashlib.sha1(text.encode()).hexdigest()[:12] == prefix, name
