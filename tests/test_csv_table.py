"""The CSV tables without the csv module, against the csv module.

``trace_io._table`` cuts a clean file at its newlines and commas and
hands any other to the csv module (``_load`` + ``_by_column``), which
stays the reference: the two must give the same header, cells and
findings on any bytes.  ``trace_io._write`` joins the cells of a clean
table with commas, and must write the bytes ``csv.writer`` writes.
"""

import csv
import io
import itertools

import numpy as np
import pytest

from vistakit import synth, trace_io
from vistakit.integrity import IntegrityReport

from test_reader_fuzz import INSERTS, MUTANTS, _rich_trace, mutate


def reference(path):
    """(table, findings) of a file read by the csv module."""
    rep = IntegrityReport()
    rows = trace_io._load(path, path.name, rep)
    got = None if rows is None else (rows[0], *trace_io._by_column(
        rows[1:], len(rows[0])))
    return got, [f.render() for f in rep.findings]


def table(path):
    """(table, findings) of a file read by ``_table``, its blocks joined."""
    rep = IntegrityReport()
    got = trace_io._table(path, path.name, rep, lambda header, blocks,
                          warnings: (header, trace_io._whole(blocks),
                                     warnings))
    return got, [f.render() for f in rep.findings]


@pytest.fixture
def loads(monkeypatch):
    """The names of the files the csv module has read so far."""
    calls = []
    load = trace_io._load

    def counted(*args):
        calls.append(args[1])
        return load(*args)
    monkeypatch.setattr(trace_io, "_load", counted)
    return calls


LIMIT = csv.field_size_limit()
CASES = {
    "clean": b"a,b\n1,2\n3,4\n",
    "spaces": b" a , b\n 1,2 \n",
    "crlf": b"a,b\r\n1,2\r\n3,4\r\n",
    "lone cr": b"a,b\n1,2\r3,4\n",
    "bom": b"\xef\xbb\xbfa,b\n1,2\n",
    "bom only": b"\xef\xbb\xbf",
    "empty": b"",
    "newline only": b"\n",
    "nul": b"a,b\n1\x00,2\n",
    "quoted": b'a,b\n"1,5",2\n"3\n4",""\n',
    "quoted, as wide": b'a,b\n"1",2\n"""",x"y\n',
    "blank middle line": b"a,b\n1,2\n\n3,4\n",
    "blank last line": b"a,b\n1,2\n\n",
    "no final newline": b"a,b\n1,2\n3,4",
    "header only": b"a,b\n",
    "header only, no newline": b"a,b",
    "one-column header": b"a\n1\n2\n",
    "empty header": b"\n1,2\n",
    "short row": b"a,b,c\n1,2,3\n4,5\n",
    "long row": b"a,b\n1,2\n3,4,5\n",
    "long row, line ends in step": b"a,b\n1,2,3,4,5\n6,7\n",
    "other line breaks": "a,b\n1\x0b\x0c\x1c\x1d\x1e\x85  ,2\n"
                         .encode(),
    "line at the field limit": b"a,b\n" + b"x" * (LIMIT - 2) + b",1\n",
    "line over the field limit": b"a,b\n" + b"x" * (LIMIT - 1) + b",1\n",
    "cell at the field limit": b"a,b\n" + b"x" * LIMIT + b",1\n",
    "cell over the field limit": b"a,b\n" + b"x" * (LIMIT + 1) + b",1\n",
    "long line, short cells": b"a,b\n" + b"x" * (LIMIT // 2 + 1) + b","
                              + b"y" * (LIMIT // 2 + 1) + b"\n",
    "many blocks": b"a,b\n" + b"1.25,2.5\n" * 20000 + b"3,4",
    "long row in a late block": b"a,b\n" + b"1.25,2.5\n" * 20000
                                + b"1,2,3\n",
    "quote in a late block": b"a,b\n" + b"1.25,2.5\n" * 20000 + b'"3",4\n',
    "bad byte early": b"a,b\n1,\xff\n",
    "bad byte late": b"a,b\n" + b"1.25,2.5\n" * 1200 + b"\xff,1\n",
}


@pytest.mark.parametrize("name", list(CASES))
def test_table_matches_csv_module(tmp_path, name):
    path = tmp_path / "t.csv"
    path.write_bytes(CASES[name])
    assert table(path) == reference(path)


def test_clean_files_skip_the_csv_module(tmp_path, loads):
    clean = {"clean", "spaces", "bom", "no final newline", "header only",
             "header only, no newline", "other line breaks",
             "line at the field limit", "many blocks"}
    for k, name in enumerate(CASES):
        path = tmp_path / f"{k}.csv"
        path.write_bytes(CASES[name])
        loads.clear()
        table(path)
        assert (not loads) == (name in clean), name


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_table_matches_csv_module_on_mutants(tmp_path, loads, layout):
    """The reader fuzz test's mutants, with quotes and line breaks among
    the inserted bytes."""
    write = trace_io.write_flat if layout == "flat" \
        else trace_io.write_distributed
    valid = write(_rich_trace(), tmp_path / "valid")
    files = [valid] if valid.is_file() else sorted(valid.iterdir())
    rng = np.random.default_rng(20231)
    path = tmp_path / "m.csv"
    fallbacks = 0
    for i in range(MUTANTS):
        victim = files[int(rng.integers(len(files)))]
        path.write_bytes(mutate(victim.read_bytes(), rng,
                                INSERTS + b'"\r\n'))
        loads.clear()
        got = table(path)
        fallbacks += len(loads)
        assert got == reference(path), (i, victim.name)
    # Both readers ran.
    assert 0 < fallbacks < MUTANTS


CELLS = ("", "0", "1.5", "-inf", "autonomous", " x ", "é", "日本", ",", '"',
         "\r", "\n", "a,b", 'say "hi"', "1\r\n2", "\t")


def csv_bytes(header, columns) -> bytes:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(zip(*columns))
    return out.getvalue().encode("utf-8")


def test_write_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "t.csv"
    long = [[str(k) for k in range(3 * trace_io._ROWS)] for _ in range(3)]
    long[1][2 * trace_io._ROWS + 5] = "a,b"     # one piece quoted
    tables = [(["a"], [[""]]), (["a"], [["", "1"]]), (["a", "b"], [[], []]),
              (["a", "b"], [["", ""], ["", ""]]), (["a,b", "c"], [[], []]),
              ([], []), (["a", "b", "c"], long)]
    for _ in range(400):
        width, n = int(rng.integers(1, 5)), int(rng.integers(0, 6))
        # Mostly clean cells, so that both writers run.
        pool = CELLS if rng.random() < 0.5 else CELLS[:8]
        pick = lambda k: [pool[j] for j in rng.integers(len(pool), size=k)]
        tables.append((pick(width), [pick(n) for _ in range(width)]))
    plain = 0
    for header, columns in tables:
        trace_io._write(path, header, columns, {})
        assert path.read_bytes() == csv_bytes(header, columns), \
            (header, columns)
        plain += len(header) > 1 and not any(
            c in cell for cell in itertools.chain(header, *columns)
            for c in ',"\r\n')
    assert 0 < plain < len(tables)


def test_written_runs_round_trip_without_the_csv_module(tmp_path,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv module used on a clean table")

    class Refusing:
        writerow = writerows = refuse
    monkeypatch.setattr(trace_io.csv, "reader", refuse)
    monkeypatch.setattr(trace_io.csv, "writer", lambda *a, **k: Refusing())
    run = synth.synthesize_runs(synth.ScenarioSpec(), 2, count=1)[0]
    for write in (trace_io.write_flat, trace_io.write_distributed):
        trace, rep = trace_io.parse_trace(write(run, tmp_path))
        assert rep.ok and trace is not None
