"""Block and piece boundaries change nothing.

The readers cut a file into blocks of ``trace_io._BLOCK`` characters and
run the column pass on each block as it is cut; the writers format and
write pieces of ``trace_io._ROWS`` rows.  With blocks of a few dozen
characters, about one row each, and pieces of one row, every parse must
give the same findings and the same trace as with the defaults, and
every write the same bytes.
"""

import shutil

import numpy as np
import pytest

from vistakit import synth, trace_io
from vistakit.trace_io import parse_trace, write_distributed, write_flat

import test_io_golden
from conftest import random_trace
from test_reader_fuzz import MUTANTS, _rich_trace, mutate

WRITERS = {"flat": write_flat, "distributed": write_distributed}


def outcome(path):
    """The rendered findings and the repr of the trace of one parse."""
    trace, rep = parse_trace(path)
    return [f.render() for f in rep.findings], repr(trace)


def written(trace, root, layout) -> dict:
    """{file name: bytes} of one write."""
    path = WRITERS[layout](trace, root)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    return {p.name: p.read_bytes() for p in files}


def small(monkeypatch, call, *args):
    """call(*args) with blocks of about one row and pieces of one."""
    with monkeypatch.context() as m:
        m.setattr(trace_io, "_BLOCK", 48)
        m.setattr(trace_io, "_ROWS", 1)
        return call(*args)


def test_golden_corpus_parses_alike_in_small_blocks(tmp_path, monkeypatch):
    for i, (name, files) in enumerate(test_io_golden.CORPUS.items()):
        root = tmp_path / str(i)
        test_io_golden.outcome(root, files)         # writes the input
        target = root / next(iter(files)).split("/")[0]
        assert small(monkeypatch, outcome, target) == outcome(target), \
            name


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_mutants_parse_alike_in_small_blocks(tmp_path, monkeypatch, layout):
    """The reader fuzz test's mutants, a refused block anywhere in a file
    among them."""
    valid = WRITERS[layout](_rich_trace(), tmp_path / "valid")
    files = [valid] if valid.is_file() else sorted(valid.iterdir())
    rng = np.random.default_rng(20232)
    for i in range(MUTANTS):
        target = tmp_path / f"m{i}" / valid.name
        if valid.is_file():
            target.parent.mkdir()
        else:
            shutil.copytree(valid, target)
        victim = files[int(rng.integers(len(files)))]
        path = target / victim.name if target.is_dir() else target
        path.write_bytes(mutate(victim.read_bytes(), rng, b',|<>\x00"\r\n'))
        assert small(monkeypatch, outcome, target) == outcome(target), (
            i, victim.name)


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_100hz_run_writes_and_parses_alike(tmp_path, monkeypatch, layout):
    run = synth.synthesize(synth.ScenarioSpec(sample_rate=100.0), 2)
    files = written(run, tmp_path / "default", layout)
    assert small(monkeypatch, written, run, tmp_path / "pieces",
                 layout) == files
    path = WRITERS[layout](run, tmp_path / "read")
    got = small(monkeypatch, outcome, path)
    assert got == outcome(path)
    assert got == ([], repr(run))


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_random_traces_write_alike_in_one_row_pieces(tmp_path, monkeypatch,
                                                     layout):
    """Traces with VCS actors, overlays, controllers, gaps in entity steps
    and outline objects shared across rows."""
    for seed in range(10):
        trace = random_trace(np.random.default_rng(seed))
        assert small(monkeypatch, written, trace, tmp_path / f"p{seed}",
                     layout) \
            == written(trace, tmp_path / f"d{seed}", layout), seed


@pytest.mark.parametrize("late, refused", [
    (b'"0.3"', False), (b"\xff", False), (b"\xff", True)])
def test_a_block_refused_late_restarts_the_file(tmp_path, monkeypatch, late,
                                                refused):
    """A cell to quote or a bad byte in the last row: the rows before it
    are cut and read block by block, then the whole file is read again by
    the csv module, and only the findings of that read are kept.  A
    header refused for a missing column leaves its rows unread, but they
    are still cut."""
    run = synth.synthesize(synth.ScenarioSpec(), 2)
    path = write_flat(run, tmp_path)
    header, *rows, end = path.read_bytes().split(b"\n")
    if refused:
        header = header.replace(b"VUT_speed", b"VUT_sped")
    rows = [row + b",red" for row in rows[:-1]] + [rows[-1] + b"," + late]
    path.write_bytes(b"\n".join([header + b",Colour", *rows, end]))
    loads, load = [], trace_io._load
    monkeypatch.setattr(trace_io, "_load",
                        lambda *args: loads.append(args) or load(*args))
    findings, trace = small(monkeypatch, outcome, path)
    assert len(loads) == 1
    assert (findings, trace) == outcome(path)
    if late == b"\xff":       # that finding alone, not the header's
        assert len(findings) == 1 and findings[0].startswith(
            f"ERROR BadValue {path.name} file is not UTF-8 CSV text")
        assert trace == "None"
    else:                       # the header's findings once
        assert findings == [f"WARNING UnknownColumn {path.name}:1 column "
                            "'Colour' is not in the schema [Colour]"]
        assert trace == repr(run)
