"""Seeded byte mutations of valid trace files.

Every mutant is parsed twice: as ``parse_trace`` reads it (column pass
first) and with every row read by the row decoder.  The readers promise
that malformed content is a finding, so neither parse may raise (only an
I/O problem may, as OSError), and the two must agree on the findings and
the trace.
"""

import shutil

import numpy as np
import pytest

from vistakit.trace_io import write_distributed, write_flat

from conftest import random_trace
from test_column_pass import outcome

# The byte inserted by an "insert" mutation: the delimiters of the CSV
# and position-array grammars, and NUL.
INSERTS = b",|<>\x00"
MUTANTS = 120


def _rich_trace():
    """The first random trace with every entity table and an overlay."""
    for seed in range(100):
        t = random_trace(np.random.default_rng(seed))
        if t.actors and t.obstacles and t.controllers and any(
                r.bbox_perceived for recs in t.actors.values() for r in recs):
            return t
    raise AssertionError("no random trace has every table")


def mutate(data: bytes, rng, inserts=INSERTS) -> bytes:
    """1-3 mutations: delete, duplicate, flip a bit or insert a byte of
    ``inserts``."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(len(data)))
        op = int(rng.integers(4))
        if op == 0:
            del data[k]
        elif op == 1:
            data.insert(k, data[k])
        elif op == 2:
            data[k] ^= 1 << int(rng.integers(8))
        else:
            data.insert(k, inserts[int(rng.integers(len(inserts)))])
    return bytes(data)


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_mutated_files_give_findings_not_exceptions(tmp_path, monkeypatch,
                                                    layout):
    trace = _rich_trace()
    write = write_flat if layout == "flat" else write_distributed
    valid = write(trace, tmp_path / "valid")
    files = [valid] if valid.is_file() else sorted(valid.iterdir())
    rng = np.random.default_rng(20231)
    failed = 0
    for i in range(MUTANTS):
        target = tmp_path / f"m{i}" / valid.name
        if valid.is_file():
            target.parent.mkdir()
        else:
            shutil.copytree(valid, target)
        victim = files[int(rng.integers(len(files)))]
        path = target / victim.name if target.is_dir() else target
        path.write_bytes(mutate(victim.read_bytes(), rng))
        try:
            got = outcome(target)
        except OSError:
            continue
        assert got == outcome(target, monkeypatch), (i, victim.name)
        failed += got[1] == "None"
    # The mutants are not all harmless: many must be refused.
    assert MUTANTS // 4 < failed < MUTANTS
