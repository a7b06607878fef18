"""The trace readers and writers hold a block or a piece, not the file.

A parse runs the column pass on each block of rows as it is cut, and a
write formats each piece of rows as it writes it, so the heap a parse
needs beyond the trace it returns, and a write beyond the trace it
reads, stay near a block's or a piece's worth however long the file.
Measured with tracemalloc on case 2 at 100 Hz: the stock scene, with its
one parked vehicle, and the same scene with five more parked vehicles,
each a clone keeping one outline object as a parsed parked vehicle does.
"""

import dataclasses
import gc
import tracemalloc

import pytest

from vistakit import synth
from vistakit.frames import LocalFrame
from vistakit.model import BoundingShape
from vistakit.trace_io import parse_trace, write_trace

MB = 1e6


def _parked_clones(scene, count):
    """The scene with count clones of its parked vehicle, 10 m apart."""
    frame = LocalFrame.at(synth.ScenarioSpec().origin)

    def shifted(pos, de, dn):
        e, n = frame.to_local(pos)
        return frame.from_local(e + de, n + dn)
    (_, stock), = scene.actors.items()
    actors = dict(scene.actors)
    for j in range(1, count + 1):
        de, dn = 3.0 + j, -10.0 * j
        box = BoundingShape("wgs84", tuple(
            shifted(v, de, dn) for v in stock[0].bbox_true.vertices))
        pos = shifted(stock[0].pos, de, dn)
        actors[f"TSV-{j + 1:02d}"] = tuple(dataclasses.replace(
            r, actor_id=f"TSV-{j + 1:02d}", pos=pos, bbox_true=box)
            for r in stock)
    return dataclasses.replace(scene, actors=actors)


@pytest.fixture(scope="module")
def scenes():
    stock = synth.synthesize(synth.ScenarioSpec(sample_rate=100.0), 2)
    return {1: stock, 6: _parked_clones(stock, 5)}


def _peak(call, *args):
    """(result, bytes): the call's result, and how far the heap's peak
    during the call rose above what it holds after it, result included."""
    gc.collect()
    tracemalloc.start()
    try:
        got = call(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak - current


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_memory_of_a_write_and_a_parse(scenes, tmp_path, layout):
    for actors, scene in scenes.items():
        path, write = _peak(write_trace, scene, tmp_path / str(actors),
                            layout)
        (trace, rep), parse = _peak(parse_trace, path)
        assert rep.ok and trace == scene
        if actors == 6:
            assert write <= 4 * MB, write
            assert parse <= 5 * MB, parse
        elif layout == "flat":
            assert parse <= 1.6 * MB, parse
