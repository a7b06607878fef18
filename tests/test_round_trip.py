"""Writing a trace and reading it back gives the same trace.

For seeded ``random_trace`` traces (world and VCS actors, obstacles,
traffic controllers, perceived outlines, elevations, pitch and roll
rates), ``parse_trace(write_trace(t))`` is ``t`` in both layouts, with no
finding: the same records, also by ``repr``, so that float bits, signed
zeros and field types count.  The readers build the slotted records in
bulk and put them on the clock by masks; this is the property both must
keep.
"""

import collections
import itertools

import numpy as np
import pytest

from vistakit.model import VcsPosition
from vistakit.trace_io import parse_trace, write_trace

from conftest import random_trace

TRACES = 200


def _tables(trace):
    """Every entity table of a trace, entities in id order."""
    return [sorted(getattr(trace, name).items())
            for name in ("actors", "obstacles", "controllers")]


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_parse_inverts_write(tmp_path, layout):
    rng = np.random.default_rng(15)
    seen = collections.Counter()
    for i in range(TRACES):
        trace = random_trace(rng)
        back, rep = parse_trace(write_trace(trace, tmp_path / str(i),
                                            layout))
        assert rep.findings == [] and back == trace, i
        assert repr((back.vut, _tables(back))) == \
            repr((trace.vut, _tables(trace))), i
        actors = list(itertools.chain(*trace.actors.values()))
        seen.update(
            vcs=any(isinstance(r.pos, VcsPosition) for r in actors),
            perceived=any(r.bbox_perceived for r in actors),
            obstacles=bool(trace.obstacles),
            controllers=bool(trace.controllers),
            elevation=trace.vut[0].pos.elev is not None)
    assert min(seen.values()) >= TRACES // 10, seen
