"""Virtual-versus-track comparison for paired runs of the same test case.

The two recordings rarely share a clock, so the speed profiles are slid
against each other first; the offset with the lowest mean squared speed
error wins.  Offsets are expressed so that

    reference_time = virtual_time + offset

Afterwards both traces are resampled onto one grid and compared channel
by channel.  Position error is measured in a local metric frame anchored
at the reference trace's first fix, heading error is wrap-aware.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap
from .frames import LocalFrame
from .model import Trace

ALIGN_WINDOW = 5.0
ALIGN_STEP = 0.01
MIN_OVERLAP_FRACTION = 0.8

# The offset search: every _STRIDE-th sample enters an offset's lower
# bound, the bounds are computed _CHUNK_ELEMENTS samples at a time (a
# 256 KiB block per array), and _MARGIN covers the summation order that
# alone tells a bound from its exact score.
_STRIDE = 32
_CHUNK_ELEMENTS = 1 << 15
_MARGIN = 1e-9


@dataclass(frozen=True)
class FidelityTolerances:
    position_rmse: float = 0.5
    speed_rmse: float = 0.5
    heading_rmse: float = 5.0


@dataclass(frozen=True)
class FidelityReport:
    offset: float
    sample_count: int
    position_rmse: float
    speed_rmse: float
    heading_rmse: float
    max_position_deviation: float
    position_ok: bool
    speed_ok: bool
    heading_ok: bool

    @property
    def passed(self) -> bool:
        return self.position_ok and self.speed_ok and self.heading_ok

    @property
    def recalibration_needed(self) -> bool:
        return not self.passed

    def to_dict(self) -> dict:
        return {
            "offset_s": self.offset,
            "sample_count": self.sample_count,
            "position_rmse_m": self.position_rmse,
            "speed_rmse_mps": self.speed_rmse,
            "heading_rmse_deg": self.heading_rmse,
            "max_position_deviation_m": self.max_position_deviation,
            "position_ok": self.position_ok,
            "speed_ok": self.speed_ok,
            "heading_ok": self.heading_ok,
            "passed": self.passed,
            "recalibration_needed": self.recalibration_needed,
        }


def _vut(trace: Trace, name) -> np.ndarray:
    return trace.channels("vut").columns[name]


def _channels(trace: Trace):
    return _vut(trace, "time"), _vut(trace, "speed")


def _rate(trace: Trace) -> float:
    if trace.declared_frequency > 0:
        return trace.declared_frequency
    t = _vut(trace, "time")
    if len(t) < 2 or t[-1] <= t[0]:
        raise InsufficientOverlap("trace too short to establish a rate")
    return (len(t) - 1) / float(t[-1] - t[0])


def align(virtual: Trace, reference: Trace, window: float = ALIGN_WINDOW,
          step: float = ALIGN_STEP) -> float:
    """Clock offset between the recordings, from their speed profiles.

    Searches offsets in ``[-window, window]`` at ``step`` resolution and
    returns the one whose speed profiles agree best in the mean squared
    sense.  A vanishing quadratic penalty on the offset keeps the result
    deterministic when a plateau of offsets scores identically, as
    happens with constant-speed stretches.  The search is exact but
    scores only the offsets that a lower bound cannot rule out, and
    costs nothing for the part of the window where the recordings
    cannot overlap long enough.
    """
    return _best(*_channels(virtual), *_channels(reference), window,
                 step)[0]


def _best(tv, vv, tr, vr, window: float, step: float) -> tuple:
    """(offset, score) of the best admissible offset: the first, in
    offset order, of the lowest score.

    Offsets are scored exactly in ascending order of their lower bound,
    until the next bound exceeds the best score by more than the
    relative ``_MARGIN``; every offset left unscored is then strictly
    worse, so ties resolve as a full scan resolves them.
    """
    offsets, lo, hi = _admissible(tv, tr, window, step)
    if not len(offsets):
        raise InsufficientOverlap(
            f"no admissible clock offset within +/-{window} s")
    bounds = _bounds(tv, vv, tr, vr, offsets, lo, hi, step)
    best, scored = math.inf, {}
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] > best * (1.0 + _MARGIN):
            break
        scored[j] = _score(tv, vv, tr, vr, float(offsets[j]), lo[j], hi[j],
                           step)
        best = min(best, scored[j])
    first = min(j for j, score in scored.items() if score == best)
    return float(offsets[first]), best


def _admissible(tv, tr, window: float, step: float) -> tuple:
    """(offsets, lo, hi) of each offset ``k * step`` in the window whose
    overlap ``[lo, hi]`` (in virtual time) is long enough, in offset
    order.

    Only offsets in ``[tr0 - tvN + min_overlap, trN - tv0 - min_overlap]``
    can overlap that long, so ``k`` is clamped to that range, one step
    wider on each side for rounding, before the exact test.
    """
    dur_v = tv[-1] - tv[0]
    dur_r = tr[-1] - tr[0]
    if min(dur_v, dur_r) <= 0:
        raise InsufficientOverlap("trace too short to align")
    min_overlap = max(1.0, 0.25 * min(dur_v, dur_r))

    n = int(round(window / step))
    first = max(-n, math.ceil((tr[0] - tv[-1] + min_overlap) / step) - 1)
    last = min(n, math.floor((tr[-1] - tv[0] - min_overlap) / step) + 1)
    offsets = np.arange(first, last + 1) * step
    lo = np.maximum(tv[0], tr[0] - offsets)
    hi = np.minimum(tv[-1], tr[-1] - offsets)
    keep = hi - lo >= min_overlap
    return offsets[keep], lo[keep], hi[keep]


def _bounds(tv, vv, tr, vr, offsets, lo, hi, step: float) -> np.ndarray:
    """A lower bound of each offset's score: the squared speed
    differences at every ``_STRIDE``-th sample of the offset's own grid,
    divided by the grid's full sample count, plus the penalty.

    Every term is one of the exact score's, so only the order of
    summation tells the two apart.  Rows are batched about
    ``_CHUNK_ELEMENTS`` samples at a time.
    """
    width = int((hi - lo).max() / step) // _STRIDE + 2
    rows = max(1, _CHUNK_ELEMENTS // width)
    bounds = np.empty(len(offsets))
    for a in range(0, len(offsets), rows):
        s = slice(a, a + rows)
        ts, kept, counts = _strided_grid(lo[s], hi[s], step)
        dv = (np.interp(ts, tv, vv)
              - np.interp(ts + offsets[s, None], tr, vr))
        bounds[s] = np.where(kept, dv * dv, 0.0).sum(axis=1) / counts
    return bounds + 1e-9 * offsets * offsets


def _strided_grid(lo, hi, step: float) -> tuple:
    """Every ``_STRIDE``-th time of each row's ``np.arange(lo, hi +
    1e-12, step)``, padded past the row's end; whether each is in the
    row; and each row's sample count.

    arange fills ``lo + i * ((lo + step) - lo)``, so these are its very
    values.
    """
    counts = np.ceil((hi + 1e-12 - lo) / step)
    picks = np.arange(0, int(counts.max()), _STRIDE)
    ts = lo[:, None] + picks * ((lo + step) - lo)[:, None]
    return ts, picks < counts[:, None], counts


def _score(tv, vv, tr, vr, offset: float, lo, hi, step: float) -> float:
    """Mean squared speed difference over the overlap, plus the penalty."""
    ts = np.arange(lo, hi + 1e-12, step)
    dv = np.interp(ts, tv, vv) - np.interp(ts + offset, tr, vr)
    return float(np.mean(dv * dv)) + 1e-9 * offset * offset


def _heading_unwrapped(trace: Trace) -> np.ndarray:
    h = np.radians(_vut(trace, "heading"))
    return np.degrees(np.unwrap(h))


def compare(virtual: Trace, reference: Trace,
            tolerances: FidelityTolerances | None = None,
            window: float = ALIGN_WINDOW,
            offset: float | None = None) -> FidelityReport:
    """Channel-wise error metrics between a virtual and a reference run.

    Raises :class:`InsufficientOverlap` when less than 80 percent of the
    shorter recording is covered after alignment.
    """
    tol = tolerances or FidelityTolerances()
    if offset is None:
        offset = align(virtual, reference, window=window)

    tv, vv = _channels(virtual)
    tr, vr = _channels(reference)
    lo = max(tv[0], tr[0] - offset)
    hi = min(tv[-1], tr[-1] - offset)
    shorter = min(tv[-1] - tv[0], tr[-1] - tr[0])
    if shorter <= 0 or (hi - lo) < MIN_OVERLAP_FRACTION * shorter:
        raise InsufficientOverlap(
            f"aligned overlap {max(hi - lo, 0.0):.3f} s is below "
            f"{MIN_OVERLAP_FRACTION:.0%} of the shorter recording")

    rate = min(max(_rate(virtual), _rate(reference)), 100.0)
    count = int(math.floor((hi - lo) * rate)) + 1
    ts = lo + np.arange(count) / rate

    frame = LocalFrame.at(reference.channels("vut").position(0))
    xv, yv = frame.to_local_all(virtual.channels("vut"))
    xr, yr = frame.to_local_all(reference.channels("vut"))

    dx = np.interp(ts, tv, xv) - np.interp(ts + offset, tr, xr)
    dy = np.interp(ts, tv, yv) - np.interp(ts + offset, tr, yr)
    pos_sq = dx * dx + dy * dy
    position_rmse = float(np.sqrt(pos_sq.mean()))
    max_dev = float(np.sqrt(pos_sq.max()))

    dv = np.interp(ts, tv, vv) - np.interp(ts + offset, tr, vr)
    speed_rmse = float(np.sqrt(np.mean(dv * dv)))

    hv = np.interp(ts, tv, _heading_unwrapped(virtual))
    hr = np.interp(ts + offset, tr, _heading_unwrapped(reference))
    dh = (hv - hr + 180.0) % 360.0 - 180.0
    heading_rmse = float(np.sqrt(np.mean(dh * dh)))

    return FidelityReport(
        offset=offset,
        sample_count=count,
        position_rmse=position_rmse,
        speed_rmse=speed_rmse,
        heading_rmse=heading_rmse,
        max_position_deviation=max_dev,
        position_ok=position_rmse <= tol.position_rmse,
        speed_ok=speed_rmse <= tol.speed_rmse,
        heading_ok=heading_rmse <= tol.heading_rmse,
    )


def select_recalibration_subset(testcase_ids, fraction: float = 0.2,
                                seed: int = 0) -> tuple:
    """Deterministic sample of test cases to re-run on the track.

    Always returns at least one id; with the default fraction that is a
    fifth of the suite, rounded up.
    """
    ids = sorted(set(testcase_ids))
    if not ids:
        raise ValueError("no test case ids to sample from")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = math.ceil(fraction * len(ids))
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(ids, k)))
