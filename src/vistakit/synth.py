"""Synthetic overtake-scenario traces with clearances known by design.

One scenario family: the vehicle under test drives north along a straight
lane, passes a stationary vehicle parked against the left kerb, and
returns to the lane centre.  Three stock cases differ only in how much
room the manoeuvre leaves and whether the vehicle stops first:

* case 1: a creeping pass that leaves 0.21 m,
* case 2: brake to a stop behind the parked vehicle, wait, then pull
  out leaving 0.52 m,
* case 3: a compliant pass that leaves 1.53 m.

The lateral offset follows a quintic ease (zero slope and curvature at
both ends), and the offset is held flat with a heading of exactly zero
through the stretch where the two bodies overlap longitudinally, so the
minimum lateral clearance equals the configured target to within float
rounding.  Speed changes are half-cosine pulses sized so the strongest
deceleration hits the configured peak exactly.  All channels (travelled
distance, speed, accelerations, yaw rate, heading) come from the same
closed-form plan, so they agree with the sampled positions.

``synthesize`` evaluates each channel for all steps in one numpy pass,
with the arithmetic of one step in the same order, and takes sines,
cosines, arctangents, degrees and ``** 1.5`` from :mod:`math` one value
at a time (numpy's SIMD versions need not round as libm does), so every
value is the one a step-by-step evaluation gives.  The trace is made
from the channels' columns after bulk checks, and builds its records
only when they are read; a row the checks refuse goes through the frame
and ``model._check_row``, which raise its error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleSpec
from .frames import MAX_EXTENT_M, LocalFrame, enu_to_vcs
from .geometry import first_contact_times, poly_array
# Not called here, but kept as ``synth.first_contact_time``: profilers
# wrap that name.
from .geometry import first_contact_time  # noqa: F401
from .model import (
    CAR_SIZE,
    ActorState,
    BoundingShape,
    Channel,
    GeoPosition,
    Trace,
    VehicleProfile,
    VutState,
    _check_row,
    normalize_heading,
)
from .rules import RuleSet

ACCEL_PEAK = 2.0          # comfortable speed-up pulses, m/s^2
PULL_OUT_RAMP = 2.2       # lane-change length after a standing start, m
INDICATOR_LEAD = 2.0      # seconds of indicator before a lane change
ARC_GRID_STEP = 0.01      # resolution of the arc-length inversion, m


@dataclass(frozen=True)
class ScenarioSpec:
    """Geometry and limits shared by all cases of the scenario."""

    testcase_id: str = "M2-CL4-S-TST-05-01"
    origin: GeoPosition = GeoPosition(1.354, 103.696)
    lane_width: float = 3.3
    road_length: float = 150.0
    tsv_length: float = CAR_SIZE[0]
    tsv_width: float = CAR_SIZE[1]
    kerb_clearance: float = 0.5
    tsv_rear_n: float = 80.0
    speed_limit: float = 40.0 / 3.6
    sample_rate: float = 10.0
    decel_peak: float = 8.5
    vut: VehicleProfile = VehicleProfile()

    @property
    def lane_centre_e(self) -> float:
        return -self.lane_width / 2.0

    @property
    def tsv_left_e(self) -> float:
        return -self.lane_width + self.kerb_clearance

    @property
    def tsv_right_e(self) -> float:
        return self.tsv_left_e + self.tsv_width


@dataclass(frozen=True)
class CaseParams:
    target: float
    approach_speed: float
    pass_speed: float
    exit_speed: float
    stops: bool = False
    stop_gap: float = 2.2
    dwell: float = 1.5
    slow_at: float = 30.0
    resume_at: float = 120.0


CASE_PARAMS = {
    1: CaseParams(target=0.21, approach_speed=10.0, pass_speed=4.0,
                  exit_speed=8.0),
    2: CaseParams(target=0.52, approach_speed=10.0, pass_speed=6.0,
                  exit_speed=6.0, stops=True),
    3: CaseParams(target=1.53, approach_speed=11.0, pass_speed=8.0,
                  exit_speed=11.0),
}


def _quintic(u: np.ndarray) -> np.ndarray:
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _quintic_d1(u: np.ndarray) -> np.ndarray:
    return u * u * (30.0 + u * (-60.0 + 30.0 * u))


def _quintic_d2(u: np.ndarray) -> np.ndarray:
    return u * (60.0 + u * (-180.0 + 120.0 * u))


class _LateralProfile:
    """Piecewise lateral offset e(n): out-ramp, hold, back-ramp."""

    def __init__(self, e0: float, e1: float, ramp: tuple):
        self.e0 = e0
        self.e1 = e1
        self.r0, self.r1, self.r2, self.r3 = ramp

    def eval(self, n) -> tuple:
        """(offset, slope, second derivative) at each point of the array
        n.  A point inside the out ramp is on it, else one inside the back
        ramp on that; the offset is flat outside both ramps and between
        them."""
        out = (self.r0 < n) & (n < self.r1)
        on = out | ((self.r2 < n) & (n < self.r3))
        width = np.where(out, self.r1 - self.r0, self.r3 - self.r2)
        span = np.where(out, self.e1 - self.e0, self.e0 - self.e1)
        with np.errstate(all="ignore"):     # off-ramp points are discarded
            u = (n - np.where(out, self.r0, self.r2)) / width
            dudn = 1.0 / width
            offset = np.where(out, self.e0, self.e1) + span * _quintic(u)
            slope = span * _quintic_d1(u) * dudn
            second = span * _quintic_d2(u) * dudn * dudn
        offset = np.where((n <= self.r0) | (n >= self.r3), self.e0,
                          np.where((self.r1 <= n) & (n <= self.r2), self.e1,
                                   offset))
        return offset, np.where(on, slope, 0.0), np.where(on, second, 0.0)


class _SpeedPlan:
    """Piecewise speed profile over time: cruises, cosine pulses, dwells."""

    def __init__(self):
        self.segments = []
        self.t_end = 0.0
        self.s_end = 0.0
        self.v_end = 0.0

    def _push(self, kind, duration, v0, v1, distance):
        self.segments.append((self.t_end, self.s_end, kind, duration, v0, v1))
        self.t_end += duration
        self.s_end += distance
        self.v_end = v1

    def cruise_to(self, s_target: float, v: float):
        gap = s_target - self.s_end
        if gap < -1e-9:
            raise InfeasibleSpec(
                f"speed plan segments overlap near s={s_target:.2f} m")
        if gap <= 0.0:
            return
        if v <= 0.0:
            raise InfeasibleSpec("cannot cruise a positive distance at rest")
        self._push("cruise", gap / v, v, v, gap)

    def pulse(self, v0: float, v1: float, peak: float):
        if v0 == v1:
            return
        duration = math.pi * abs(v1 - v0) / (2.0 * peak)
        self._push("cosine", duration, v0, v1, 0.5 * (v0 + v1) * duration)

    def dwell(self, duration: float):
        if duration > 0.0:
            self._push("dwell", duration, 0.0, 0.0, 0.0)

    def eval(self, t) -> tuple:
        """(distance, speed, acceleration) at each time of the array t,
        t >= 0: on the last segment started by then, or past the end."""
        k = np.searchsorted([seg[0] for seg in self.segments], t,
                            side="right") - 1
        t0, s0, kind, duration, v0, v1 = (np.array(c)[k]
                                          for c in zip(*self.segments))
        cosine = kind == "cosine"
        dt = t - t0
        dv = v1 - v0
        sin, cos = np.zeros(len(t)), np.zeros(len(t))
        at = np.flatnonzero(cosine)
        with np.errstate(all="ignore"):     # off-pulse rows are discarded
            phase = (math.pi * dt / duration)[at].tolist()
            sin[at] = list(map(math.sin, phase))
            cos[at] = list(map(math.cos, phase))
            s = np.where(cosine, s0 + v0 * dt + 0.5 * dv * (
                dt - duration / math.pi * sin), s0 + v0 * dt)
            v = np.where(cosine, v0 + 0.5 * dv * (1.0 - cos), v0)
            a = np.where(cosine, 0.5 * dv * math.pi / duration * sin, 0.0)
        s = np.where(kind == "dwell", s0, s)
        v = np.where(kind == "dwell", 0.0, v)
        end = t >= self.t_end
        return (np.where(end, self.s_end + self.v_end * (t - self.t_end), s),
                np.where(end, self.v_end, v), np.where(end, 0.0, a))


def _arc_length_tables(profile: _LateralProfile, road_length: float):
    n_grid = np.arange(0.0, road_length + ARC_GRID_STEP, ARC_GRID_STEP)
    slopes = profile.eval(n_grid)[1]
    integrand = np.sqrt(1.0 + slopes * slopes)
    ds = (integrand[1:] + integrand[:-1]) * 0.5 * ARC_GRID_STEP
    s_grid = np.concatenate([[0.0], np.cumsum(ds)])
    return n_grid, s_grid


def _tsv_corners(spec: ScenarioSpec) -> np.ndarray:
    e0, e1 = spec.tsv_left_e, spec.tsv_right_e
    n0, n1 = spec.tsv_rear_n, spec.tsv_rear_n + spec.tsv_length
    return np.array([(e0, n0), (e1, n0), (e1, n1), (e0, n1)])


def _indicator_set(right: bool, left: bool, brake: bool) -> frozenset:
    on = set()
    if right:
        on.update(("right_front", "right_rear"))
    if left:
        on.update(("left_front", "left_rear"))
    if brake:
        on.add("brake")
    return frozenset(on)


# Indexed by 4 * right + 2 * left + brake.
_INDICATOR_SETS = [_indicator_set(k & 4, k & 2, k & 1) for k in range(8)]


def synthesize(spec: ScenarioSpec | None = None, case: int = 1,
               run_id: int = 1,
               target_clearance: float | None = None) -> Trace:
    """One deterministic run of the given case.

    ``target_clearance`` overrides the case's stock minimum lateral
    clearance; the synthesized trace will measure exactly that value.
    Raises :class:`InfeasibleSpec` when the requested pass does not fit
    on the road.
    """
    spec = spec or ScenarioSpec()
    if case not in CASE_PARAMS:
        raise ValueError(f"unknown case {case!r}, expected one of "
                         f"{sorted(CASE_PARAMS)}")
    params = CASE_PARAMS[case]
    if spec.speed_limit <= 0.0:
        raise InfeasibleSpec("speed limit must be positive")
    # A lowered limit clips the stock case speeds; the profile must
    # never plan above the cap.
    params = replace(
        params,
        approach_speed=min(params.approach_speed, spec.speed_limit),
        pass_speed=min(params.pass_speed, spec.speed_limit),
        exit_speed=min(params.exit_speed, spec.speed_limit),
    )
    target = params.target if target_clearance is None else target_clearance
    if target < 0.0:
        raise InfeasibleSpec("target clearance must be >= 0")

    half_w = spec.vut.width / 2.0
    half_l = spec.vut.length / 2.0
    e_pass = spec.tsv_right_e + target + half_w
    if e_pass + half_w > spec.lane_width:
        raise InfeasibleSpec(
            f"a {target:.2f} m clearance would carry the vehicle past the "
            "right kerb")

    if params.stops:
        n_stop = spec.tsv_rear_n - params.stop_gap - half_l
        ramp = (n_stop, n_stop + PULL_OUT_RAMP, 92.0, 116.0)
    else:
        ramp = (50.0, 74.0, 92.0, 116.0)
    profile = _LateralProfile(spec.lane_centre_e, e_pass, ramp)
    n_grid, s_grid = _arc_length_tables(profile, spec.road_length)

    plan = _SpeedPlan()
    if params.stops:
        brake_T = math.pi * params.approach_speed / (2.0 * spec.decel_peak)
        brake_dist = 0.5 * params.approach_speed * brake_T
        if n_stop - brake_dist <= 0.0:
            raise InfeasibleSpec("no room to stop before the parked vehicle")
        plan.cruise_to(n_stop - brake_dist, params.approach_speed)
        plan.pulse(params.approach_speed, 0.0, spec.decel_peak)
        plan.dwell(params.dwell)
        plan.pulse(0.0, params.pass_speed, ACCEL_PEAK)
    else:
        plan.cruise_to(params.slow_at, params.approach_speed)
        plan.pulse(params.approach_speed, params.pass_speed, spec.decel_peak)
        plan.cruise_to(params.resume_at, params.pass_speed)
        plan.pulse(params.pass_speed, params.exit_speed, ACCEL_PEAK)
    plan.cruise_to(float(s_grid[-1]), params.exit_speed)

    frame = LocalFrame.at(spec.origin)
    rate = spec.sample_rate
    step_count = int(plan.t_end * rate + 1e-9) + 1

    tsv_rel_all = _tsv_corners(spec)
    tsv_centre_e = (spec.tsv_left_e + spec.tsv_right_e) / 2.0
    tsv_centre_n = spec.tsv_rear_n + spec.tsv_length / 2.0
    tsv_pos = frame.from_local(tsv_centre_e, tsv_centre_n)
    tsv_shape = BoundingShape(
        "wgs84",
        tuple(frame.from_local(float(e), float(n)) for e, n in tsv_rel_all),
    )
    footprint = poly_array(spec.vut.footprint)

    # One pass per channel over all steps, in the arithmetic of one step.
    # Transcendentals and ``** 1.5`` run on math and Python floats one
    # value at a time: numpy's SIMD versions need not round as libm does.
    t = np.arange(step_count) / rate
    s, v, a = plan.eval(t)
    s_max = float(s_grid[-1])
    s = np.where(s_max < s, s_max, s)           # min(s, s_max)
    n = np.interp(s, s_grid, n_grid)
    e, de, d2e = profile.eval(n)
    heading = np.array(list(map(normalize_heading, map(math.degrees, map(
        math.atan2, de.tolist(), itertools.repeat(1.0))))))
    curvature = d2e / np.array(list(map(
        float.__pow__, (1.0 + de * de).tolist(), itertools.repeat(1.5))))
    acc_lat = v * v * curvature
    yaw_rate = np.array(list(map(math.degrees, (v * curvature).tolist())))
    steering = 15.0 * np.array(list(map(math.degrees, map(
        math.atan, (2.7 * curvature).tolist()))))

    lead = INDICATOR_LEAD * v
    indicators = list(map(_INDICATOR_SETS.__getitem__, (
        4 * ((ramp[0] - lead <= n) & (n <= ramp[1]))
        + 2 * ((ramp[2] - lead <= n) & (n <= ramp[3]))
        + (a < -0.3)).tolist()))
    up, down, moving = a / 2.5, -a / spec.decel_peak, v > 1e-9
    throttle = np.where(a > 0.0, np.where(up < 1.0, up, 1.0),
                        np.where(a < 0.0, 0.0, np.where(moving, 0.12, 0.0)))
    brake = np.where(a > 0.0, 0.0,
                     np.where(a < 0.0, np.where(down < 1.0, down, 1.0),
                              np.where(moving, 0.0, 0.3)))

    # The checks of from_local, GeoPosition and VutState, in bulk; a row
    # they refuse raises its error in from_local or _check_row.
    o, k_lat, k_lon = frame.origin, frame.m_per_deg_lat, frame.m_per_deg_lon
    lat, lon = o.lat + n / k_lat, o.lon + e / k_lon
    channels = (t, s, v, acc_lat, a, yaw_rate, throttle, brake, steering)
    ok = (np.abs(e) <= MAX_EXTENT_M) & (np.abs(n) <= MAX_EXTENT_M) \
        & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0) \
        & np.isfinite(np.stack(channels)).all(axis=0) \
        & (t >= 0.0) & (s >= 0.0) & (v >= 0.0) \
        & (0.0 <= throttle) & (throttle <= 1.0) \
        & (0.0 <= brake) & (brake <= 1.0)
    steps = list(range(step_count))
    vut = dict(time=t, step=steps, travelled=s, speed=v, acc_lat=acc_lat,
               acc_long=a, yaw_rate=yaw_rate, heading=heading,
               indicators=indicators, throttle=throttle, brake=brake,
               steering_angle=steering,
               drive_status=["autonomous"] * step_count,
               special_op=["normal"] * step_count, lat=lat, lon=lon)
    for k in np.flatnonzero(~ok).tolist():      # raises at the first
        frame.from_local(float(e[k]), float(n[k]))
        _check_row(VutState, vut, k)

    # The parked TSV's outline in each step's VCS, and its zero velocity
    # minus the VUT's (speed, 0) there; each TTC is >= 0 or +inf.
    outlines = enu_to_vcs(tsv_rel_all - np.stack([e, n], axis=-1)[:, None],
                          heading[:, None])
    ttcs = first_contact_times(footprint, outlines, np.zeros(2)
                               - np.column_stack([v, np.zeros(step_count)]))
    tsv = dict(actor_id="TSV-01", actor_type="tsv", bbox_true=tsv_shape,
               speed=0.0, vel_lat=0.0, vel_long=0.0, acc_lat=0.0,
               acc_long=0.0, heading=0.0)
    tsv.update(lat=tsv_pos.lat, lon=tsv_pos.lon)
    tsv = {name: [value] * step_count for name, value in tsv.items()}

    return Trace._checked(
        testcase_id=spec.testcase_id, run_id=run_id,
        vut=Channel(VutState, vut),
        actors={"TSV-01": Channel(ActorState, dict(
            tsv, time=t, step=steps, ttc=ttcs))},
        obstacles={}, controllers={}, declared_frequency=round(rate, 6))


def synthesize_runs(spec: ScenarioSpec | None = None, case: int = 1,
                    count: int = RuleSet.n_required, start_run: int = 1,
                    speed_noise: float = 0.0, seed: int = 0,
                    target_clearance: float | None = None) -> list:
    """A batch of runs of one case, optionally with per-run speed noise
    and the :func:`synthesize` clearance override."""
    spec = spec or ScenarioSpec()
    base = synthesize(spec, case, run_id=start_run,
                      target_clearance=target_clearance)
    runs = []
    for i in range(count):
        trace = base._renumbered(start_run + i)
        if speed_noise > 0.0:
            trace = perturb(trace, speed_sigma=speed_noise, seed=seed + i)
        runs.append(trace)
    return runs


def perturb(trace: Trace, pos_sigma: float = 0.0, speed_sigma: float = 0.0,
            time_shift: float = 0.0, seed: int = 0) -> Trace:
    """A noisy twin of a trace: jittered fixes, jittered speed, shifted clock.

    The same seed always yields the same twin.  Only the vehicle channel
    is perturbed, and its elevation is kept; environment channels just
    follow the clock shift.  The vehicle channel is one numpy pass over
    the trace's columns, checked in bulk; a row the checks refuse goes
    through the frame and ``model._check_row``, which raise its error.
    The trace is made from the columns without ``Trace``'s per-record
    checks, which the input passed and the noise cannot fail, save the
    clock's.
    """
    rng = np.random.default_rng(seed)
    channel = trace.channels("vut")
    vut = channel.columns
    frame = LocalFrame.at(channel.position(0))
    o, k_lat, k_lon = frame.origin, frame.m_per_deg_lat, frame.m_per_deg_lon
    # noise[k] is row k's east, north and speed draw: one (n, 3) draw
    # gives the stream of 3n scalar draws in that order.
    noise = rng.normal(0.0, 1.0, size=(len(channel), 3))
    x = (vut["lon"] - o.lon) * k_lon
    y = (vut["lat"] - o.lat) * k_lat
    e = x + noise[:, 0] * pos_sigma
    n = y + noise[:, 1] * pos_sigma
    lat, lon = o.lat + n / k_lat, o.lon + e / k_lon
    s = vut["speed"] + noise[:, 2] * speed_sigma
    speed = np.where(s > 0.0, s, 0.0)   # max(0.0, s): np.maximum keeps -0.0
    with np.errstate(over="ignore"):        # an infinite time is refused
        t = vut["time"] + time_shift
    ok = (np.abs(np.stack([x, y, e, n])) <= MAX_EXTENT_M).all(axis=0) \
        & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0) \
        & np.isfinite(t) & (t >= 0.0) & np.isfinite(speed)
    vut = dict(vut, time=t, lat=lat, lon=lon, speed=speed)
    for k in np.flatnonzero(~ok).tolist():     # raises at the first
        frame.to_local(channel.position(k))
        frame.from_local(float(e[k]), float(n[k]))
        _check_row(VutState, vut, k)
    env = {table: {k: _shifted(v, time_shift)
                   for k, v in trace.channels(table).items()}
           for table in ("actors", "obstacles", "controllers")}
    twin = Trace._checked(
        trace.testcase_id, trace.run_id, Channel(VutState, vut),
        declared_frequency=trace.declared_frequency, **env)
    # Only the clock can fail the trace's checks: a shift can round two
    # close times into one, and the checks, which read columns, raise.
    if (t[1:] <= t[:-1]).any():
        twin.__post_init__()
    return twin


def _shifted(channel, time_shift) -> Channel:
    """A channel with its clock shifted; one that would come out the
    same is returned as it is.  A time no longer finite, the one check a
    shift can fail, raises its row's error (``model._check_row``)."""
    times = channel.columns["time"]
    with np.errstate(over="ignore"):        # an infinite time is refused
        new = times + time_shift
    if not len(new) or time_shift == 0.0 and new.tobytes() == times.tobytes():
        return channel
    columns = dict(channel.columns, time=new)
    infinite = np.flatnonzero(~np.isfinite(new))
    if len(infinite):
        _check_row(channel.type, columns, int(infinite[0]))
    return Channel(channel.type, columns)
