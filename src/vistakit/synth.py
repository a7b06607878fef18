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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .errors import InfeasibleSpec
from .frames import MAX_EXTENT_M, LocalFrame, enu_to_vcs
from .geometry import first_contact_times, poly_array
# Not called here, but kept as ``synth.first_contact_time``: profilers
# wrap that name.
from .geometry import first_contact_time  # noqa: F401
from .model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    Trace,
    VehicleProfile,
    VutState,
    _NAMES,
    _build,
    normalize_heading,
)

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
    tsv_length: float = 4.4
    tsv_width: float = 1.8
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


def _quintic(u: float) -> float:
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _quintic_d1(u: float) -> float:
    return u * u * (30.0 + u * (-60.0 + 30.0 * u))


def _quintic_d2(u: float) -> float:
    return u * (60.0 + u * (-180.0 + 120.0 * u))


class _LateralProfile:
    """Piecewise lateral offset e(n): out-ramp, hold, back-ramp."""

    def __init__(self, e0: float, e1: float, ramp: tuple):
        self.e0 = e0
        self.e1 = e1
        self.r0, self.r1, self.r2, self.r3 = ramp

    def _piece(self, n: float):
        """(u, du/dn, direction) for the active ramp, or None on flats."""
        if self.r0 < n < self.r1:
            return (n - self.r0) / (self.r1 - self.r0), \
                1.0 / (self.r1 - self.r0), 1.0
        if self.r2 < n < self.r3:
            return (n - self.r2) / (self.r3 - self.r2), \
                1.0 / (self.r3 - self.r2), -1.0
        return None

    def offset(self, n: float) -> float:
        if n <= self.r0 or n >= self.r3:
            return self.e0
        if self.r1 <= n <= self.r2:
            return self.e1
        u, _, direction = self._piece(n)
        q = _quintic(u)
        if direction > 0:
            return self.e0 + (self.e1 - self.e0) * q
        return self.e1 + (self.e0 - self.e1) * q

    def slope(self, n: float) -> float:
        piece = self._piece(n)
        if piece is None:
            return 0.0
        u, dudn, direction = piece
        span = (self.e1 - self.e0) if direction > 0 else (self.e0 - self.e1)
        return span * _quintic_d1(u) * dudn

    def second(self, n: float) -> float:
        piece = self._piece(n)
        if piece is None:
            return 0.0
        u, dudn, direction = piece
        span = (self.e1 - self.e0) if direction > 0 else (self.e0 - self.e1)
        return span * _quintic_d2(u) * dudn * dudn


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

    def eval(self, t: float) -> tuple:
        """(distance, speed, acceleration) at time t."""
        if t >= self.t_end:
            return self.s_end + self.v_end * (t - self.t_end), self.v_end, 0.0
        for t0, s0, kind, duration, v0, v1 in reversed(self.segments):
            if t < t0:
                continue
            dt = t - t0
            if kind == "cruise":
                return s0 + v0 * dt, v0, 0.0
            if kind == "dwell":
                return s0, 0.0, 0.0
            dv = v1 - v0
            phase = math.pi * dt / duration
            s = s0 + v0 * dt + 0.5 * dv * (
                dt - duration / math.pi * math.sin(phase))
            v = v0 + 0.5 * dv * (1.0 - math.cos(phase))
            a = 0.5 * dv * math.pi / duration * math.sin(phase)
            return s, v, a
        return 0.0, self.segments[0][4] if self.segments else 0.0, 0.0


def _arc_length_tables(profile: _LateralProfile, road_length: float):
    n_grid = np.arange(0.0, road_length + ARC_GRID_STEP, ARC_GRID_STEP)
    slopes = np.array([profile.slope(float(n)) for n in n_grid])
    integrand = np.sqrt(1.0 + slopes * slopes)
    ds = (integrand[1:] + integrand[:-1]) * 0.5 * ARC_GRID_STEP
    s_grid = np.concatenate([[0.0], np.cumsum(ds)])
    return n_grid, s_grid


def _tsv_corners(spec: ScenarioSpec) -> np.ndarray:
    e0, e1 = spec.tsv_left_e, spec.tsv_right_e
    n0, n1 = spec.tsv_rear_n, spec.tsv_rear_n + spec.tsv_length
    return np.array([(e0, n0), (e1, n0), (e1, n1), (e0, n1)])


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

    vut_records = []
    tsv_outlines = []
    for k in range(step_count):
        t = k / rate
        s, v, a = plan.eval(t)
        s = min(s, float(s_grid[-1]))
        n = float(np.interp(s, s_grid, n_grid))
        e = profile.offset(n)
        de = profile.slope(n)
        d2e = profile.second(n)
        heading = normalize_heading(math.degrees(math.atan2(de, 1.0)))
        curvature = d2e / (1.0 + de * de) ** 1.5
        acc_lat = v * v * curvature
        yaw_rate = math.degrees(v * curvature)

        indicators = set()
        lead = INDICATOR_LEAD * v
        if ramp[0] - lead <= n <= ramp[1]:
            indicators.update(("right_front", "right_rear"))
        if ramp[2] - lead <= n <= ramp[3]:
            indicators.update(("left_front", "left_rear"))
        if a < -0.3:
            indicators.add("brake")

        if a > 0.0:
            throttle, brake = min(1.0, a / 2.5), 0.0
        elif a < 0.0:
            throttle, brake = 0.0, min(1.0, -a / spec.decel_peak)
        elif v > 1e-9:
            throttle, brake = 0.12, 0.0
        else:
            throttle, brake = 0.0, 0.3

        steering = 15.0 * math.degrees(math.atan(2.7 * curvature))

        vut_records.append(VutState(
            time=t, step=k, pos=frame.from_local(e, n), travelled=s,
            speed=v, acc_lat=acc_lat, acc_long=a, yaw_rate=yaw_rate,
            heading=heading, indicators=frozenset(indicators),
            throttle=throttle, brake=brake, steering_angle=steering,
            drive_status="autonomous", special_op="normal",
        ))

        tsv_outlines.append(enu_to_vcs(tsv_rel_all - np.array([e, n]),
                                       heading))

    # The parked TSV's zero velocity minus the VUT's (speed, 0) in the VCS.
    vut_vels = np.column_stack([[r.speed for r in vut_records],
                                np.zeros(step_count)])
    ttcs = first_contact_times(footprint, np.stack(tsv_outlines),
                               np.zeros(2) - vut_vels)
    tsv_records = [
        ActorState(
            time=r.time, step=r.step, actor_id="TSV-01", actor_type="tsv",
            pos=tsv_pos, bbox_true=tsv_shape, speed=0.0, vel_lat=0.0,
            vel_long=0.0, acc_lat=0.0, acc_long=0.0, ttc=ttc, heading=0.0,
        )
        for r, ttc in zip(vut_records, ttcs.tolist())]

    return Trace(
        testcase_id=spec.testcase_id, run_id=run_id,
        vut=tuple(vut_records), actors={"TSV-01": tuple(tsv_records)},
        declared_frequency=round(rate, 6),
    )


def synthesize_runs(spec: ScenarioSpec | None = None, case: int = 1,
                    count: int = 10, start_run: int = 1,
                    speed_noise: float = 0.0, seed: int = 0,
                    target_clearance: float | None = None) -> list:
    """A batch of runs of one case, optionally with per-run speed noise
    and the :func:`synthesize` clearance override."""
    spec = spec or ScenarioSpec()
    base = synthesize(spec, case, run_id=start_run,
                      target_clearance=target_clearance)
    runs = []
    for i in range(count):
        trace = replace(base, run_id=start_run + i)
        if speed_noise > 0.0:
            trace = perturb(trace, speed_sigma=speed_noise, seed=seed + i)
        runs.append(trace)
    return runs


def perturb(trace: Trace, pos_sigma: float = 0.0, speed_sigma: float = 0.0,
            time_shift: float = 0.0, seed: int = 0) -> Trace:
    """A noisy twin of a trace: jittered fixes, jittered speed, shifted clock.

    The same seed always yields the same twin.  Only the vehicle channel
    is perturbed, and its elevation is kept; environment records just
    follow the clock shift.  Each channel is one numpy pass of what
    :func:`_jitter` does per row, checked in bulk; a row the checks refuse
    goes through :func:`_jitter`, which raises the row's error.
    """
    rng = np.random.default_rng(seed)
    vut = trace.vut
    frame = LocalFrame.at(vut[0].pos)
    o, k_lat, k_lon = frame.origin, frame.m_per_deg_lat, frame.m_per_deg_lon
    # noise[k] is row k's east, north and speed draw: one (n, 3) draw
    # gives the stream of 3n scalar draws in that order.
    noise = rng.normal(0.0, 1.0, size=(len(vut), 3))
    x = (np.array([r.pos.lon for r in vut], float) - o.lon) * k_lon
    y = (np.array([r.pos.lat for r in vut], float) - o.lat) * k_lat
    e = x + noise[:, 0] * pos_sigma
    n = y + noise[:, 1] * pos_sigma
    lat, lon = o.lat + n / k_lat, o.lon + e / k_lon
    s = np.array([r.speed for r in vut], float) + noise[:, 2] * speed_sigma
    speed = np.where(s > 0.0, s, 0.0)   # max(0.0, s): np.maximum keeps -0.0
    t = np.array([r.time + time_shift for r in vut], float)
    ok = (np.abs(np.stack([x, y, e, n])) <= MAX_EXTENT_M).all(axis=0) \
        & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0) \
        & np.isfinite(t) & (t >= 0.0) & np.isfinite(speed)
    for k in np.flatnonzero(~ok).tolist():     # raises at the first
        _jitter(frame, vut[k], noise[k].tolist(), pos_sigma, speed_sigma,
                time_shift)
    pos = _build(GeoPosition, len(vut), lat.tolist(), lon.tolist(),
                 [r.pos.elev for r in vut])
    env = {table: {k: _shifted(v, time_shift)
                   for k, v in getattr(trace, table).items()}
           for table in ("actors", "obstacles", "controllers")}
    return Trace(
        testcase_id=trace.testcase_id, run_id=trace.run_id,
        vut=_shifted(vut, time_shift, pos=pos, speed=speed.tolist()),
        declared_frequency=trace.declared_frequency, **env)


def _jitter(frame, r, noise, pos_sigma, speed_sigma, time_shift):
    """One VUT row of :func:`perturb`, checked by the constructors."""
    e, n = frame.to_local(r.pos)
    e += noise[0] * pos_sigma
    n += noise[1] * pos_sigma
    speed = max(0.0, r.speed + noise[2] * speed_sigma)
    return replace(r, time=r.time + time_shift,
                   pos=frame.from_local(e, n, r.pos.elev), speed=speed)


def _shifted(records, time_shift, **columns) -> tuple:
    """records rebuilt once, their clock shifted and the named fields'
    values replaced; records that would come out the same are returned
    as they are.  A time no longer finite, the one check a shift can
    fail, raises the constructor's error."""
    time = [r.time + time_shift for r in records]
    if not records or (not columns and time_shift == 0.0 and repr(time)
                       == repr([r.time for r in records])):
        return tuple(records)
    columns["time"] = time
    for r, t in zip(records, time):
        if not math.isfinite(t):
            replace(r, time=t)
    cls = type(records[0])
    return tuple(_build(cls, len(records), *(
        columns[name] if name in columns else map(attrgetter(name), records)
        for name in _NAMES[cls])))
