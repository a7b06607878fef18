"""The per-step ``synthesize`` that the numpy passes of
``synth.synthesize`` replaced, kept as their reference.

Each step evaluates the speed plan (``_plan_at``), the lateral profile
(``_LateralProfile``, scalar) and the record fields one after another,
and builds the records through their constructors and the trace through
``Trace``, with all their checks.  ``synth.synthesize`` must give the
same records, compared by ``repr`` (float bits and signed zeros count),
and the same errors.
"""

import math
from dataclasses import replace

import numpy as np

from vistakit.errors import InfeasibleSpec
from vistakit.frames import LocalFrame, enu_to_vcs
from vistakit.geometry import first_contact_times, poly_array
from vistakit.model import (
    ActorState,
    BoundingShape,
    Trace,
    VutState,
    normalize_heading,
)
from vistakit.synth import (
    ACCEL_PEAK,
    ARC_GRID_STEP,
    CASE_PARAMS,
    INDICATOR_LEAD,
    PULL_OUT_RAMP,
    ScenarioSpec,
    _SpeedPlan,
    _tsv_corners,
)


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


def _plan_at(self, t: float) -> tuple:
    """(distance, speed, acceleration) of the plan ``self`` at time t."""
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
        s, v, a = _plan_at(plan, t)
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
