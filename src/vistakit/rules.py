"""Pass/fail rules applied to a parsed trace.

Each rule yields a verdict with the measured extremum, the threshold it
was held against, the offending step range, and, for clearance rules, an
attribution: when the gap collapses it matters whether the vehicle under
test drove into the entity or the entity moved into the vehicle.  A
collapse caused by the other party is reported as a warning instead of a
failure; interpenetration (negative clearance) always fails.

Hard braking never fails a run on its own; it is surfaced as a warning so
a reviewer can decide whether the manoeuvre was justified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .clearance import ClearanceSeries, clearance_series
from .errors import MalformedRules, VistaError
from .frames import LocalFrame
from .model import (
    GeoPosition,
    Trace,
    VehicleProfile,
    is_fixed_infrastructure,
    normalize_heading,
)

# Context classes for the lateral clearance rule.
STATIC_OBSTACLE = "static_obstacle"
STOPPED_VEHICLE = "stopped_or_parked_vehicle"
PED_FACING_TRAFFIC = "pedestrian_facing_traffic"
PED_FACING_AWAY = "pedestrian_facing_away"
MOVING_TSV = "moving_tsv"
CYCLIST = "cyclist"
PMD_RIDER = "pmd_rider"
ROAD_USER_OTHER = "road_user_other"

DEFAULT_LATERAL_THRESHOLDS = {
    STATIC_OBSTACLE: 0.5,
    STOPPED_VEHICLE: 1.0,
    PED_FACING_TRAFFIC: 1.0,
    MOVING_TSV: 1.5,
    PED_FACING_AWAY: 1.5,
    CYCLIST: 1.5,
    PMD_RIDER: 1.5,
    ROAD_USER_OTHER: 1.5,
}

DEFAULT_LONGITUDINAL_THRESHOLD = 2.0
DEFAULT_SPEED_LIMIT = 40.0 / 3.6
SPEED_TOLERANCE = 0.1
DECEL_WARNING = -8.0
STOPPED_SPEED_EPS = 0.1

PASS = "pass"
FAIL = "fail"
WARNING = "warning"
NOT_APPLICABLE = "not_applicable"

ATTR_VUT = "vut_action"
ATTR_OTHER = "other_party"
ATTR_UNKNOWN = "undetermined"


@dataclass(frozen=True)
class StopLine:
    """A stop line in front of a signalised conflict area.

    ``heading_deg`` points in the travel direction across the line; the
    crossing test projects the vehicle position onto that direction.
    """

    pos: GeoPosition
    heading_deg: float


@dataclass(frozen=True)
class RuleSet:
    lateral_thresholds: dict = field(
        default_factory=lambda: dict(DEFAULT_LATERAL_THRESHOLDS))
    longitudinal_threshold: float = DEFAULT_LONGITUDINAL_THRESHOLD
    speed_limit: float = DEFAULT_SPEED_LIMIT
    speed_tolerance: float = SPEED_TOLERANCE
    decel_warning: float = DECEL_WARNING
    stopped_speed_eps: float = STOPPED_SPEED_EPS
    stop_lines: dict = field(default_factory=dict)
    n_required: int = 10

    def lateral_threshold(self, context: str) -> float:
        if context in self.lateral_thresholds:
            return self.lateral_thresholds[context]
        return max(self.lateral_thresholds.values())


def _stop_lines(raw) -> dict:
    return {str(cid): StopLine(
        pos=GeoPosition(float(sl["lat"]), float(sl["lon"])),
        heading_deg=normalize_heading(float(sl["heading_deg"])))
        for cid, sl in raw.items()}


# Override key -> (RuleSet field, conversion of the JSON value).
_OVERRIDES = {
    "lateral_thresholds_m": ("lateral_thresholds", lambda raw: {
        str(k): float(v) for k, v in raw.items()}),
    "longitudinal_threshold_m": ("longitudinal_threshold", float),
    "speed_limit_mps": ("speed_limit", float),
    "speed_tolerance_mps": ("speed_tolerance", float),
    "decel_warning_mps2": ("decel_warning", float),
    "stopped_speed_eps_mps": ("stopped_speed_eps", float),
    "n_required": ("n_required", int),
    "stop_lines": ("stop_lines", _stop_lines),
}


def _ruleset_from_dict(base: RuleSet, data, where: str) -> RuleSet:
    """``base`` with the overrides of ``data`` applied; MalformedRules
    names ``where`` and the key at fault."""
    if not isinstance(data, dict):
        raise MalformedRules(f"{where}: expected an object of rule "
                             f"overrides, got {data!r}")
    kw = {}
    for key, (dst, convert) in _OVERRIDES.items():
        if key not in data:
            continue
        try:
            kw[dst] = convert(data[key])
        except KeyError as exc:
            raise MalformedRules(f"{where}: {key}: missing {exc}") from None
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise MalformedRules(f"{where}: {key}: {exc}") from None
    if "lateral_thresholds" in kw:
        kw["lateral_thresholds"] = {**base.lateral_thresholds,
                                    **kw["lateral_thresholds"]}
    return replace(base, **kw)


def load_rules(path) -> dict:
    """Rule overrides from JSON, keyed by test case id.

    The file maps test case ids to override objects; the reserved key
    ``default`` applies to every case first.  Returns a mapping that
    :func:`ruleset_for` consults.  Every entry is checked here, so a
    file that is not JSON, not an object, or holds a value that does not
    convert raises MalformedRules naming the file and the key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise MalformedRules(f"{path}: not a JSON rule file: {exc}") \
                from None
    if not isinstance(raw, dict):
        raise MalformedRules(f"{path}: rule file must contain a JSON object")
    for key, data in raw.items():
        _ruleset_from_dict(RuleSet(), data, f"{path}: {key}")
    return raw


def ruleset_for(testcase_id: str, overrides: dict | None = None) -> RuleSet:
    rs = RuleSet()
    if overrides:
        for key in ("default", testcase_id):
            if key in overrides:
                rs = _ruleset_from_dict(rs, overrides[key], key)
    return rs


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    outcome: str
    measured: float | None = None
    threshold: float | None = None
    offending_steps: tuple = ()
    attribution: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        def _num(v):
            if v is None or not math.isfinite(v):
                return None
            return v
        return {
            "rule": self.rule,
            "outcome": self.outcome,
            "measured": _num(self.measured),
            "threshold": _num(self.threshold),
            "offending_steps": list(self.offending_steps),
            "attribution": self.attribution,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RunEvaluation:
    testcase_id: str
    run_id: int
    verdicts: tuple
    notes: tuple = ()
    # The clearance series the verdicts were judged on (for `--series`).
    series: tuple = field(default=(), repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(v.outcome != FAIL for v in self.verdicts)

    @property
    def warnings(self) -> tuple:
        return tuple(v for v in self.verdicts if v.outcome == WARNING)

    def verdict(self, rule: str) -> RuleVerdict:
        for v in self.verdicts:
            if v.rule == rule:
                return v
        raise KeyError(rule)

    def to_dict(self) -> dict:
        return {
            "testcase_id": self.testcase_id,
            "run_id": self.run_id,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "notes": list(self.notes),
        }


def _wrap180(deg: float) -> float:
    return (deg + 180.0) % 360.0 - 180.0


def classify_lateral_context(trace: Trace, entity_id: str,
                             rules: RuleSet | None = None):
    """Context class per step for one entity, plus classification notes.

    Static obstacles get one class for the whole series.  A vehicle actor
    is ``stopped_or_parked_vehicle`` only if it never moves during the
    run.  Pedestrian orientation is judged per step against the VUT's
    direction of travel; an unreadable orientation falls back to the
    stricter facing-away class.
    """
    rules = rules or RuleSet()
    notes = []
    if entity_id in trace.obstacles:
        ctx = {r.step: STATIC_OBSTACLE for r in trace.obstacles[entity_id]}
        return ctx, notes
    records = trace.actors[entity_id]
    vut_by_step = {r.step: r for r in trace.vut}
    ctx = {}
    atype = records[0].actor_type
    if atype == "tsv":
        moving = any(
            r.speed >= rules.stopped_speed_eps
            or math.hypot(r.vel_lat, r.vel_long) >= rules.stopped_speed_eps
            for r in records
        )
        cls = MOVING_TSV if moving else STOPPED_VEHICLE
        return {r.step: cls for r in records}, notes
    if atype == "vru_cyclist":
        return {r.step: CYCLIST for r in records}, notes
    if atype == "vru_pmd":
        return {r.step: PMD_RIDER for r in records}, notes
    if atype == "vru_pedestrian":
        warned = False
        for r in records:
            if r.heading is None:
                ctx[r.step] = PED_FACING_AWAY
                if not warned:
                    notes.append(
                        f"{entity_id}: no heading logged, treated as "
                        "facing away from traffic"
                    )
                    warned = True
                continue
            oncoming = normalize_heading(vut_by_step[r.step].heading + 180.0)
            if abs(_wrap180(r.heading - oncoming)) < 90.0:
                ctx[r.step] = PED_FACING_TRAFFIC
            else:
                ctx[r.step] = PED_FACING_AWAY
        return ctx, notes
    notes.append(f"{entity_id}: unrecognised actor type {atype!r}, "
                 "strictest road-user threshold applied")
    return {r.step: ROAD_USER_OTHER for r in records}, notes


def _offence_summary(steps: list) -> tuple:
    if not steps:
        return ()
    return (min(steps), max(steps))


def _attribute(sample) -> str:
    """Who closed the gap at this sample."""
    if sample.entity_closing > sample.vut_closing + 1e-9:
        return ATTR_OTHER
    return ATTR_VUT


def _clearance_verdict(rule: str, samples: list, gap, limit, never: str,
                       margin=None, label=lambda s: "") -> RuleVerdict:
    """One clearance axis judged over the samples where it applies.

    ``gap`` and ``limit`` give a sample's clearance and threshold.  The
    worst sample is the first minimum of ``margin`` (the gap by default);
    ``label`` gives the context named in the detail.
    """
    if not samples:
        return RuleVerdict(rule=rule, outcome=NOT_APPLICABLE, detail=never)
    worst = min(samples, key=margin or gap)
    offending = [s for s in samples if gap(s) < limit(s)]
    collision = any(gap(s) < 0.0 for s in offending)
    attribution = _attribute(offending[0]) if offending else None
    if not offending:
        outcome = PASS
    elif attribution == ATTR_OTHER and not collision:
        outcome = WARNING
    else:
        outcome = FAIL
    detail = "; ".join(filter(None, (label(worst),
                                     "bodies overlap" if collision else "")))
    return RuleVerdict(
        rule=rule, outcome=outcome, measured=gap(worst),
        threshold=limit(worst),
        offending_steps=_offence_summary([s.step for s in offending]),
        attribution=attribution, detail=detail)


def evaluate_clearances(trace: Trace, series: ClearanceSeries,
                        rules: RuleSet) -> tuple:
    """Lateral and longitudinal verdicts for one entity's series."""
    eid = series.entity_id
    context, notes = classify_lateral_context(trace, eid, rules)

    def lat_limit(s):
        return rules.lateral_threshold(context[s.step])

    lat = _clearance_verdict(
        f"lateral_clearance[{eid}]",
        [s for s in series.samples if math.isfinite(s.lateral)],
        lambda s: s.lateral, lat_limit, "never abreast of the vehicle",
        margin=lambda s: s.lateral - lat_limit(s),
        label=lambda s: context[s.step])
    lon = _clearance_verdict(
        f"longitudinal_clearance[{eid}]",
        [s for s in series.samples
         if math.isfinite(s.longitudinal) and s.longitudinal_side > 0],
        lambda s: s.longitudinal, lambda s: rules.longitudinal_threshold,
        "never ahead of the vehicle")
    return (lat, lon), tuple(notes)


def evaluate_kinematics(trace: Trace, rules: RuleSet) -> tuple:
    """Speed-limit verdict and hard-deceleration warning."""
    top = max(trace.vut, key=lambda r: r.speed)
    limit = rules.speed_limit
    offending = [r.step for r in trace.vut
                 if r.speed > limit + rules.speed_tolerance]
    speed = RuleVerdict(
        rule="speed_limit", outcome=FAIL if offending else PASS,
        measured=top.speed, threshold=limit,
        offending_steps=_offence_summary(offending),
        attribution=ATTR_VUT if offending else None,
    )
    hardest = min(trace.vut, key=lambda r: r.acc_long)
    braking = [r.step for r in trace.vut if r.acc_long <= rules.decel_warning]
    decel = RuleVerdict(
        rule="hard_deceleration",
        outcome=WARNING if braking else PASS,
        measured=hardest.acc_long, threshold=rules.decel_warning,
        offending_steps=_offence_summary(braking),
        detail="hard braking is reported for review, never failed" if braking
        else "",
    )
    return speed, decel


def _not_evaluable(names, subject, exc, verdicts, notes) -> None:
    """Fail the named rules, unmeasured, with the reason as their detail
    and in a note on ``subject``; the other rules and runs are judged."""
    detail = f"not evaluable: {exc}"
    verdicts.extend(RuleVerdict(rule=name, outcome=FAIL, detail=detail)
                    for name in names)
    notes.append(f"{subject}: {detail}")


def evaluate_traffic_lights(trace: Trace, rules: RuleSet) -> tuple:
    """Stop-line verdicts, one per signal controller seen in the trace."""
    verdicts = []
    notes = []
    for cid, records in sorted(trace.controllers.items()):
        rule = f"signal_compliance[{cid}]"
        line = rules.stop_lines.get(cid)
        if line is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="no stop line configured"))
            notes.append(f"{cid}: no stop line configured, signal "
                         "compliance not checked")
            continue
        frame = LocalFrame.at(line.pos)
        h = math.radians(line.heading_deg)
        fe, fn = math.sin(h), math.cos(h)
        phase_by_step = {r.step: r.phase for r in records}
        progress = []
        try:
            for r in trace.vut:
                e, n = frame.to_local(r.pos)
                progress.append((r.step, e * fe + n * fn))
        except VistaError as exc:
            _not_evaluable([rule], cid, exc, verdicts, notes)
            continue
        crossing = None
        for (s0, p0), (s1, p1) in zip(progress, progress[1:]):
            if p0 < 0.0 <= p1:
                crossing = (s0, s1)
                break
        if crossing is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="stop line never crossed"))
            continue
        phase = phase_by_step.get(crossing[1])
        if phase is None:
            known = [s for s in phase_by_step if s <= crossing[1]]
            phase = phase_by_step[max(known)] if known else None
        if phase is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="no signal state at the crossing"))
            notes.append(f"{cid}: crossed at step {crossing[1]} with no "
                         "signal state on record")
        elif phase == "stop":
            verdicts.append(RuleVerdict(
                rule=rule, outcome=FAIL, offending_steps=crossing,
                attribution=ATTR_VUT,
                detail="crossed the stop line against the signal"))
        else:
            verdicts.append(RuleVerdict(rule=rule, outcome=PASS,
                                        detail=f"crossed during {phase}"))
    return tuple(verdicts), tuple(notes)


def evaluate_run(trace: Trace, rules: RuleSet | None = None,
                 profile: VehicleProfile | None = None) -> RunEvaluation:
    """Every rule applied to one run.

    An entity whose clearance cannot be measured (a point beyond the safe
    extent of the VUT's frame, say) fails both clearance rules, with the
    reason in their detail and in a note; a stop line too far from the
    VUT fails its signal rule the same way.
    """
    rules = rules or RuleSet()
    profile = profile or VehicleProfile()
    verdicts = []
    notes = []
    all_series = []

    entity_ids = list(trace.actors)
    for oid, recs in trace.obstacles.items():
        if recs and is_fixed_infrastructure(recs[0].obst_type):
            notes.append(f"{oid}: fixed infrastructure, clearance rules "
                         "not applied")
            continue
        entity_ids.append(oid)
    for eid in entity_ids:
        try:
            series = clearance_series(trace, eid, profile=profile)
        except VistaError as exc:
            _not_evaluable([f"{axis}_clearance[{eid}]"
                            for axis in ("lateral", "longitudinal")],
                           eid, exc, verdicts, notes)
            continue
        all_series.append(series)
        notes.extend(series.notes)
        pair, cnotes = evaluate_clearances(trace, series, rules)
        verdicts.extend(pair)
        notes.extend(cnotes)

    verdicts.extend(evaluate_kinematics(trace, rules))
    light_verdicts, light_notes = evaluate_traffic_lights(trace, rules)
    verdicts.extend(light_verdicts)
    notes.extend(light_notes)

    return RunEvaluation(testcase_id=trace.testcase_id, run_id=trace.run_id,
                         verdicts=tuple(verdicts), notes=tuple(notes),
                         series=tuple(all_series))


@dataclass(frozen=True)
class MetricSpread:
    rule: str
    minimum: float
    maximum: float
    mean: float

    def to_dict(self) -> dict:
        return {"rule": self.rule, "min": self.minimum, "max": self.maximum,
                "mean": self.mean}


@dataclass(frozen=True)
class TestCaseEvaluation:
    testcase_id: str
    runs: tuple
    n_required: int

    @property
    def run_count(self) -> int:
        return len({r.run_id for r in self.runs})

    @property
    def enough_runs(self) -> bool:
        return self.run_count >= self.n_required

    @property
    def passed(self) -> bool:
        return self.enough_runs and all(r.passed for r in self.runs)

    def spreads(self) -> tuple:
        by_rule: dict = {}
        for run in self.runs:
            for v in run.verdicts:
                if v.measured is not None and math.isfinite(v.measured):
                    by_rule.setdefault(v.rule, []).append(v.measured)
        out = []
        for rule in sorted(by_rule):
            vals = by_rule[rule]
            if len(vals) != len(self.runs):
                continue
            out.append(MetricSpread(rule=rule, minimum=min(vals),
                                    maximum=max(vals),
                                    mean=sum(vals) / len(vals)))
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "testcase_id": self.testcase_id,
            "passed": self.passed,
            "run_count": self.run_count,
            "n_required": self.n_required,
            "enough_runs": self.enough_runs,
            "runs": [r.to_dict() for r in
                     sorted(self.runs, key=lambda r: r.run_id)],
            "spreads": [s.to_dict() for s in self.spreads()],
        }


def aggregate(evaluations,
              n_required: int = RuleSet.n_required) -> TestCaseEvaluation:
    """Combine per-run evaluations into a test case verdict."""
    evals = tuple(evaluations)
    if not evals:
        raise ValueError("no run evaluations to aggregate")
    ids = {e.testcase_id for e in evals}
    if len(ids) != 1:
        raise ValueError(f"runs from different test cases: {sorted(ids)}")
    return TestCaseEvaluation(testcase_id=evals[0].testcase_id, runs=evals,
                              n_required=n_required)


def render_text(case: TestCaseEvaluation) -> str:
    """A short human-readable report."""
    lines = [f"test case {case.testcase_id}: "
             f"{'PASS' if case.passed else 'FAIL'} "
             f"({case.run_count}/{case.n_required} runs)"]
    for run in sorted(case.runs, key=lambda r: r.run_id):
        lines.append(f"  run {run.run_id}: "
                     f"{'PASS' if run.passed else 'FAIL'}")
        for v in run.verdicts:
            if v.outcome == NOT_APPLICABLE:
                continue
            extra = ""
            if v.measured is not None and v.threshold is not None:
                extra = f" ({v.measured:.3f} vs {v.threshold:.3f})"
            if v.attribution and v.outcome in (FAIL, WARNING):
                extra += f" [{v.attribution}]"
            lines.append(f"    {v.rule}: {v.outcome}{extra}")
        for note in run.notes:
            lines.append(f"    note: {note}")
    for s in case.spreads():
        lines.append(f"  {s.rule}: min {s.minimum:.3f} max {s.maximum:.3f} "
                     f"mean {s.mean:.3f}")
    return "\n".join(lines) + "\n"
