"""Pass/fail rules applied to a parsed trace.

Each rule yields a verdict with the measured extremum, the threshold it
was held against, the offending step range, and, for clearance rules, an
attribution: when the gap collapses it matters whether the vehicle under
test drove into the entity or the entity moved into the vehicle.  A
collapse caused by the other party (closing, and faster than the vehicle)
is a warning instead of a failure, so a parked or receding entity is
never blamed; interpenetration (negative clearance) always fails.

Hard braking never fails a run on its own; it is surfaced as a warning so
a reviewer can decide whether the manoeuvre was justified.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .clearance import ClearanceSeries, _floats, clearance_series, entities
from .errors import MalformedRules, VistaError
from .frames import LocalFrame
from .model import GeoPosition, Trace, VehicleProfile, normalize_heading

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


# The note on a run that has nothing to measure clearance against.
NO_ENTITY_NOTE = ("no actor or portable obstacle logged; clearance rules "
                  "not applied")
# The context class of each actor type that has one for the whole run.
_TYPE_CONTEXT = {"vru_cyclist": CYCLIST, "vru_pmd": PMD_RIDER}


def _contexts(trace: Trace, entity_id: str, rules: RuleSet) -> tuple:
    """(steps, classes, the index into classes of each step's class,
    notes) of one entity: what :func:`classify_lateral_context` returns,
    as columns."""
    obstacles = trace.channels("obstacles")
    if entity_id in obstacles:
        steps = obstacles[entity_id].columns["step"]
        return steps, (STATIC_OBSTACLE,), np.zeros(len(steps), int), []
    col = trace.channels("actors")[entity_id].columns
    steps = col["step"]
    same = np.zeros(len(steps), int)
    atype = col["actor_type"][0]
    if atype == "tsv":
        eps = rules.stopped_speed_eps
        moving = (_floats(col["speed"]) >= eps).any() or any(map(
            operator.ge, map(math.hypot, col["vel_lat"], col["vel_long"]),
            repeat(eps)))
        return steps, (MOVING_TSV if moving else STOPPED_VEHICLE,), same, []
    if atype in _TYPE_CONTEXT:
        return steps, (_TYPE_CONTEXT[atype],), same, []
    if atype == "vru_pedestrian":
        heading = _floats(col["heading"])
        has = ~np.isnan(heading)
        vut = trace.channels("vut")
        at = np.searchsorted(vut.columns["step"], steps)[has]
        # The VUT's headings lie in [0, 360), so fmod alone normalises.
        oncoming = np.fmod(_floats(vut.columns["heading"])[at] + 180.0, 360.0)
        same[has] = np.abs((heading[has] - oncoming + 180.0) % 360.0
                           - 180.0) < 90.0
        notes = [] if has.all() else [
            f"{entity_id}: no heading logged, treated as facing away from "
            "traffic"]
        return steps, (PED_FACING_AWAY, PED_FACING_TRAFFIC), same, notes
    return steps, (ROAD_USER_OTHER,), same, [
        f"{entity_id}: unrecognised actor type {atype!r}, strictest "
        "road-user threshold applied"]


def classify_lateral_context(trace: Trace, entity_id: str,
                             rules: RuleSet | None = None):
    """Context class per step for one entity, plus classification notes.

    Static obstacles get one class for the whole series.  A vehicle actor
    is ``stopped_or_parked_vehicle`` only if it never moves during the
    run.  Pedestrian orientation is judged per step against the VUT's
    direction of travel; an unreadable orientation falls back to the
    stricter facing-away class.
    """
    steps, classes, codes, notes = _contexts(trace, entity_id,
                                             rules or RuleSet())
    return dict(zip(steps, map(classes.__getitem__, codes.tolist()))), notes


def _span(steps: list, rows: np.ndarray) -> tuple:
    """(smallest, largest) of the given rows' steps, () for no row."""
    at = np.array(steps)[rows]
    return (steps[rows[at.argmin()]], steps[rows[at.argmax()]]) \
        if len(rows) else ()


def _clearance_verdict(rule: str, columns, applies, gap, limit, threshold,
                       never: str, margin=None,
                       label=lambda k: "") -> RuleVerdict:
    """One clearance axis judged over the samples of a series' columns
    where ``applies``.

    ``gap`` and ``limit`` are each sample's clearance and threshold, as
    arrays.  The worst sample is the first minimum of ``margin`` (the gap
    by default); ``threshold`` and ``label`` give a sample's threshold as
    the rule set holds it and the context named in the detail.
    """
    rows = np.flatnonzero(applies)
    if not len(rows):
        return RuleVerdict(rule=rule, outcome=NOT_APPLICABLE, detail=never)
    worst = int(rows[(gap if margin is None else margin)[rows].argmin()])
    offending = rows[gap[rows] < limit[rows]]
    collision = bool((gap[offending] < 0.0).any())
    attribution, outcome = None, PASS
    if len(offending):
        # Who closed the gap at the first offending sample.
        k = offending[0]
        attribution = ATTR_OTHER if columns["entity_closing"][k] > \
            max(columns["vut_closing"][k], 0.0) + 1e-9 else ATTR_VUT
        outcome = WARNING if attribution == ATTR_OTHER and not collision \
            else FAIL
    detail = "; ".join(filter(None, (label(worst),
                                     "bodies overlap" if collision else "")))
    return RuleVerdict(
        rule=rule, outcome=outcome, measured=gap[worst].item(),
        threshold=threshold(worst),
        offending_steps=_span(columns["step"], offending),
        attribution=attribution, detail=detail)


def evaluate_clearances(trace: Trace, series: ClearanceSeries,
                        rules: RuleSet) -> tuple:
    """Lateral and longitudinal verdicts for one entity's series."""
    eid = series.entity_id
    steps, classes, codes, notes = _contexts(trace, eid, rules)
    c = series.columns
    context = codes[np.searchsorted(steps, c["step"])]
    limits = [rules.lateral_threshold(name) for name in classes]
    lat_limit = _floats(limits)[context]

    lat = _clearance_verdict(
        f"lateral_clearance[{eid}]", c, np.isfinite(c["lateral"]),
        c["lateral"], lat_limit, lambda k: limits[context[k]],
        "never abreast of the vehicle", margin=c["lateral"] - lat_limit,
        label=lambda k: classes[context[k]])
    lon_limit = rules.longitudinal_threshold
    lon = _clearance_verdict(
        f"longitudinal_clearance[{eid}]", c,
        np.isfinite(c["longitudinal"]) & (c["longitudinal_side"] > 0),
        c["longitudinal"], np.full(len(c["step"]), lon_limit),
        lambda k: lon_limit, "never ahead of the vehicle")
    return (lat, lon), tuple(notes)


def evaluate_kinematics(trace: Trace, rules: RuleSet) -> tuple:
    """Speed-limit verdict and hard-deceleration warning."""
    vut = trace.channels("vut")
    steps, speed, acc = map(vut.columns.get, ("step", "speed", "acc_long"))
    v, a = _floats(speed), _floats(acc)
    limit = rules.speed_limit
    offending = np.flatnonzero(v > limit + rules.speed_tolerance)
    speed_verdict = RuleVerdict(
        rule="speed_limit", outcome=FAIL if len(offending) else PASS,
        measured=speed[v.argmax()], threshold=limit,
        offending_steps=_span(steps, offending),
        attribution=ATTR_VUT if len(offending) else None,
    )
    braking = np.flatnonzero(a <= rules.decel_warning)
    decel = RuleVerdict(
        rule="hard_deceleration",
        outcome=WARNING if len(braking) else PASS,
        measured=acc[a.argmin()], threshold=rules.decel_warning,
        offending_steps=_span(steps, braking),
        detail="hard braking is reported for review, never failed"
        if len(braking) else "",
    )
    return speed_verdict, decel


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
    vut = trace.channels("vut")
    controllers = trace.channels("controllers")
    for cid in sorted(controllers):
        rule = f"signal_compliance[{cid}]"
        line = rules.stop_lines.get(cid)
        if line is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="no stop line configured"))
            notes.append(f"{cid}: no stop line configured, signal "
                         "compliance not checked")
            continue
        try:
            e, n = LocalFrame.at(line.pos).to_local_all(vut)
        except VistaError as exc:
            _not_evaluable([rule], cid, exc, verdicts, notes)
            continue
        # The VUT's progress along the line's heading, from the line.
        h = math.radians(line.heading_deg)
        progress = e * math.sin(h) + n * math.cos(h)
        cross = np.flatnonzero((progress[:-1] < 0.0) & (progress[1:] >= 0.0))
        if not len(cross):
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="stop line never crossed"))
            continue
        steps = vut.columns["step"]
        crossing = (steps[cross[0]], steps[cross[0] + 1])
        # The phase logged last at or before the step after the crossing.
        col = controllers[cid].columns
        k = int(np.searchsorted(col["step"], crossing[1], side="right")) - 1
        phase = col["phase"][k] if k >= 0 else None
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
    VUT fails its signal rule the same way.  A run with no actor and no
    portable obstacle says so in a note.
    """
    rules = rules or RuleSet()
    profile = profile or VehicleProfile()
    verdicts = []
    all_series = []

    entity_ids, fixed = entities(trace)
    notes = [f"{oid}: fixed infrastructure, clearance rules not applied"
             for oid in fixed]
    if not entity_ids:
        notes.append(NO_ENTITY_NOTE)
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
