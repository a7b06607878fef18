"""Reading and writing result traces.

Two layouts carry the same information:

* flat: a single ``results_<testcase_id>_r<run_id>.csv`` with the VUT
  channel plus one column-group repetition per environment entity;
* distributed: a folder ``<testcase_id>_r<run_id>`` with up to seven role
  files (``VUT_status.csv`` is the master clock and the only mandatory
  one; the ``*_perceived`` overlays attach onto the true-channel rows).

Readers are total: malformed content never raises, it lands in the
returned IntegrityReport, and a Trace is produced only when the report
carries no error-severity findings.  Genuine I/O problems (missing path,
unreadable file) raise OSError as usual.

Files are comma-separated UTF-8; both LF and CRLF are accepted and LF is
written.  ``inf`` is the sentinel for never-occurring TTC/NTD values and
an empty cell means "no value" (or, in an id column, "no record at this
step").
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

from . import integrity as it
from . import schema
from .errors import VistaError
from .integrity import IntegrityReport
from .model import (
    ActorState,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
    VutState,
    actor_mimics_obstacle,
    normalize_heading,
    obstacle_from_actor,
)
from .positions import shape_from_array, shape_to_array

_INDICATOR_COLUMNS = (
    ("VUT_ind_left_front", "left_front"),
    ("VUT_ind_left_rear", "left_rear"),
    ("VUT_ind_right_front", "right_front"),
    ("VUT_ind_right_rear", "right_rear"),
    ("VUT_ind_brake", "brake"),
    ("VUT_ind_reverse", "reverse"),
    ("VUT_ind_hazard", "hazard"),
)


def detect_layout(path) -> str:
    """Classify a path as "flat" or "distributed"."""
    p = Path(path)
    if p.is_file():
        return "flat"
    if p.is_dir():
        return "distributed"
    raise FileNotFoundError(f"no such trace input: {p}")


# ---------------------------------------------------------------------------
# cell codecs

def _cell_float(cell: str) -> float:
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(f"value must be finite, got {cell!r}")
    return v


def _cell_int(cell: str) -> int:
    return int(cell)


def _cell_bool(cell: str) -> bool:
    c = cell.strip().lower()
    if c in ("1", "true"):
        return True
    if c in ("0", "false"):
        return False
    raise ValueError(f"not a boolean flag: {cell!r}")


def _cell_ttc(cell: str) -> float:
    v = float(cell)
    if math.isnan(v) or v < 0:
        raise ValueError(f"time metric must be >= 0 or inf, got {cell!r}")
    return v


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        # repr of a plain float round-trips exactly; numpy scalars do
        # not, so normalize first.
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# header segmentation (flat layout)

def _segment_header(header, fname, rep):
    """Split a flat header into the common/VUT map and entity group maps.

    Returns (base, groups) where base maps column name -> index for the
    common and VUT columns and groups is a list of (group_name, colmap).
    Repeated groups are recognized by their leading id column.
    """
    base = {}
    groups = []
    current = None
    current_group = None
    for idx, raw_name in enumerate(header):
        name = raw_name.strip()
        if name in schema.GROUP_LEADERS:
            current_group = schema.GROUP_LEADERS[name]
            current = {name: idx}
            groups.append((current_group, current))
            continue
        spec = schema.BY_NAME.get(name)
        if current is not None:
            if spec is not None and spec.group == current_group \
                    and name not in current:
                current[name] = idx
                if name == schema.GROUP_LAST[current_group]:
                    current = None
                    current_group = None
                continue
            if spec is None:
                rep.add(it.WARNING, it.UNKNOWN_COLUMN,
                        f"column {name!r} is not in the schema",
                        file=fname, row=1, column=name)
                continue
            # A column of a different group closes the open segment.
            current = None
            current_group = None
        if spec is None:
            rep.add(it.WARNING, it.UNKNOWN_COLUMN,
                    f"column {name!r} is not in the schema",
                    file=fname, row=1, column=name)
        elif spec.group in ("common", "vut"):
            if name in base:
                rep.add(it.WARNING, it.UNKNOWN_COLUMN,
                        f"duplicate column {name!r} ignored",
                        file=fname, row=1, column=name)
            else:
                base[name] = idx
        else:
            rep.add(it.WARNING, it.UNKNOWN_COLUMN,
                    f"group column {name!r} appears outside its group",
                    file=fname, row=1, column=name)
    return base, groups


def _require_columns(colmap, names, fname, rep) -> bool:
    ok = True
    for name in names:
        if name not in colmap:
            rep.add(it.ERROR, it.MISSING_MANDATORY_COLUMN,
                    f"mandatory column {name!r} is missing",
                    file=fname, row=1, column=name)
            ok = False
    return ok


def _check_actor_pos_columns(colmap, fname, rep) -> bool:
    has_geo = "Actor_pos_true_lat" in colmap and "Actor_pos_true_lon" in colmap
    has_vcs = "Actor_pos_true_x" in colmap and "Actor_pos_true_y" in colmap
    if not (has_geo or has_vcs):
        rep.add(it.ERROR, it.MISSING_MANDATORY_COLUMN,
                "actor group needs either Actor_pos_true_lat/lon or "
                "Actor_pos_true_x/y", file=fname, row=1)
        return False
    return True


# ---------------------------------------------------------------------------
# record builders

def _get(row, colmap, name):
    idx = colmap.get(name)
    if idx is None or idx >= len(row):
        return ""
    return row[idx].strip()


class _RowProblem(Exception):
    def __init__(self, column, message):
        super().__init__(message)
        self.column = column


def _take(row, colmap, name, conv, optional=False):
    cell = _get(row, colmap, name)
    if cell == "":
        if optional or name not in colmap:
            return None
        raise _RowProblem(name, "mandatory value is empty")
    try:
        return conv(cell)
    except (ValueError, VistaError) as exc:
        raise _RowProblem(name, str(exc))


def _vut_from_row(row, colmap, rownum):
    time = _take(row, colmap, "Time", _cell_float)
    step = _take(row, colmap, "Step_number", _cell_int)
    pos = GeoPosition(
        lat=_take(row, colmap, "VUT_pos_lat", _cell_float),
        lon=_take(row, colmap, "VUT_pos_lon", _cell_float),
        elev=_take(row, colmap, "VUT_pos_z", _cell_float, optional=True),
    )
    flags = set()
    for col, flag in _INDICATOR_COLUMNS:
        if _take(row, colmap, col, _cell_bool):
            flags.add(flag)
    return VutState(
        time=time,
        step=step,
        pos=pos,
        travelled=_take(row, colmap, "VUT_travelled", _cell_float),
        speed=_take(row, colmap, "VUT_speed", _cell_float),
        acc_lat=_take(row, colmap, "VUT_acc_lat", _cell_float),
        acc_long=_take(row, colmap, "VUT_acc_long", _cell_float),
        yaw_rate=_take(row, colmap, "VUT_yaw_rate", _cell_float),
        pitch_rate=_take(row, colmap, "VUT_pitch_rate", _cell_float, optional=True),
        roll_rate=_take(row, colmap, "VUT_roll_rate", _cell_float, optional=True),
        heading=normalize_heading(_take(row, colmap, "VUT_heading", _cell_float)),
        indicators=frozenset(flags),
        throttle=_take(row, colmap, "VUT_throttle", _cell_float),
        brake=_take(row, colmap, "VUT_brake", _cell_float),
        steering_angle=_take(row, colmap, "VUT_steering_angle", _cell_float),
        drive_status=_take(row, colmap, "VUT_drive_status", str),
        special_op=_take(row, colmap, "VUT_special_op", str),
    )


def _actor_from_row(row, colmap, time, step, component_order):
    actor_id = _get(row, colmap, "Actor_Id")
    if actor_id == "":
        return None
    lat = _take(row, colmap, "Actor_pos_true_lat", _cell_float, optional=True)
    lon = _take(row, colmap, "Actor_pos_true_lon", _cell_float, optional=True)
    x = _take(row, colmap, "Actor_pos_true_x", _cell_float, optional=True)
    y = _take(row, colmap, "Actor_pos_true_y", _cell_float, optional=True)
    z = _take(row, colmap, "Actor_pos_true_z", _cell_float, optional=True)
    if (lat is None) != (lon is None) or (x is None) != (y is None):
        raise _RowProblem("Actor_pos_true_lat", "half-filled position pair")
    if lat is not None and x is not None:
        raise _RowProblem("Actor_pos_true_lat",
                          "both world and VCS positions filled")
    if lat is not None:
        pos = GeoPosition(lat=lat, lon=lon, elev=z)
        frame = "wgs84"
    elif x is not None:
        pos = VcsPosition(x=x, y=y, z=z)
        frame = "vcs"
    else:
        raise _RowProblem("Actor_pos_true_lat", "no position value")

    def _shape(name):
        cell = _get(row, colmap, name)
        if cell == "":
            return None
        try:
            return shape_from_array(cell, frame=frame,
                                    component_order=component_order)
        except (VistaError, ValueError, TypeError) as exc:
            raise _RowProblem(name, str(exc))

    heading = _take(row, colmap, "Actor_heading", _cell_float, optional=True)
    return ActorState(
        time=time,
        step=step,
        actor_id=actor_id,
        actor_type=_take(row, colmap, "Actor_type", str),
        pos=pos,
        bbox_true=_shape("Actor_bbox_true"),
        bbox_perceived=_shape("Actor_bbox_perceived"),
        speed=_take(row, colmap, "Actor_vel_abs", _cell_float),
        vel_lat=_take(row, colmap, "Actor_vel_lat", _cell_float),
        vel_long=_take(row, colmap, "Actor_vel_long", _cell_float),
        acc_lat=_take(row, colmap, "Actor_acc_lat", _cell_float),
        acc_long=_take(row, colmap, "Actor_acc_long", _cell_float),
        heading=None if heading is None else normalize_heading(heading),
        ttc=_take(row, colmap, "Actor_TTC", _cell_ttc),
    )


def _obstacle_from_row(row, colmap, time, step, component_order):
    obst_id = _get(row, colmap, "Obst_Id")
    if obst_id == "":
        return None

    def _shape(name, optional):
        cell = _get(row, colmap, name)
        if cell == "":
            if optional or name not in colmap:
                return None
            raise _RowProblem(name, "mandatory value is empty")
        try:
            return shape_from_array(cell, frame="wgs84",
                                    component_order=component_order)
        except (VistaError, ValueError, TypeError) as exc:
            raise _RowProblem(name, str(exc))

    return ObstacleState(
        time=time,
        step=step,
        obstacle_id=obst_id,
        obst_type=_take(row, colmap, "Obst_type", _cell_int),
        pos=GeoPosition(
            lat=_take(row, colmap, "Obst_pos_lat", _cell_float),
            lon=_take(row, colmap, "Obst_pos_lon", _cell_float),
        ),
        poly_true=_shape("Obst_poly_true", optional=False),
        poly_perceived=_shape("Obst_poly_perceived", optional=True),
        ntd=_take(row, colmap, "Obst_NTD", _cell_ttc),
    )


def _controller_from_row(row, colmap, time, step):
    cid = _get(row, colmap, "Traffic_Ctrl_Id")
    if cid == "":
        return None
    return TrafficControllerState(
        time=time,
        step=step,
        controller_id=cid,
        phase=_take(row, colmap, "Traffic_Ctrl_phase", str),
    )


# ---------------------------------------------------------------------------
# series-level checks

def _median(values):
    vals = sorted(values)
    mid = len(vals) // 2
    if len(vals) % 2 == 1:
        return vals[mid]
    return 0.5 * (vals[mid - 1] + vals[mid])


def _check_vut_series(vut_rows, fname, rep):
    """Monotonicity and start-time findings; rows are (rownum, VutState)."""
    prev_t = None
    prev_s = None
    seen_steps = set()
    for rownum, rec in vut_rows:
        if rec.step in seen_steps:
            rep.add(it.ERROR, it.DUPLICATE_STEP,
                    f"step {rec.step} appears more than once",
                    file=fname, row=rownum, column="Step_number")
        seen_steps.add(rec.step)
        if prev_t is not None and rec.time <= prev_t:
            rep.add(it.ERROR, it.NON_MONOTONE_TIME,
                    f"time {rec.time!r} does not increase past {prev_t!r}",
                    file=fname, row=rownum, column="Time")
        if prev_s is not None and rec.step < prev_s:
            rep.add(it.ERROR, it.NON_MONOTONE_TIME,
                    f"step {rec.step} decreases past {prev_s}",
                    file=fname, row=rownum, column="Step_number")
        prev_t, prev_s = rec.time, rec.step
    if len(vut_rows) >= 2:
        dts = [b[1].time - a[1].time for a, b in zip(vut_rows, vut_rows[1:])]
        med = _median(dts)
        if med > 0 and abs(vut_rows[0][1].time) > med:
            rep.add(it.WARNING, it.START_TIME_NONZERO,
                    f"first record at t={vut_rows[0][1].time!r}, expected "
                    "t=0 within one sample period",
                    file=fname, row=vut_rows[0][0], column="Time")


def _declared_frequency(vut_records) -> float:
    if len(vut_records) < 2:
        return 0.0
    dts = [b.time - a.time for a, b in zip(vut_records, vut_records[1:])]
    med = _median(dts)
    return round(1.0 / med, 6) if med > 0 else 0.0


def _entity_time_check(rec, step_times, half_period, fname, rownum, rep,
                       idcol, entity_id):
    """Join the record onto the VUT clock; None when the step is orphaned.

    The VUT file is the master clock, so the returned record always
    carries the VUT time for its step, and drift beyond half a sample
    period is reported.
    """
    vut_time = step_times.get(rec.step)
    if vut_time is None:
        rep.add(it.ERROR, it.ORPHAN_STEP,
                f"{idcol}={entity_id}: step {rec.step} has no VUT record",
                file=fname, row=rownum, column="Step_number")
        return None
    if half_period is not None and abs(rec.time - vut_time) > half_period:
        rep.add(it.WARNING, it.TIME_MISMATCH,
                f"{idcol}={entity_id}: time {rec.time!r} drifts from the "
                f"VUT time {vut_time!r} at step {rec.step}",
                file=fname, row=rownum, column="Time")
    if rec.time != vut_time:
        rec = dataclasses.replace(rec, time=vut_time)
    return rec


def _finish_trace(testcase_id, run_id, vut_records, actors, obstacles,
                  controllers, rep):
    """Final normalization + Trace construction once rows are collected."""
    if not rep.ok:
        return None
    # Obstacles exported through the actor channel move to the obstacle
    # table when every record is obstacle-coded and motionless.
    moved = []
    for aid, recs in actors.items():
        if recs and all(actor_mimics_obstacle(r) for r in recs):
            try:
                converted = tuple(obstacle_from_actor(r) for r in recs)
            except ValueError:
                continue
            if aid not in obstacles:
                obstacles[aid] = converted
                moved.append(aid)
    for aid in moved:
        del actors[aid]
    try:
        return Trace(
            testcase_id=testcase_id,
            run_id=run_id,
            vut=tuple(vut_records),
            actors={k: tuple(v) for k, v in actors.items()},
            obstacles={k: tuple(v) for k, v in obstacles.items()},
            controllers={k: tuple(v) for k, v in controllers.items()},
            declared_frequency=_declared_frequency(vut_records),
        )
    except (ValueError, TypeError) as exc:
        rep.add(it.ERROR, it.BAD_VALUE, f"trace rejected: {exc}")
        return None


# ---------------------------------------------------------------------------
# flat layout

def parse_flat(path, component_order: str = "lat_lon"):
    """Parse a flat results file -> (Trace | None, IntegrityReport)."""
    p = Path(path)
    rep = IntegrityReport()
    fname = p.name
    m = schema.FLAT_NAME_RE.match(fname)
    if not m:
        rep.add(it.ERROR, it.FILE_NAME_INVALID,
                f"flat file name {fname!r} does not match "
                "results_<testcase_id>_r<run_id>.csv", file=fname)
        return None, rep
    testcase_id, run_id = m.group("tc"), int(m.group("run"))
    if run_id < 1:
        rep.add(it.ERROR, it.FILE_NAME_INVALID,
                f"run id must be >= 1, got {run_id}", file=fname)
        return None, rep

    with open(p, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        rep.add(it.ERROR, it.MISSING_HEADER, "file is empty", file=fname)
        return None, rep
    header = rows[0]
    base, groups = _segment_header(header, fname, rep)

    ok = _require_columns(base, ("Time", "Step_number"), fname, rep)
    ok &= _require_columns(base, schema.required_names("vut"), fname, rep)
    for group, colmap in groups:
        ok &= _require_columns(colmap, schema.required_names(group), fname, rep)
        if group == "actor":
            ok &= _check_actor_pos_columns(colmap, fname, rep)
    if not ok:
        return None, rep

    vut_rows = []
    actors: dict = {}
    obstacles: dict = {}
    controllers: dict = {}
    entity_rows = {"actor": [], "obstacle": [], "controller": []}
    for i, row in enumerate(rows[1:]):
        rownum = i + 2
        if len(row) != len(header):
            rep.add(it.WARNING, it.BAD_VALUE,
                    f"row has {len(row)} cells, header has {len(header)}",
                    file=fname, row=rownum)
            row = (row + [""] * len(header))[:len(header)]
        try:
            vut = _vut_from_row(row, base, rownum)
        except _RowProblem as exc:
            rep.add(it.ERROR, it.BAD_VALUE, str(exc), file=fname,
                    row=rownum, column=exc.column)
            continue
        vut_rows.append((rownum, vut))
        for group, colmap in groups:
            try:
                if group == "actor":
                    rec = _actor_from_row(row, colmap, vut.time, vut.step,
                                          component_order)
                elif group == "obstacle":
                    rec = _obstacle_from_row(row, colmap, vut.time, vut.step,
                                             component_order)
                else:
                    rec = _controller_from_row(row, colmap, vut.time, vut.step)
            except _RowProblem as exc:
                rep.add(it.ERROR, it.BAD_VALUE, str(exc), file=fname,
                        row=rownum, column=exc.column)
                continue
            if rec is not None:
                entity_rows[group].append((rownum, rec))

    if not vut_rows:
        rep.add(it.ERROR, it.BAD_VALUE, "file contains no usable data rows",
                file=fname)
        return None, rep
    _check_vut_series(vut_rows, fname, rep)

    for rownum, rec in entity_rows["actor"]:
        _append_entity(actors, rec.actor_id, rec, "Actor_Id", fname, rownum, rep)
    for rownum, rec in entity_rows["obstacle"]:
        _append_entity(obstacles, rec.obstacle_id, rec, "Obst_Id", fname,
                       rownum, rep)
    for rownum, rec in entity_rows["controller"]:
        _append_entity(controllers, rec.controller_id, rec, "Traffic_Ctrl_Id",
                       fname, rownum, rep)

    trace = _finish_trace(testcase_id, run_id, [r for _, r in vut_rows],
                          actors, obstacles, controllers, rep)
    return trace, rep


def _append_entity(table, eid, rec, idcol, fname, rownum, rep):
    recs = table.setdefault(eid, [])
    if recs and rec.step <= recs[-1].step:
        code = it.DUPLICATE_STEP if rec.step == recs[-1].step \
            else it.NON_MONOTONE_TIME
        rep.add(it.ERROR, code,
                f"{idcol}={eid}: step {rec.step} does not increase",
                file=fname, row=rownum, column="Step_number")
        return
    recs.append(rec)


# ---------------------------------------------------------------------------
# distributed layout

def _read_role(folder, role, rep, required_cols):
    """Read one role file -> (colmap, [(rownum, row)]) or None."""
    p = folder / role
    if not p.exists():
        return None
    with open(p, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        rep.add(it.ERROR, it.MISSING_HEADER, "file is empty", file=role)
        return None
    header = [h.strip() for h in rows[0]]
    colmap = {}
    for idx, name in enumerate(header):
        if name in colmap:
            rep.add(it.WARNING, it.UNKNOWN_COLUMN,
                    f"duplicate column {name!r} ignored", file=role, row=1)
        elif name in schema.BY_NAME or name in ("Time", "Step_number"):
            colmap[name] = idx
        else:
            rep.add(it.WARNING, it.UNKNOWN_COLUMN,
                    f"column {name!r} is not in the schema",
                    file=role, row=1, column=name)
    if not _require_columns(colmap, required_cols, role, rep):
        return None
    out = []
    for i, row in enumerate(rows[1:]):
        rownum = i + 2
        if len(row) != len(header):
            rep.add(it.WARNING, it.BAD_VALUE,
                    f"row has {len(row)} cells, header has {len(header)}",
                    file=role, row=rownum)
            row = (row + [""] * len(header))[:len(header)]
        out.append((rownum, row))
    return colmap, out


def parse_distributed(path, component_order: str = "lat_lon"):
    """Parse a distributed run folder -> (Trace | None, IntegrityReport)."""
    folder = Path(path)
    rep = IntegrityReport()
    if not folder.is_dir():
        raise FileNotFoundError(f"not a run folder: {folder}")
    m = schema.DIR_NAME_RE.match(folder.name)
    if not m:
        rep.add(it.ERROR, it.FILE_NAME_INVALID,
                f"run folder name {folder.name!r} does not match "
                "<testcase_id>_r<run_id>", file=folder.name)
        return None, rep
    testcase_id, run_id = m.group("tc"), int(m.group("run"))
    if run_id < 1:
        rep.add(it.ERROR, it.FILE_NAME_INVALID,
                f"run id must be >= 1, got {run_id}", file=folder.name)
        return None, rep

    for child in sorted(folder.iterdir()):
        if child.name not in schema.ROLE_FILES:
            rep.add(it.WARNING, it.ROLE_FILE_MISNAMED,
                    f"unrecognized file {child.name!r} in run folder",
                    file=child.name)

    vut_read = _read_role(
        folder, schema.ROLE_VUT, rep,
        ("Time", "Step_number") + schema.required_names("vut"),
    )
    if vut_read is None:
        if not (folder / schema.ROLE_VUT).exists():
            rep.add(it.ERROR, it.MISSING_VUT_FILE,
                    f"{schema.ROLE_VUT} is missing", file=folder.name)
        return None, rep
    vut_map, vut_raw = vut_read
    vut_rows = []
    for rownum, row in vut_raw:
        try:
            vut_rows.append((rownum, _vut_from_row(row, vut_map, rownum)))
        except _RowProblem as exc:
            rep.add(it.ERROR, it.BAD_VALUE, str(exc), file=schema.ROLE_VUT,
                    row=rownum, column=exc.column)
    if not vut_rows:
        rep.add(it.ERROR, it.BAD_VALUE, "no usable VUT rows",
                file=schema.ROLE_VUT)
        return None, rep
    _check_vut_series(vut_rows, schema.ROLE_VUT, rep)
    vut_records = [r for _, r in vut_rows]
    step_times = {r.step: r.time for r in vut_records}
    half_period = None
    if len(vut_records) >= 2:
        dts = [b.time - a.time for a, b in zip(vut_records, vut_records[1:])]
        half_period = 0.5 * _median(dts)

    actors: dict = {}
    obstacles: dict = {}
    controllers: dict = {}

    got = _read_role(folder, schema.ROLE_ACTORS_TRUE, rep,
                     ("Time", "Step_number") + schema.required_names("actor"))
    if got is not None:
        colmap, raw = got
        if _check_actor_pos_columns(colmap, schema.ROLE_ACTORS_TRUE, rep):
            for rownum, row in raw:
                try:
                    t = _take(row, colmap, "Time", _cell_float)
                    s = _take(row, colmap, "Step_number", _cell_int)
                    rec = _actor_from_row(row, colmap, t, s, component_order)
                except _RowProblem as exc:
                    rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                            file=schema.ROLE_ACTORS_TRUE, row=rownum,
                            column=exc.column)
                    continue
                if rec is None:
                    continue
                rec = _entity_time_check(rec, step_times, half_period,
                                         schema.ROLE_ACTORS_TRUE, rownum,
                                         rep, "Actor_Id", rec.actor_id)
                if rec is not None:
                    _append_entity(actors, rec.actor_id, rec, "Actor_Id",
                                   schema.ROLE_ACTORS_TRUE, rownum, rep)

    got = _read_role(folder, schema.ROLE_OBSTACLES_TRUE, rep,
                     ("Time", "Step_number")
                     + schema.required_names("obstacle"))
    if got is not None:
        colmap, raw = got
        for rownum, row in raw:
            try:
                t = _take(row, colmap, "Time", _cell_float)
                s = _take(row, colmap, "Step_number", _cell_int)
                rec = _obstacle_from_row(row, colmap, t, s, component_order)
            except _RowProblem as exc:
                rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                        file=schema.ROLE_OBSTACLES_TRUE, row=rownum,
                        column=exc.column)
                continue
            if rec is None:
                continue
            rec = _entity_time_check(rec, step_times, half_period,
                                     schema.ROLE_OBSTACLES_TRUE, rownum,
                                     rep, "Obst_Id", rec.obstacle_id)
            if rec is not None:
                _append_entity(obstacles, rec.obstacle_id, rec, "Obst_Id",
                               schema.ROLE_OBSTACLES_TRUE, rownum, rep)

    got = _read_role(folder, schema.ROLE_LIGHTS_TRUE, rep,
                     ("Time", "Step_number")
                     + schema.required_names("controller"))
    if got is not None:
        colmap, raw = got
        for rownum, row in raw:
            try:
                t = _take(row, colmap, "Time", _cell_float)
                s = _take(row, colmap, "Step_number", _cell_int)
                rec = _controller_from_row(row, colmap, t, s)
            except _RowProblem as exc:
                rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                        file=schema.ROLE_LIGHTS_TRUE, row=rownum,
                        column=exc.column)
                continue
            if rec is None:
                continue
            rec = _entity_time_check(rec, step_times, half_period,
                                     schema.ROLE_LIGHTS_TRUE, rownum, rep,
                                     "Traffic_Ctrl_Id", rec.controller_id)
            if rec is not None:
                _append_entity(controllers, rec.controller_id, rec,
                               "Traffic_Ctrl_Id", schema.ROLE_LIGHTS_TRUE,
                               rownum, rep)

    _attach_actor_perceived(folder, actors, step_times, rep, component_order)
    _attach_obstacle_perceived(folder, obstacles, step_times, rep,
                               component_order)

    # The perceived traffic-light overlay is accepted but carries nothing
    # the model retains; validate its rows shallowly.
    got = _read_role(folder, schema.ROLE_LIGHTS_PERCEIVED, rep,
                     ("Time", "Step_number")
                     + schema.required_names("controller"))
    if got is not None:
        colmap, raw = got
        for rownum, row in raw:
            try:
                t = _take(row, colmap, "Time", _cell_float)
                s = _take(row, colmap, "Step_number", _cell_int)
                _controller_from_row(row, colmap, t, s)
            except _RowProblem as exc:
                rep.add(it.WARNING, it.BAD_VALUE,
                        f"{exc} (perceived phases are not retained)",
                        file=schema.ROLE_LIGHTS_PERCEIVED, row=rownum,
                        column=exc.column)

    trace = _finish_trace(testcase_id, run_id, vut_records, actors,
                          obstacles, controllers, rep)
    return trace, rep


def _attach_actor_perceived(folder, actors, step_times, rep, component_order):
    got = _read_role(folder, schema.ROLE_ACTORS_PERCEIVED, rep,
                     ("Time", "Step_number", "Actor_Id"))
    if got is None:
        return
    colmap, raw = got
    index = {(aid, rec.step): (aid, i)
             for aid, recs in actors.items() for i, rec in enumerate(recs)}
    for rownum, row in raw:
        aid = _get(row, colmap, "Actor_Id")
        if aid == "":
            continue
        try:
            step = _take(row, colmap, "Step_number", _cell_int)
        except _RowProblem as exc:
            rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                    file=schema.ROLE_ACTORS_PERCEIVED, row=rownum,
                    column=exc.column)
            continue
        key = index.get((aid, step))
        if key is None:
            rep.add(it.WARNING, it.ORPHAN_STEP,
                    f"Actor_Id={aid}: perceived record at step {step} has "
                    "no true counterpart",
                    file=schema.ROLE_ACTORS_PERCEIVED, row=rownum)
            continue
        cell = _get(row, colmap, "Actor_bbox_perceived")
        if cell == "":
            continue
        _, i = key
        base = actors[aid][i]
        try:
            shape = shape_from_array(cell, frame=base.pos_frame,
                                     component_order=component_order)
        except (VistaError, ValueError, TypeError) as exc:
            rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                    file=schema.ROLE_ACTORS_PERCEIVED, row=rownum,
                    column="Actor_bbox_perceived")
            continue
        actors[aid][i] = dataclasses.replace(base, bbox_perceived=shape)


def _attach_obstacle_perceived(folder, obstacles, step_times, rep,
                               component_order):
    got = _read_role(folder, schema.ROLE_OBSTACLES_PERCEIVED, rep,
                     ("Time", "Step_number", "Obst_Id"))
    if got is None:
        return
    colmap, raw = got
    index = {(oid, rec.step): (oid, i)
             for oid, recs in obstacles.items() for i, rec in enumerate(recs)}
    for rownum, row in raw:
        oid = _get(row, colmap, "Obst_Id")
        if oid == "":
            continue
        try:
            step = _take(row, colmap, "Step_number", _cell_int)
        except _RowProblem as exc:
            rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                    file=schema.ROLE_OBSTACLES_PERCEIVED, row=rownum,
                    column=exc.column)
            continue
        key = index.get((oid, step))
        if key is None:
            rep.add(it.WARNING, it.ORPHAN_STEP,
                    f"Obst_Id={oid}: perceived record at step {step} has "
                    "no true counterpart",
                    file=schema.ROLE_OBSTACLES_PERCEIVED, row=rownum)
            continue
        cell = _get(row, colmap, "Obst_poly_perceived")
        if cell == "":
            continue
        _, i = key
        base = obstacles[oid][i]
        try:
            shape = shape_from_array(cell, frame="wgs84",
                                     component_order=component_order)
        except (VistaError, ValueError, TypeError) as exc:
            rep.add(it.ERROR, it.BAD_VALUE, str(exc),
                    file=schema.ROLE_OBSTACLES_PERCEIVED, row=rownum,
                    column="Obst_poly_perceived")
            continue
        obstacles[oid][i] = dataclasses.replace(base, poly_perceived=shape)


def parse_trace(path, component_order: str = "lat_lon"):
    """Parse either layout, auto-detected -> (Trace | None, report)."""
    kind = detect_layout(path)
    if kind == "flat":
        return parse_flat(path, component_order=component_order)
    return parse_distributed(path, component_order=component_order)


# ---------------------------------------------------------------------------
# writing

def _vut_optional_columns(trace):
    cols = []
    if any(r.pos.elev is not None for r in trace.vut):
        cols.append("VUT_pos_z")
    if any(r.pitch_rate is not None for r in trace.vut):
        cols.append("VUT_pitch_rate")
    if any(r.roll_rate is not None for r in trace.vut):
        cols.append("VUT_roll_rate")
    return cols


def _vut_columns(trace):
    optional = set(_vut_optional_columns(trace))
    out = []
    for c in schema.group_columns("vut"):
        if c.required == "yes" or c.name in optional:
            out.append(c.name)
    return out


def _vut_cells(rec, columns):
    values = {
        "VUT_pos_lat": rec.pos.lat,
        "VUT_pos_lon": rec.pos.lon,
        "VUT_pos_z": rec.pos.elev,
        "VUT_travelled": rec.travelled,
        "VUT_speed": rec.speed,
        "VUT_acc_long": rec.acc_long,
        "VUT_acc_lat": rec.acc_lat,
        "VUT_yaw_rate": rec.yaw_rate,
        "VUT_pitch_rate": rec.pitch_rate,
        "VUT_roll_rate": rec.roll_rate,
        "VUT_heading": rec.heading,
        "VUT_throttle": rec.throttle,
        "VUT_brake": rec.brake,
        "VUT_steering_angle": rec.steering_angle,
        "VUT_drive_status": rec.drive_status,
        "VUT_special_op": rec.special_op,
    }
    for col, flag in _INDICATOR_COLUMNS:
        values[col] = flag in rec.indicators
    return [_fmt(values[c]) for c in columns]


def _actor_columns(recs, include_perceived=True):
    frame = recs[0].pos_frame
    for r in recs:
        if r.pos_frame != frame:
            raise ValueError(
                f"actor {r.actor_id!r} mixes position frames; cannot write"
            )
    cols = ["Actor_Id", "Actor_type"]
    if frame == "wgs84":
        cols += ["Actor_pos_true_lat", "Actor_pos_true_lon"]
        has_z = any(r.pos.elev is not None for r in recs)
    else:
        cols += ["Actor_pos_true_x", "Actor_pos_true_y"]
        has_z = any(r.pos.z is not None for r in recs)
    if has_z:
        cols.append("Actor_pos_true_z")
    if any(r.bbox_true is not None for r in recs):
        cols.append("Actor_bbox_true")
    if include_perceived and any(r.bbox_perceived is not None for r in recs):
        cols.append("Actor_bbox_perceived")
    cols += ["Actor_vel_abs", "Actor_vel_lat", "Actor_vel_long",
             "Actor_acc_lat", "Actor_acc_long", "Actor_heading", "Actor_TTC"]
    return cols


def _actor_cells(rec, columns, component_order):
    if rec.bbox_true is not None and rec.bbox_true.frame != rec.pos_frame:
        raise ValueError(
            f"actor {rec.actor_id!r}: bbox frame {rec.bbox_true.frame!r} "
            f"differs from position frame {rec.pos_frame!r}"
        )
    geo = isinstance(rec.pos, GeoPosition)
    values = {
        "Actor_Id": rec.actor_id,
        "Actor_type": rec.actor_type,
        "Actor_pos_true_lat": rec.pos.lat if geo else None,
        "Actor_pos_true_lon": rec.pos.lon if geo else None,
        "Actor_pos_true_x": None if geo else rec.pos.x,
        "Actor_pos_true_y": None if geo else rec.pos.y,
        "Actor_pos_true_z": rec.pos.elev if geo else rec.pos.z,
        "Actor_bbox_true": None if rec.bbox_true is None else shape_to_array(
            rec.bbox_true, component_order=component_order),
        "Actor_bbox_perceived": None if rec.bbox_perceived is None else
            shape_to_array(rec.bbox_perceived, component_order=component_order),
        "Actor_vel_abs": rec.speed,
        "Actor_vel_lat": rec.vel_lat,
        "Actor_vel_long": rec.vel_long,
        "Actor_acc_lat": rec.acc_lat,
        "Actor_acc_long": rec.acc_long,
        "Actor_heading": rec.heading,
        "Actor_TTC": rec.ttc,
    }
    return [_fmt(values[c]) for c in columns]


def _obstacle_columns(recs, include_perceived=True):
    cols = ["Obst_Id", "Obst_type", "Obst_pos_lat", "Obst_pos_lon",
            "Obst_poly_true"]
    if include_perceived and any(r.poly_perceived is not None for r in recs):
        cols.append("Obst_poly_perceived")
    cols.append("Obst_NTD")
    return cols


def _obstacle_cells(rec, columns, component_order):
    values = {
        "Obst_Id": rec.obstacle_id,
        "Obst_type": rec.obst_type,
        "Obst_pos_lat": rec.pos.lat,
        "Obst_pos_lon": rec.pos.lon,
        "Obst_poly_true": shape_to_array(rec.poly_true,
                                         component_order=component_order),
        "Obst_poly_perceived": None if rec.poly_perceived is None else
            shape_to_array(rec.poly_perceived, component_order=component_order),
        "Obst_NTD": rec.ntd,
    }
    return [_fmt(values[c]) for c in columns]


_CONTROLLER_COLUMNS = ["Traffic_Ctrl_Id", "Traffic_Ctrl_phase"]


def _controller_cells(rec, columns):
    values = {"Traffic_Ctrl_Id": rec.controller_id,
              "Traffic_Ctrl_phase": rec.phase}
    return [_fmt(values[c]) for c in columns]


def _new_writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_flat(trace, directory, component_order: str = "lat_lon") -> Path:
    """Write one run as a flat results file; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / schema.flat_filename(trace.testcase_id, trace.run_id)
    vut_cols = _vut_columns(trace)
    header = ["Time", "Step_number"] + vut_cols
    segments = []
    for aid, recs in trace.actors.items():
        cols = _actor_columns(recs)
        segments.append(("actor", {r.step: r for r in recs}, cols))
        header += cols
    for oid, recs in trace.obstacles.items():
        cols = _obstacle_columns(recs)
        segments.append(("obstacle", {r.step: r for r in recs}, cols))
        header += cols
    for cid, recs in trace.controllers.items():
        cols = list(_CONTROLLER_COLUMNS)
        segments.append(("controller", {r.step: r for r in recs}, cols))
        header += cols

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _new_writer(fh)
        w.writerow(header)
        for rec in trace.vut:
            row = [_fmt(rec.time), _fmt(rec.step)] + _vut_cells(rec, vut_cols)
            for group, by_step, cols in segments:
                ent = by_step.get(rec.step)
                if ent is None:
                    row += [""] * len(cols)
                elif group == "actor":
                    row += _actor_cells(ent, cols, component_order)
                elif group == "obstacle":
                    row += _obstacle_cells(ent, cols, component_order)
                else:
                    row += _controller_cells(ent, cols)
            w.writerow(row)
    return path


def _rows_by_step(table, keep=lambda rec: True) -> dict:
    """step -> the kept records of every entity at that step, in entity
    insertion order, then record order."""
    by_step = {}
    for recs in table.values():
        for rec in recs:
            if keep(rec):
                by_step.setdefault(rec.step, []).append(rec)
    return by_step


def write_distributed(trace, directory,
                      component_order: str = "lat_lon") -> Path:
    """Write one run as a distributed folder; returns the folder path.

    All seven role files are always present; overlays without content are
    header-only.
    """
    root = Path(directory) / schema.dir_name(trace.testcase_id, trace.run_id)
    root.mkdir(parents=True, exist_ok=True)
    vut_cols = _vut_columns(trace)

    with open(root / schema.ROLE_VUT, "w", encoding="utf-8", newline="") as fh:
        w = _new_writer(fh)
        w.writerow(["Time", "Step_number"] + vut_cols)
        for rec in trace.vut:
            w.writerow([_fmt(rec.time), _fmt(rec.step)]
                       + _vut_cells(rec, vut_cols))

    all_actor_recs = [r for recs in trace.actors.values() for r in recs]
    if all_actor_recs:
        frames = {r.pos_frame for r in all_actor_recs}
        if len(frames) > 1:
            raise ValueError("distributed layout cannot mix actor position "
                             "frames in one run")
        cols = _actor_columns(all_actor_recs, include_perceived=False)
    else:
        cols = _actor_columns(
            [ActorState(time=0.0, step=0, actor_id="_", actor_type="tsv",
                        pos=GeoPosition(0.0, 0.0), bbox_true=None, speed=0.0,
                        vel_lat=0.0, vel_long=0.0, acc_lat=0.0, acc_long=0.0,
                        ttc=math.inf)],
            include_perceived=False,
        )
    ocols = _obstacle_columns((), include_perceived=False)
    roles = (
        (schema.ROLE_ACTORS_TRUE, cols, _rows_by_step(trace.actors),
         lambda rec: _actor_cells(rec, cols, component_order)),
        (schema.ROLE_ACTORS_PERCEIVED, ["Actor_Id", "Actor_bbox_perceived"],
         _rows_by_step(trace.actors, lambda r: r.bbox_perceived is not None),
         lambda rec: [rec.actor_id, shape_to_array(
             rec.bbox_perceived, component_order=component_order)]),
        (schema.ROLE_OBSTACLES_TRUE, ocols, _rows_by_step(trace.obstacles),
         lambda rec: _obstacle_cells(rec, ocols, component_order)),
        (schema.ROLE_OBSTACLES_PERCEIVED, ["Obst_Id", "Obst_poly_perceived"],
         _rows_by_step(trace.obstacles,
                       lambda r: r.poly_perceived is not None),
         lambda rec: [rec.obstacle_id, shape_to_array(
             rec.poly_perceived, component_order=component_order)]),
        (schema.ROLE_LIGHTS_TRUE, _CONTROLLER_COLUMNS,
         _rows_by_step(trace.controllers),
         lambda rec: _controller_cells(rec, _CONTROLLER_COLUMNS)),
        (schema.ROLE_LIGHTS_PERCEIVED, _CONTROLLER_COLUMNS, {}, None),
    )
    for role, columns, by_step, cells in roles:
        with open(root / role, "w", encoding="utf-8", newline="") as fh:
            w = _new_writer(fh)
            w.writerow(["Time", "Step_number"] + columns)
            for vut in trace.vut:
                for rec in by_step.get(vut.step, ()):
                    w.writerow([_fmt(rec.time), _fmt(rec.step)] + cells(rec))

    return root


def write_trace(trace, directory, layout: str = "flat",
                component_order: str = "lat_lon") -> Path:
    if layout == "flat":
        return write_flat(trace, directory, component_order=component_order)
    if layout == "distributed":
        return write_distributed(trace, directory,
                                 component_order=component_order)
    raise ValueError(f"unknown layout {layout!r}")
