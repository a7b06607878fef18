"""Reading and writing result traces.

Two layouts carry the same information:

* flat: a single ``results_<testcase_id>_r<run_id>.csv`` with the VUT
  channel plus one column-group repetition per environment entity;
* distributed: a folder ``<testcase_id>_r<run_id>`` with up to seven role
  files (``VUT_status.csv`` is the master clock and the only mandatory
  one; the ``*_perceived`` overlays attach onto the true-channel rows).

The column schema (``schema.COLUMNS``) is the codec.  A column's ``kind``
picks its cell decoder, ``allow_empty`` says whether an empty cell is
"no value" or a fault, and ``min``/``max``/``normalised`` bound its
values.  Each header is planned once.  The row decoder reads one row
through that plan: the clock cells first, then the id cell (empty means
"no record at this step"), then the other cells in file column order, so
a row with several bad cells reports the first of them in that order.
The alt_pos position pairs are the one special case: exactly one pair is
filled, whole, and it fixes the frame of the row's outlines.

A file is read by a column pass first: each planned column is decoded in
one pass with the row decoder's conversions and checked against its
schema bounds in bulk, and the outline cells in the writer's form are
parsed together and checked per vertex count.  A row that passes every
check gets its record built once, without the record type's checks
running again.  Any other row falls back to the row decoder, which
reports it, so the findings are exactly those of reading row by row.
The bulk checks may be stricter than the record types (``Time`` >= 0
holds for every group): such a row merely takes the row decoder.

Both writers write, in schema order, every column the schema requires
and every other one that some record fills.  They work by column: each
written column is gathered once and formatted in one pass (each outline
object once per write), and the rows are the columns zipped.

Readers are total: malformed content never raises, it lands in the
returned IntegrityReport, and a Trace is produced only when the report
carries no error-severity findings.  A value the record types reject,
such as a throttle above 1 or a negative step, is a BadValue finding at
its row.  Genuine I/O problems (missing path, unreadable file) raise
OSError as usual.

Files are comma-separated UTF-8; both LF and CRLF are accepted and LF is
written.  ``inf`` is the sentinel for never-occurring TTC/NTD values.
WGS84 position arrays are read and written latitude first.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import math
from pathlib import Path

import numpy as np

from . import integrity as it
from . import schema
from .errors import VistaError
from .integrity import IntegrityReport
from .model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
    VutState,
    _NAMES,
    _build,
    actor_mimics_obstacle,
    normalize_heading,
    obstacle_from_actor,
)
from .positions import shape_from_array, shape_to_array

_ENTITY_GROUPS = tuple(schema.GROUP_LEADERS.values())
# The VUT's flag columns, VUT_ind_<indicator>, and their indicators.
_INDICATORS = tuple((c.name, c.name[len("VUT_ind_"):])
                    for c in schema.group_columns("vut") if c.kind == "bool")
# The alt_pos pairs, world first: (frame, first column, second column).
_POS_PAIRS = (("wgs84", "Actor_pos_true_lat", "Actor_pos_true_lon"),
              ("vcs", "Actor_pos_true_x", "Actor_pos_true_y"))
_POS_COLUMN = _POS_PAIRS[0][1]     # where a pair fault is reported


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


# Decoder per schema kind; "array" cells also need the row's frame.
_DECODERS = {"float": _cell_float, "int": int, "code": int,
             "bool": _cell_bool, "ttc": _cell_ttc, "tag": str, "id": str}


def _fmt(v) -> str:
    # One cell; _cells formats whole columns to match it.
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, BoundingShape):
        return shape_to_array(v)
    if isinstance(v, float):
        # repr of a plain float round-trips exactly; numpy scalars do
        # not, so normalize first.
        return "inf" if math.isinf(v) else repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# record types: decoded cells -> record, record -> {column: value}

# Per group, the columns that map one to one onto a record field.
_FIELDS = {
    "vut": {"Time": "time", "Step_number": "step",
            "VUT_travelled": "travelled", "VUT_speed": "speed",
            "VUT_acc_long": "acc_long", "VUT_acc_lat": "acc_lat",
            "VUT_yaw_rate": "yaw_rate", "VUT_pitch_rate": "pitch_rate",
            "VUT_roll_rate": "roll_rate", "VUT_heading": "heading",
            "VUT_throttle": "throttle", "VUT_brake": "brake",
            "VUT_steering_angle": "steering_angle",
            "VUT_drive_status": "drive_status",
            "VUT_special_op": "special_op"},
    "actor": {"Time": "time", "Step_number": "step", "Actor_Id": "actor_id",
              "Actor_type": "actor_type", "Actor_bbox_true": "bbox_true",
              "Actor_bbox_perceived": "bbox_perceived",
              "Actor_vel_abs": "speed", "Actor_vel_lat": "vel_lat",
              "Actor_vel_long": "vel_long", "Actor_acc_lat": "acc_lat",
              "Actor_acc_long": "acc_long", "Actor_heading": "heading",
              "Actor_TTC": "ttc"},
    "obstacle": {"Time": "time", "Step_number": "step",
                 "Obst_Id": "obstacle_id", "Obst_type": "obst_type",
                 "Obst_poly_true": "poly_true",
                 "Obst_poly_perceived": "poly_perceived", "Obst_NTD": "ntd"},
    "controller": {"Time": "time", "Step_number": "step",
                   "Traffic_Ctrl_Id": "controller_id",
                   "Traffic_Ctrl_phase": "phase"},
}
# Entity group -> (id column, id field).
_IDS = {c.group: (c.name, _FIELDS[c.group][c.name])
        for c in schema.COLUMNS if c.kind == "id"}


def _getter(fields):
    """r -> {column: r.<field>} for a {column: field} map.

    The function is one dict display compiled from the map: it runs
    once per written record, and costs half of ``dict(zip(...))`` over
    an attrgetter.  Its source holds only the schema's names.
    """
    return eval("lambda r: {" + ", ".join(
        f"{column!r}: r.{field}" for column, field in fields.items()) + "}")


_FIELD_VALUES = {group: _getter(m) for group, m in _FIELDS.items()}


_TYPES = {"vut": VutState, "actor": ActorState, "obstacle": ObstacleState,
          "controller": TrafficControllerState}


@functools.lru_cache(maxsize=None)
def _flags(*lit) -> frozenset:
    """The indicator set of one row's VUT_ind_* flags (128 at most)."""
    return frozenset(flag for (_, flag), on in zip(_INDICATORS, lit) if on)


def _positions(frame, n, *fields) -> list:
    return _build(GeoPosition if frame == "wgs84" else VcsPosition, n,
                  *fields)


def _records(group, cols, n) -> list:
    """The records of n rows of one group from their decoded cells
    (column -> values), built without running ``__post_init__``."""
    cls = _TYPES[group]
    none = [None] * n
    f = {field: cols.get(col, none) for col, field in _FIELDS[group].items()}
    if group == "vut":
        f["pos"] = _positions("wgs84", n, cols["VUT_pos_lat"],
                              cols["VUT_pos_lon"], cols.get("VUT_pos_z", none))
        f["indicators"] = map(_flags, *(cols[c] for c, _ in _INDICATORS))
    elif group == "actor":
        # The alt_pos rule has made exactly one position pair whole.
        f["pos"] = pos = [None] * n
        for frame, *pair in _POS_PAIRS:
            first = cols.get(pair[0], none)
            rows = [k for k in range(n) if first[k] is not None]
            for k, p in zip(rows, _positions(frame, len(rows), *(
                    _pick(cols.get(c, none), rows)
                    for c in pair + ["Actor_pos_true_z"]))):
                pos[k] = p
    elif group == "obstacle":
        f["pos"] = _positions("wgs84", n, cols["Obst_pos_lat"],
                              cols["Obst_pos_lon"], none)
    return _build(cls, n, *(f[name] for name in _NAMES[cls]))


def _checked(rec):
    """rec once the checks of its constructors have passed, its
    position's first, as constructing it would run them."""
    pos = getattr(rec, "pos", None)
    if pos is not None:
        pos.__post_init__()
    rec.__post_init__()
    return rec


def _vut_values(r: VutState) -> dict:
    v = _FIELD_VALUES["vut"](r)
    v.update(VUT_pos_lat=r.pos.lat, VUT_pos_lon=r.pos.lon,
             VUT_pos_z=r.pos.elev)
    for col, flag in _INDICATORS:
        v[col] = flag in r.indicators
    return v


def _actor_values(r: ActorState) -> dict:
    if r.bbox_true is not None and r.bbox_true.frame != r.pos_frame:
        raise ValueError(
            f"actor {r.actor_id!r}: bbox frame {r.bbox_true.frame!r} "
            f"differs from position frame {r.pos_frame!r}"
        )
    v = _FIELD_VALUES["actor"](r)
    p = r.pos
    geo = isinstance(p, GeoPosition)
    v.update(Actor_pos_true_lat=p.lat if geo else None,
             Actor_pos_true_lon=p.lon if geo else None,
             Actor_pos_true_x=None if geo else p.x,
             Actor_pos_true_y=None if geo else p.y,
             Actor_pos_true_z=p.elev if geo else p.z)
    return v


def _obstacle_values(r: ObstacleState) -> dict:
    v = _FIELD_VALUES["obstacle"](r)
    v.update(Obst_pos_lat=r.pos.lat, Obst_pos_lon=r.pos.lon)
    return v


_VALUES = {"vut": _vut_values, "actor": _actor_values,
           "obstacle": _obstacle_values,
           "controller": _FIELD_VALUES["controller"]}

_TRUE_ROLES = ((schema.ROLE_ACTORS_TRUE, "actor"),
               (schema.ROLE_OBSTACLES_TRUE, "obstacle"),
               (schema.ROLE_LIGHTS_TRUE, "controller"))
# Distributed overlay role -> (group, overlay column, record field).  The
# model keeps no perceived traffic-light phase, so that overlay is only
# checked on reading and written header-only.
_OVERLAYS = {
    schema.ROLE_ACTORS_PERCEIVED: ("actor", "Actor_bbox_perceived",
                                   "bbox_perceived"),
    schema.ROLE_OBSTACLES_PERCEIVED: ("obstacle", "Obst_poly_perceived",
                                      "poly_perceived"),
    schema.ROLE_LIGHTS_PERCEIVED: ("controller", "Traffic_Ctrl_phase", None),
}


# ---------------------------------------------------------------------------
# the row decoder

class _RowProblem(Exception):
    def __init__(self, column, message):
        super().__init__(message)
        self.column = column


def _plan(cols, frame) -> list:
    """(index, column, decoder, empty allowed) for (index, column) pairs."""
    plan = []
    for idx, name in cols:
        spec = schema.BY_NAME[name]
        if spec.kind == "array":
            # shape_from_array is looked up at call time, so a wrapper set
            # on this module's name sees every call.
            def decode(cell):
                return shape_from_array(cell, frame=frame)
        elif spec.normalised:
            def decode(cell):
                return normalize_heading(_cell_float(cell))
        else:
            decode = _DECODERS[spec.kind]
        plan.append((idx, name, decode,
                     spec.allow_empty or spec.required == "alt_pos"))
    return plan


def _decode(row, plan, vals) -> dict:
    for idx, name, decode, empty_ok in plan:
        cell = row[idx].strip()
        if cell:
            try:
                vals[name] = decode(cell)
            except (ValueError, TypeError, VistaError) as exc:
                raise _RowProblem(name, str(exc)) from None
        elif empty_ok:
            vals[name] = None
        else:
            raise _RowProblem(name, "mandatory value is empty")
    return vals


class _Reader:
    """The rows under one header, read as records of one group.

    The header is planned once: the clock cells, the id cell, the alt_pos
    pairs, and per position frame every other cell of the group in file
    column order.  ``read`` decodes one row through that plan;
    ``read_columns`` decodes all rows of a file column by column.
    """

    def __init__(self, group, colmap):
        self.group = group
        self.id_col = _IDS[group][0] if group in _IDS else None
        names = schema.CLOCK + schema.column_names(group)
        cols = sorted((idx, name) for name, idx in colmap.items()
                      if name in names and name != self.id_col)
        self.id_idx = colmap.get(self.id_col)
        self.clock = _plan([c for c in cols if c[1] in schema.CLOCK],
                           "wgs84")
        rest = [c for c in cols if c[1] not in schema.CLOCK]
        self.plans = {f: _plan(rest, f) for f in ("wgs84", "vcs")}
        self.pairs = [(f, colmap.get(a), colmap.get(b))
                      for f, a, b in _POS_PAIRS
                      if a in names and (a in colmap or b in colmap)]

    def frame(self, row) -> str:
        """The alt_pos rule: exactly one position pair is filled, whole."""
        full = []
        for frame, a, b in self.pairs:
            n = sum(1 for i in (a, b) if i is not None and row[i].strip())
            if n == 1:
                raise _RowProblem(_POS_COLUMN, "half-filled position pair")
            if n == 2:
                full.append(frame)
        if len(full) > 1:
            raise _RowProblem(_POS_COLUMN,
                              "both world and VCS positions filled")
        if self.pairs and not full:
            raise _RowProblem(_POS_COLUMN, "no position value")
        return full[0] if full else "wgs84"

    def read(self, row):
        """The row's record, or None when it holds none.

        A bad cell, or a value the record type rejects, raises _RowProblem.
        """
        vals = _decode(row, self.clock, {})
        if self.id_idx is not None:
            eid = row[self.id_idx].strip()
            if not eid:
                return None
            vals[self.id_col] = eid
        _decode(row, self.plans[self.frame(row)], vals)
        try:
            return _checked(_records(
                self.group, {k: (v,) for k, v in vals.items()}, 1)[0])
        except (ValueError, TypeError) as exc:
            raise _RowProblem(None, str(exc)) from None

    def read_columns(self, table) -> list:
        """The column pass over a file's rows, ``_by_column(rows)``.

        Per row: its record, None when it holds none, or _REREAD.  Each
        planned column is decoded in one pass, with the row decoder's
        conversions, and checked against its schema bounds in bulk; a row
        that passes every check gets its record built once.  A row that
        fails any check, or is not as wide as the header, is left
        _REREAD, for the row decoder to read and report.
        """
        n, keep, columns = table
        out = [_REREAD] * n
        vals, faults = {}, set()
        for idx, name, decode, empty_ok in self.clock:
            vals[name], bad = _bulk(columns[idx], name, decode, empty_ok)
            faults.update(bad)
        live = [k for k in range(len(keep)) if k not in faults]
        if self.id_idx is not None:
            ids = list(map(str.strip, columns[self.id_idx]))
            for k in live:
                if not ids[k]:
                    out[keep[k]] = None
            live = [k for k in live if ids[k]]
            vals[self.id_col] = ids
        vals = {name: _pick(v, live) for name, v in vals.items()}
        frames, bad = self._frames(columns, live)
        faults = set(bad)
        # The wgs84 plan: array cells are decoded in each row's own frame.
        for idx, name, decode, empty_ok in self.plans["wgs84"]:
            cells = _pick(columns[idx], live)
            if schema.BY_NAME[name].kind == "array":
                vals[name], bad = _outlines(cells, frames, empty_ok)
            else:
                vals[name], bad = _bulk(cells, name, decode, empty_ok)
            faults.update(bad)
        good = [m for m in range(len(live)) if m not in faults]
        vals = {name: _pick(v, good) for name, v in vals.items()}
        for k, rec in zip(_pick(live, good),
                          _records(self.group, vals, len(good))):
            out[keep[k]] = rec
        return out

    def _frames(self, columns, live):
        """(frames, faults) of the live rows: each row's position frame by
        the alt_pos rule, and the positions of the rows that break it."""
        if not self.pairs:
            return ["wgs84"] * len(live), []
        filled = {frame: sum(np.array([bool(c.strip()) for c in
                                       _pick(columns[i], live)], dtype=int)
                             for i in (a, b) if i is not None)
                  for frame, a, b in self.pairs}
        whole = {frame: n == 2 for frame, n in filled.items()}
        bad = sum(whole.values()) != 1
        for n in filled.values():
            bad |= n == 1
        vcs = whole.get("vcs", np.zeros(len(live), dtype=bool))
        return (np.where(vcs, "vcs", "wgs84").tolist(),
                np.flatnonzero(bad).tolist())


def _read(reader, row, fname, rownum, rep, got):
    """The row's record: ``got`` from the column pass, or, when that is
    _REREAD, reader.read with a bad row reported as an error finding."""
    if got is not _REREAD:
        return got
    try:
        return reader.read(row)
    except _RowProblem as exc:
        rep.add(it.ERROR, it.BAD_VALUE, str(exc), file=fname, row=rownum,
                column=exc.column)
        return None


# ---------------------------------------------------------------------------
# the column pass

_REREAD = object()      # a row the column pass leaves to the row decoder

_FLAGS = {"0": False, "1": True}
# Per kind, the conversion the column pass tries on a whole column at
# once.  Wherever it succeeds it gives the row decoder's value (float and
# int ignore the surrounding whitespace that the row decoder strips); a
# column where it fails anywhere is decoded cell by cell.
_WHOLE = {"float": float, "ttc": float, "int": int, "code": int,
          "bool": _FLAGS.__getitem__, "tag": str.strip, "id": str.strip}


def _by_column(rows, width):
    """(n, keep, columns) of a file's data rows: their number, the
    positions of those exactly as wide as the header, and the cells of
    those column by column."""
    keep = [i for i, row in enumerate(rows) if len(row) == width]
    fit = rows if len(keep) == len(rows) else [rows[i] for i in keep]
    return len(rows), keep, list(zip(*fit)) if fit else [()] * width


def _pick(values, positions):
    """values at positions, an ascending subset of their indices."""
    if len(positions) == len(values):
        return values
    return [values[k] for k in positions]


def _bulk(cells, name, decode, empty_ok):
    """(values, faults) of one column: its cells decoded, and the
    positions of those the row decoder rejects or that break the
    column's schema bounds."""
    spec = schema.BY_NAME[name]
    try:
        values = list(map(_WHOLE[spec.kind], cells))
        faults = [] if spec.kind not in ("tag", "id") or all(values) \
            else None
    except (ValueError, KeyError):
        faults = None
    if faults is None:
        values, faults = [], []
        for k, cell in enumerate(cells):
            cell = cell.strip()
            value = None
            if cell:
                try:
                    value = decode(cell)
                except (ValueError, TypeError, VistaError):
                    faults.append(k)
            elif not empty_ok:
                faults.append(k)
            values.append(value)
    if spec.kind in ("int", "code"):
        lo = -math.inf if spec.min is None else spec.min
        hi = math.inf if spec.max is None else spec.max
        faults += [k for k, v in enumerate(values)
                   if v is not None and not lo <= v <= hi]
    elif spec.kind in ("float", "ttc"):
        a = np.array(values, dtype=float)       # None -> nan
        with np.errstate(invalid="ignore"):
            out = np.isnan(a) if spec.kind == "ttc" else ~np.isfinite(a)
            if spec.min is not None:
                out |= a < spec.min
            if spec.max is not None:
                out |= a > spec.max
            if spec.normalised:
                out |= (a < 0.0) | (a >= 360.0)
        if None in values:                      # empty cells allowed here
            out &= np.array([v is not None for v in values])
        faults += np.flatnonzero(out).tolist()
    return values, faults


# The bounds of a world outline's vertices: those of a world position.
_LAT, _LON = (schema.BY_NAME[c] for c in _POS_PAIRS[0][1:])


def _outlines(cells, frames, empty_ok):
    """(shapes, faults) of one array column: each cell read in its row's
    frame as shape_from_array reads it, and the positions of the cells
    the row decoder rejects.

    Each distinct cell is read once, and its rows share the (immutable)
    shape: a stationary entity repeats its outline verbatim at every
    step.
    """
    keys = list(zip(map(str.strip, cells), frames))
    distinct = [key for key in dict.fromkeys(keys) if key[0]]
    shapes, bad = _shapes(distinct)
    shape_of = dict(zip(distinct, shapes))
    bad = {distinct[j] for j in bad}
    faults = [k for k, key in enumerate(keys)
              if key in bad or not (key[0] or empty_ok)]
    return [shape_of.get(key) for key in keys], faults


def _shapes(items):
    """(shapes, faults) of (array text, frame) pairs.

    Texts in the writer's form ``|a b|c d|...|`` are parsed together and
    checked per vertex count as GeoPosition and BoundingShape check them.
    Any other text (a ``<n`` prefix, a ``>`` terminator, a z component)
    and one those checks refuse (a closed ring, say) goes to
    shape_from_array on its own.
    """
    shapes, faults, odd, plain = [None] * len(items), [], [], []
    for k, (c, _) in enumerate(items):
        if c[0] == "|" == c[-1] and "<" not in c and ">" not in c \
                and "," not in c:
            plain.append(k)
        else:
            odd.append(k)
    try:
        counts, flat = _vertices([items[k][0][1:-1] for k in plain])
    except ValueError:
        ok = []
        for k in plain:
            try:
                _vertices([items[k][0][1:-1]])
                ok.append(k)
            except ValueError:
                odd.append(k)
        plain = ok
        counts, flat = _vertices([items[k][0][1:-1] for k in plain])
    xy = np.array(flat, dtype=float).reshape(-1, 2)
    starts = list(itertools.accumulate(counts, initial=0))
    groups = {}
    for j, k in enumerate(plain):
        groups.setdefault((items[k][1], counts[j]), []).append(j)
    vertices = {}
    for (frame, n), js in groups.items():
        if frame not in vertices:
            vertices[frame] = _positions(frame, len(flat) // 2, flat[::2],
                                         flat[1::2], itertools.repeat(None))
        verts = vertices[frame]
        at = np.array(starts)[js]
        standing = _standing(xy[at[:, None] + np.arange(n)], frame).tolist()
        good = [j for j, ok in zip(js, standing) if ok]
        odd += [plain[j] for j, ok in zip(js, standing) if not ok]
        for j, shape in zip(good, _build(
                BoundingShape, len(good), itertools.repeat(frame),
                [tuple(verts[s:s + n]) for s in _pick(starts, good)])):
            shapes[plain[j]] = shape
    for k in odd:
        try:
            shapes[k] = shape_from_array(*items[k])
        except (ValueError, TypeError, VistaError):
            faults.append(k)
    return shapes, faults


def _vertices(texts):
    """(vertex counts, components) of array texts stripped of their outer
    pipes; ValueError unless every vertex is two numbers."""
    if not texts:
        return [], []
    vertices = list(map(str.split, "|".join(texts).split("|")))
    if list(map(len, vertices)).count(2) != len(vertices):
        raise ValueError("not two components per vertex")
    return ([t.count("|") + 1 for t in texts],
            list(map(float, itertools.chain.from_iterable(vertices))))


def _orient(a, b, c):
    """model._segments_properly_cross's orientation, over stacks."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _standing(o, frame) -> np.ndarray:
    """Which outlines of an (m, n, 2) stack, vertices in file component
    order, stand as read: every vertex a valid position of the frame, the
    first not repeated last, at least 3 distinct vertices and no two
    edges properly crossing.  These are the checks of GeoPosition,
    VcsPosition, shape_from_array and BoundingShape, in their arithmetic.
    """
    n = o.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        ok = np.isfinite(o).all(axis=(1, 2))
        pts = o
        if frame == "wgs84":
            for spec, c in ((_LAT, o[..., 0]), (_LON, o[..., 1])):
                ok &= ((c >= spec.min) & (c <= spec.max)).all(axis=1)
            pts = o[..., ::-1]              # BoundingShape checks (lon, lat)
        ok &= ~(o[:, 0] == o[:, -1]).all(axis=1)
        same = (pts[:, :, None] == pts[:, None]).all(axis=-1)
        ok &= n - np.tril(same, k=-1).any(axis=2).sum(axis=1) >= 3
        i, j = np.triu_indices(n, k=1)
        p1, p2 = pts[:, i], pts[:, (i + 1) % n]
        q1, q2 = pts[:, j], pts[:, (j + 1) % n]
        ok &= ~((_orient(q1, q2, p1) * _orient(q1, q2, p2) < 0)
                & (_orient(p1, p2, q1) * _orient(p1, p2, q2) < 0)).any(axis=1)
    return ok


# ---------------------------------------------------------------------------
# files, headers and rows

def _run_ids(name, pattern, what, form, rep):
    """(testcase_id, run_id) from a file or folder name, or None."""
    m = pattern.match(name)
    if not m:
        rep.add(it.ERROR, it.FILE_NAME_INVALID,
                f"{what} name {name!r} does not match {form}", file=name)
        return None
    run_id = int(m.group("run"))
    if run_id < 1:
        rep.add(it.ERROR, it.FILE_NAME_INVALID,
                f"run id must be >= 1, got {run_id}", file=name)
        return None
    return m.group("tc"), run_id


def _load(path, fname, rep):
    """The rows of a CSV file; None, with a finding, when it is empty or
    not UTF-8 CSV text."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            rep.add(it.ERROR, it.BAD_VALUE, f"file is not UTF-8 CSV text: "
                    f"{exc}", file=fname)
            return None
    if not rows:
        rep.add(it.ERROR, it.MISSING_HEADER, "file is empty", file=fname)
        return None
    return rows


def _padded(rows, fname, rep):
    """(rownum, row) for each data row, cut or padded to the header."""
    width = len(rows[0])
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            rep.add(it.WARNING, it.BAD_VALUE,
                    f"row has {len(row)} cells, header has {width}",
                    file=fname, row=rownum)
            row = (row + [""] * width)[:width]
        yield rownum, row


def _unknown(name, fname, rep, message="column {!r} is not in the schema"):
    rep.add(it.WARNING, it.UNKNOWN_COLUMN, message.format(name),
            file=fname, row=1, column=name)


def _segment_header(header, fname, rep):
    """Split a flat header into the common/VUT map and entity group maps.

    Returns (base, groups) where base maps column name -> index for the
    common and VUT columns and groups is a list of (group_name, colmap).
    Repeated groups are recognized by their leading id column.
    """
    base = {}
    groups = []
    current = None                  # the open (group, colmap) repetition
    for idx, raw_name in enumerate(header):
        name = raw_name.strip()
        spec = schema.BY_NAME.get(name)
        if name in schema.GROUP_LEADERS:
            current = (schema.GROUP_LEADERS[name], {name: idx})
            groups.append(current)
            continue
        if current is not None and spec is not None:
            group, colmap = current
            if spec.group == group and name not in colmap:
                colmap[name] = idx
                if name == schema.GROUP_LAST[group]:
                    current = None
                continue
            # A column of a different group closes the open segment.
            current = None
        if spec is None:
            _unknown(name, fname, rep)
        elif spec.group not in ("common", "vut"):
            _unknown(name, fname, rep,
                     "group column {!r} appears outside its group")
        elif name in base:
            _unknown(name, fname, rep, "duplicate column {!r} ignored")
        else:
            base[name] = idx
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
    if not any(a in colmap and b in colmap for _, a, b in _POS_PAIRS):
        rep.add(it.ERROR, it.MISSING_MANDATORY_COLUMN,
                "actor group needs either Actor_pos_true_lat/lon or "
                "Actor_pos_true_x/y", file=fname, row=1)
        return False
    return True


# ---------------------------------------------------------------------------
# series-level checks

def _vut_clock(vut_rows, fname, rep, no_rows):
    """The VUT clock of (rownum, VutState) rows: (median sample period,
    {step: time}), with monotonicity and start-time findings; None, with
    the ``no_rows`` error, when there are no rows."""
    if not vut_rows:
        rep.add(it.ERROR, it.BAD_VALUE, no_rows, file=fname)
        return None
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
    period = it.median_period([rec.time for _, rec in vut_rows])
    first_row, first = vut_rows[0]
    if period is not None and period > 0 and abs(first.time) > period:
        rep.add(it.WARNING, it.START_TIME_NONZERO,
                f"first record at t={first.time!r}, expected "
                "t=0 within one sample period",
                file=fname, row=first_row, column="Time")
    return period, {rec.step: rec.time for _, rec in vut_rows}


def _join(table, group, rec, step_times, half_period, fname, rownum, rep):
    """Append an entity record onto the VUT clock.

    The VUT file is the master clock: a record whose step it lacks is
    orphaned, one kept carries the VUT time for its step, and drift
    beyond half a sample period is reported.  Steps must increase.
    """
    id_col, id_field = _IDS[group]
    eid = getattr(rec, id_field)
    vut_time = step_times.get(rec.step)
    if vut_time is None:
        rep.add(it.ERROR, it.ORPHAN_STEP,
                f"{id_col}={eid}: step {rec.step} has no VUT record",
                file=fname, row=rownum, column="Step_number")
        return
    if half_period is not None and abs(rec.time - vut_time) > half_period:
        rep.add(it.WARNING, it.TIME_MISMATCH,
                f"{id_col}={eid}: time {rec.time!r} drifts from the "
                f"VUT time {vut_time!r} at step {rec.step}",
                file=fname, row=rownum, column="Time")
    recs = table.setdefault(eid, [])
    if recs and rec.step <= recs[-1].step:
        code = it.DUPLICATE_STEP if rec.step == recs[-1].step \
            else it.NON_MONOTONE_TIME
        rep.add(it.ERROR, code,
                f"{id_col}={eid}: step {rec.step} does not increase",
                file=fname, row=rownum, column="Step_number")
        return
    if rec.time != vut_time:
        rec = dataclasses.replace(rec, time=vut_time)
    recs.append(rec)


def _finish_trace(ids, vut_rows, tables, period, rep):
    """Final normalization + Trace construction once rows are collected."""
    if not rep.ok:
        return None
    actors, obstacles = tables["actor"], tables["obstacle"]
    # Obstacles exported through the actor channel move to the obstacle
    # table when every record is obstacle-coded and motionless.
    for aid, recs in list(actors.items()):
        if aid not in obstacles and recs \
                and all(actor_mimics_obstacle(r) for r in recs):
            try:
                obstacles[aid] = tuple(obstacle_from_actor(r) for r in recs)
            except ValueError:
                continue
            del actors[aid]
    try:
        return Trace(
            *ids,
            vut=tuple(rec for _, rec in vut_rows),
            actors={k: tuple(v) for k, v in actors.items()},
            obstacles={k: tuple(v) for k, v in obstacles.items()},
            controllers={k: tuple(v)
                         for k, v in tables["controller"].items()},
            declared_frequency=round(1.0 / period, 6)
            if period is not None and period > 0 else 0.0,
        )
    except (ValueError, TypeError) as exc:
        rep.add(it.ERROR, it.BAD_VALUE, f"trace rejected: {exc}")
        return None


# ---------------------------------------------------------------------------
# flat layout

def parse_flat(path):
    """Parse a flat results file -> (Trace | None, IntegrityReport)."""
    p = Path(path)
    rep = IntegrityReport()
    fname = p.name
    ids = _run_ids(fname, schema.FLAT_NAME_RE, "flat file",
                   "results_<testcase_id>_r<run_id>.csv", rep)
    if ids is None:
        return None, rep
    rows = _load(p, fname, rep)
    if rows is None:
        return None, rep
    base, groups = _segment_header(rows[0], fname, rep)

    ok = _require_columns(base, schema.CLOCK + schema.required_names("vut"),
                          fname, rep)
    for group, colmap in groups:
        ok &= _require_columns(colmap, schema.required_names(group), fname,
                               rep)
        if group == "actor":
            ok &= _check_actor_pos_columns(colmap, fname, rep)
    if not ok:
        return None, rep

    vut_reader = _Reader("vut", base)
    # Each group reads the clock cells too; they decoded for the VUT first.
    clock = {name: base[name] for name in schema.CLOCK}
    readers = [(group, _Reader(group, {**colmap, **clock}))
               for group, colmap in groups]
    # The column pass of every reader first; it adds no findings.
    table = _by_column(rows[1:], len(rows[0]))
    vut_got = vut_reader.read_columns(table)
    readers = [(group, reader, reader.read_columns(table))
               for group, reader in readers]
    vut_rows = []
    entity_rows = {group: [] for group in _ENTITY_GROUPS}
    for i, (rownum, row) in enumerate(_padded(rows, fname, rep)):
        vut = _read(vut_reader, row, fname, rownum, rep, vut_got[i])
        if vut is None:
            continue
        vut_rows.append((rownum, vut))
        for group, reader, got in readers:
            rec = _read(reader, row, fname, rownum, rep, got[i])
            if rec is not None:
                entity_rows[group].append((rownum, rec))

    clock = _vut_clock(vut_rows, fname, rep,
                       "file contains no usable data rows")
    if clock is None:
        return None, rep
    period, step_times = clock
    # Every record comes from a VUT row, so none is orphaned or drifts.
    tables = {group: {} for group in _ENTITY_GROUPS}
    for group in _ENTITY_GROUPS:
        for rownum, rec in entity_rows[group]:
            _join(tables[group], group, rec, step_times, None, fname, rownum,
                  rep)
    return _finish_trace(ids, vut_rows, tables, period, rep), rep


# ---------------------------------------------------------------------------
# distributed layout

def _read_role(folder, role, rep):
    """Read one role file -> (colmap, [(rownum, row)], header width) or
    None."""
    p = folder / role
    rows = _load(p, role, rep) if p.exists() else None
    if rows is None:
        return None
    colmap = {}
    for idx, raw_name in enumerate(rows[0]):
        name = raw_name.strip()
        if name in colmap:
            _unknown(name, role, rep, "duplicate column {!r} ignored")
        elif name in schema.BY_NAME:
            colmap[name] = idx
        else:
            _unknown(name, role, rep)
    required = [c for c in schema.ROLE_COLUMNS[role]
                if schema.BY_NAME[c].required == "yes"]
    if not _require_columns(colmap, required, role, rep):
        return None
    return colmap, list(_padded(rows, role, rep)), len(rows[0])


def _read_rows(reader, got, fname, rep):
    """(rownum, record or None) of each row of a role file read by
    _read_role, column pass first; a row's findings are added when it is
    yielded."""
    _, rows, width = got
    done = reader.read_columns(_by_column([row for _, row in rows], width))
    for (rownum, row), rec in zip(rows, done):
        yield rownum, _read(reader, row, fname, rownum, rep, rec)


def parse_distributed(path):
    """Parse a distributed run folder -> (Trace | None, IntegrityReport)."""
    folder = Path(path)
    rep = IntegrityReport()
    if not folder.is_dir():
        raise FileNotFoundError(f"not a run folder: {folder}")
    ids = _run_ids(folder.name, schema.DIR_NAME_RE, "run folder",
                   "<testcase_id>_r<run_id>", rep)
    if ids is None:
        return None, rep

    for child in sorted(folder.iterdir()):
        if child.name not in schema.ROLE_FILES:
            rep.add(it.WARNING, it.ROLE_FILE_MISNAMED,
                    f"unrecognized file {child.name!r} in run folder",
                    file=child.name)

    got = _read_role(folder, schema.ROLE_VUT, rep)
    if got is None:
        if not (folder / schema.ROLE_VUT).exists():
            rep.add(it.ERROR, it.MISSING_VUT_FILE,
                    f"{schema.ROLE_VUT} is missing", file=folder.name)
        return None, rep
    vut_rows = [(rownum, rec) for rownum, rec in _read_rows(
        _Reader("vut", got[0]), got, schema.ROLE_VUT, rep) if rec is not None]
    clock = _vut_clock(vut_rows, schema.ROLE_VUT, rep, "no usable VUT rows")
    if clock is None:
        return None, rep
    period, step_times = clock
    half_period = None if period is None else 0.5 * period

    tables = {}
    for role, group in _TRUE_ROLES:
        table = tables[group] = {}
        got = _read_role(folder, role, rep)
        if got is None or (group == "actor" and not _check_actor_pos_columns(
                got[0], role, rep)):
            continue
        for rownum, rec in _read_rows(_Reader(group, got[0]), got, role,
                                      rep):
            if rec is not None:
                _join(table, group, rec, step_times, half_period, role,
                      rownum, rep)
    for role in _OVERLAYS:
        _attach(folder, role, tables, rep)
    return _finish_trace(ids, vut_rows, tables, period, rep), rep


def _attach(folder, role, tables, rep):
    """Read one perceived overlay onto the true records it names.

    A row joins the true record of its id and step, and its outline is
    read in that record's position frame.  The perceived traffic-light
    overlay carries nothing the model keeps: its rows are only checked,
    and a bad one is a warning.
    """
    group, column, field = _OVERLAYS[role]
    got = _read_role(folder, role, rep)
    if got is None:
        return
    colmap, rows, _ = got
    table = tables[group]
    if field is not None:
        keep = ("Step_number", _IDS[group][0], column)
        colmap = {k: i for k, i in colmap.items() if k in keep}
    reader = _Reader(group, colmap)
    index = {(eid, rec.step): i
             for eid, recs in table.items() for i, rec in enumerate(recs)}
    for rownum, row in rows:
        try:
            if field is None:
                reader.read(row)
                continue
            # The id first: a row without one holds no record at all.
            eid = row[reader.id_idx].strip()
            if not eid:
                continue
            step = _decode(row, reader.clock, {})["Step_number"]
            i = index.get((eid, step))
            if i is None:
                rep.add(it.WARNING, it.ORPHAN_STEP,
                        f"{reader.id_col}={eid}: perceived record at step "
                        f"{step} has no true counterpart",
                        file=role, row=rownum)
                continue
            base = table[eid][i]
            # Obstacle outlines are always WGS84.
            frame = getattr(base, "pos_frame", "wgs84")
            value = _decode(row, reader.plans[frame], {}).get(column)
        except _RowProblem as exc:
            if field is None:
                rep.add(it.WARNING, it.BAD_VALUE,
                        f"{exc} (perceived phases are not retained)",
                        file=role, row=rownum, column=exc.column)
            else:
                rep.add(it.ERROR, it.BAD_VALUE, str(exc), file=role,
                        row=rownum, column=exc.column)
            continue
        if value is not None:
            table[eid][i] = dataclasses.replace(base, **{field: value})


def parse_trace(path):
    """Parse either layout, auto-detected -> (Trace | None, report)."""
    if detect_layout(path) == "flat":
        return parse_flat(path)
    return parse_distributed(path)


# ---------------------------------------------------------------------------
# writing

def _columns(candidates, rows, always=()) -> list:
    """The candidate columns a table writes, in schema order.

    A column is written when the schema requires it, when it is in
    ``always``, or when some row has a value for it.  Of the alt_pos
    pairs, the filled one is written; a table that fills both is
    refused, and one that fills neither (it has no rows) writes the
    world pair.
    """
    cols = [c for c in candidates
            if schema.BY_NAME[c].required == "yes" or c in always
            or any(r[c] is not None for r in rows)]
    pos = [c for c in cols if schema.BY_NAME[c].required == "alt_pos"]
    if len(pos) > 2:
        raise ValueError("cannot write world and VCS actor positions in "
                         "one table")
    if not pos and _POS_COLUMN in candidates:
        cols = [c for c in candidates if c in cols or c in _POS_PAIRS[0][1:]]
    return cols


def _write(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*columns))


def _cells(values, shapes) -> list:
    """``_fmt`` of each value of a column, in one pass for a column of one
    exact type or of outlines.  ``shapes`` (id -> text) holds the outlines
    this write call has formatted, so each object is formatted once."""
    kinds = set(map(type, values))
    kind = next(iter(kinds)) if len(kinds) == 1 else None
    if kind is float:
        cells = list(map(float.__repr__, values))
        return cells if "-inf" not in cells else list(map(_fmt, values))
    if kind is str or kind is int:
        return list(map(str, values))
    if kind is bool:
        return ["1" if v else "0" for v in values]
    if kinds <= {BoundingShape, type(None)}:
        new = {id(v): v for v in values
               if v is not None and id(v) not in shapes}
        shapes.update((k, shape_to_array(v)) for k, v in new.items())
        return [shapes[id(v)] if v is not None else "" for v in values]
    return list(map(_fmt, values))


def _table(cols, rows, shapes) -> list:
    """The cells of the named columns of {column: value} rows, column by
    column."""
    return [_cells([v[c] for v in rows], shapes) for c in cols]


def _entity_values(trace, group) -> list:
    """[(record, values)] of one group, entity by entity."""
    table = {"actor": trace.actors, "obstacle": trace.obstacles,
             "controller": trace.controllers}[group]
    return [[(r, _VALUES[group](r)) for r in recs] for recs in table.values()]


def write_flat(trace, directory) -> Path:
    """Write one run as a flat results file; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / schema.flat_filename(trace.testcase_id, trace.run_id)
    shapes = {}
    vut = [_vut_values(r) for r in trace.vut]
    header = _columns(schema.ROLE_COLUMNS[schema.ROLE_VUT], vut)
    columns = _table(header, vut, shapes)
    for group in _ENTITY_GROUPS:
        for entity in _entity_values(trace, group):
            cols = _columns(schema.column_names(group),
                            [v for _, v in entity])
            # Indexed by VUT step; a step without a record is blank.
            by_step = {r.step: v for r, v in entity}
            blank = dict.fromkeys(cols)
            columns += _table(cols, [by_step.get(r.step, blank)
                                     for r in trace.vut], shapes)
            header += cols
    _write(path, header, columns)
    return path


def write_distributed(trace, directory) -> Path:
    """Write one run as a distributed folder; returns the folder path.

    All seven role files are always present; overlays without content are
    header-only.  Entity rows follow the VUT clock: VUT step order, then
    entity order, then record order; records off the clock are dropped.
    """
    root = Path(directory) / schema.dir_name(trace.testcase_id, trace.run_id)
    root.mkdir(parents=True, exist_ok=True)
    shapes = {}
    values = {group: [rv for entity in _entity_values(trace, group)
                      for rv in entity] for group in _ENTITY_GROUPS}
    vut = [_vut_values(r) for r in trace.vut]
    cols = _columns(schema.ROLE_COLUMNS[schema.ROLE_VUT], vut)
    _write(root / schema.ROLE_VUT, cols, _table(cols, vut, shapes))
    roles = [(role, values[group], ()) for role, group in _TRUE_ROLES]
    roles += [(role, [(r, v) for r, v in values[group]
                      if field is not None and getattr(r, field) is not None],
               (column,))
              for role, (group, column, field) in _OVERLAYS.items()]
    for role, records, always in roles:
        cols = _columns(schema.ROLE_COLUMNS[role], [v for _, v in records],
                        always)
        by_step = {}
        for r, v in records:
            by_step.setdefault(r.step, []).append(v)
        rows = [v for rec in trace.vut for v in by_step.get(rec.step, ())]
        _write(root / role, cols, _table(cols, rows, shapes))
    return root


def write_trace(trace, directory, layout: str = "flat") -> Path:
    if layout == "flat":
        return write_flat(trace, directory)
    if layout == "distributed":
        return write_distributed(trace, directory)
    raise ValueError(f"unknown layout {layout!r}")
