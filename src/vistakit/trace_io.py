"""Reading and writing result traces.

Two layouts carry the same information:

* flat: a single ``results_<testcase_id>_r<run_id>.csv`` with the VUT
  channel plus one column-group repetition per environment entity;
* distributed: a folder ``<testcase_id>_r<run_id>`` with up to seven role
  files (``VUT_status.csv`` is the master clock and the only mandatory
  one; the ``*_perceived`` overlays attach onto the true-channel rows).
  Each role file holds the clock and one group's columns; a column of
  another group, or one a perceived file does not carry, is a warning,
  and is not read.

The column schema (``schema.COLUMNS``) is the codec.  A column's ``kind``
picks its cell decoder, ``allow_empty`` says whether an empty cell is
"no value" or a fault, and ``min``/``max``/``normalised`` bound its
values.  A file is cut into blocks of rows, and each block is read
column by column as it is cut: a column is decoded in one pass and
checked against its schema bounds in bulk, and the outline cells in the
writer's form are parsed together and checked per vertex count.  The
rows that pass every check are appended to their file's columns, one
value list per record field (``model.Channel``): the trace builds their
records only when something reads them, without the record type's checks
running again.  The flat layout's clock cells are decoded once, for the
VUT and every entity group.

A cell that fails a bulk check is decoded once more, alone, by its
column's decoder: a value it accepts replaces the bulk one (a heading of
370 reads 10), and a value it rejects is the row's finding, with the
decoder's message.  The first fault of a row is reported, in this order:
the clock cells, then the id cell (empty means "no record at this
step"), then the alt_pos rule (exactly one position pair is filled,
whole; it fixes the frame of the row's outlines), then the other cells
in file column order, and last the record type's checks, which
``model._check_row`` runs on every row with a cell the bounds flagged.
The bounds may be stricter than the record types (``Time`` >= 0 holds
for every group): such a row keeps its record.  A perceived overlay
row's first fault is, in this order: the id cell (empty: no record, no
finding), a clock cell, no true row of its id and step, its outline.

Rows are assembled into channels from masks over whole columns, not row
by row: the VUT clock flags repeated steps, times that do not increase
and steps that fall; the entity rows are joined to it by step, which
flags orphaned steps, drift beyond half a sample period and each
entity's steps that do not increase.  Only flagged rows are reported, in
row order, each with its findings in the order a row-by-row read meets
them.  These are the checks ``Trace`` makes of its records, so the trace
is made from the columns without making them again.

Both writers read the trace's channel columns (which a channel made
from records gathers when it is made), map them to file columns through
the one field/column map the readers use, and write, in schema order,
every column the schema requires and every other one that some row
fills.  The rows are written in pieces, each formatted column by column
as it is written (each outline object once per write).  An outline out
of its row's position frame, and a table with both world and VCS actor
positions, raise ValueError before any file is made.

Readers are total: malformed content never raises, it lands in the
returned IntegrityReport, and a Trace is produced only when the report
carries no error-severity findings.  A value the record types reject,
such as a throttle above 1 or a negative step, is a BadValue finding at
its row.  Genuine I/O problems (missing path, unreadable file) raise
OSError as usual.

Files are comma-separated UTF-8.  The writers write the bytes
``csv.writer`` writes with LF line ends, and the readers read what the
csv module reads (LF, CRLF or CR line ends, a leading byte order mark,
quoted cells).  Only a table that needs it goes through the csv
module: one with a cell to quote, a CR or NUL, a row not as wide as its
header or a one-column header.  Any other is joined and cut at its
commas and newlines (``_write``, ``_cut``).  ``inf`` is the sentinel
for never-occurring TTC/NTD values.  WGS84 position arrays are read and
written latitude first.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from pathlib import Path

import numpy as np

from . import integrity as it
from . import schema
from .errors import VistaError
from .geometry import _distinct_counts, _orient
from .integrity import IntegrityReport
from .model import (
    COLUMNS,
    ActorState,
    BoundingShape,
    Channel,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
    VutState,
    _NAMES,
    _build,
    _check_row,
    _obstacle_columns,
    normalize_heading,
)
from .positions import shape_from_array, shape_to_array

_ENTITY_GROUPS = tuple(schema.GROUP_LEADERS.values())


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


def _cell_heading(cell: str) -> float:
    return normalize_heading(_cell_float(cell))


# Decoder per schema kind; outline ("array") cells are read in their
# row's frame, by _outlines.
_DECODERS = {"float": _cell_float, "int": int, "code": int,
             "bool": _cell_bool, "ttc": _cell_ttc, "tag": str, "id": str}
# Decoder per column, and the columns where an empty cell is no value.
_DECODE = {c.name: _cell_heading if c.normalised else _DECODERS[c.kind]
           for c in schema.COLUMNS if c.kind != "array"}
_MAY_BE_EMPTY = frozenset(c.name for c in schema.COLUMNS
                          if c.allow_empty or c.required == "alt_pos")


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
# record types: the one map between records and columns, both ways

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
# Per group and position frame, the columns of the record's ``pos``, in
# the order of the position type's fields (None: a field no column holds).
# The actor's two frames are the alt_pos pairs, world first.
_POS = {
    "vut": {"wgs84": ("VUT_pos_lat", "VUT_pos_lon", "VUT_pos_z")},
    "actor": {"wgs84": ("Actor_pos_true_lat", "Actor_pos_true_lon",
                        "Actor_pos_true_z"),
              "vcs": ("Actor_pos_true_x", "Actor_pos_true_y",
                      "Actor_pos_true_z")},
    "obstacle": {"wgs84": ("Obst_pos_lat", "Obst_pos_lon", None)},
}
_POS_TYPES = {"wgs84": GeoPosition, "vcs": VcsPosition}
_POS_COLUMN = _POS["actor"]["wgs84"][0]     # where a pair fault is reported
# The VUT's flag columns, VUT_ind_<indicator>, and their indicators.
_INDICATORS = tuple((c.name, c.name[len("VUT_ind_"):])
                    for c in schema.group_columns("vut") if c.kind == "bool")
# Entity group -> (id column, id field).
_IDS = {c.group: (c.name, _FIELDS[c.group][c.name])
        for c in schema.COLUMNS if c.kind == "id"}
# Per group, its outline columns; an outline is in its position's frame.
_OUTLINES = {g: [c for c in _FIELDS[g] if schema.BY_NAME[c].kind == "array"]
             for g in _FIELDS}

_TYPES = {"vut": VutState, "actor": ActorState, "obstacle": ObstacleState,
          "controller": TrafficControllerState}


@functools.lru_cache(maxsize=None)
def _flags(*lit) -> frozenset:
    """The indicator set of one row's VUT_ind_* flags (128 at most)."""
    return frozenset(flag for (_, flag), on in zip(_INDICATORS, lit) if on)


def _positions(frame, n, *fields) -> list:
    return _build(_POS_TYPES[frame], n, *fields)


def _fields(group, cols, n) -> dict:
    """The Channel columns of n rows of one group from their decoded
    cells (CSV column -> values).  A row's position is in the frame whose
    first column it fills (the alt_pos rule has made exactly one actor
    pair whole), so a column the two frames share goes, row by row, to
    the frame of the row."""
    none = [None] * n
    f = {field: cols.get(col, none) for col, field in _FIELDS[group].items()}
    if group == "vut":
        f["indicators"] = list(map(_flags, *(cols[c] for c, _ in _INDICATORS)))
    for frame, pcols in _POS.get(group, {}).items():
        first = cols.get(pcols[0], none)
        whole = None not in first
        for col, name in zip(pcols, _NAMES[_POS_TYPES[frame]]):
            values = cols.get(col, none)
            f[name] = values if whole or values is none else [
                v if w is not None else None for v, w in zip(values, first)]
    return f


def _cells_of(group, cols) -> dict:
    """{CSV column: values} of Channel columns of one group, the inverse
    of _fields.

    A position column holds None where the row's position is in the other
    frame.  An outline in a frame other than its row's position frame is
    refused: it would read back in the position frame.
    """
    values = {col: cols[field] for col, field in _FIELDS[group].items()}
    if group == "vut":
        sets = cols["indicators"]
        for col, flag in _INDICATORS:
            values[col] = [flag in s for s in sets]
    for frame, pcols in _POS.get(group, {}).items():
        for col, name in zip(pcols, _NAMES[_POS_TYPES[frame]]):
            if col in values:           # shared by the frames: merge
                values[col] = [v if w is None else w
                               for v, w in zip(values[col], cols[name])]
            elif col is not None:
                values[col] = cols[name]
    if _OUTLINES[group] and None in cols["lat"]:
        frames = ["wgs84" if v is not None else "vcs" for v in cols["lat"]]
    else:
        frames = itertools.repeat("wgs84")
    for col in _OUTLINES[group]:
        for k, (shape, frame) in enumerate(zip(values[col], frames)):
            if shape is not None and shape.frame != frame:
                raise ValueError(
                    f"{_IDS[group][0]}={cols[_IDS[group][1]][k]}: {col} "
                    f"at step {cols['step'][k]} is in the {shape.frame} "
                    f"frame, its position in the {frame} frame")
    return values


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
# the column pass

class _Reader:
    """The rows under one header, read as records of one group.

    The header is planned once: the clock cells, the id cell, the alt_pos
    pairs and the other cells of the group, each in file column order.
    """

    def __init__(self, group, colmap):
        self.group = group
        self.id_col = _IDS[group][0] if group in _IDS else None
        cols = sorted((idx, name) for name, idx in colmap.items()
                      if name != self.id_col)
        self.id_idx = colmap.get(self.id_col)
        self.clock = [c for c in cols if c[1] in schema.CLOCK]
        self.rest = [c for c in cols if c[1] not in schema.CLOCK]
        self.pairs = [(f, colmap.get(a), colmap.get(b))
                      for f, (a, b, _) in _POS.get(group, {}).items()
                      if schema.BY_NAME[a].required == "alt_pos"
                      and (a in colmap or b in colmap)]
        self.shapes = {}            # the outlines read, see _outlines

    def read_columns(self, table, clock=None) -> tuple:
        """(rows, columns, faults) of one block of a file's rows,
        ``table`` (see ``_by_column``): the ascending positions of the
        rows that hold a record, their Channel columns, and {position:
        (column, message)} of the rows with a finding, the column None for
        a value its record type rejects.  The other rows hold no record.
        ``clock`` holds the clock columns' ``_bulk`` results when another
        reader of the same rows has them.

        Each column is decoded and checked in one pass, and its cells are
        then dropped from ``table`` (set to None).  A row's faults
        are noted in the order of the module docstring, so the first one
        noted is its finding.  Each row with a cell the bounds flagged
        then has its record checked by ``_check_row``; no other row's
        record is built.
        """
        n, columns = table
        vals, found, check = {}, {}, set()

        def note(rows, faults, name):
            for m, message in faults.items():
                if message is None:
                    check.add(rows[m])
                else:
                    found.setdefault(rows[m], (name, message))

        for idx, name in self.clock:
            vals[name], faults = clock[name] if clock else _bulk(
                columns[idx], name)
            columns[idx] = None
            note(range(n), faults, name)
        live = [k for k in range(n) if k not in found] if found \
            else range(n)
        if self.id_idx is not None:
            vals[self.id_col] = ids = list(map(str.strip,
                                               columns[self.id_idx]))
            if "" in ids:
                live = [k for k in live if ids[k]]
        vals = {name: _pick(v, live) for name, v in vals.items()}
        frames, faults = self._frames(columns, live)
        note(live, faults, _POS_COLUMN)
        for idx, name in self.rest:
            cells, columns[idx] = _pick(columns[idx], live), None
            if schema.BY_NAME[name].kind == "array":
                vals[name], faults = _outlines(cells, frames, name,
                                               self.shapes)
            else:
                vals[name], faults = _bulk(cells, name)
            note(live, faults, name)
        good = [m for m, k in enumerate(live) if k not in found] if found \
            else range(len(live))
        rows = _pick(live, good)
        cols = _fields(self.group, {name: _pick(v, good)
                                    for name, v in vals.items()}, len(good))
        if check:
            kept = []
            for m, k in enumerate(rows):
                if k in check:
                    try:
                        _check_row(_TYPES[self.group], cols, m)
                    except (ValueError, TypeError) as exc:
                        found[k] = (None, str(exc))
                        continue
                kept.append(m)
            rows, cols = _pick(rows, kept), _take(cols, kept)
        return rows, cols, found

    def _frames(self, columns, live):
        """(frames, faults) of the live rows: each row's position frame by
        the alt_pos rule, and {position: message} of the rows that break
        it."""
        if not self.pairs:
            return ["wgs84"] * len(live), {}
        filled = {frame: sum(np.array(list(map(bool, map(
            str.strip, _pick(columns[i], live)))), dtype=int)
            for i in (a, b) if i is not None) for frame, a, b in self.pairs}
        half = sum(n == 1 for n in filled.values()) > 0
        whole = sum(n == 2 for n in filled.values())
        faults = {m: "half-filled position pair" if half[m] else
                  "both world and VCS positions filled" if whole[m] else
                  "no position value"
                  for m in np.flatnonzero(half | (whole != 1)).tolist()}
        vcs = filled.get("vcs", np.zeros(len(live), dtype=int)) == 2
        return np.where(vcs, "vcs", "wgs84").tolist(), faults


_FLAGS = {"0": False, "1": True}
# Per numeric column, the inclusive bounds its values must keep (NaN
# keeps none; a float column's values must be finite too).  A normalised
# heading lies in [0, 360).
_BOUNDS = {c.name: (0.0, math.nextafter(360.0, 0.0)) if c.normalised else (
    -math.inf if c.min is None else c.min,
    math.inf if c.max is None else c.max)
    for c in schema.COLUMNS if c.kind in ("int", "code", "float", "ttc")}
# Per kind, the conversion the column pass tries on a whole column at
# once.  Wherever it succeeds it gives the cell decoder's value (float
# and int ignore the surrounding whitespace that is stripped before a
# cell is decoded), save where the schema bounds flag it; a column where
# it fails anywhere is decoded cell by cell.
_WHOLE = {"float": float, "ttc": float, "int": int, "code": int,
          "bool": _FLAGS.__getitem__, "tag": str.strip}


def _by_column(rows, width):
    """((n, columns), warnings) of a file's data rows: their number and
    their cells column by column, each row cut or padded to the header's
    width, and the findings (see ``_report``) of the rows that had to
    be."""
    misfits = np.flatnonzero(np.fromiter(map(len, rows), int, len(rows))
                             != width).tolist()
    fit = list(rows)
    for k in misfits:
        fit[k] = (rows[k] + [""] * width)[:width]
    warnings = {k: [(it.WARNING, it.BAD_VALUE, f"row has {len(rows[k])} "
                     f"cells, header has {width}", None)] for k in misfits}
    flat = list(itertools.chain.from_iterable(fit))
    return (len(rows), [flat[j::width] for j in range(width)]), warnings


def _report(found, fname, rep):
    """Add row findings, {position: [(severity, code, message, column)]},
    in row order."""
    for k in sorted(found):
        for severity, code, message, column in found[k]:
            rep.add(severity, code, message, file=fname, row=k + 2,
                    column=column)


def _bad_values(found, faults, keep=None):
    """Note a column pass's faults in found as BadValue errors; with keep
    (a mask by position), only the faults of the rows it keeps."""
    for k, (column, message) in faults.items():
        if keep is None or keep[k]:
            found.setdefault(k, []).append((it.ERROR, it.BAD_VALUE, message,
                                            column))


def _read(readers, blocks, clock=None) -> tuple:
    """(n, *got) of a file's blocks (see ``_table``): its number of rows,
    then per reader the (rows, columns, faults) of ``read_columns`` over
    the whole file, appended block by block.  The clock columns (name ->
    index), when given, are decoded once per block for every reader."""
    got, n = [([], {}, {}) for _ in readers], 0
    for table in blocks:
        decoded = clock and {name: _bulk(table[1][idx], name)
                             for name, idx in clock.items()}
        for reader, (rows, cols, faults) in zip(readers, got):
            at, values, found = reader.read_columns(table, decoded)
            rows += range(at.start + n, at.stop + n) if type(at) is range \
                else map(n.__add__, at)
            for name, column in values.items():
                cols.setdefault(name, []).extend(column)
            faults.update((k + n, fault) for k, fault in found.items())
        n += table[0]
    return (n, *got)


def _whole(blocks) -> tuple:
    """The (n, columns) tables of a file's blocks as one table."""
    blocks = list(blocks)
    return sum(n for n, _ in blocks), [list(itertools.chain.from_iterable(
        cells)) for cells in zip(*(columns for _, columns in blocks))]


def _pick(values, positions):
    """values at positions, an ascending subset of their indices."""
    if len(positions) == len(values):
        return values
    return [values[k] for k in positions]


def _take(cols, positions) -> dict:
    """The rows at positions of columns (name -> values), see _pick."""
    return {name: _pick(values, positions) for name, values in cols.items()}


def _bulk(cells, name):
    """(values, faults) of one column: its cells decoded, and
    {position: message} of those its decoder rejects, or None for those
    it accepts but the column's schema bounds flag.

    A flagged cell is decoded once more, alone, and that value replaces
    the bulk one: a heading of 370 reads 10.
    """
    spec = schema.BY_NAME[name]
    decode = _DECODE[name]
    try:
        values = list(map(_WHOLE[spec.kind], cells))
        if spec.kind == "tag":          # equal cells share one string
            values = list(map({}.setdefault, values, values))
        faults = {} if spec.kind != "tag" or all(values) else None
    except (ValueError, KeyError):
        faults = None
    if faults is None:
        values, faults = [], {}
        for k, cell in enumerate(cells):
            cell = cell.strip()
            value = None
            if cell:
                try:
                    value = decode(cell)
                except (ValueError, TypeError, VistaError) as exc:
                    faults[k] = str(exc)
            elif name not in _MAY_BE_EMPTY:
                faults[k] = "mandatory value is empty"
            values.append(value)
    flagged = []
    if name in _BOUNDS:
        lo, hi = _BOUNDS[name]
        finite = spec.kind == "float"
        try:
            # One sum, min and max clear a column: a sum is finite (not
            # NaN) only when every term is, and an infinite bound holds
            # for all else; None, an empty cell's value, fails the sum.
            total = sum(values)
            clear = (math.isfinite(total) if finite else total == total) \
                and (lo == -math.inf or lo <= min(values, default=lo)) \
                and (hi == math.inf or max(values, default=hi) <= hi)
        except TypeError:
            clear = False
        if not clear:
            flagged = [k for k, v in enumerate(values)
                       if v is not None and not (
                           lo <= v <= hi and (not finite or math.isfinite(v)))]
    for k in flagged:
        try:
            values[k], faults[k] = decode(cells[k].strip()), None
        except (ValueError, TypeError, VistaError) as exc:
            faults[k] = str(exc)
    return values, faults


# The bounds of a world outline's vertices: those of a world position.
_LAT, _LON = (schema.BY_NAME[c] for c in _POS["actor"]["wgs84"][:2])


def _outlines(cells, frames, name, memo):
    """(shapes, faults) of one outline column: each cell read in its row's
    frame as shape_from_array reads it, and {position: message} of the
    cells it rejects.

    Each distinct cell is read once, and its rows share the (immutable)
    shape: a stationary entity repeats its outline verbatim at every
    step.  ``memo`` ({(text, frame): shape}) holds the file's cells read.
    """
    texts = list(map(str.strip, cells))
    keys = list(zip(texts, frames))
    distinct = [key for key in dict.fromkeys(keys) if key[0]
                and key not in memo]
    shapes, bad = _shapes(distinct)
    memo.update((key, shape) for key, shape in zip(distinct, shapes)
                if shape is not None)
    bad = {distinct[j]: message for j, message in bad.items()}
    empty_ok = name in _MAY_BE_EMPTY
    faults = {}
    if bad or not empty_ok and "" in texts:
        faults = {k: bad.get(key, "mandatory value is empty")
                  for k, key in enumerate(keys)
                  if key in bad or not (key[0] or empty_ok)}
    return list(map(memo.get, keys)), faults


def _shapes(items):
    """(shapes, faults) of (array text, frame) pairs, the faults as
    {position: message}.

    Texts in the writer's form ``|a b|c d|...|`` are parsed together and
    checked per vertex count as GeoPosition and BoundingShape check them.
    Any other text (a ``<n`` prefix, a ``>`` terminator, a z component)
    and one those checks refuse (a closed ring, say) goes to
    shape_from_array on its own.
    """
    shapes, faults, odd, plain = [None] * len(items), {}, [], []
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
        except (ValueError, TypeError, VistaError) as exc:
            faults[k] = str(exc)
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


def _standing(o, frame) -> np.ndarray:
    """Which outlines of an (m, n, 2) stack, vertices in file component
    order, stand as read: every vertex a valid position of the frame, the
    first not repeated last, at least 3 distinct vertices and no two
    edges properly crossing.  These are the checks of GeoPosition,
    VcsPosition, shape_from_array and BoundingShape, in their arithmetic;
    the counting and the orientation are geometry's.
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
        ok &= _distinct_counts(pts) >= 3
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


def _table(path, fname, rep, read):
    """``read(header, blocks, warnings)`` of a CSV file, blocks yielding
    its rows block by block (``_cut``) as ``_by_column`` tables; None, with
    a finding, when the file is empty or not UTF-8 CSV text.  If a block
    is refused, the findings since the call are taken back and ``read``
    runs again on the file read by the csv module (``_load``) as one
    block, with ``_by_column``'s warnings."""
    mark = len(rep.findings)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            blocks = _cut(fh)
            got = read(next(blocks), blocks, {})
            for _ in blocks:        # cut the blocks read did not take
                pass
        return got
    except (csv.Error, UnicodeDecodeError):     # _load reports the latter
        del rep.findings[mark:]
    rows = _load(path, fname, rep)
    if rows is None:
        return None
    table, warnings = _by_column(rows[1:], len(rows[0]))
    return read(rows[0], [table], warnings)


# Characters per block that _cut reads.  A parse holds one block's cells
# beside the values decoded so far, so its memory grows with the block,
# not the file; a 100 Hz run's file is a few blocks.  A block under the
# csv module's field limit is searched for an overlong line only when it
# carries a long one over.
_BLOCK = 120 * 1024


def _cut(fh):
    """The header, then the ``(n, columns)`` table of each block, of a CSV
    text cut at its newlines and commas.  That gives the csv module's
    cells when the header has two columns or more and the text has no
    quote, CR or NUL, every line as many cells as the header and none
    longer than the csv module's field limit; csv.Error at the first
    block of any other text.

    Each newline is cut out as a cell of its own, so a line of the
    header's width ends in a newline cell exactly where one is due.
    """
    limit = csv.field_size_limit()
    header = None
    for text in _blocks(fh):
        if header is None:
            step = text.count(",", 0, text.index("\n")) + 2
        cells = text.replace("\n", ",\n,").split(",")
        del cells[-1]
        n = text.count("\n")
        if step < 3 or '"' in text or "\r" in text or "\x00" in text or (
                len(cells) != n * step
                or cells[step - 1::step].count("\n") != n) or (
                len(text) > limit
                and max(map(len, text.split("\n"))) > limit):
            raise csv.Error("not a plain table")
        columns = [cells[j::step] for j in range(step - 1)]
        del cells
        if header is None:
            header = [column.pop(0) for column in columns]
            yield header
            n -= 1
        yield n, columns
    if header is None:
        raise csv.Error("empty")


def _blocks(fh):
    """The text of fh in blocks of whole lines, each ending in a newline."""
    rest = ""
    for block in iter(functools.partial(fh.read, _BLOCK), ""):
        text = rest + block
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest + "\n"


def _load(path, fname, rep):
    """The rows of a CSV file read by the csv module; None, with a
    finding, when it is empty or not UTF-8 CSV text."""
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
    if not any(a in colmap and b in colmap
               for a, b, _ in _POS["actor"].values()):
        rep.add(it.ERROR, it.MISSING_MANDATORY_COLUMN,
                "actor group needs either Actor_pos_true_lat/lon or "
                "Actor_pos_true_x/y", file=fname, row=1)
        return False
    return True


# ---------------------------------------------------------------------------
# series-level checks

def _ints(values) -> np.ndarray:
    """Integers as an array: int64, or Python ints where one overflows it
    (the schema bounds no step from above)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _vut_clock(rows, vut, fname, rep, no_rows):
    """The VUT clock of the rows at rows (ascending positions), vut their
    Channel columns: (median sample period, {step: time}), with
    monotonicity and start-time findings; None, with the ``no_rows``
    error, when there are no rows.

    A row's step must not repeat an earlier one, and its time and step
    must not fall below the previous row's.
    """
    if not rows:
        rep.add(it.ERROR, it.BAD_VALUE, no_rows, file=fname)
        return None
    times, steps = vut["time"], vut["step"]
    t, s = np.array(times), _ints(steps)
    order = np.argsort(s, kind="stable")
    seen = np.zeros(len(s), dtype=bool)     # an earlier record has the step
    seen[order[1:]] = s[order[1:]] == s[order[:-1]]
    late, back = np.zeros(len(s), dtype=bool), np.zeros(len(s), dtype=bool)
    late[1:], back[1:] = t[1:] <= t[:-1], s[1:] < s[:-1]
    found = {}
    for m in np.flatnonzero(seen | late | back).tolist():
        notes = found[rows[m]] = []
        if seen[m]:
            notes.append((it.ERROR, it.DUPLICATE_STEP,
                          f"step {steps[m]} appears more than once",
                          "Step_number"))
        if late[m]:
            notes.append((it.ERROR, it.NON_MONOTONE_TIME,
                          f"time {times[m]!r} does not increase past "
                          f"{times[m - 1]!r}", "Time"))
        if back[m]:
            notes.append((it.ERROR, it.NON_MONOTONE_TIME,
                          f"step {steps[m]} decreases past {steps[m - 1]}",
                          "Step_number"))
    _report(found, fname, rep)
    period = it.median_period(times)
    if period is not None and period > 0 and abs(times[0]) > period:
        rep.add(it.WARNING, it.START_TIME_NONZERO,
                f"first record at t={times[0]!r}, expected "
                "t=0 within one sample period",
                file=fname, row=rows[0] + 2, column="Time")
    return period, dict(zip(steps, times))


def _join(table, group, rows, cols, step_times, half_period, found):
    """Put the entity rows at rows (their positions, in row order), cols
    their Channel columns, onto the VUT clock, into table (entity id ->
    its columns, taken out of cols), noting findings in found.

    The VUT file is the master clock: a row whose step it lacks is
    orphaned, one kept carries the VUT time for its step, and drift
    beyond half a sample period is reported.  An entity's steps must
    increase: a row at or below the last kept one of its entity is
    refused.  Entities enter table in the order of their first row that
    is not orphaned.
    """
    if not rows:
        return
    id_col, id_field = _IDS[group]
    eids, steps, times = cols[id_field], cols["step"], cols["time"]
    vut_times = list(map(step_times.get, steps))
    t, vt = np.array(times), np.array(vut_times, dtype=float)  # None: nan
    orphan = np.isnan(vt)
    drift = np.zeros(len(rows), dtype=bool)
    if half_period is not None:
        drift = np.abs(t - vt) > half_period
    # Each entity's rows on the clock in row order, entities by first row;
    # a row whose step does not top its entity's earlier ones is refused.
    entities = {}
    for m in np.flatnonzero(~orphan).tolist():
        entities.setdefault(eids[m], []).append(m)
    s = _ints(steps)
    refused = np.zeros(len(rows), dtype=bool)
    repeated = np.zeros(len(rows), dtype=bool)
    moved = np.flatnonzero(~orphan & (t != vt)).tolist()
    if moved:
        cols["time"] = list(times)
        for m in moved:
            cols["time"][m] = vut_times[m]
    for eid, at in entities.items():
        at = np.array(at)
        top = np.maximum.accumulate(s[at])[:-1]
        refused[at[1:]] = s[at[1:]] <= top
        repeated[at[1:]] = s[at[1:]] == top
        entities[eid] = at[~refused[at]].tolist()
    for name in list(cols):
        values = cols.pop(name)
        for eid, at in entities.items():
            table.setdefault(eid, {})[name] = _pick(values, at)
    for m in np.flatnonzero(orphan | drift | refused).tolist():
        eid, step = eids[m], steps[m]
        notes = found.setdefault(rows[m], [])
        if orphan[m]:
            notes.append((it.ERROR, it.ORPHAN_STEP,
                          f"{id_col}={eid}: step {step} has no VUT record",
                          "Step_number"))
            continue
        if drift[m]:
            notes.append((it.WARNING, it.TIME_MISMATCH,
                          f"{id_col}={eid}: time {times[m]!r} drifts from "
                          f"the VUT time {vut_times[m]!r} at step {step}",
                          "Time"))
        if refused[m]:
            notes.append((it.ERROR, it.DUPLICATE_STEP if repeated[m]
                          else it.NON_MONOTONE_TIME,
                          f"{id_col}={eid}: step {step} does not increase",
                          "Step_number"))


def _finish_trace(ids, vut, tables, period, rep):
    """Final normalization + Trace construction once rows are collected.

    The rows' checks are the trace's own checks of its records (VUT time
    and steps increase, entity steps are on the VUT clock and increase),
    so the Trace is built from the columns without them.  Nor can its run
    checks refuse it: the name patterns capture a non-empty test case id,
    ``_run_ids`` refuses a run id below 1, and ``_vut_clock`` a VUT with
    no row."""
    if not rep.ok:
        return None
    actors, obstacles = tables["actor"], tables["obstacle"]
    # Obstacles exported through the actor channel move to the obstacle
    # table when every row is obstacle-coded and motionless.
    for aid, cols in list(actors.items()):
        moved = _obstacle_columns(cols) if aid not in obstacles else None
        if moved is not None:
            obstacles[aid] = moved
            del actors[aid]

    def channels(group):
        return {k: Channel(_TYPES[group], v) for k, v in tables[group].items()}
    return Trace._checked(
        *ids,
        vut=Channel(VutState, vut),
        actors=channels("actor"),
        obstacles=channels("obstacle"),
        controllers=channels("controller"),
        declared_frequency=round(1.0 / period, 6)
        if period is not None and period > 0 else 0.0,
    )


# ---------------------------------------------------------------------------
# flat layout

def parse_flat(path):
    """Parse a flat results file -> (Trace | None, IntegrityReport)."""
    p = Path(path)
    rep = IntegrityReport()
    fname = p.name
    ids = _run_ids(fname, schema.FLAT_NAME_RE, "flat file",
                   "results_<testcase_id>_r<run_id>.csv", rep)
    got = None if ids is None else _table(
        p, fname, rep, functools.partial(_flat_rows, fname, rep))
    if got is None:
        return None, rep
    (vut_rows, vut), got = got
    clock = _vut_clock(vut_rows, vut, fname, rep,
                       "file contains no usable data rows")
    if clock is None:
        return None, rep
    period, step_times = clock
    # Every record comes from a VUT row, so none is orphaned or drifts.
    tables = {group: {} for group in _ENTITY_GROUPS}
    for group in _ENTITY_GROUPS:
        found = {}
        _join(tables[group], group, *_row_major(got[group]), step_times,
              None, found)
        _report(found, fname, rep)
    return _finish_trace(ids, vut, tables, period, rep), rep


def _flat_rows(fname, rep, header, blocks, found):
    """The column pass of a flat file (see ``_table``): the (rows,
    columns) of its VUT, and group -> the (rows, columns) of each of its
    readers; None when the header is refused."""
    base, groups = _segment_header(header, fname, rep)
    ok = _require_columns(base, schema.CLOCK + schema.required_names("vut"),
                          fname, rep)
    for group, colmap in groups:
        ok &= _require_columns(colmap, schema.required_names(group), fname,
                               rep)
        if group == "actor":
            ok &= _check_actor_pos_columns(colmap, fname, rep)
    if not ok:
        return None

    # Each group reads the clock cells too, decoded once for all readers:
    # a group's faults are kept only on rows that hold a VUT record, and
    # there its clock values are the VUT's.
    clock = {name: base[name] for name in schema.CLOCK}
    n, (vut_rows, vut, faults), *got = _read(
        [_Reader("vut", base)] + [_Reader(group, {**colmap, **clock})
                                  for group, colmap in groups], blocks, clock)
    # A row's findings: its width, its VUT cells, then, when it holds a
    # VUT record, the cells of each group in header order.
    _bad_values(found, faults)
    on_clock = np.zeros(n, dtype=bool)
    on_clock[vut_rows] = True
    parts = {group: [] for group in _ENTITY_GROUPS}
    for (group, _), (at, cols, faults) in zip(groups, got):
        _bad_values(found, faults, on_clock)
        keep = np.flatnonzero(on_clock[at]).tolist()
        parts[group].append((_pick(at, keep), _take(cols, keep)))
    _report(found, fname, rep)
    return (vut_rows, vut), parts


def _row_major(parts) -> tuple:
    """(rows, columns) of the (rows, columns) of a group's readers of one
    file, in row order, then reader order, taking the readers' columns."""
    if len(parts) < 2:
        return parts[0] if parts else ([], {})
    rows = list(itertools.chain.from_iterable(r for r, _ in parts))
    order = np.lexsort((np.repeat(np.arange(len(parts)),
                                  [len(r) for r, _ in parts]),
                        rows)).tolist()
    return [rows[i] for i in order], {
        name: list(map(list(itertools.chain.from_iterable(
            c.pop(name) for _, c in parts)).__getitem__, order))
        for name in list(parts[0][1])}


# ---------------------------------------------------------------------------
# distributed layout

def _read_role(folder, role, group, rep, read):
    """``read(colmap, blocks)`` of one role file of a group (see
    ``_table``), or None when the file is missing or refused.  The rows
    not as wide as the header are reported, and so is each column of
    another group, and in a perceived file each column it does not carry
    (``schema.ROLE_COLUMNS``): such a column is not read."""
    if not (folder / role).exists():
        return None

    def role_file(header, blocks, warnings):
        colmap = {}
        for idx, raw_name in enumerate(header):
            name = raw_name.strip()
            spec = schema.BY_NAME.get(name)
            if name in colmap:
                _unknown(name, role, rep, "duplicate column {!r} ignored")
            elif spec is None:
                _unknown(name, role, rep)
            elif spec.group not in ("common", group):
                _unknown(name, role, rep,
                         "group column {!r} appears outside its group")
            elif role in _OVERLAYS and name not in schema.ROLE_COLUMNS[role]:
                _unknown(name, role, rep,
                         "column {!r} is not read from a perceived file")
            else:
                colmap[name] = idx
        required = [c for c in schema.ROLE_COLUMNS[role]
                    if schema.BY_NAME[c].required == "yes"]
        if not _require_columns(colmap, required, role, rep):
            return None
        _report(warnings, role, rep)
        if role == schema.ROLE_ACTORS_TRUE and not _check_actor_pos_columns(
                colmap, role, rep):
            return None
        return read(colmap, blocks)
    return _table(folder / role, role, rep, role_file)


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

    got = _read_role(folder, schema.ROLE_VUT, "vut", rep, lambda colmap,
                     blocks: _read([_Reader("vut", colmap)], blocks)[1])
    if got is None:
        if not (folder / schema.ROLE_VUT).exists():
            rep.add(it.ERROR, it.MISSING_VUT_FILE,
                    f"{schema.ROLE_VUT} is missing", file=folder.name)
        return None, rep
    found = {}
    vut_rows, vut, faults = got
    _bad_values(found, faults)
    _report(found, schema.ROLE_VUT, rep)
    clock = _vut_clock(vut_rows, vut, schema.ROLE_VUT, rep,
                       "no usable VUT rows")
    if clock is None:
        return None, rep
    period, step_times = clock
    half_period = None if period is None else 0.5 * period

    tables = {}
    for role, group in _TRUE_ROLES:
        table = tables[group] = {}
        got = _read_role(folder, role, group, rep, lambda colmap, blocks:
                         _read([_Reader(group, colmap)], blocks)[1])
        if got is None:
            continue
        found = {}
        rows, cols, faults = got
        _bad_values(found, faults)
        _join(table, group, rows, cols, step_times, half_period, found)
        _report(found, role, rep)
    for role in _OVERLAYS:
        _attach(folder, role, tables, rep)
    return _finish_trace(ids, vut, tables, period, rep), rep


def _attach(folder, role, tables, rep):
    """Read one perceived overlay onto the true rows it names (tables:
    group -> {entity id: Channel columns}).

    A row joins the true row of its id and step, and its outline is read
    in that row's position frame.  Its first fault is reported:
    an empty id (no record, no finding), a bad clock cell (the first in
    file column order), no true counterpart (a warning), a bad outline.
    A clock value the schema bounds flag but its decoder accepts (a
    negative time) is no fault, as in a true row.  The perceived
    traffic-light overlay carries nothing the model keeps: its rows are
    only read, and a bad one is a warning.
    """
    group, column, field = _OVERLAYS[role]
    got = _read_role(folder, role, group, rep,
                     lambda colmap, blocks: (colmap, _whole(blocks)))
    if got is None:
        return
    colmap, table = got
    if field is None:
        _, _, faults = _Reader(group, colmap).read_columns(table)
        _report({k: [(it.WARNING, it.BAD_VALUE, f"{message} (perceived "
                      "phases are not retained)", column)]
                 for k, (column, message) in faults.items()}, role, rep)
        return
    n, columns = table
    if not n:                       # no row to attach
        return
    id_col = _IDS[group][0]
    entities = tables[group]
    index = {(eid, step): i for eid, cols in entities.items()
             for i, step in enumerate(cols["step"])}
    ids = list(map(str.strip, columns[colmap[id_col]]))
    live = [k for k in range(n) if ids[k]]
    bad, clock = {}, {}
    for idx, name in sorted((colmap[name], name) for name in schema.CLOCK):
        clock[name], faults = _bulk(_pick(columns[idx], live), name)
        columns[idx] = None
        for m, message in faults.items():
            if message is not None:
                bad.setdefault(live[m], (name, message))
    steps = dict(zip(live, clock["Step_number"]))
    at = {k: index.get((ids[k], steps[k])) for k in live if k not in bad}
    matched = [k for k, i in at.items() if i is not None]
    shapes, faults = [None] * len(matched), {}
    if column in colmap:
        # Obstacle positions, and so their outlines, are always WGS84.
        shapes, faults = _outlines(
            _pick(columns[colmap[column]], matched),
            ["vcs" if entities[ids[k]]["lat"][at[k]] is None else "wgs84"
             for k in matched], column, {})
        columns[colmap[column]] = None
    shapes = dict(zip(matched, shapes))
    faults = {matched[m]: message for m, message in faults.items()}
    copied = set()
    for k in live:
        eid = ids[k]
        if k in bad:
            rep.add(it.ERROR, it.BAD_VALUE, bad[k][1], file=role, row=k + 2,
                    column=bad[k][0])
        elif at[k] is None:
            rep.add(it.WARNING, it.ORPHAN_STEP,
                    f"{id_col}={eid}: perceived record at step {steps[k]} "
                    "has no true counterpart", file=role, row=k + 2)
        elif k in faults:
            rep.add(it.ERROR, it.BAD_VALUE, faults[k], file=role,
                    row=k + 2, column=column)
        elif shapes[k] is not None:
            cols = entities[eid]
            if eid not in copied:       # columns may share their lists
                cols[field] = list(cols[field])
                copied.add(eid)
            cols[field][at[k]] = shapes[k]


def parse_trace(path):
    """Parse either layout, auto-detected -> (Trace | None, report)."""
    if detect_layout(path) == "flat":
        return parse_flat(path)
    return parse_distributed(path)


# ---------------------------------------------------------------------------
# writing

def _columns(candidates, values, always=()) -> list:
    """The candidate columns a table writes, in schema order.

    A column is written when the schema requires it, when it is in
    ``always``, or when some record has a value for it in ``values``
    ({column: values}).  Of the alt_pos pairs, the filled one is written;
    a table that fills both is refused, and one that fills neither (it
    has no records) writes the world pair.
    """
    cols = [c for c in candidates
            if schema.BY_NAME[c].required == "yes" or c in always
            or values[c] != [None] * len(values[c])]
    pos = [c for c in cols if schema.BY_NAME[c].required == "alt_pos"]
    if len(pos) > 2:
        raise ValueError("cannot write world and VCS actor positions in "
                         "one table")
    if not pos and _POS_COLUMN in candidates:
        world = _POS["actor"]["wgs84"][:2]
        cols = [c for c in candidates if c in cols or c in world]
    return cols


# Rows per piece of text written.  A write holds one piece's text beside
# its values; a piece the csv module would quote goes through it.
_ROWS = 128


def _write(path, header, columns, shapes) -> None:
    """Write a CSV file: the header, then the rows of the value columns,
    as ``csv.writer`` writes them with LF line ends.

    The rows go in pieces of ``_ROWS``, each formatted by ``_cells`` as it
    is written.  A piece whose rows have two cells or more and no comma,
    quote, CR or newline in any cell is written as the cells joined by
    commas, which is what the csv module would write; the csv module
    writes any other piece.
    """
    pieces = (list(zip(*(_cells(c[a:a + _ROWS], shapes) for c in columns)))
              for a in range(0, len(columns[0]) if columns else 0, _ROWS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for piece in itertools.chain([[header]], pieces):
            width = len(piece[0])
            text = "\n".join([*map(",".join, piece), ""])
            if width > 1 and text.count(",") == len(piece) * (width - 1) \
                    and text.count("\n") == len(piece) \
                    and '"' not in text and "\r" not in text:
                fh.write(text)
            else:
                w.writerows(piece)


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


def _entities(trace) -> dict:
    """group -> {entity id: Channel} of a trace."""
    return {group: trace.channels(group + "s")
            for group in ("actor", "obstacle", "controller")}


def write_flat(trace, directory) -> Path:
    """Write one run as a flat results file; returns the file path."""
    vut = trace.channels("vut").columns
    values = _cells_of("vut", vut)
    header = _columns(schema.ROLE_COLUMNS[schema.ROLE_VUT], values)
    tables = [(header, values)]
    for group, table in _entities(trace).items():
        for channel in table.values():
            values = _cells_of(group, channel.columns)
            cols = _columns(schema.column_names(group), values)
            # Aligned to the VUT clock: a step without a row reads the
            # None past the rows' end, a blank cell.
            at = {step: k for k, step in enumerate(channel.columns["step"])}
            rows = [at.get(step, len(channel)) for step in vut["step"]]
            if rows != list(range(len(channel))):
                values = {c: list(map((values[c] + [None]).__getitem__,
                                      rows)) for c in cols}
            tables.append((cols, values))
    path = Path(directory) / schema.flat_filename(trace.testcase_id,
                                                   trace.run_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write(path, [c for cols, _ in tables for c in cols],
           [values[c] for cols, values in tables for c in cols], {})
    return path


def write_distributed(trace, directory) -> Path:
    """Write one run as a distributed folder; returns the folder path.

    All seven role files are always present; overlays without content are
    header-only.  Entity rows follow the VUT clock: VUT step order, then
    entity order, then row order; rows off the clock are dropped.
    """
    steps = trace.channels("vut").columns["step"]
    # (role, {column: values}, the rows written (None: all), columns
    # always written)
    tables = [(schema.ROLE_VUT, _cells_of("vut", trace.channels("vut")
                                          .columns), None, ())]
    gathered = {}
    for role, group in _TRUE_ROLES:
        channels = [c.columns for c in _entities(trace)[group].values()]
        at = {}
        for k, step in enumerate(itertools.chain.from_iterable(
                c["step"] for c in channels)):
            at.setdefault(step, []).append(k)
        rows = [k for step in steps for k in at.get(step, ())]
        del at                  # before the columns are gathered
        # Gathered in the order written, unless one channel is in it.
        cols = channels[0] if len(channels) == 1 and rows == list(range(
            len(channels[0]["step"]))) else {name: list(map(list(
                itertools.chain.from_iterable(c[name] for c in channels))
                .__getitem__, rows)) for name in COLUMNS[_TYPES[group]]}
        gathered[group] = _cells_of(group, cols)
        tables.append((role, gathered[group], None, ()))
    # Every overlay column is required or always written, so choosing
    # them from the whole group's values chooses the same ones.
    for role, (group, column, field) in _OVERLAYS.items():
        values = gathered[group]
        tables.append((role, values, [] if field is None else [
            k for k, v in enumerate(values[column]) if v is not None],
            (column,)))
    tables = [(role, _columns(schema.ROLE_COLUMNS[role], values, always),
               values, rows) for role, values, rows, always in tables]
    root = Path(directory) / schema.dir_name(trace.testcase_id, trace.run_id)
    root.mkdir(parents=True, exist_ok=True)
    shapes = {}
    for role, cols, values, rows in tables:
        _write(root / role, cols, [values[c] if rows is None else list(
            map(values[c].__getitem__, rows)) for c in cols], shapes)
    return root


def write_trace(trace, directory, layout: str = "flat") -> Path:
    if layout == "flat":
        return write_flat(trace, directory)
    if layout == "distributed":
        return write_distributed(trace, directory)
    raise ValueError(f"unknown layout {layout!r}")
