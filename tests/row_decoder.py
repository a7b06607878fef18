"""The row decoder the trace readers once fell back to, kept as the
reference of their column pass.

``RowReader.read`` decodes one row through its header's plan: the clock
cells first, then the id cell (empty means "no record at this step"),
then the alt_pos rule, then the other cells in file column order, then
the record type's checks; the first fault raises ``RowProblem``.
``attach`` reads a perceived overlay row by row with it.  ``vut_clock``
and ``join`` assemble the records into channels one at a time, as the
readers once did, and ``checked_trace`` builds the trace with all of its
checks.

:func:`read_columns`, :func:`attach`, :func:`vut_clock`, :func:`join`
and :func:`checked_trace` stand in for ``trace_io._Reader.read_columns``,
``trace_io._attach``, ``trace_io._vut_clock``, ``trace_io._join`` and
``Trace._checked``: ``test_column_pass.row_by_row`` patches them in, so
that every row of a parse is read and assembled by this code and the
column pass and the mask-based assembly can be compared with it finding
for finding.  The readers hand each other channel columns
(``model.Channel``), so these work on the records of the columns they
get and hand on the columns of the records they make.
"""

import dataclasses

from vistakit import integrity as it
from vistakit import schema
from vistakit.errors import VistaError
from vistakit.model import Channel, VutState, normalize_heading
from vistakit.positions import shape_from_array
from vistakit.trace_io import (
    _DECODERS,
    _IDS,
    _OVERLAYS,
    _POS,
    _POS_COLUMN,
    _TYPES,
    _cell_float,
    _fields,
    _read_role,
    _whole,
)


def _checked(rec):
    """rec once the checks of its constructors have passed, its
    position's first, as constructing it would run them."""
    if getattr(rec, "pos", None) is not None:
        rec.pos.__post_init__()
    rec.__post_init__()
    return rec


class RowProblem(Exception):
    def __init__(self, column, message):
        super().__init__(message)
        self.column = column


def _plan(cols, frame) -> list:
    """(index, column, decoder, empty allowed) for (index, column) pairs."""
    plan = []
    for idx, name in cols:
        spec = schema.BY_NAME[name]
        if spec.kind == "array":
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
                raise RowProblem(name, str(exc)) from None
        elif empty_ok:
            vals[name] = None
        else:
            raise RowProblem(name, "mandatory value is empty")
    return vals


class RowReader:
    """The rows under one header, read as records of one group.

    The header is planned once: the clock cells, the id cell, the alt_pos
    pairs, and per position frame every other cell of the group in file
    column order.  ``read`` decodes one row through that plan.
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
                      for f, (a, b, _) in _POS.get(group, {}).items()
                      if schema.BY_NAME[a].required == "alt_pos"
                      and (a in colmap or b in colmap)]

    def frame(self, row) -> str:
        """The alt_pos rule: exactly one position pair is filled, whole."""
        full = []
        for frame, a, b in self.pairs:
            n = sum(1 for i in (a, b) if i is not None and row[i].strip())
            if n == 1:
                raise RowProblem(_POS_COLUMN, "half-filled position pair")
            if n == 2:
                full.append(frame)
        if len(full) > 1:
            raise RowProblem(_POS_COLUMN,
                             "both world and VCS positions filled")
        if self.pairs and not full:
            raise RowProblem(_POS_COLUMN, "no position value")
        return full[0] if full else "wgs84"

    def read(self, row):
        """The row's record, or None when it holds none.

        A bad cell, or a value the record type rejects, raises RowProblem.
        """
        vals = _decode(row, self.clock, {})
        if self.id_idx is not None:
            eid = row[self.id_idx].strip()
            if not eid:
                return None
            vals[self.id_col] = eid
        _decode(row, self.plans[self.frame(row)], vals)
        try:
            return _checked(Channel(_TYPES[self.group], _fields(
                self.group, {k: (v,) for k, v in vals.items()}, 1))
                .records[0])
        except (ValueError, TypeError) as exc:
            raise RowProblem(None, str(exc)) from None


def read_columns(self, table, clock=None) -> tuple:
    """``_Reader.read_columns`` by the row decoder: the positions of the
    rows of the table that hold a record, their columns, and
    {position: (column, message)} of the rows with a finding.  The clock
    cells are decoded row by row whatever ``clock`` holds."""
    n, columns = table
    colmap = {name: idx for idx, name in self.clock + self.rest}
    if self.id_idx is not None:
        colmap[self.id_col] = self.id_idx
    reader = RowReader(self.group, colmap)
    rows, records, found = [], [], {}
    for k, row in enumerate(zip(*columns)):
        try:
            rec = reader.read(row)
        except RowProblem as exc:
            found[k] = (exc.column, str(exc))
            continue
        if rec is not None:
            rows.append(k)
            records.append(rec)
    assert len(rows) + len(found) <= n
    return rows, Channel(_TYPES[self.group], records=records).columns, found


def vut_clock(rows, vut, fname, rep, no_rows):
    """``trace_io._vut_clock`` record by record."""
    vut = Channel(VutState, vut).records
    if not vut:
        rep.add(it.ERROR, it.BAD_VALUE, no_rows, file=fname)
        return None
    prev_t = None
    prev_s = None
    seen_steps = set()
    for k, rec in zip(rows, vut):
        rownum = k + 2
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
    period = it.median_period([rec.time for rec in vut])
    first = vut[0]
    if period is not None and period > 0 and abs(first.time) > period:
        rep.add(it.WARNING, it.START_TIME_NONZERO,
                f"first record at t={first.time!r}, expected "
                "t=0 within one sample period",
                file=fname, row=rows[0] + 2, column="Time")
    return period, {rec.step: rec.time for rec in vut}


def join(table, group, rows, cols, step_times, half_period, found):
    """``trace_io._join`` record by record."""
    id_col, id_field = _IDS[group]
    recs = Channel(_TYPES[group], cols).records if cols else ()
    for k, rec in zip(rows, recs):
        notes = found.setdefault(k, [])
        eid = getattr(rec, id_field)
        vut_time = step_times.get(rec.step)
        if vut_time is None:
            notes.append((it.ERROR, it.ORPHAN_STEP,
                          f"{id_col}={eid}: step {rec.step} has no VUT "
                          "record", "Step_number"))
            continue
        if half_period is not None and \
                abs(rec.time - vut_time) > half_period:
            notes.append((it.WARNING, it.TIME_MISMATCH,
                          f"{id_col}={eid}: time {rec.time!r} drifts from "
                          f"the VUT time {vut_time!r} at step {rec.step}",
                          "Time"))
        kept = table.setdefault(eid, [])
        if kept and rec.step <= kept[-1].step:
            code = it.DUPLICATE_STEP if rec.step == kept[-1].step \
                else it.NON_MONOTONE_TIME
            notes.append((it.ERROR, code,
                          f"{id_col}={eid}: step {rec.step} does not "
                          "increase", "Step_number"))
            continue
        if rec.time != vut_time:
            rec = dataclasses.replace(rec, time=vut_time)
        kept.append(rec)
    for k in [k for k, notes in found.items() if not notes]:
        del found[k]
    for eid, kept in table.items():
        table[eid] = Channel(_TYPES[group], records=kept).columns


def checked_trace(cls, testcase_id, run_id, vut, actors, obstacles,
                  controllers, declared_frequency):
    """``Trace._checked`` with every check of the constructor."""
    return cls(testcase_id, run_id, vut.records,
               *({k: c.records for k, c in table.items()}
                 for table in (actors, obstacles, controllers)),
               declared_frequency)


def attach(folder, role, tables, rep):
    """Read one perceived overlay onto the true records it names.

    A row joins the true record of its id and step, and its outline is
    read in that record's position frame.  The perceived traffic-light
    overlay carries nothing the model keeps: its rows are only checked,
    and a bad one is a warning.
    """
    group, column, field = _OVERLAYS[role]
    got = _read_role(folder, role, group, rep,
                     lambda colmap, blocks: (colmap, _whole(blocks)))
    if got is None:
        return
    colmap, (_, columns) = got
    rows = enumerate(zip(*columns), start=2)
    table = tables[group] = {
        eid: list(Channel(_TYPES[group], cols).records)
        for eid, cols in tables[group].items()}
    if field is not None:
        keep = ("Time", "Step_number", _IDS[group][0], column)
        colmap = {k: i for k, i in colmap.items() if k in keep}
    reader = RowReader(group, colmap)
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
        except RowProblem as exc:
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
    for eid, recs in table.items():
        table[eid] = Channel(_TYPES[group], records=recs).columns
