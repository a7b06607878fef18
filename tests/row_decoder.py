"""The row decoder the trace readers once fell back to, kept as the
reference of their column pass.

``RowReader.read`` decodes one row through its header's plan: the clock
cells first, then the id cell (empty means "no record at this step"),
then the alt_pos rule, then the other cells in file column order, then
the record type's checks; the first fault raises ``RowProblem``.
``attach`` reads a perceived overlay row by row with it.

:func:`read_columns` and :func:`attach` stand in for
``trace_io._Reader.read_columns`` and ``trace_io._attach``:
``test_column_pass.row_by_row`` patches them in, so that every row of a
parse is read by this decoder and the column pass can be compared with
it finding for finding.
"""

import dataclasses

from vistakit import integrity as it
from vistakit import schema
from vistakit.errors import VistaError
from vistakit.model import normalize_heading
from vistakit.positions import shape_from_array
from vistakit.trace_io import (
    _DECODERS,
    _IDS,
    _OVERLAYS,
    _POS,
    _POS_COLUMN,
    _cell_float,
    _checked,
    _read_role,
    _records,
)


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
            return _checked(_records(
                self.group, {k: (v,) for k, v in vals.items()}, 1)[0])
        except (ValueError, TypeError) as exc:
            raise RowProblem(None, str(exc)) from None


def read_columns(self, table) -> list:
    """``_Reader.read_columns`` by the row decoder: per row of the table,
    its record, None, or its finding as (column, message)."""
    n, columns = table
    colmap = {name: idx for idx, name in self.clock + self.rest}
    if self.id_idx is not None:
        colmap[self.id_col] = self.id_idx
    reader = RowReader(self.group, colmap)
    out = []
    for row in zip(*columns):
        try:
            out.append(reader.read(row))
        except RowProblem as exc:
            out.append((exc.column, str(exc)))
    assert len(out) == n
    return out


def attach(folder, role, tables, rep):
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
    colmap, (_, columns) = got
    rows = enumerate(zip(*columns), start=2)
    table = tables[group]
    if field is not None:
        keep = ("Step_number", _IDS[group][0], column)
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
