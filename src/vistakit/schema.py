"""The trace column schema and the distributed file roles.

The authoritative column list lives in ``data/column_schema.csv`` next to
this module; everything here is a thin loader over it plus the handful of
structural constants the readers and writers share.

The schema is the trace codec (see ``trace_io``):

* ``kind`` decides how a cell is decoded: float, int and code are
  numbers, bool a 0/1 flag, ttc a time that may be ``inf``, tag and id
  plain text, array a position array;
* ``allow_empty`` decides whether an empty cell means "no value" or is a
  fault; an empty id cell means "no record at this step";
* ``required`` decides which columns a header must hold and which are
  written: "yes" columns always, the others when some record fills them.
  The "alt_pos" columns are two alternative position pairs, world
  (lat/lon) and vehicle (x/y); a row fills exactly one of them;
* ``min``/``max`` are inclusive value bounds and ``normalised`` marks a
  heading in [0, 360).  The record types in ``model`` check the same
  bounds on construction (the readers' column pass checks them in bulk,
  and may be stricter: ``Time`` >= 0 holds for every group there).

Flat layout: one CSV per run named ``results_<testcase_id>_r<run_id>.csv``
holding the common columns, the VUT group, and one repetition of the
actor/obstacle/controller group per entity (the group column names repeat
verbatim; groups are told apart by their leading id column).

Distributed layout: one folder per run named ``<testcase_id>_r<run_id>``
holding up to seven role files, VUT_status.csv being the only mandatory
one.  ``ROLE_COLUMNS`` lists the columns each role file may hold.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from importlib import resources

ROLE_VUT = "VUT_status.csv"
ROLE_ACTORS_TRUE = "Environment_actors_true.csv"
ROLE_ACTORS_PERCEIVED = "Environment_actors_perceived.csv"
ROLE_OBSTACLES_TRUE = "Environment_obstacles_true.csv"
ROLE_OBSTACLES_PERCEIVED = "Environment_obstacles_perceived.csv"
ROLE_LIGHTS_TRUE = "TrafficLight_true.csv"
ROLE_LIGHTS_PERCEIVED = "TrafficLight_perceived.csv"

ROLE_FILES = (
    ROLE_VUT,
    ROLE_ACTORS_TRUE,
    ROLE_ACTORS_PERCEIVED,
    ROLE_OBSTACLES_TRUE,
    ROLE_OBSTACLES_PERCEIVED,
    ROLE_LIGHTS_TRUE,
    ROLE_LIGHTS_PERCEIVED,
)

FLAT_NAME_RE = re.compile(r"^results_(?P<tc>.+)_r(?P<run>\d{1,3})\.csv$")
DIR_NAME_RE = re.compile(r"^(?P<tc>.+)_r(?P<run>\d{1,3})$")


def flat_filename(testcase_id: str, run_id: int) -> str:
    return f"results_{testcase_id}_r{run_id:02d}.csv"


def dir_name(testcase_id: str, run_id: int) -> str:
    return f"{testcase_id}_r{run_id:02d}"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    group: str
    kind: str           # float | int | bool | tag | id | code | array | ttc
    unit: str
    required: str       # yes | no | alt_pos
    allow_empty: bool
    min: float | None
    max: float | None
    normalised: bool
    description: str


def _bound(cell: str):
    return float(cell) if cell else None


def _load_columns() -> tuple:
    cols = []
    ref = resources.files("vistakit").joinpath("data/column_schema.csv")
    with ref.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            cols.append(ColumnSpec(
                name=row["name"],
                group=row["group"],
                kind=row["kind"],
                unit=row["unit"],
                required=row["required"],
                allow_empty=row["allow_empty"] == "yes",
                min=_bound(row["min"]),
                max=_bound(row["max"]),
                normalised=row["normalised"] == "yes",
                description=row["description"],
            ))
    return tuple(cols)


COLUMNS = _load_columns()
BY_NAME = {c.name: c for c in COLUMNS}


def group_columns(group: str) -> tuple:
    return tuple(c for c in COLUMNS if c.group == group)


def column_names(group: str) -> tuple:
    return tuple(c.name for c in group_columns(group))


def required_names(group: str) -> tuple:
    return tuple(c.name for c in group_columns(group) if c.required == "yes")


# A repeated group starts at its id column and runs through its last
# column; the flat reader slices the header with these.
GROUP_LEADERS = {c.name: c.group for c in COLUMNS if c.kind == "id"}
GROUP_LAST = {g: column_names(g)[-1] for g in GROUP_LEADERS.values()}

# The common columns that put every row of every file on the run's clock.
CLOCK = ("Time", "Step_number")

# The candidate columns of each distributed role file, in writing order.
# The perceived role files carry only the overlay channel keyed by id.
ROLE_COLUMNS = {
    ROLE_VUT: CLOCK + column_names("vut"),
    ROLE_ACTORS_TRUE: CLOCK + tuple(
        c for c in column_names("actor") if c != "Actor_bbox_perceived"),
    ROLE_ACTORS_PERCEIVED: CLOCK + ("Actor_Id", "Actor_bbox_perceived"),
    ROLE_OBSTACLES_TRUE: CLOCK + tuple(
        c for c in column_names("obstacle") if c != "Obst_poly_perceived"),
    ROLE_OBSTACLES_PERCEIVED: CLOCK + ("Obst_Id", "Obst_poly_perceived"),
    ROLE_LIGHTS_TRUE: CLOCK + column_names("controller"),
    ROLE_LIGHTS_PERCEIVED: CLOCK + column_names("controller"),
}
