"""Reference outputs of the trace reader and writers.

``data/golden/io_golden.json`` holds two sets, made before the readers
and writers were driven from the column schema:

* ``digests``: the SHA-256 of what ``write_flat`` and
  ``write_distributed`` write for ``conftest.random_trace`` seeds 0-49.
  Those traces reach VCS actors, elevation, pitch/roll rates, perceived
  overlays, traffic controllers and empty entity tables, which
  ``generate`` never writes.
* ``findings``: what ``parse_trace`` reports for each input of
  :data:`CORPUS`, a set of malformed flat files and run folders, one
  rendered finding per line, then a summary of the trace it returned.
  An input that made ``parse_trace`` raise is recorded as ``raises ...``.

Regenerate with ``PYTHONPATH=src python tests/test_io_golden.py``, only
for a deliberate change, and say so.  The changes made since the set was
made are listed, each with its new lines, in :data:`CHANGED`.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from vistakit.trace_io import parse_trace, write_distributed, write_flat

from conftest import random_trace
from test_trace_io import MIN_HEADER, ROW0, ROW1

GOLDEN = Path(__file__).parent / "data" / "golden" / "io_golden.json"
SEEDS = range(50)
FLAT = "results_TC-IO-01_r01.csv"
FOLDER = "TC-IO-01_r01"

ACTOR_HEADER = ("Actor_Id,Actor_type,Actor_pos_true_lat,Actor_pos_true_lon,"
                "Actor_pos_true_x,Actor_pos_true_y,Actor_bbox_true,"
                "Actor_vel_abs,Actor_vel_lat,Actor_vel_long,Actor_acc_lat,"
                "Actor_acc_long,Actor_heading,Actor_TTC")
BOX = "|1.3539 103.6959|1.3539 103.6961|1.3541 103.6961|1.3541 103.6959|"
POLY = "|1.3549 103.6959|1.3549 103.6961|1.3551 103.6961|"
ACTOR_OK = f"A1,tsv,1.354,103.696,,,{BOX},2.0,0,2.0,0,0,90,inf"
OBST_HEADER = ("Obst_Id,Obst_type,Obst_pos_lat,Obst_pos_lon,Obst_poly_true,"
               "Obst_poly_perceived,Obst_NTD")
OBST_OK = f"CONE,100,1.355,103.696,{POLY},,4.5"
CTRL_HEADER = "Traffic_Ctrl_Id,Traffic_Ctrl_phase"

ACTORS_TRUE = "Environment_actors_true.csv"
ACTORS_PERCEIVED = "Environment_actors_perceived.csv"
OBSTACLES_TRUE = "Environment_obstacles_true.csv"
OBSTACLES_PERCEIVED = "Environment_obstacles_perceived.csv"
LIGHTS_TRUE = "TrafficLight_true.csv"
LIGHTS_PERCEIVED = "TrafficLight_perceived.csv"
VUT = "VUT_status.csv"


def _cells(row: str, **changes) -> str:
    """A VUT row with the named cells replaced."""
    names = MIN_HEADER.split(",")
    cells = row.split(",")
    for name, value in changes.items():
        cells[names.index(name)] = value
    return ",".join(cells)


def _actor(row: str = ACTOR_OK, **changes) -> str:
    names = ACTOR_HEADER.split(",")
    cells = row.split(",")
    for name, value in changes.items():
        cells[names.index(name)] = value
    return ",".join(cells)


def _flat(*rows, header=MIN_HEADER):
    return {FLAT: "\n".join((header,) + rows) + "\n"}


def _flat_actor(*actor_rows):
    rows = [f"{vut},{a}" for vut, a in zip((ROW0, ROW1), actor_rows)]
    return _flat(*rows, header=f"{MIN_HEADER},{ACTOR_HEADER}")


VUT_FILE = f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n"


def _folder(**roles):
    files = {VUT: VUT_FILE}
    files.update({{"actors": ACTORS_TRUE, "actors_p": ACTORS_PERCEIVED,
                   "obstacles": OBSTACLES_TRUE,
                   "obstacles_p": OBSTACLES_PERCEIVED,
                   "lights": LIGHTS_TRUE, "lights_p": LIGHTS_PERCEIVED,
                   "vut": VUT}.get(k, k): v for k, v in roles.items()})
    return {f"{FOLDER}/{name}": body for name, body in files.items()
            if body is not None}


def _role(header, *rows):
    return "\n".join((f"Time,Step_number,{header}",) + rows) + "\n"


def _actors_true(*rows):
    return _role(ACTOR_HEADER, *rows)


CORPUS = {
    # flat: file name, header and row shape
    "flat ok": _flat(ROW0, ROW1),
    "flat bad file name": {"outcome_TC_r01.csv": VUT_FILE},
    "flat run id zero": {"results_TC-IO-01_r00.csv": VUT_FILE},
    "flat empty file": {FLAT: ""},
    "flat header only": {FLAT: MIN_HEADER + "\n"},
    "flat unknown column": _flat(ROW0 + ",x", ROW1 + ",y",
                                 header=MIN_HEADER + ",VUT_future_field"),
    "flat duplicate column": _flat(ROW0 + ",1.0", ROW1 + ",1.0",
                                   header=MIN_HEADER + ",VUT_speed"),
    "flat missing mandatory column": _flat(
        ROW0.replace(",5.0,", ",", 1), ROW1.replace(",5.0,", ",", 1),
        header=MIN_HEADER.replace(",VUT_speed", "")),
    "flat short row": _flat(ROW0, ",".join(ROW1.split(",")[:-3])),
    "flat long row": _flat(ROW0 + ",extra", ROW1),
    "flat group column outside its group": _flat(
        ROW0 + ",tsv", ROW1 + ",tsv", header=MIN_HEADER + ",Actor_type"),
    # flat: cell values
    "flat non-numeric cell": _flat(_cells(ROW0, VUT_speed="fast"), ROW1),
    "flat empty mandatory cell": _flat(_cells(ROW0, VUT_speed=""), ROW1),
    "flat bad flag": _flat(_cells(ROW0, VUT_ind_brake="2"), ROW1),
    "flat non-finite cell": _flat(_cells(ROW0, VUT_heading="inf"), ROW1),
    "flat two bad cells": _flat(
        _cells(ROW0, VUT_ind_left_front="x", VUT_speed="fast"), ROW1),
    "flat non-monotone time": _flat(ROW1.replace("0.1,1", "0.2,0", 1),
                                    ROW0.replace("0.0,0", "0.1,1", 1)),
    "flat duplicate step": _flat(ROW0, ROW1.replace("0.1,1", "0.1,0", 1)),
    "flat nonzero start": _flat(ROW0.replace("0.0,0", "5.0,0", 1),
                                ROW1.replace("0.1,1", "5.1,1", 1)),
    # flat: values the record types reject
    "flat VUT throttle 1.5": _flat(_cells(ROW0, VUT_throttle="1.5"), ROW1),
    "flat VUT step -1": _flat(_cells(ROW0, Step_number="-1"), ROW1),
    "flat VUT speed -1": _flat(_cells(ROW0, VUT_speed="-1.0"), ROW1),
    "flat VUT latitude 99": _flat(_cells(ROW0, VUT_pos_lat="99"), ROW1),
    "flat actor speed -1": _flat_actor(_actor(Actor_vel_abs="-1"),
                                       ACTOR_OK),
    "flat obstacle type 50": _flat(
        f"{ROW0},{OBST_OK.replace(',100,', ',50,')}", f"{ROW1},{OBST_OK}",
        header=f"{MIN_HEADER},{OBST_HEADER}"),
    # flat: entity groups
    "flat actor ok": _flat_actor(ACTOR_OK, _actor(Actor_bbox_true="")),
    "flat actor vcs and inf": _flat_actor(
        _actor(Actor_pos_true_lat="", Actor_pos_true_lon="",
               Actor_pos_true_x="10", Actor_pos_true_y="0",
               Actor_bbox_true="", Actor_heading=""),
        _actor(Actor_pos_true_lat="", Actor_pos_true_lon="",
               Actor_pos_true_x="10", Actor_pos_true_y="0",
               Actor_bbox_true="", Actor_TTC="3.5")),
    "flat actor empty cells mean no record": _flat_actor(
        ACTOR_OK, "," * (ACTOR_HEADER.count(","))),
    "flat actor half-filled pair": _flat_actor(
        _actor(Actor_pos_true_lon=""), ACTOR_OK),
    "flat actor both pairs": _flat_actor(
        _actor(Actor_pos_true_x="1", Actor_pos_true_y="2"), ACTOR_OK),
    "flat actor no position": _flat_actor(
        _actor(Actor_pos_true_lat="", Actor_pos_true_lon=""), ACTOR_OK),
    "flat actor bad outline": _flat_actor(
        _actor(Actor_bbox_true="|1 2|3 4|"), ACTOR_OK),
    "flat actor bad ttc": _flat_actor(_actor(Actor_TTC="-2"), ACTOR_OK),
    "flat actor two bad cells": _flat_actor(
        _actor(Actor_type="", Actor_pos_true_lat="north"), ACTOR_OK),
    "flat actor missing position columns": _flat(
        f"{ROW0},A1,tsv,2,0,2,0,0,90,inf", f"{ROW1},A1,tsv,2,0,2,0,0,90,inf",
        header=(f"{MIN_HEADER},Actor_Id,Actor_type,Actor_vel_abs,"
                "Actor_vel_lat,Actor_vel_long,Actor_acc_lat,Actor_acc_long,"
                "Actor_heading,Actor_TTC")),
    "flat actor unknown column in group": _flat(
        f"{ROW0},A1,tsv,1.354,103.696,zz,2,0,2,0,0,90,inf",
        f"{ROW1},A1,tsv,1.354,103.696,zz,2,0,2,0,0,90,inf",
        header=(f"{MIN_HEADER},Actor_Id,Actor_type,Actor_pos_true_lat,"
                "Actor_pos_true_lon,Actor_colour,Actor_vel_abs,Actor_vel_lat,"
                "Actor_vel_long,Actor_acc_lat,Actor_acc_long,Actor_heading,"
                "Actor_TTC")),
    "flat obstacle-coded actor": _flat_actor(
        _actor(Actor_type="100", Actor_vel_abs="0", Actor_vel_long="0",
               Actor_heading=""),
        _actor(Actor_type="100", Actor_vel_abs="0", Actor_vel_long="0",
               Actor_heading="")),
    "flat obstacle missing columns": _flat(f"{ROW0},{OBST_OK}", f"{ROW1},",
                              header=f"{MIN_HEADER},Obst_Id"),
    "flat obstacle group": _flat(
        f"{ROW0},{OBST_OK}", f"{ROW1},{OBST_OK.replace(f',{POLY},', ',,')}",
        header=f"{MIN_HEADER},{OBST_HEADER}"),
    "flat obstacle bad code": _flat(
        f"{ROW0},{OBST_OK.replace(',100,', ',cone,')}", f"{ROW1},{OBST_OK}",
        header=f"{MIN_HEADER},{OBST_HEADER}"),
    "flat controller empty phase": _flat(
        f"{ROW0},TL1,go", f"{ROW1},TL1,",
        header=f"{MIN_HEADER},{CTRL_HEADER}"),
    # distributed: folder and role files
    "dist ok": _folder(),
    "dist bad folder name": {"TC-IO-01/VUT_status.csv": VUT_FILE},
    "dist missing VUT file": _folder(vut=None, actors="Time,Step_number\n"),
    "dist empty VUT file": _folder(vut=""),
    "dist VUT header only": _folder(vut=MIN_HEADER + "\n"),
    "dist misnamed role file": _folder(
        **{"Environment_actors.csv": "Time,Step_number\n"}),
    "dist short and long rows": _folder(actors=_actors_true(
        f"0.0,0,{ACTOR_OK}", f"0.1,1,{ACTOR_OK},extra",
        f"0.1,1,{','.join(ACTOR_OK.split(',')[:5])}")),
    "dist duplicate and unknown columns": _folder(actors=_role(
        ACTOR_HEADER + ",Actor_TTC,Actor_colour",
        f"0.0,0,{ACTOR_OK},1.0,red", f"0.1,1,{ACTOR_OK},1.0,blue")),
    "dist actor missing position columns": _folder(actors=_role(
        "Actor_Id,Actor_type,Actor_vel_abs,Actor_vel_lat,Actor_vel_long,"
        "Actor_acc_lat,Actor_acc_long,Actor_heading,Actor_TTC",
        "0.0,0,A1,tsv,2,0,2,0,0,90,inf")),
    "dist actor missing mandatory column": _folder(actors=_role(
        "Actor_Id,Actor_pos_true_x,Actor_pos_true_y",
        "0.0,0,A1,1,2")),
    "dist orphan step": _folder(actors=_actors_true(f"0.5,5,{ACTOR_OK}")),
    "dist time mismatch": _folder(actors=_actors_true(f"0.19,1,{ACTOR_OK}")),
    "dist entity duplicate step": _folder(actors=_actors_true(
        f"0.1,1,{ACTOR_OK}", f"0.1,1,{ACTOR_OK}", f"0.0,0,{ACTOR_OK}")),
    "dist actor bad cells": _folder(actors=_actors_true(
        f"0.0,0,{_actor(Actor_vel_lat='sideways')}",
        f"0.1,x,{ACTOR_OK}", f"0.1,1,{_actor(Actor_Id='')}")),
    "dist actor two bad cells": _folder(actors=_actors_true(
        f"0.0,0,{_actor(Actor_type='', Actor_pos_true_lat='north')}")),
    "dist obstacles and lights": _folder(
        obstacles=_role(OBST_HEADER, f"0.0,0,{OBST_OK}", f"0.1,1,{OBST_OK}"),
        lights=_role(CTRL_HEADER, "0.0,0,TL1,go", "0.1,1,TL1,stop"),
        obstacles_p=_role("Obst_Id,Obst_poly_perceived",
                          f"0.1,1,CONE,{POLY}"),
        actors=_actors_true(f"0.0,0,{ACTOR_OK}"),
        actors_p=_role("Actor_Id,Actor_bbox_perceived",
                       f"0.0,0,A1,{BOX}")),
    "dist perceived orphans": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}"),
        actors_p=_role("Actor_Id,Actor_bbox_perceived",
                       f"0.1,1,A1,{BOX}", f"0.0,0,A9,{BOX}"),
        obstacles=_role(OBST_HEADER, f"0.1,1,{OBST_OK}"),
        obstacles_p=_role("Obst_Id,Obst_poly_perceived",
                          f"0.0,0,CONE,{POLY}")),
    "dist perceived bad cells": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}", f"0.1,1,{ACTOR_OK}"),
        actors_p=_role("Actor_Id,Actor_bbox_perceived",
                       "0.0,0,A1,|1 2|", "0.1,one,A1,", "0.1,1,,|1 2|"),
        obstacles=_role(OBST_HEADER, f"0.1,1,{OBST_OK}"),
        obstacles_p=_role("Obst_Id,Obst_poly_perceived",
                          "0.1,1,CONE,|1 2|3|")),
    "dist perceived empty id and bad step": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}"),
        actors_p=_role("Actor_Id,Actor_bbox_perceived", f"0.0,x,,{BOX}")),
    "dist perceived missing id column": _folder(
        actors_p=_role("Actor_bbox_perceived", f"0.0,0,{BOX}")),
    "dist bad lights perceived rows": _folder(
        lights=_role(CTRL_HEADER, "0.0,0,TL1,go"),
        lights_p=_role(CTRL_HEADER, "0.0,0,TL1,", "x,1,TL1,go",
                       "0.1,1,,go", "y,1,,go")),
    "dist lights perceived missing column": _folder(
        lights_p=_role("Traffic_Ctrl_Id", "0.0,0,TL1")),
    # distributed: values the record types reject
    "dist VUT throttle 1.5": _folder(
        vut=f"{MIN_HEADER}\n{_cells(ROW0, VUT_throttle='1.5')}\n{ROW1}\n"),
    "dist VUT step -1": _folder(
        vut=f"{MIN_HEADER}\n{_cells(ROW0, Step_number='-1')}\n{ROW1}\n"),
    "dist VUT speed -1": _folder(
        vut=f"{MIN_HEADER}\n{_cells(ROW0, VUT_speed='-1.0')}\n{ROW1}\n"),
    "dist VUT latitude 99": _folder(
        vut=f"{MIN_HEADER}\n{_cells(ROW0, VUT_pos_lat='99')}\n{ROW1}\n"),
    "dist actor speed -1": _folder(actors=_actors_true(
        f"0.0,0,{_actor(Actor_vel_abs='-1')}", f"0.1,1,{ACTOR_OK}")),
    "dist lights step -1": _folder(
        lights=_role(CTRL_HEADER, "0.0,-1,TL1,go", "0.1,1,TL1,go")),
}


def _bad(fname, message, column=None):
    col = f" [{column}]" if column else ""
    return [f"ERROR BadValue {fname}:2 {message}{col}", "trace: none"]


# The deliberate differences from the set, with the lines now expected.
CHANGED = {
    # Values the record types reject made parse_trace raise; they are
    # now a BadValue finding at their file and row.
    "flat VUT throttle 1.5": _bad(
        FLAT, "throttle must lie in [0, 1], got 1.5"),
    "flat VUT step -1": _bad(FLAT, "step must be a non-negative int, got -1"),
    "flat VUT speed -1": _bad(FLAT, "speed must be >= 0"),
    "flat VUT latitude 99": _bad(FLAT, "latitude out of range: 99.0"),
    "flat actor speed -1": _bad(FLAT, "speed must be >= 0"),
    "flat obstacle type 50": _bad(
        FLAT, "obstacle type codes start at 100, got 50"),
    "dist VUT throttle 1.5": _bad(VUT, "throttle must lie in [0, 1], got 1.5"),
    "dist VUT step -1": _bad(VUT, "step must be a non-negative int, got -1"),
    "dist VUT speed -1": _bad(VUT, "speed must be >= 0"),
    "dist VUT latitude 99": _bad(VUT, "latitude out of range: 99.0"),
    "dist actor speed -1": _bad(ACTORS_TRUE, "speed must be >= 0"),
    "dist lights step -1": _bad(
        LIGHTS_TRUE, "step must be a non-negative int, got -1"),
    # A row with several bad cells reports the first in file column
    # order (after the alt_pos pair rule); the hand-written builders
    # read the indicator flags before the speed, and the actor position
    # before its type.
    "flat two bad cells": _bad(
        FLAT, "could not convert string to float: 'fast'", "VUT_speed"),
    "flat actor two bad cells": _bad(
        FLAT, "mandatory value is empty", "Actor_type"),
    "dist actor two bad cells": _bad(
        ACTORS_TRUE, "mandatory value is empty", "Actor_type"),
    # A duplicate role-file column is named, as in the flat reader.
    "dist duplicate and unknown columns": [
        f"WARNING UnknownColumn {ACTORS_TRUE}:1 duplicate column "
        "'Actor_TTC' ignored [Actor_TTC]",
        f"WARNING UnknownColumn {ACTORS_TRUE}:1 column 'Actor_colour' is "
        "not in the schema [Actor_colour]",
        "trace: 2 VUT rows; actor A1:2"],
}


def _summary(trace) -> str:
    if trace is None:
        return "trace: none"
    tables = ", ".join(
        f"{name} {eid}:{len(recs)}"
        for name, table in (("actor", trace.actors),
                            ("obstacle", trace.obstacles),
                            ("controller", trace.controllers))
        for eid, recs in table.items())
    return f"trace: {len(trace.vut)} VUT rows; {tables or 'no entities'}"


def outcome(root: Path, files: dict) -> list:
    """Write one corpus input under root, parse it, render the result."""
    for name, body in files.items():
        p = root / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(body, encoding="utf-8")
    target = root / next(iter(files)).split("/")[0]
    try:
        trace, rep = parse_trace(target)
    except Exception as exc:  # recorded, so a crash shows as a difference
        return [f"raises {type(exc).__name__}: {exc}"]
    return [f.render() for f in rep.findings] + [_summary(trace)]


def _sha256_tree(path: Path) -> str:
    h = hashlib.sha256()
    paths = sorted(path.rglob("*")) if path.is_dir() else [path]
    for p in paths:
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def generate(work: Path) -> dict:
    digests = {}
    for seed in SEEDS:
        trace = random_trace(np.random.default_rng(seed))
        flat = write_flat(trace, work / f"flat{seed}")
        folder = write_distributed(trace, work / f"dist{seed}")
        digests[f"write_flat seed {seed}"] = _sha256_tree(flat)
        digests[f"write_distributed seed {seed}"] = _sha256_tree(folder)
    findings = {}
    for i, (name, files) in enumerate(CORPUS.items()):
        root = work / f"case{i}"
        root.mkdir()
        findings[name] = outcome(root, files)
    return {"digests": digests, "findings": findings}


def test_writers_match_golden_digests(tmp_path):
    assert generate(tmp_path)["digests"] == \
        json.loads(GOLDEN.read_text())["digests"]


def test_reader_findings_match_golden(tmp_path):
    got = generate(tmp_path)["findings"]
    want = json.loads(GOLDEN.read_text())["findings"]
    assert sorted(got) == sorted(want)
    for name in want:
        if name in CHANGED:
            assert want[name] != CHANGED[name], name
            assert got[name] == CHANGED[name], name
        else:
            assert got[name] == want[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(generate(Path(tmp)), indent=1,
                                     sort_keys=True) + "\n")
