import math
import os
from dataclasses import replace

import numpy as np
import pytest

from vistakit import integrity as it
from vistakit.frames import LocalFrame
from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    VcsPosition,
)
from vistakit.trace_io import (
    detect_layout,
    parse_trace,
    write_distributed,
    write_trace,
)

from conftest import BASE, geo_quad, random_trace, simple_vut

MIN_HEADER = ("Time,Step_number,VUT_pos_lat,VUT_pos_lon,VUT_travelled,"
              "VUT_speed,VUT_acc_long,VUT_acc_lat,VUT_yaw_rate,VUT_heading,"
              "VUT_ind_left_front,VUT_ind_left_rear,VUT_ind_right_front,"
              "VUT_ind_right_rear,VUT_ind_brake,VUT_ind_reverse,"
              "VUT_ind_hazard,VUT_throttle,VUT_brake,VUT_steering_angle,"
              "VUT_drive_status,VUT_special_op")
ROW0 = ("0.0,0,1.354,103.696,0.0,5.0,0.0,0.0,0.0,0.0,"
        "0,0,0,0,0,0,0,0.3,0.0,0.0,autonomous,normal")
ROW1 = ("0.1,1,1.354,103.696,0.5,5.0,0.0,0.0,0.0,0.0,"
        "0,0,0,0,0,0,0,0.3,0.0,0.0,autonomous,normal")


def _flat(tmp_path, body, name="results_TC-IO-01_r01.csv"):
    p = tmp_path / name
    p.write_bytes(body if isinstance(body, bytes) else body.encode())
    return p


def test_filename_carries_ids(tmp_path):
    p = _flat(tmp_path, f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n",
              name="results_M2-CL4-S-TST-05-01_r09.csv")
    trace, rep = parse_trace(p)
    assert rep.ok
    assert trace.testcase_id == "M2-CL4-S-TST-05-01"
    assert trace.run_id == 9
    assert len(trace.vut) == 2


def test_bad_filename_rejected(tmp_path):
    p = _flat(tmp_path, f"{MIN_HEADER}\n{ROW0}\n", name="outcome_TC_r01.csv")
    trace, rep = parse_trace(p)
    assert trace is None
    assert any(f.code == it.FILE_NAME_INVALID for f in rep.findings)


def test_crlf_and_bom_accepted(tmp_path):
    body = f"{MIN_HEADER}\r\n{ROW0}\r\n{ROW1}\r\n".encode("utf-8")
    p = _flat(tmp_path, b"\xef\xbb\xbf" + body)
    trace, rep = parse_trace(p)
    assert rep.ok and trace is not None
    assert trace.vut[0].time == 0.0


def test_written_files_use_lf(tmp_path):
    t = Trace("TC-LF-01", 1, (simple_vut(0, 0.0), simple_vut(1, 0.1)))
    p = write_trace(t, tmp_path)
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_unknown_column_is_warning_only(tmp_path):
    header = MIN_HEADER + ",VUT_future_field"
    body = "\n".join([header, ROW0 + ",x", ROW1 + ",y"]) + "\n"
    trace, rep = parse_trace(_flat(tmp_path, body))
    assert trace is not None
    assert any(f.code == it.UNKNOWN_COLUMN and f.severity == it.WARNING
               for f in rep.findings)


def test_duplicate_column_ignored_with_warning(tmp_path):
    header = MIN_HEADER + ",VUT_speed"
    body = "\n".join([header, ROW0 + ",1.0", ROW1 + ",1.0"]) + "\n"
    trace, rep = parse_trace(_flat(tmp_path, body))
    assert trace is not None
    assert any("duplicate" in f.message for f in rep.findings)
    # First occurrence wins.
    assert trace.vut[0].speed == 5.0


def test_missing_mandatory_column_rejected(tmp_path):
    header = MIN_HEADER.replace(",VUT_speed", "")
    rows = [",".join(r.split(",")[:5] + r.split(",")[6:])
            for r in (ROW0, ROW1)]
    body = "\n".join([header] + rows) + "\n"
    trace, rep = parse_trace(_flat(tmp_path, body))
    assert trace is None
    assert any(f.code == it.MISSING_MANDATORY_COLUMN for f in rep.findings)


def test_non_numeric_cell_rejected(tmp_path):
    body = f"{MIN_HEADER}\n{ROW0.replace('5.0', 'fast', 1)}\n"
    trace, rep = parse_trace(_flat(tmp_path, body))
    assert trace is None
    assert any(f.code == it.BAD_VALUE for f in rep.findings)


def test_inf_sentinel_parses(tmp_path):
    header = (MIN_HEADER + ",Actor_Id,Actor_type,Actor_pos_true_x,"
              "Actor_pos_true_y,Actor_vel_abs,Actor_vel_lat,Actor_vel_long,"
              "Actor_acc_lat,Actor_acc_long,Actor_heading,Actor_TTC")
    rows = [
        ROW0 + ",A1,tsv,10,0,0.0,0.0,0.0,0.0,0.0,,inf",
        ROW1 + ",A1,tsv,10,0,0.0,0.0,0.0,0.0,0.0,,3.5",
    ]
    trace, rep = parse_trace(_flat(tmp_path, "\n".join([header] + rows)))
    assert rep.ok
    recs = trace.actors["A1"]
    assert recs[0].ttc == math.inf
    assert recs[1].ttc == 3.5
    assert recs[0].pos == VcsPosition(10.0, 0.0)
    assert recs[0].heading is None


def test_empty_entity_cells_mean_no_record(tmp_path):
    header = (MIN_HEADER + ",Actor_Id,Actor_type,Actor_pos_true_x,"
              "Actor_pos_true_y,Actor_vel_abs,Actor_vel_lat,Actor_vel_long,"
              "Actor_acc_lat,Actor_acc_long,Actor_heading,Actor_TTC")
    rows = [
        ROW0 + ",A1,tsv,10,0,0.0,0.0,0.0,0.0,0.0,90.0,inf",
        ROW1 + ",,,,,,,,,,,",
    ]
    trace, rep = parse_trace(_flat(tmp_path, "\n".join([header] + rows)))
    assert rep.ok
    assert len(trace.actors["A1"]) == 1


def test_obstacle_coded_actor_moves_tables(tmp_path):
    header = (MIN_HEADER + ",Actor_Id,Actor_type,Actor_pos_true_lat,"
              "Actor_pos_true_lon,Actor_bbox_true,Actor_vel_abs,"
              "Actor_vel_lat,Actor_vel_long,Actor_acc_lat,Actor_acc_long,"
              "Actor_heading,Actor_TTC")
    bbox = "|1.3539 103.6959|1.3539 103.6961|1.3541 103.6961|1.3541 103.6959|"
    tail = f",CONES,100,1.354,103.696,{bbox},0,0,0,0,0,,inf"
    body = "\n".join([header, ROW0 + tail, ROW1 + tail]) + "\n"
    trace, rep = parse_trace(_flat(tmp_path, body))
    assert rep.ok
    assert not trace.actors
    recs = trace.obstacles["CONES"]
    assert len(recs) == 2
    assert recs[0].obst_type == 100
    assert recs[0].ntd == math.inf


def test_vut_only_round_trip(tmp_path):
    t = Trace("TC-VO-01", 3, (simple_vut(0, 0.0), simple_vut(1, 0.1)))
    p = write_trace(t, tmp_path, layout="flat")
    back, rep = parse_trace(p)
    assert rep.ok and back == t
    assert back.declared_frequency == pytest.approx(10.0)


def test_distributed_layout_round_trip(tmp_path, rng):
    t = random_trace(rng, testcase_id="TC-DIST-01", run_id=4)
    path = write_trace(t, tmp_path, layout="distributed")
    assert path.is_dir()
    assert detect_layout(path) == "distributed"
    assert (path / "VUT_status.csv").exists()
    back, rep = parse_trace(path)
    assert rep.ok
    assert back == t


def test_layouts_agree(tmp_path, rng):
    for i in range(10):
        t = random_trace(rng)
        d1 = tmp_path / f"f{i}"
        d2 = tmp_path / f"d{i}"
        d1.mkdir(), d2.mkdir()
        flat, _ = parse_trace(write_trace(t, d1, layout="flat"))
        dist, _ = parse_trace(write_trace(t, d2, layout="distributed"))
        assert flat == dist == t


def test_distributed_rejects_mixed_actor_frames(tmp_path):
    from vistakit.model import ActorState
    vut = (simple_vut(0, 0.0), simple_vut(1, 0.1))
    kw = dict(speed=0.5, vel_lat=0.0, vel_long=0.5, acc_lat=0.0,
              acc_long=0.0, ttc=math.inf, bbox_true=None)
    a = ActorState(time=0.0, step=0, actor_id="A1", actor_type="tsv",
                   pos=VcsPosition(5, 0), **kw)
    b = ActorState(time=0.0, step=0, actor_id="A2", actor_type="tsv",
                   pos=GeoPosition(1.354, 103.696), **kw)
    t = Trace("TC-MIX-01", 1, vut, actors={"A1": (a,), "A2": (b,)})
    with pytest.raises(ValueError, match="world and VCS actor positions"):
        write_distributed(t, tmp_path)
    # Refused before the run folder is made, so no partial run is left.
    assert list(tmp_path.iterdir()) == []
    # One actor in both frames is refused in the flat layout too.
    b = replace(b, actor_id="A1", step=1, time=0.1)
    t = Trace("TC-MIX-01", 1, vut, actors={"A1": (a, b)})
    for layout in ("flat", "distributed"):
        with pytest.raises(ValueError, match="world and VCS actor positions"):
            write_trace(t, tmp_path / layout, layout)
        assert not (tmp_path / layout).exists()


VCS_BOX = BoundingShape("vcs", (VcsPosition(1, 1), VcsPosition(-1, 1),
                                VcsPosition(-1, -1), VcsPosition(1, -1)))


def _misframed(column):
    """A trace whose one outline in column is in the VCS frame while its
    record's position is a world one."""
    vut = (simple_vut(0, 0.0), simple_vut(1, 0.1))
    frame = LocalFrame.at(BASE)
    box = geo_quad(frame, 0.0, 10.0, 1.0, 1.0)
    if column.startswith("Obst_"):
        obst = ObstacleState(time=0.0, step=0, obstacle_id="O1",
                             obst_type=100, pos=frame.from_local(0.0, 10.0),
                             poly_true=box, ntd=math.inf)
        field = "poly_true" if column == "Obst_poly_true" else \
            "poly_perceived"
        return Trace("TC-FRAME-01", 1, vut,
                     obstacles={"O1": (replace(obst, **{field: VCS_BOX}),)})
    actor = ActorState(time=0.1, step=1, actor_id="A1", actor_type="tsv",
                       pos=frame.from_local(0.0, 10.0), bbox_true=box,
                       speed=0.0, vel_lat=0.0, vel_long=0.0, acc_lat=0.0,
                       acc_long=0.0, ttc=math.inf)
    field = "bbox_true" if column == "Actor_bbox_true" else "bbox_perceived"
    return Trace("TC-FRAME-01", 1, vut,
                 actors={"A1": (replace(actor, **{field: VCS_BOX}),)})


@pytest.mark.parametrize("layout", ["flat", "distributed"])
@pytest.mark.parametrize("column", ["Actor_bbox_true", "Actor_bbox_perceived",
                                    "Obst_poly_true", "Obst_poly_perceived"])
def test_writers_refuse_an_outline_out_of_its_position_frame(
        tmp_path, layout, column):
    # Written, the outline would read back in the position's frame: a
    # different trace.  Nothing is written.
    eid = "O1" if column.startswith("Obst_") else "A1"
    with pytest.raises(ValueError, match=f"={eid}: {column} at step "
                       r"\d+ is in the vcs frame, its position in the "
                       "wgs84 frame"):
        write_trace(_misframed(column), tmp_path / "out", layout)
    assert not (tmp_path / "out").exists()


def test_write_is_deterministic(tmp_path, rng):
    t = random_trace(rng, testcase_id="TC-DET-01", run_id=2)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    p1 = write_trace(t, d1, layout="flat")
    p2 = write_trace(t, d2, layout="flat")
    assert p1.read_bytes() == p2.read_bytes()


def test_float_cells_round_trip_exactly(tmp_path):
    # Values straight out of numpy must land as plain decimal text.
    speed = float(np.float64(1.0) / 3.0)
    t = Trace("TC-NP-01", 1, (simple_vut(0, 0.0, speed=speed),
                              simple_vut(1, 0.1, speed=speed)))
    p = write_trace(t, tmp_path)
    assert "np.float64" not in p.read_text()
    back, _ = parse_trace(p)
    assert back.vut[0].speed == speed


def test_missing_vut_file_in_folder(tmp_path):
    folder = tmp_path / "TC-NOVUT-01_r01"
    folder.mkdir()
    (folder / "Environment_actors_true.csv").write_text(
        "Time,Step_number,Actor_Id\n", encoding="utf-8")
    trace, rep = parse_trace(folder)
    assert trace is None
    assert any(f.code == it.MISSING_VUT_FILE for f in rep.findings)


# Values each cell decodes but the record type rejects: (column, value).
REJECTED = [("VUT_throttle", "1.5"), ("Step_number", "-1"),
            ("VUT_speed", "-1.0"), ("VUT_pos_lat", "99"),
            ("Actor_vel_abs", "-1")]
ACTOR_COLUMNS = ("Actor_Id,Actor_type,Actor_pos_true_x,Actor_pos_true_y,"
                 "Actor_vel_abs,Actor_vel_lat,Actor_vel_long,Actor_acc_lat,"
                 "Actor_acc_long,Actor_heading,Actor_TTC")
ACTOR_ROW = "A1,tsv,10,0,1.0,0.0,1.0,0.0,0.0,,inf"


def _with(header, row, column, value):
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    return ",".join(cells)


def _rejected_input(tmp_path, layout, column, value):
    """A two-row run whose first row carries value in column."""
    if column.startswith("Actor_"):
        bad = _with(ACTOR_COLUMNS, ACTOR_ROW, column, value)
        if layout == "flat":
            body = "\n".join([f"{MIN_HEADER},{ACTOR_COLUMNS}",
                               f"{ROW0},{bad}", f"{ROW1},{ACTOR_ROW}"])
            return _flat(tmp_path, body), "results_TC-IO-01_r01.csv"
        folder = tmp_path / "TC-IO-01_r01"
        folder.mkdir()
        (folder / "VUT_status.csv").write_text(
            f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n", encoding="utf-8")
        (folder / "Environment_actors_true.csv").write_text(
            f"Time,Step_number,{ACTOR_COLUMNS}\n0.0,0,{bad}\n",
            encoding="utf-8")
        return folder, "Environment_actors_true.csv"
    body = "\n".join([MIN_HEADER, _with(MIN_HEADER, ROW0, column, value),
                      ROW1]) + "\n"
    if layout == "flat":
        return _flat(tmp_path, body), "results_TC-IO-01_r01.csv"
    folder = tmp_path / "TC-IO-01_r01"
    folder.mkdir()
    (folder / "VUT_status.csv").write_text(body, encoding="utf-8")
    return folder, "VUT_status.csv"


@pytest.mark.parametrize("layout", ["flat", "distributed"])
@pytest.mark.parametrize("column,value", REJECTED)
def test_rejected_value_is_a_finding(tmp_path, layout, column, value):
    path, fname = _rejected_input(tmp_path, layout, column, value)
    trace, rep = parse_trace(path)
    assert trace is None
    assert [(f.severity, f.code, f.file, f.row) for f in rep.findings] == \
        [(it.ERROR, it.BAD_VALUE, fname, 2)]


@pytest.mark.parametrize("layout", ["flat", "distributed"])
@pytest.mark.parametrize("column,value", REJECTED)
def test_validate_reports_rejected_value(tmp_path, capsys, layout, column,
                                         value):
    from vistakit import cli
    path, fname = _rejected_input(tmp_path, layout, column, value)
    assert cli.main(["validate", str(path)]) == cli.EXIT_FINDINGS
    out = capsys.readouterr().out
    assert f"{path}: ERROR BadValue {fname}:2 " in out
    assert f"INVALID {path}" in out


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_writers_refuse_a_run_id_the_readers_reject(tmp_path, rng, layout):
    # The file and folder names hold at most three run id digits.
    trace = random_trace(rng, run_id=999)
    assert parse_trace(write_trace(trace, tmp_path / "ok", layout))[0] \
        == trace
    with pytest.raises(ValueError, match="run id 1000"):
        write_trace(replace(trace, run_id=1000), tmp_path / "no", layout)
    assert not (tmp_path / "no").exists()
