"""Frequency, jitter, run-set, and time-ordering findings."""

import pytest

from vistakit import integrity as it
from vistakit.model import Trace
from vistakit.trace_io import parse_trace

from conftest import simple_vut
from test_trace_io import MIN_HEADER, ROW0, ROW1, _flat


def _uniform_trace(rate: float, count: int = 21, run_id: int = 1,
                   testcase_id: str = "TC-FREQ-01") -> Trace:
    dt = 1.0 / rate
    return Trace(testcase_id, run_id,
                 tuple(simple_vut(k, k * dt) for k in range(count)),
                 declared_frequency=rate)


def test_frequency_ok_at_limit():
    assert it.check_frequency(_uniform_trace(10.0), f_min=10.0) == []


def test_frequency_too_low():
    findings = it.check_frequency(_uniform_trace(5.0), f_min=10.0)
    assert any(f.code == it.FREQUENCY_TOO_LOW and f.severity == it.ERROR
               for f in findings)


def test_single_gap_is_jitter_warning():
    times = [k * 0.1 for k in range(20)]
    times[10:] = [t + 0.25 for t in times[10:]]  # one 0.35 s hole
    vut = tuple(simple_vut(k, t) for k, t in enumerate(times))
    findings = it.check_frequency(Trace("TC-JIT-01", 1, vut), f_min=10.0)
    codes = {f.code for f in findings}
    assert it.JITTER_EXCEEDED in codes
    assert all(f.severity == it.WARNING for f in findings
               if f.code == it.JITTER_EXCEEDED)
    # Median period still 0.1 s, so the rate itself is fine.
    assert it.FREQUENCY_TOO_LOW not in codes


def test_run_set_complete():
    runs = [_uniform_trace(10.0, run_id=i) for i in range(1, 11)]
    assert it.check_run_set(runs, n_required=10) == []


def test_run_set_single_run_ok():
    assert it.check_run_set([_uniform_trace(10.0)], n_required=1) == []


def test_run_set_duplicates_and_shortfall():
    runs = [_uniform_trace(10.0, run_id=1), _uniform_trace(10.0, run_id=1),
            _uniform_trace(10.0, run_id=2)]
    findings = it.check_run_set(runs, n_required=3)
    by_code = {f.code: f for f in findings}
    assert by_code[it.DUPLICATE_RUN].severity == it.WARNING
    assert by_code[it.INSUFFICIENT_RUNS].severity == it.ERROR


def test_run_set_nine_of_ten():
    runs = [_uniform_trace(10.0, run_id=i) for i in range(1, 10)]
    findings = it.check_run_set(runs, n_required=10)
    assert any(f.code == it.INSUFFICIENT_RUNS for f in findings)


def test_non_monotone_time_rejected(tmp_path):
    swapped = "\n".join([MIN_HEADER, ROW1.replace("0.1,1", "0.2,0", 1),
                         ROW0.replace("0.0,0", "0.1,1", 1)]) + "\n"
    trace, rep = parse_trace(_flat(tmp_path, swapped))
    assert trace is None
    assert any(f.code == it.NON_MONOTONE_TIME for f in rep.findings)


def test_duplicate_step_rejected(tmp_path):
    body = "\n".join([MIN_HEADER, ROW0, ROW1.replace("0.1,1", "0.1,0", 1)])
    trace, rep = parse_trace(_flat(tmp_path, body))
    assert trace is None
    codes = {f.code for f in rep.findings}
    assert it.DUPLICATE_STEP in codes or it.NON_MONOTONE_TIME in codes


def test_nonzero_start_time_warns(tmp_path):
    shifted = "\n".join([
        MIN_HEADER,
        ROW0.replace("0.0,0", "5.0,0", 1),
        ROW1.replace("0.1,1", "5.1,1", 1),
    ]) + "\n"
    trace, rep = parse_trace(_flat(tmp_path, shifted))
    assert trace is not None
    warning = [f for f in rep.findings if f.code == it.START_TIME_NONZERO]
    assert warning and warning[0].severity == it.WARNING


def test_orphan_step_in_folder(tmp_path):
    folder = tmp_path / "TC-ORPH-01_r01"
    folder.mkdir()
    (folder / "VUT_status.csv").write_text(
        f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n", encoding="utf-8")
    (folder / "Environment_actors_true.csv").write_text(
        "Time,Step_number,Actor_Id,Actor_type,Actor_pos_true_x,"
        "Actor_pos_true_y,Actor_vel_abs,Actor_vel_lat,Actor_vel_long,"
        "Actor_acc_lat,Actor_acc_long,Actor_heading,Actor_TTC\n"
        "0.5,5,A1,tsv,10,0,0,0,0,0,0,,inf\n", encoding="utf-8")
    trace, rep = parse_trace(folder)
    assert trace is None
    assert any(f.code == it.ORPHAN_STEP for f in rep.findings)


def test_misnamed_role_file_warns(tmp_path):
    folder = tmp_path / "TC-ROLE-01_r01"
    folder.mkdir()
    (folder / "VUT_status.csv").write_text(
        f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n", encoding="utf-8")
    (folder / "Environment_actors.csv").write_text(
        "Time,Step_number\n", encoding="utf-8")
    trace, rep = parse_trace(folder)
    assert trace is not None
    assert any(f.code == it.ROLE_FILE_MISNAMED and f.severity == it.WARNING
               for f in rep.findings)


def test_entity_time_mismatch_warns(tmp_path):
    folder = tmp_path / "TC-TMIS-01_r01"
    folder.mkdir()
    (folder / "VUT_status.csv").write_text(
        f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n", encoding="utf-8")
    # Step 1 exists but its time disagrees with the VUT clock by 0.09 s,
    # more than half the 0.1 s period.
    (folder / "Environment_actors_true.csv").write_text(
        "Time,Step_number,Actor_Id,Actor_type,Actor_pos_true_x,"
        "Actor_pos_true_y,Actor_vel_abs,Actor_vel_lat,Actor_vel_long,"
        "Actor_acc_lat,Actor_acc_long,Actor_heading,Actor_TTC\n"
        "0.19,1,A1,tsv,10,0,0,0,0,0,0,,inf\n", encoding="utf-8")
    trace, rep = parse_trace(folder)
    assert trace is not None
    assert any(f.code == it.TIME_MISMATCH and f.severity == it.WARNING
               for f in rep.findings)
    # The VUT clock wins.
    assert trace.actors["A1"][0].time == pytest.approx(0.1)


def test_median_period():
    assert it.median_period([]) is None
    assert it.median_period([0.0]) is None
    assert it.median_period([0.0, 0.1, 0.3]) == pytest.approx(0.15)
    assert it.median_period([0.0, 0.1, 0.2, 0.5]) == pytest.approx(0.1)


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_parse_takes_the_median_period_once(tmp_path, monkeypatch, layout):
    from vistakit import trace_io
    folder = tmp_path / "TC-MED-01_r01"
    folder.mkdir()
    (folder / "VUT_status.csv").write_text(
        f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n", encoding="utf-8")
    path = folder if layout == "distributed" else _flat(
        tmp_path, f"{MIN_HEADER}\n{ROW0}\n{ROW1}\n")
    calls = []
    monkeypatch.setattr(it, "median_period",
                        lambda times: calls.append(1) or 0.1)
    trace, rep = trace_io.parse_trace(path)
    assert rep.ok and trace.declared_frequency == 10.0
    assert len(calls) == 1
