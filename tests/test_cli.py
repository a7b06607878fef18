"""End-to-end checks of the command line front end.

Everything runs in-process through ``cli.main`` so exit codes and
printed output can be asserted cheaply; one subprocess test confirms
the console script is wired up.
"""

import csv
import json
import shlex
import subprocess
import sys
from dataclasses import replace

import pytest

from vistakit import cli, synth, trace_io
from vistakit.model import BoundingShape, TrafficControllerState

from test_trace_io import MIN_HEADER, ROW0, _flat


@pytest.fixture(scope="module")
def case3_set(tmp_path_factory):
    """Ten flat case-3 runs written once and reused read-only."""
    out = tmp_path_factory.mktemp("case3")
    rc = cli.main(["generate", "--case", "3", "--runs", "10",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def case1_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("case1")
    rc = cli.main(["generate", "--case", "1", "--runs", "1",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    files = sorted(out.iterdir())
    assert len(files) == 1
    return files[0]


def test_generate_writes_expected_names(case3_set):
    names = sorted(p.name for p in case3_set.iterdir())
    expected = [f"results_M2-CL4-S-TST-05-01_r{i:02d}.csv"
                for i in range(1, 11)]
    assert names == expected


def test_validate_clean_file_exits_zero(case3_set, capsys):
    target = case3_set / "results_M2-CL4-S-TST-05-01_r01.csv"
    rc = cli.main(["validate", str(target)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert f"OK {target}" in out


def test_validate_full_set(case3_set, capsys):
    rc = cli.main(["validate", str(case3_set), "--n-required", "10"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert out.count("OK ") == 10
    assert "InsufficientRuns" not in out


def test_validate_incomplete_set(case3_set, tmp_path, capsys):
    first = case3_set / "results_M2-CL4-S-TST-05-01_r01.csv"
    (tmp_path / first.name).write_bytes(first.read_bytes())
    rc = cli.main(["validate", str(tmp_path), "--n-required", "10"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_FINDINGS
    assert "InsufficientRuns" in out


def test_validate_reports_non_monotone_time(tmp_path, capsys):
    body = MIN_HEADER + "\n" + ROW0 + "\n" \
        + ROW0.replace("0.0,0", "0.2,1", 1) + "\n" \
        + ROW0.replace("0.0,0", "0.1,2", 1) + "\n"
    path = _flat(tmp_path, body)
    rc = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_FINDINGS
    assert "NonMonotoneTime" in out
    assert f"INVALID {path}" in out


def test_validate_writes_json_report(case3_set, tmp_path):
    target = case3_set / "results_M2-CL4-S-TST-05-01_r01.csv"
    out_file = tmp_path / "report.json"
    rc = cli.main(["validate", str(target), "--out", str(out_file)])
    assert rc == cli.EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload[0]["ok"] is True
    assert payload[0]["findings"] == []


def test_folder_without_traces_is_usage_error(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no trace here\n")
    rc = cli.main(["validate", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == \
        f"error: {tmp_path}: no trace files or run folders inside\n"


def test_missing_input_is_usage_error(capsys):
    rc = cli.main(["validate", "no_such_trace.csv"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "no_such_trace.csv" in err


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_validate_one_row_run_has_no_sample_rate(tmp_path, capsys):
    path = _flat(tmp_path, f"{MIN_HEADER}\n{ROW0}\n")
    assert cli.main(["validate", str(path)]) == cli.EXIT_FINDINGS
    assert capsys.readouterr().out == (
        f"{path}: ERROR FrequencyTooLow cannot establish a sample rate from "
        f"1 record(s)\nINVALID {path}\n")


def test_f_min_env_variable(case3_set, capsys, monkeypatch):
    # The stock runs sample at 10 Hz; an inflated floor must trip the
    # frequency check without any flag on the command line.
    monkeypatch.setenv("VISTA_F_MIN", "200")
    target = case3_set / "results_M2-CL4-S-TST-05-01_r01.csv"
    rc = cli.main(["validate", str(target)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_FINDINGS
    assert "FrequencyTooLow" in out


@pytest.mark.parametrize("name, message", [
    ("VISTA_F_MIN", "environment variable VISTA_F_MIN is not a number: "
                    "'ten'"),
    ("VISTA_N_REQUIRED", "environment variable VISTA_N_REQUIRED is not an "
                         "integer: 'ten'"),
])
def test_bad_env_variable_is_named(monkeypatch, capsys, name, message):
    monkeypatch.setenv(name, "ten")
    with pytest.raises(cli._CliError) as exc:
        cli.build_parser()
    assert str(exc.value) == message
    assert cli.main(["validate", "."]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_series_without_out_is_usage_error(capsys):
    # Refused before any input is read: the input does not exist.
    rc = cli.main(["evaluate", "no_such_trace.csv", "--series"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err == "error: --series requires --out\n"
    assert captured.out == ""


def test_generate_infeasible_target(tmp_path, capsys):
    rc = cli.main(["generate", "--case", "3", "--runs", "1",
                   "--out", str(tmp_path), "--target-clearance", "20.0"])
    assert rc == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_evaluate_passing_case(case3_set, capsys):
    rc = cli.main(["evaluate", str(case3_set)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "M2-CL4-S-TST-05-01" in out


def test_evaluate_failing_case(case1_file, capsys):
    rc = cli.main(["evaluate", str(case1_file), "--n-required", "1"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_FINDINGS
    assert "fail" in out.lower()


def test_evaluate_rejects_invalid_input(tmp_path, capsys):
    body = MIN_HEADER + "\n" + ROW0 + "\n" \
        + ROW0.replace("0.0,0", "0.2,1", 1) + "\n" \
        + ROW0.replace("0.0,0", "0.1,2", 1) + "\n"
    path = _flat(tmp_path, body)
    rc = cli.main(["evaluate", str(path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_FINDINGS
    assert "aborted" in out


def test_evaluate_rule_override_flips_verdict(case1_file, tmp_path, capsys):
    # Dropping every lateral threshold to a hair above zero makes the
    # tightest case pass, which proves the override file is honored.
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({
        "default": {
            "lateral_thresholds_m": {
                "static_obstacle": 0.05,
                "stopped_or_parked_vehicle": 0.05,
                "pedestrian_facing_traffic": 0.05,
                "pedestrian_facing_away": 0.05,
                "moving_tsv": 0.05,
                "cyclist": 0.05,
                "pmd_rider": 0.05,
                "road_user_other": 0.05,
            },
            "longitudinal_threshold_m": 0.05,
        },
    }))
    rc = cli.main(["evaluate", str(case1_file), "--n-required", "1",
                   "--rules", str(rules)])
    capsys.readouterr()
    assert rc == cli.EXIT_OK


@pytest.mark.parametrize("text, message", [
    ("{bad", "not a JSON rule file: Expecting property name enclosed in "
             "double quotes: line 1 column 2 (char 1)"),
    ("[1]", "rule file must contain a JSON object"),
    ('{"default": {"speed_limit_mps": "x"}}',
     "default: speed_limit_mps: could not convert string to float: 'x'"),
], ids=["not-json", "not-an-object", "bad-value"])
def test_evaluate_malformed_rule_file_is_usage_error(case1_file, tmp_path,
                                                     capsys, text, message):
    rules = tmp_path / "rules.json"
    rules.write_text(text)
    rc = cli.main(["evaluate", str(case1_file), "--n-required", "1",
                   "--rules", str(rules)])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {rules}: {message}\n"


def test_fidelity_self_comparison(case3_set, capsys):
    target = str(case3_set / "results_M2-CL4-S-TST-05-01_r01.csv")
    rc = cli.main(["fidelity", target, target])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "verdict=PASS" in out
    assert "offset_s=0.000" in out


def test_fidelity_json_report(case3_set, tmp_path):
    target = str(case3_set / "results_M2-CL4-S-TST-05-01_r01.csv")
    out_file = tmp_path / "fid.json"
    rc = cli.main(["fidelity", target, target, "--out", str(out_file)])
    assert rc == cli.EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["position_rmse_m"] == pytest.approx(0.0)
    assert payload["passed"] is True


def test_fidelity_without_overlap_is_a_usage_error(tmp_path, capsys):
    """Traces 20 s apart have no clock offset within a 0.5 s window: the
    error goes to stderr, as every command's does."""
    trace = synth.synthesize(case=2)
    virtual = trace_io.write_flat(trace, tmp_path / "virtual")
    reference = trace_io.write_flat(synth.perturb(trace, time_shift=20.0),
                                    tmp_path / "reference")
    rc = cli.main(["fidelity", str(virtual), str(reference),
                   "--window", "0.5"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == \
        "error: no admissible clock offset within +/-0.5 s\n"


def test_fidelity_of_a_folder_of_runs_is_a_usage_error(case3_set, capsys):
    rc = cli.main(["fidelity", str(case3_set), str(case3_set)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == \
        f"error: {case3_set}: expected exactly one trace\n"


def test_fidelity_of_a_run_with_errors_prints_them(case1_file, tmp_path,
                                                   capsys):
    body = MIN_HEADER + "\n" + ROW0 + "\n" + ROW0 + "\n"
    path = _flat(tmp_path, body)
    rc = cli.main(["fidelity", str(path), str(case1_file)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == (
        f"{path}: ERROR DuplicateStep {path.name}:3 step 0 appears more "
        "than once [Step_number]\n"
        f"{path}: ERROR NonMonotoneTime {path.name}:3 time 0.0 does not "
        "increase past 0.0 [Time]\n")
    assert captured.err == \
        f"error: {path}: integrity errors, cannot compare\n"


def test_evaluate_outputs_are_deterministic(case3_set, tmp_path, capsys):
    """Repeat runs over the same inputs write byte-identical JSON."""
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = cli.main(["evaluate", str(case3_set), "--out", str(out_dir),
                       "--series"])
        assert rc == cli.EXIT_OK
        dirs.append(out_dir)
    capsys.readouterr()
    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    assert names_a == names_b
    assert "M2-CL4-S-TST-05-01_summary.json" in names_a
    assert "M2-CL4-S-TST-05-01_r01_verdict.json" in names_a
    assert "M2-CL4-S-TST-05-01_r01_series.csv" in names_a
    for name in names_a:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_generate_distributed_layout_validates(tmp_path, capsys):
    rc = cli.main(["generate", "--case", "2", "--runs", "2",
                   "--out", str(tmp_path), "--layout", "distributed"])
    assert rc == cli.EXIT_OK
    folders = sorted(p.name for p in tmp_path.iterdir())
    assert folders == ["M2-CL4-S-TST-05-01_r01", "M2-CL4-S-TST-05-01_r02"]
    rc = cli.main(["validate", str(tmp_path), "--n-required", "2"])
    assert rc == cli.EXIT_OK
    capsys.readouterr()


def test_evaluate_judges_every_run_past_an_unmeasurable_entity(tmp_path,
                                                               capsys):
    # Run 2's TSV, outline and all, lies 1 degree of latitude north of
    # the VUT: beyond the safe extent of the VUT's frame.
    runs = tmp_path / "runs"
    assert cli.main(["generate", "--case", "1", "--runs", "2",
                     "--out", str(runs)]) == cli.EXIT_OK
    first, second = sorted(runs.iterdir())
    trace, _ = trace_io.parse_trace(second)

    def north(p):
        return replace(p, lat=p.lat + 1.0)

    far = {aid: tuple(replace(r, pos=north(r.pos), bbox_true=BoundingShape(
        "wgs84", tuple(map(north, r.bbox_true.vertices)))) for r in recs)
        for aid, recs in trace.actors.items()}
    trace_io.write_flat(replace(trace, actors=far), runs)
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / first.name).write_bytes(first.read_bytes())
    assert cli.main(["evaluate", str(alone),
                     "--out", str(tmp_path / "one")]) == cli.EXIT_FINDINGS
    assert cli.main(["evaluate", str(runs),
                     "--out", str(tmp_path / "both")]) == cli.EXIT_FINDINGS
    assert "error" not in capsys.readouterr().out

    def verdicts(out, run):
        return json.loads((tmp_path / out / f"M2-CL4-S-TST-05-01_r0{run}"
                           "_verdict.json").read_text())

    # Run 1 is judged as it is on its own.
    r1 = verdicts("both", 1)
    assert r1 == verdicts("one", 1)
    assert [v["outcome"] for v in r1["verdicts"]] == \
        ["fail", "pass", "pass", "warning"]
    # Run 2 fails both clearance rules of the TSV, unmeasured, and its
    # kinematic rules are judged as run 1's.
    r2 = verdicts("both", 2)
    detail = r2["verdicts"][0]["detail"]
    assert detail.startswith("not evaluable: point ")
    assert detail.endswith(" m from the frame origin")
    assert r2["verdicts"][:2] == [
        {"rule": f"{axis}_clearance[TSV-01]", "outcome": "fail",
         "measured": None, "threshold": None, "offending_steps": [],
         "attribution": None, "detail": detail}
        for axis in ("lateral", "longitudinal")]
    assert r2["verdicts"][2:] == r1["verdicts"][2:]
    assert r2["notes"] == [f"TSV-01: {detail}"]
    assert not r2["passed"]


def test_evaluate_judges_every_run_past_a_far_stop_line(tmp_path, capsys):
    # A stop line 1 degree of latitude north of the VUT lies beyond the
    # safe extent of its frame: the signal rule fails as not evaluable,
    # and every other rule of every run is still judged.
    runs = tmp_path / "runs"
    for trace in synth.synthesize_runs(case=3, count=2):
        lights = {"TL1": tuple(TrafficControllerState(
            time=r.time, step=r.step, controller_id="TL1", phase="stop")
            for r in trace.vut)}
        trace_io.write_flat(replace(trace, controllers=lights), runs)
    start = trace.vut[0].pos
    rules_file = tmp_path / "rules.json"
    rules_file.write_text(json.dumps({"default": {"stop_lines": {"TL1": {
        "lat": start.lat + 1.0, "lon": start.lon, "heading_deg": 0.0}}}}))
    plain = tmp_path / "plain"
    assert cli.main(["evaluate", str(runs), "--n-required", "2",
                     "--out", str(plain)]) == cli.EXIT_OK
    out = tmp_path / "out"
    assert cli.main(["evaluate", str(runs), "--n-required", "2",
                     "--rules", str(rules_file),
                     "--out", str(out)]) == cli.EXIT_FINDINGS
    assert "error" not in capsys.readouterr().out
    for verdict_file in sorted(plain.glob("*_verdict.json")):
        want = json.loads(verdict_file.read_text())
        got = json.loads((out / verdict_file.name).read_text())
        signal = got["verdicts"][-1]
        assert signal["rule"] == "signal_compliance[TL1]"
        assert signal["outcome"] == "fail"
        assert signal["detail"].startswith("not evaluable: point ")
        assert signal["detail"].endswith(" m from the frame origin")
        assert got["notes"][-1] == f"TL1: {signal['detail']}"
        assert got["verdicts"][:-1] == want["verdicts"][:-1]
        assert got["notes"][:-1] == want["notes"][:-1]
        assert not got["passed"]


# A value out of range is refused by the parser or before any work:
# exit 2, an error on stderr, nothing written.
OUT_OF_RANGE = [
    ("evaluate", ["--vut-length", "0"], {}),
    ("evaluate", ["--vut-width", "-1"], {}),
    ("evaluate", ["--vut-length", "inf"], {}),
    ("validate", ["--n-required", "0"], {}),
    ("validate", ["--n-required", "-3"], {}),
    ("validate", [], {"VISTA_N_REQUIRED": "0"}),
    ("evaluate", ["--n-required", "0"], {}),
    ("generate", ["--rate", "-5"], {}),
    ("generate", ["--rate", "nan"], {}),
    ("generate", ["--rate", "0"], {}),
    ("generate", ["--start-run", "0"], {}),
    ("generate", ["--start-run", "-2"], {}),
    ("generate", ["--speed-noise", "nan"], {}),
    ("generate", ["--speed-noise", "-0.1"], {}),
    ("generate", ["--testcase-id", ""], {}),
    # Run ids past 999 do not fit the names the readers accept.
    ("generate", ["--start-run", "995", "--runs", "10"], {}),
    ("generate", ["--runs", "0"], {}),
    ("generate", ["--target-clearance", "nan"], {}),
    ("validate", ["--f-min", "-1"], {}),
    ("fidelity", ["--window", "nan"], {}),
    ("fidelity", ["--tol-speed", "-1"], {}),
]


@pytest.mark.parametrize("command, extra, env", OUT_OF_RANGE,
                         ids=[shlex.join([c, *a, *(f"{k}={v}"
                                                   for k, v in e.items())])
                              for c, a, e in OUT_OF_RANGE])
def test_out_of_range_value_is_usage_error(case1_file, tmp_path, monkeypatch,
                                           capsys, command, extra, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = str(tmp_path / "out")
    argv = {"generate": ["--case", "1"],
            "validate": [str(case1_file)],
            "evaluate": [str(case1_file)],
            "fidelity": [str(case1_file), str(case1_file)]}[command]
    try:
        rc = cli.main([command, *argv, "--out", out, *extra])
    except SystemExit as exc:
        rc = exc.code
    assert rc == cli.EXIT_USAGE
    assert "error: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_series_quotes_an_entity_id_with_a_comma(tmp_path, capsys):
    odd = 'TSV,"01"'
    trace = synth.synthesize(case=1)
    (recs,) = trace.actors.values()
    trace = replace(trace, actors={
        odd: tuple(replace(r, actor_id=odd) for r in recs)})
    trace_io.write_flat(trace, tmp_path / "runs")
    out = tmp_path / "out"
    assert cli.main(["evaluate", str(tmp_path / "runs"), "--n-required", "1",
                     "--out", str(out), "--series"]) == cli.EXIT_FINDINGS
    capsys.readouterr()
    with open(out / "M2-CL4-S-TST-05-01_r01_series.csv", newline="",
              encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 7
    assert len(rows) == len(recs)
    assert all(len(row) == 7 and row[2] == odd for row in rows)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vistakit.cli", "validate", "missing.csv"],
        capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_USAGE
    assert "missing.csv" in proc.stderr
