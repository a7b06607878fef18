"""``validate`` and ``evaluate`` hold one parsed run at a time.

Each input is parsed, checked or evaluated, and dropped before the next
is parsed.  The liveness tests count, through ``weakref.finalize``, the
traces still alive when each parse starts.  The byte-identity tests pin
what the commands print, return and write where streaming could change
it: the blanket abort of ``evaluate`` and an input that cannot be read
halfway through a batch, which must print nothing at all.
"""

import weakref

import pytest

from vistakit import cli, trace_io


@pytest.fixture(scope="module")
def four_runs(tmp_path_factory):
    """Four flat 10 Hz case-2 runs, written once and read only."""
    out = tmp_path_factory.mktemp("four")
    assert cli.main(["generate", "--case", "2", "--runs", "4",
                     "--out", str(out)]) == cli.EXIT_OK
    return out


def alive_at_each_parse(monkeypatch) -> list:
    """Wrap ``trace_io.parse_trace``: the list returned gets, as each
    parse starts, the number of traces an earlier parse returned that are
    still alive."""
    alive, counts = set(), []
    parse = trace_io.parse_trace

    def counted(path):
        counts.append(len(alive))
        trace, report = parse(path)
        if trace is not None:
            alive.add(id(trace))
            weakref.finalize(trace, alive.discard, id(trace))
        return trace, report
    monkeypatch.setattr(trace_io, "parse_trace", counted)
    return counts


def test_validate_holds_one_run_at_a_time(four_runs, monkeypatch, capsys):
    counts = alive_at_each_parse(monkeypatch)
    rc = cli.main(["validate", str(four_runs), "--n-required", "4"])
    assert rc == cli.EXIT_OK
    assert counts == [0, 0, 0, 0]
    assert capsys.readouterr().out.count("OK ") == 4


def test_evaluate_holds_one_run_at_a_time(four_runs, tmp_path, monkeypatch,
                                          capsys):
    counts = alive_at_each_parse(monkeypatch)
    rc = cli.main(["evaluate", str(four_runs), "--n-required", "4",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_FINDINGS          # case 2 fails its clearances
    assert counts == [0, 0, 0, 0]
    assert "FAIL (4/4 runs)" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*_verdict.json"))) == 4


# --- byte identity ---------------------------------------------------------

@pytest.fixture
def clean_bad_clean(tmp_path):
    """Runs 1 and 3 of case 1 clean; run 2 with one VUT speed blanked, an
    integrity ERROR."""
    runs = tmp_path / "runs"
    assert cli.main(["generate", "--case", "1", "--runs", "3",
                     "--out", str(runs)]) == cli.EXIT_OK
    bad = sorted(runs.iterdir())[1]
    lines = bad.read_text().split("\n")
    col = lines[0].split(",").index("VUT_speed")
    cells = lines[4].split(",")
    cells[col] = ""
    lines[4] = ",".join(cells)
    bad.write_text("\n".join(lines))
    return runs


ABORTED = (
    "RUNS/results_M2-CL4-S-TST-05-01_r02.csv: ERROR BadValue "
    "results_M2-CL4-S-TST-05-01_r02.csv:5 mandatory value is empty "
    "[VUT_speed]\n"
    "evaluation aborted: inputs have integrity errors\n")


def test_evaluate_aborts_past_clean_runs(clean_bad_clean, tmp_path, capsys):
    """A clean run is evaluated before the bad one is read, but only the
    bad run's errors and the abort are printed, and nothing is written."""
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", str(clean_bad_clean), "--n-required", "3",
                   "--out", str(out), "--series"])
    got = capsys.readouterr()
    assert rc == cli.EXIT_FINDINGS
    assert got.out.replace(str(clean_bad_clean), "RUNS") == ABORTED
    assert got.err == ""
    assert not out.exists()


def test_validate_prints_every_run_in_order(clean_bad_clean, tmp_path,
                                            capsys):
    rc = cli.main(["validate", str(clean_bad_clean), "--n-required", "3",
                   "--out", str(tmp_path / "v.json")])
    got = capsys.readouterr()
    stem = "RUNS/results_M2-CL4-S-TST-05-01_r0"
    assert rc == cli.EXIT_FINDINGS
    assert got.out.replace(str(clean_bad_clean), "RUNS") == (
        f"OK {stem}1.csv\n"
        f"{stem}2.csv: ERROR BadValue results_M2-CL4-S-TST-05-01_r02.csv:5 "
        "mandatory value is empty [VUT_speed]\n"
        f"INVALID {stem}2.csv\n"
        f"OK {stem}3.csv\n"
        "M2-CL4-S-TST-05-01: ERROR InsufficientRuns 2 distinct run(s) "
        "present, 3 required\n")
    assert got.err == ""


@pytest.mark.parametrize("command", [
    ["validate"],
    ["evaluate", "--n-required", "2"],
])
def test_unreadable_input_prints_nothing(tmp_path, capsys, command):
    """A role file of the second run is a directory: the command stops
    with exit 2 before printing anything, the first run's lines
    included."""
    runs = tmp_path / "runs"
    assert cli.main(["generate", "--case", "1", "--runs", "2", "--layout",
                     "distributed", "--out", str(runs)]) == cli.EXIT_OK
    capsys.readouterr()
    role = sorted(runs.iterdir())[1] / "Environment_actors_true.csv"
    role.unlink()
    role.mkdir()
    rc = cli.main([command[0], str(runs), *command[1:]])
    got = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert got.out == ""
    assert got.err == f"error: [Errno 21] Is a directory: '{role}'\n"
