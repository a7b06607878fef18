"""Byte-for-byte reference outputs of a small generate + evaluate job.

``data/golden`` holds what ``vista evaluate --series`` wrote and printed
for two noisy runs of case 1, as produced by the per-step clearance code
that preceded the batched kernel.  Refactors that must not change any
output keep this test green; a deliberate output change regenerates the
set with the two commands below and says so.
"""

from pathlib import Path

from vistakit import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
STDOUT = "evaluate_stdout.txt"


def test_evaluate_outputs_match_golden_set(tmp_path, capsys):
    runs, out = tmp_path / "runs", tmp_path / "out"
    assert cli.main(["generate", "--case", "1", "--runs", "2",
                     "--speed-noise", "0.05", "--seed", "7",
                     "--out", str(runs)]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", str(runs), "--n-required", "2",
                     "--out", str(out), "--series"]) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN / STDOUT).read_bytes()

    expected = sorted(p.name for p in GOLDEN.iterdir() if p.name != STDOUT)
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
