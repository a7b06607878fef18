"""Integrity findings and dataset-level checks.

Readers never raise on bad input files; they collect findings instead.
A finding has a severity ("error" blocks trace emission and fails
validation, "warning" does not), a stable code for tooling, and an
optional file/row/column location.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ERROR = "error"
WARNING = "warning"

# Stable finding codes.
MISSING_HEADER = "MissingHeader"
MISSING_MANDATORY_COLUMN = "MissingMandatoryColumn"
UNKNOWN_COLUMN = "UnknownColumn"
BAD_VALUE = "BadValue"
NON_MONOTONE_TIME = "NonMonotoneTime"
DUPLICATE_STEP = "DuplicateStep"
MISSING_VUT_FILE = "MissingVutFile"
ORPHAN_STEP = "OrphanStep"
ROLE_FILE_MISNAMED = "RoleFileMisnamed"
FILE_NAME_INVALID = "FileNameInvalid"
START_TIME_NONZERO = "StartTimeNonzero"
TIME_MISMATCH = "TimeMismatch"
FREQUENCY_TOO_LOW = "FrequencyTooLow"
JITTER_EXCEEDED = "JitterExceeded"
INSUFFICIENT_RUNS = "InsufficientRuns"
DUPLICATE_RUN = "DuplicateRun"

# The minimum VUT sample rate, in Hz, that ``validate`` checks by default.
DEFAULT_F_MIN = 10.0


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    message: str
    file: str | None = None
    row: int | None = None
    column: str | None = None

    def render(self) -> str:
        loc = ""
        if self.file:
            loc = self.file
            if self.row is not None:
                loc += f":{self.row}"
            loc += " "
        col = f" [{self.column}]" if self.column else ""
        return f"{self.severity.upper()} {self.code} {loc}{self.message}{col}"


@dataclass
class IntegrityReport:
    findings: list = field(default_factory=list)

    def add(self, severity: str, code: str, message: str,
            file: str | None = None, row: int | None = None,
            column: str | None = None) -> None:
        self.findings.append(Finding(severity, code, message, file, row, column))

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors


def median_period(times) -> float | None:
    """The median spacing of consecutive times; None for fewer than two."""
    if len(times) < 2:
        return None
    dts = sorted(np.diff(times).tolist())     # np.median pages in more code
    mid = len(dts) // 2
    return dts[mid] if len(dts) % 2 == 1 else 0.5 * (dts[mid - 1] + dts[mid])


def check_frequency(trace, f_min: float) -> list:
    """Sample-rate findings for one trace.

    The effective rate is taken from the median inter-sample period of
    the VUT channel; an error fires when it undercuts ``f_min``.  Spacing
    that strays more than 10% from the median anywhere earns a jitter
    warning.
    """
    out = []
    times = trace.channels("vut").columns["time"]
    if len(times) < 2:
        out.append(Finding(
            ERROR, FREQUENCY_TOO_LOW,
            f"cannot establish a sample rate from {len(times)} record(s)",
        ))
        return out
    med = median_period(times)
    rate = 1.0 / med
    if rate < f_min * (1.0 - 1e-9):
        out.append(Finding(
            ERROR, FREQUENCY_TOO_LOW,
            f"median sample rate {rate:.3f} Hz is below the required "
            f"{f_min:g} Hz",
        ))
    dts = np.diff(times)
    off = np.abs(dts - med)
    i = len(off) - 1 - int(off[::-1].argmax())  # the last of the largest
    if off[i] > 0.1 * med:
        out.append(Finding(
            WARNING, JITTER_EXCEEDED,
            f"sample spacing {dts[i]:.6g} s at t={times[i]:.6g} deviates "
            f"more than 10% from the median {med:.6g} s",
        ))
    return out


def check_run_set(traces, n_required: int) -> list:
    """Completeness findings for the runs of one test case.

    All traces must belong to the same test case; mixing cases is caller
    error and raises.  Only their ``testcase_id`` and ``run_id`` are read,
    so any objects with those two attributes will do.
    """
    if n_required < 1:
        raise ValueError("n_required must be >= 1")
    traces = list(traces)
    if not traces:
        return [Finding(ERROR, INSUFFICIENT_RUNS,
                        f"0 runs present, {n_required} required")]
    cases = {t.testcase_id for t in traces}
    if len(cases) != 1:
        raise ValueError(f"traces mix test cases: {sorted(cases)}")
    out = []
    seen = {}
    for t in traces:
        seen[t.run_id] = seen.get(t.run_id, 0) + 1
    for run_id in sorted(k for k, v in seen.items() if v > 1):
        out.append(Finding(
            WARNING, DUPLICATE_RUN,
            f"run {run_id} appears {seen[run_id]} times",
        ))
    if len(seen) < n_required:
        out.append(Finding(
            ERROR, INSUFFICIENT_RUNS,
            f"{len(seen)} distinct run(s) present, {n_required} required",
        ))
    return out
