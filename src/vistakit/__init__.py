"""Tooling for autonomous-vehicle virtual-test trace files.

The package reads and writes the two result-file layouts, checks their
integrity, measures per-step clearances between the vehicle under test
and its environment, applies pass/fail safety rules, compares virtual
runs against track recordings, and synthesizes scenario traces with
known outcomes for pipeline tests.
"""

from .clearance import (
    ClearanceSample,
    ClearanceSeries,
    all_clearance_series,
    clearance_series,
)
from .errors import (
    CoincidentPoints,
    CountMismatch,
    DegeneratePolygon,
    EmptyArray,
    ExtentExceeded,
    InfeasibleSpec,
    InsufficientOverlap,
    MalformedArray,
    MalformedRules,
    UnknownEntity,
    VistaError,
)
from .fidelity import (
    FidelityReport,
    FidelityTolerances,
    align,
    compare,
    select_recalibration_subset,
)
from .frames import LocalFrame, heading_between, vcs_to_world, world_to_vcs
from .integrity import IntegrityReport, check_frequency, check_run_set
from .model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
    VehicleProfile,
    VutState,
    normalize_heading,
)
from .positions import parse_position_array, serialize_position_array
from .rules import (
    RuleSet,
    RuleVerdict,
    RunEvaluation,
    TestCaseEvaluation,
    aggregate,
    evaluate_run,
    load_rules,
    ruleset_for,
)
from .synth import ScenarioSpec, perturb, synthesize, synthesize_runs
from .trace_io import (
    detect_layout,
    parse_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ActorState",
    "BoundingShape",
    "ClearanceSample",
    "ClearanceSeries",
    "CoincidentPoints",
    "CountMismatch",
    "DegeneratePolygon",
    "EmptyArray",
    "ExtentExceeded",
    "FidelityReport",
    "FidelityTolerances",
    "GeoPosition",
    "InfeasibleSpec",
    "InsufficientOverlap",
    "IntegrityReport",
    "LocalFrame",
    "MalformedArray",
    "MalformedRules",
    "ObstacleState",
    "RuleSet",
    "RuleVerdict",
    "RunEvaluation",
    "ScenarioSpec",
    "TestCaseEvaluation",
    "Trace",
    "TrafficControllerState",
    "UnknownEntity",
    "VcsPosition",
    "VehicleProfile",
    "VistaError",
    "VutState",
    "aggregate",
    "align",
    "all_clearance_series",
    "check_frequency",
    "check_run_set",
    "clearance_series",
    "compare",
    "detect_layout",
    "evaluate_run",
    "heading_between",
    "load_rules",
    "normalize_heading",
    "parse_position_array",
    "parse_trace",
    "perturb",
    "ruleset_for",
    "select_recalibration_subset",
    "serialize_position_array",
    "synthesize",
    "synthesize_runs",
    "vcs_to_world",
    "world_to_vcs",
    "write_trace",
]
