"""Timing harness, named scenarios and perf-regression reports.

The first rung of the BENCH trajectory: ``repro-harness bench`` runs the
scenario list through the median-of-k timing harness, writes a
schema-versioned ``BENCH_<tag>.json``, and ``--compare`` turns any prior
report into a regression gate.
"""

from .report import (
    SCHEMA,
    build_report,
    compare_reports,
    load_report,
    render_report,
    validate_report,
    write_report,
)
from .scenarios import Scenario, default_scenarios, run_scenario, scenario_names
from .timing import Timing, median, pin_blas_threads, time_callable

__all__ = [
    "SCHEMA",
    "Scenario",
    "Timing",
    "build_report",
    "compare_reports",
    "default_scenarios",
    "load_report",
    "median",
    "pin_blas_threads",
    "render_report",
    "run_scenario",
    "scenario_names",
    "time_callable",
    "validate_report",
    "write_report",
]
