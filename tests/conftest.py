"""Shared fixtures for the test-suite.

The suite honours the step-executor environment knobs: running it with
``REPRO_EXECUTOR=threads REPRO_WORKERS=2`` makes every block-mode driver
default to the threaded step backend (results are bit-identical to
serial, so the whole suite must pass unchanged — CI runs it both ways).
"""

from __future__ import annotations

import os

import numpy as np
import pytest


def pytest_report_header(config) -> list[str]:
    """Surface the executor the suite runs under (env-driven default),
    and numpy's version and BLAS/LAPACK: the gram kernel's inner solve
    comes from LAPACK, so a bitwise failure must name the library."""
    from repro.parallel.executor import default_executor_name, default_workers

    name = default_executor_name()
    line = f"repro step executor: {name}"
    if name != "serial":
        line += f" (workers={default_workers()})"
    if "REPRO_EXECUTOR" in os.environ or "REPRO_WORKERS" in os.environ:
        line += "  [from environment]"
    return [line, _numpy_line()]


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Repeat the numpy/BLAS line under a failing run: the configured
    ``-q`` hides the report header, as in CI."""
    if exitstatus != 0:
        terminalreporter.write_line(_numpy_line())


def _numpy_line() -> str:
    try:  # mode="dicts" arrived in numpy 1.26
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = ", ".join(f"{lib} {deps[lib].get('name', '?')} "
                         f"{deps[lib].get('version', '?')}"
                         for lib in ("blas", "lapack"))
    except (TypeError, KeyError):
        libs = "BLAS/LAPACK unknown"
    return f"numpy {np.__version__}: {libs}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((12, 8))


@pytest.fixture
def medium_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((24, 16))


@pytest.fixture
def verifier():
    """The static schedule verifier (:func:`repro.verify.lint_schedule`).

    Exposed as a fixture so property-based tests can cross-check the
    static analysis against the dynamic predicates on generated inputs
    without each module importing the verify package directly.
    """
    from repro.verify import lint_schedule

    return lint_schedule


@pytest.fixture
def ordering_verifier():
    """Ordering-level static verifier (:func:`repro.verify.lint_ordering`)."""
    from repro.verify import lint_ordering

    return lint_ordering
