"""Execution-layer analysis gate: orchestrate the ``EXEC``/``PLAN``/
``FT`` passes over schedules, orderings and the whole registry.

:func:`~repro.verify.linter.lint_registry` proves the *schedules* sound
— races, coverage, direction, capacity, restoration.  This module is
the second gate, one layer down: it proves the *execution machinery*
sound for those schedules.  For every registered ordering x size it

* re-elaborates the compiled plan against its source schedule and the
  plan cache (:mod:`repro.verify.plancheck`, ``PLAN001``-``PLAN003``);
* derives the executor's chunking for every kernel x worker-count
  configuration and proves it race-free and merge-deterministic
  (:mod:`repro.verify.executor_plan`, ``EXEC001``-``EXEC004``);
* projects the simulator fast path's per-step write-sets and proves
  each stacked scatter hazard-free, trajectory-consistent and the
  sweep permutation a bijection (``EXEC006``);
* enumerates every single-leaf death and proves graceful degradation
  total (:mod:`repro.verify.faultcheck`, ``FT001``).

``repro-harness analyze`` is the CLI face of this module; CI runs
``analyze --quick``.  Reports use the same
:class:`~repro.verify.diagnostics.Report` vocabulary as the linter, so
the exit-code and JSON conventions carry over unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..blockjacobi.kernel import BLOCK_KERNELS
from ..machine.topology import TreeTopology, make_topology
from ..orderings.base import Ordering
from ..orderings.registry import ORDERINGS, make_ordering
from ..orderings.schedule import Schedule
from .diagnostics import Report
from .executor_plan import check_executor_plan, check_fastpath_projection
from .faultcheck import check_degraded_totality
from .linter import DEFAULT_SIZES, MAX_RESTORATION_PERIOD
from .plancheck import check_plan_cache, check_plan_integrity

__all__ = [
    "ANALYZE_WORKERS",
    "analyze_ordering",
    "analyze_registry",
    "analyze_schedule",
]

#: worker counts the gate proves the executor chunking for (1 covers
#: the serial path; 2 and 4 exercise uneven and clamped partitions)
ANALYZE_WORKERS: tuple[int, ...] = (1, 2, 4)


def analyze_schedule(
    schedule: Schedule,
    topology: TreeTopology | None = None,
    *,
    kernels: Sequence[str] = BLOCK_KERNELS,
    workers: Sequence[int] = ANALYZE_WORKERS,
) -> Report:
    """Run every execution-layer pass over one schedule.

    The fault-tolerance totality pass needs a ``topology`` (death is a
    machine event); without one its skip is recorded in ``checks``.
    """
    report = Report(target=schedule.name)
    report.extend(check_plan_integrity(schedule), "plan-integrity")
    report.extend(check_plan_cache(schedule), "plan-cache")
    report.extend(check_fastpath_projection(schedule), "fastpath-projection")
    for kernel in kernels:
        for w in workers:
            report.extend(
                check_executor_plan(schedule, kernel=kernel, workers=w),
                f"exec-plan[{kernel},w={w}]")
    if topology is not None:
        report.extend(check_degraded_totality(schedule, topology),
                      "ft-degraded")
    else:
        report.checks.append("ft-degraded(skipped: no topology)")
    return report


def analyze_ordering(
    ordering: Ordering,
    topology: TreeTopology | None = None,
    *,
    kernels: Sequence[str] = BLOCK_KERNELS,
    workers: Sequence[int] = ANALYZE_WORKERS,
) -> Report:
    """Analyze every structurally distinct sweep an ordering generates
    (same dedup discipline as :func:`~repro.verify.linter.lint_ordering`)."""
    report = Report(target=f"{ordering.name}(n={ordering.n})")
    alternating = ordering.sweep_key(1) != ordering.sweep_key(0)
    seen_keys: set[int] = set()
    for s in range(MAX_RESTORATION_PERIOD):
        key = ordering.sweep_key(s)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        sub = analyze_schedule(ordering.sweep(s), topology,
                               kernels=kernels, workers=workers)
        label = f"sweep{s}" if alternating else "sweep"
        for check in sub.checks:
            report.checks.append(f"{label}:{check}")
        report.diagnostics.extend(sub.diagnostics)
    return report


def analyze_registry(
    names: Sequence[str] | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    topology: str | None = "perfect",
    *,
    kernels: Sequence[str] = BLOCK_KERNELS,
    workers: Sequence[int] = ANALYZE_WORKERS,
    quick: bool = False,
    **kwargs_by_name: dict[str, object],
) -> list[Report]:
    """The execution-layer gate over the whole ordering registry.

    Mirrors :func:`~repro.verify.linter.lint_registry`: unconstructible
    (name, size) combinations contribute skip reports rather than
    passing silently.  ``topology`` names the machine for the
    fault-tolerance totality pass (``None`` disables it);
    ``quick=True`` shrinks the matrix to size 8 with workers (1, 2) —
    the CI smoke configuration.
    """
    if quick:
        sizes = (8,)
        workers = (1, 2)
    reports: list[Report] = []
    for name in (names if names is not None else sorted(ORDERINGS)):
        for n in sizes:
            try:
                ordering = make_ordering(name, n,
                                         **kwargs_by_name.get(name, {}))
            except ValueError as exc:
                skip = Report(target=f"{name}(n={n})")
                skip.checks.append(f"skipped: {exc}")
                reports.append(skip)
                continue
            topo = make_topology(topology, n // 2) if topology else None
            reports.append(analyze_ordering(ordering, topo,
                                            kernels=kernels,
                                            workers=workers))
    return reports
