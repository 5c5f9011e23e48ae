"""Static verification of parallel Jacobi schedules (no execution needed).

The paper states its correctness claims as prose invariants: every
column pair meets exactly once per sweep, index order is restored
after each sweep (or two), ring messages travel in only one direction,
and no channel of the tree carries more load than its capacity.  The
test-suite checks these *dynamically* by running sweeps; this package
proves them *statically*, directly from the
:class:`~repro.orderings.schedule.Schedule` object, the way a race
detector or sanitizer gates a parallel runtime:

* :mod:`repro.verify.races` — per-step write-write races, unmatched
  exchanges, placement-bijection violations (``RACE001``-``RACE005``);
* :mod:`repro.verify.direction` — channel-dependency deadlock analysis
  and ring one-directionality (``DIR001``-``DIR003``);
* :mod:`repro.verify.capacity` — static per-channel link loads routed
  with the machine's own router, plus a cross-check against the
  dynamic contention analysis (``CAP001``-``CAP003``);
* :mod:`repro.verify.sweepcheck` — all-pairs coverage and index-order
  restoration (``SWEEP001``-``SWEEP003``);
* :mod:`repro.verify.linter` — orchestration over schedules, orderings
  and the whole registry (the ``repro-harness lint`` gate);
* :mod:`repro.verify.executor_plan` — static race/determinism analysis
  of executor chunkings and the simulator fast path's write-sets
  (``EXEC001``-``EXEC004``, ``EXEC006``);
* :mod:`repro.verify.plancheck` — compiled-plan re-elaboration and
  plan-cache integrity (``PLAN001``-``PLAN003``);
* :mod:`repro.verify.faultcheck` — fault-tolerance totality: every
  single-leaf death (``FT001``);
* :mod:`repro.verify.analyze` — orchestration of the execution-layer
  passes (the ``repro-harness analyze`` gate);
* :mod:`repro.verify.sanitize` — the opt-in *runtime* sanitizer:
  write-set records and sweep-boundary numeric canaries
  (``SAN001``-``SAN003``, enabled via ``REPRO_SANITIZE=1``);
* :mod:`repro.verify.corrupt` — corruption operators for negative
  tests, each engineered to trip one rule family.

Quick use::

    from repro import make_ordering
    from repro.verify import analyze_ordering, lint_ordering

    report = lint_ordering(make_ordering("ring_new", 16))
    assert report.ok, report.render()
    report = analyze_ordering(make_ordering("ring_new", 16))
    assert report.ok, report.render()
"""

from .analyze import (
    ANALYZE_WORKERS,
    analyze_ordering,
    analyze_registry,
    analyze_schedule,
)
from .capacity import check_capacity, crosscheck_dynamic, static_level_contention
from .corrupt import (
    dead_host_map,
    drift_factor,
    drop_exchange,
    duplicate_pair,
    overlap_chunk_writes,
    overload_link,
    poison_factor,
    reverse_ring_step,
    shuffle_chunk_bounds,
    skew_chunk_bounds,
    split_unsplittable_stage,
    stale_plan_memo,
    stray_column_touch,
    tamper_final_layout,
    tamper_fastpath_rows,
    tamper_plan_pairs,
    unchecked_schedule,
    unchecked_step,
)
from .diagnostics import RULES, Diagnostic, Report, rule_description
from .direction import (
    channel_dependency_cycle,
    check_deadlock_free,
    ring_direction_violations,
)
from .executor_plan import (
    SKEW_THRESHOLD,
    StagePlan,
    check_executor_plan,
    check_fastpath_projection,
    check_stage_plan,
    derive_step_chunking,
)
from .faultcheck import (
    check_degraded_totality,
    check_host_map,
)
from .linter import DEFAULT_SIZES, lint_ordering, lint_registry, lint_schedule
from .plancheck import check_plan_cache, check_plan_integrity
from .races import check_placement_bijection, check_step_races, find_races
from .sanitize import (
    RuntimeSanitizer,
    SanitizerError,
    check_numeric_canaries,
    check_write_record,
    sanitize_enabled,
)
from .sweepcheck import (
    check_ordering_restoration,
    check_pair_coverage,
    check_restoration,
    permutation_order,
)

__all__ = [
    "ANALYZE_WORKERS",
    "DEFAULT_SIZES",
    "Diagnostic",
    "RULES",
    "Report",
    "RuntimeSanitizer",
    "SKEW_THRESHOLD",
    "SanitizerError",
    "StagePlan",
    "analyze_ordering",
    "analyze_registry",
    "analyze_schedule",
    "channel_dependency_cycle",
    "check_capacity",
    "check_deadlock_free",
    "check_degraded_totality",
    "check_executor_plan",
    "check_fastpath_projection",
    "check_host_map",
    "check_numeric_canaries",
    "check_ordering_restoration",
    "check_pair_coverage",
    "check_placement_bijection",
    "check_plan_cache",
    "check_plan_integrity",
    "check_restoration",
    "check_stage_plan",
    "check_step_races",
    "check_write_record",
    "crosscheck_dynamic",
    "dead_host_map",
    "derive_step_chunking",
    "drift_factor",
    "drop_exchange",
    "duplicate_pair",
    "find_races",
    "lint_ordering",
    "lint_registry",
    "lint_schedule",
    "overlap_chunk_writes",
    "overload_link",
    "permutation_order",
    "poison_factor",
    "reverse_ring_step",
    "ring_direction_violations",
    "rule_description",
    "sanitize_enabled",
    "shuffle_chunk_bounds",
    "skew_chunk_bounds",
    "split_unsplittable_stage",
    "stale_plan_memo",
    "static_level_contention",
    "stray_column_touch",
    "tamper_final_layout",
    "tamper_fastpath_rows",
    "tamper_plan_pairs",
    "unchecked_schedule",
    "unchecked_step",
]
