"""Static race/determinism analysis of executor chunkings (``EXEC*``).

The threaded step executor promises bit-identity to the serial path
(:mod:`repro.parallel.executor`).  That promise rests on three facts the
executor itself never checks — it *assumes* them:

1. the chunks of a stage write disjoint data (no write-write hazard);
2. stages whose arithmetic couples the whole batch (the batched inner
   Gram solve) are never split;
3. the chunk bounds are an in-order contiguous partition, so the
   chunk-order merge reproduces the serial reduction.

This module derives, for every compiled step x kernel x worker count,
exactly what the executor *would* dispatch — the same
:meth:`~repro.parallel.executor.StepExecutor.chunk_bounds` arithmetic,
the same stage structure from
:data:`~repro.blockjacobi.kernel.KERNEL_STAGES` — and proves those three
facts from the plan alone, before any thread runs.  A fourth, advisory
check flags chunkings whose largest chunk carries at least
:data:`SKEW_THRESHOLD` times the ideal per-chunk share (``EXEC004``,
warning: legal, merely slow).

Write-sets are expressed per stage in the space the stage writes:
pair-solve and gram-apply scatter into *slot* columns (a pair's two
block-column index sets), while gram-form writes per-*batch-item* slices
of a preallocated Gram stack.  The disjointness proof is the same
either way: pairwise-empty intersections across chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blockjacobi.kernel import BLOCK_KERNELS, KERNEL_STAGES
from ..orderings.plan import CompiledSchedule, CompiledStep, compile_schedule
from ..orderings.schedule import Schedule
from ..parallel.executor import StepExecutor
from ..util.validation import require
from .diagnostics import Diagnostic

__all__ = [
    "SKEW_THRESHOLD",
    "StagePlan",
    "check_executor_plan",
    "check_stage_plan",
    "derive_step_chunking",
]

#: load-balance warning threshold: largest chunk >= this multiple of the
#: ideal per-chunk share fires ``EXEC004``
SKEW_THRESHOLD = 2.0

#: space each kernel stage writes into: ``"slots"`` = block-column index
#: sets of the factor matrices, ``"batch"`` = per-item slices of a
#: preallocated batched workspace
_STAGE_SPACE = {
    "pair-solve": "slots",
    "gram-form": "batch",
    "gram-solve": "batch",
    "gram-apply": "slots",
}


@dataclass(frozen=True)
class StagePlan:
    """The executor's statically-determined plan for one kernel stage of
    one schedule step: its chunk bounds and per-chunk write-sets.

    ``write_sets[i]`` is the set of slots (or batch items, per
    ``space``) chunk ``i`` writes; the corruption operators in
    :mod:`repro.verify.corrupt` perturb these fields directly to prove
    each ``EXEC`` rule fires.
    """

    #: stage name from :data:`~repro.blockjacobi.kernel.KERNEL_STAGES`
    stage: str
    #: ``"slots"`` or ``"batch"`` — what the write-sets index
    space: str
    #: False for stages whose arithmetic couples the whole batch
    splittable: bool
    #: number of independent work items (the step's pair count)
    n_items: int
    #: ``(lo, hi)`` chunk bounds the executor would dispatch
    bounds: tuple[tuple[int, int], ...]
    #: per-chunk write-set, aligned with ``bounds``
    write_sets: tuple[frozenset[int], ...]

    @property
    def n_chunks(self) -> int:
        return len(self.bounds)


def pair_write_sets(step: CompiledStep) -> list[frozenset[int]]:
    """Per-pair slot write-sets of a compiled step.

    Pair ``i`` rotates slots ``(a[i], b[i])`` — the only columns its
    work item may write.  The schedule linter already proves these
    disjoint across pairs (RACE001); the executor analysis builds chunk
    write-sets as unions of them.
    """
    return [frozenset((int(a), int(b)))
            for a, b in zip(step.a, step.b)]


def derive_step_chunking(step: CompiledStep, kernel: str,
                         workers: int) -> list[StagePlan]:
    """What the executor would dispatch for one step: every kernel stage
    with its chunk bounds and per-chunk write-sets.

    Uses the very same
    :meth:`~repro.parallel.executor.StepExecutor.chunk_bounds` arithmetic
    as the runtime, so the static claim and the dispatch cannot drift
    apart silently (the runtime sanitizer re-checks equality anyway).
    """
    require(kernel in BLOCK_KERNELS,
            f"unknown kernel {kernel!r}; available: {', '.join(BLOCK_KERNELS)}")
    require(workers >= 1, f"workers must be >= 1, got {workers!r}")
    nb = step.n_pairs
    if nb == 0:
        return []
    per_pair = pair_write_sets(step)
    plans: list[StagePlan] = []
    for stage, splittable in KERNEL_STAGES[kernel]:
        space = _STAGE_SPACE[stage]
        if splittable:
            bounds = tuple(StepExecutor.chunk_bounds(nb, workers))
        else:
            bounds = ((0, nb),)
        if space == "slots":
            write_sets = tuple(
                frozenset().union(*per_pair[lo:hi]) if hi > lo else frozenset()
                for lo, hi in bounds)
        else:
            write_sets = tuple(frozenset(range(lo, hi)) for lo, hi in bounds)
        plans.append(StagePlan(
            stage=stage, space=space, splittable=splittable,
            n_items=nb, bounds=bounds, write_sets=write_sets,
        ))
    return plans


def check_stage_plan(plan: StagePlan,
                     step_no: int | None = None) -> list[Diagnostic]:
    """Prove one stage plan race-free and deterministic (rules
    ``EXEC001``-``EXEC004``)."""
    out: list[Diagnostic] = []
    tag = f"{plan.stage}"

    # EXEC003: bounds must partition [0, n_items) contiguously, in order
    lo_expect = 0
    ordered = True
    for lo, hi in plan.bounds:
        if lo != lo_expect or hi <= lo:
            ordered = False
            break
        lo_expect = hi
    if not ordered or lo_expect != plan.n_items:
        out.append(Diagnostic(
            rule="EXEC003", step=step_no,
            message=f"stage {tag}: chunk bounds {list(plan.bounds)} are not "
                    f"an in-order contiguous partition of "
                    f"{plan.n_items} work item(s)",
            details=(("stage", plan.stage), ("bounds", plan.bounds)),
        ))

    # EXEC002: unsplittable stages must run as one chunk
    if not plan.splittable and plan.n_chunks > 1:
        out.append(Diagnostic(
            rule="EXEC002", step=step_no,
            message=f"stage {tag} couples the whole batch but is split "
                    f"into {plan.n_chunks} chunks "
                    "(its arithmetic is not chunk-invariant)",
            details=(("stage", plan.stage), ("n_chunks", plan.n_chunks)),
        ))

    # EXEC001: pairwise-disjoint chunk write-sets
    for i in range(plan.n_chunks):
        for j in range(i + 1, plan.n_chunks):
            shared = plan.write_sets[i] & plan.write_sets[j]
            if shared:
                out.append(Diagnostic(
                    rule="EXEC001", step=step_no,
                    message=f"stage {tag}: chunks {i} and {j} both write "
                            f"{plan.space} {sorted(shared)} "
                            "(parallel write-write hazard)",
                    details=(("stage", plan.stage), ("chunks", (i, j)),
                             ("shared", tuple(sorted(shared)))),
                ))

    # EXEC004 (warning): load skew
    if plan.n_chunks > 1 and plan.n_items > 0:
        ideal = plan.n_items / plan.n_chunks
        largest = max(hi - lo for lo, hi in plan.bounds)
        if largest >= SKEW_THRESHOLD * ideal:
            out.append(Diagnostic(
                rule="EXEC004", step=step_no,
                message=f"stage {tag}: largest chunk holds {largest} of "
                        f"{plan.n_items} item(s) across {plan.n_chunks} "
                        f"chunks ({largest / ideal:.1f}x the ideal share)",
                details=(("stage", plan.stage), ("largest", largest),
                         ("ideal", ideal)),
            ))
    return out


def check_executor_plan(schedule: Schedule | CompiledSchedule, *,
                        kernel: str = "gram",
                        workers: int = 1) -> list[Diagnostic]:
    """Prove every step of a schedule race-free and deterministic under
    one kernel x worker-count configuration."""
    plan = schedule if isinstance(schedule, CompiledSchedule) \
        else compile_schedule(schedule)
    out: list[Diagnostic] = []
    for step_no, step in enumerate(plan.steps, start=1):
        for stage_plan in derive_step_chunking(step, kernel, workers):
            out.extend(check_stage_plan(stage_plan, step_no))
    return out
