"""Schedule corruption operators for negative testing of the verifier.

Each operator takes a healthy :class:`~repro.orderings.schedule.Schedule`
and returns a broken copy engineered to trip exactly one family of
rules, so the test-suite (and anyone fuzzing the gate) can assert that
the verifier catches each paper invariant's violation by rule ID:

==========================  ============================================
operator                    rule the verifier must fire
==========================  ============================================
:func:`duplicate_pair`      ``SWEEP001`` (pair rotated twice)
:func:`drop_exchange`       ``RACE003`` (send without receive)
:func:`reverse_ring_step`   ``DIR002`` (backward ring edge)
:func:`overload_link`       ``CAP003`` (oversubscribed channel)
:func:`overlap_chunk_writes`     ``EXEC001`` (chunk write-sets overlap)
:func:`split_unsplittable_stage` ``EXEC002`` (coupled stage split)
:func:`shuffle_chunk_bounds`     ``EXEC003`` (merge order broken)
:func:`skew_chunk_bounds`        ``EXEC004`` (load skew)
:func:`tamper_fastpath_rows`     ``EXEC006`` (fast-path scatter row duplicated)
:func:`tamper_plan_pairs`        ``PLAN001`` (lowered arrays corrupted)
:func:`tamper_final_layout`      ``PLAN002`` (trajectory corrupted)
:func:`stale_plan_memo`          ``PLAN003`` (stale cached plan)
:func:`dead_host_map`            ``FT001`` (unsound degraded map)
:func:`stray_column_touch`       ``SAN001`` (out-of-set runtime write)
:func:`poison_factor`            ``SAN002`` (non-finite factor entry)
:func:`drift_factor`             ``SAN003`` (numeric invariant drift)
==========================  ============================================

Some corruptions are unrepresentable through the validating
constructors (``Step`` rejects non-permutation moves at build time),
which is exactly the scenario the verifier exists for: input that did
*not* come through our constructors.  The unchecked builders — shared
with the chaos-injection side in :mod:`repro.faults.corruptions` so
negative-test corruption and fault injection cannot drift apart — are
re-exported here for backwards compatibility.

The execution-layer operators work one level below the schedule: they
perturb :class:`~repro.verify.executor_plan.StagePlan` objects, compiled
plans, host maps, runtime write records and factor matrices — each
still engineered to trip exactly one rule.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..faults.corruptions import (
    first_remote_move,
    unchecked_schedule,
    unchecked_step,
)
from ..orderings.plan import (PLAN_MEMO_ATTR, CompiledSchedule, FastPathPlan,
                              lower_schedule)
from ..orderings.schedule import Move, Schedule, Step
from ..util.validation import require
from .executor_plan import StagePlan

__all__ = [
    "unchecked_step",
    "unchecked_schedule",
    "duplicate_pair",
    "drop_exchange",
    "reverse_ring_step",
    "overload_link",
    "overlap_chunk_writes",
    "split_unsplittable_stage",
    "shuffle_chunk_bounds",
    "skew_chunk_bounds",
    "tamper_plan_pairs",
    "tamper_fastpath_rows",
    "tamper_final_layout",
    "stale_plan_memo",
    "dead_host_map",
    "stray_column_touch",
    "poison_factor",
    "drift_factor",
]


def duplicate_pair(schedule: Schedule) -> Schedule:
    """Rotate the first step's pairs twice: prepend a move-free copy.

    The inserted step performs the same rotations on the same (still
    unmoved) columns, so every index pair of the original first step is
    now met twice in the sweep — the paper's "exactly once per sweep"
    invariant broken with every step still locally well-formed.
    """
    require(bool(schedule.steps) and bool(schedule.steps[0].pairs),
            "schedule has no rotation step to duplicate")
    extra = Step(pairs=schedule.steps[0].pairs, moves=())
    out = Schedule(n=schedule.n, steps=[extra, *schedule.steps],
                   name=f"{schedule.name}+duplicate_pair")
    out.notes.update(schedule.notes)
    return out


def drop_exchange(schedule: Schedule) -> Schedule:
    """Remove one inter-leaf move: its payload column is never received.

    The resulting move set is no longer a partial permutation, which a
    validating constructor would reject — so the broken step is built
    unchecked, exactly like a schedule deserialized from an external
    (buggy) scheduler would arrive.
    """
    try:
        step_no, victim = first_remote_move(schedule)
    except ValueError:
        raise ValueError(
            f"{schedule.name} has no inter-leaf move to drop") from None
    k = step_no - 1
    step = schedule.steps[k]
    kept = tuple(m for m in step.moves if m is not victim)
    broken = unchecked_step(step.pairs, kept)
    steps = [*schedule.steps[:k], broken, *schedule.steps[k + 1:]]
    return unchecked_schedule(schedule.n, steps,
                              f"{schedule.name}+drop_exchange",
                              notes=schedule.notes)


def reverse_ring_step(schedule: Schedule) -> Schedule:
    """Reverse every move of the first communicating step.

    The reversed moves still form a valid partial permutation (the
    inverse one), but the messages of that step now travel in the
    opposite ring direction — the one-directionality of Section 4 is
    broken while all local validation still passes.
    """
    try:
        step_no, _ = first_remote_move(schedule)
    except ValueError:
        raise ValueError(
            f"{schedule.name} has no communicating step to reverse") from None
    k = step_no - 1
    step = schedule.steps[k]
    flipped = tuple(Move(m.dst, m.src) for m in step.moves)
    steps = [*schedule.steps[:k],
             Step(pairs=step.pairs, moves=flipped),
             *schedule.steps[k + 1:]]
    out = Schedule(n=schedule.n, steps=steps,
                   name=f"{schedule.name}+reverse_ring_step")
    out.notes.update(schedule.notes)
    return out


def overload_link(schedule: Schedule) -> Schedule:
    """Append a phase that swaps the machine's two halves in one step.

    Every leaf of the left half sends both of its columns across the
    root simultaneously: ``n/2`` messages through a top-level channel
    of capacity ``n/4`` on a perfect fat-tree — contention 2.0 on any
    of the modelled topologies.
    """
    n = schedule.n
    require(n >= 4, "need at least two leaves to overload the root")
    half = n // 2
    moves = tuple(Move(s, (s + half) % n) for s in range(n))
    flood = Step(pairs=(), moves=moves)
    out = Schedule(n=n, steps=[*schedule.steps, flood],
                   name=f"{schedule.name}+overload_link")
    out.notes.update(schedule.notes)
    return out


# ---------------------------------------------------------------------------
# execution-layer corruptions (EXEC/PLAN/FT/SAN rule families)
# ---------------------------------------------------------------------------


def overlap_chunk_writes(plan: StagePlan) -> StagePlan:
    """Leak one slot of chunk 0's write-set into chunk 1's.

    The bounds stay a perfect partition and every other set is
    untouched, so only the pairwise-disjointness proof (``EXEC001``)
    can object.
    """
    require(plan.n_chunks >= 2, "need at least two chunks to overlap")
    require(bool(plan.write_sets[0]), "chunk 0 writes nothing to leak")
    leaked = min(plan.write_sets[0])
    sets = list(plan.write_sets)
    sets[1] = sets[1] | {leaked}
    return dataclasses.replace(plan, write_sets=tuple(sets))


def split_unsplittable_stage(plan: StagePlan) -> StagePlan:
    """Split a batch-coupled stage (the inner Gram solve) in two.

    The halves are a clean in-order partition with disjoint batch-slice
    write-sets — locally everything looks fine; only the stage's
    ``splittable`` contract (``EXEC002``) is violated.
    """
    require(not plan.splittable, "stage is splittable; nothing to violate")
    require(plan.space == "batch",
            "only batch-space stages are declared unsplittable")
    require(plan.n_items >= 2, "need at least two items to split")
    mid = plan.n_items // 2
    return dataclasses.replace(
        plan,
        bounds=((0, mid), (mid, plan.n_items)),
        write_sets=(frozenset(range(0, mid)),
                    frozenset(range(mid, plan.n_items))),
    )


def shuffle_chunk_bounds(plan: StagePlan) -> StagePlan:
    """Reverse the chunk order: same coverage, wrong merge order.

    Write-sets travel with their bounds, so disjointness still holds —
    only the deterministic serial-merge contract (``EXEC003``) breaks.
    """
    require(plan.n_chunks >= 2, "need at least two chunks to reorder")
    return dataclasses.replace(
        plan,
        bounds=tuple(reversed(plan.bounds)),
        write_sets=tuple(reversed(plan.write_sets)),
    )


def skew_chunk_bounds(plan: StagePlan) -> StagePlan:
    """Rebalance the chunks pathologically: one giant chunk, the rest
    singletons.

    Still an in-order partition with disjoint write-sets (the giant
    chunk takes the whole union; the singletons claim nothing), so only
    the load-balance warning (``EXEC004``) fires.
    """
    require(plan.splittable, "unsplittable stages are never rebalanced")
    k = plan.n_chunks
    require(k >= 3, "need at least three chunks for a >= 2x skew")
    n = plan.n_items
    require(n >= 2 * k, "too few items for the giant chunk to dominate")
    head = n - (k - 1)
    bounds = [(0, head)]
    bounds += [(head + i, head + i + 1) for i in range(k - 1)]
    union: frozenset[int] = frozenset().union(*plan.write_sets)
    sets = [union] + [frozenset()] * (k - 1)
    return dataclasses.replace(plan, bounds=tuple(bounds),
                               write_sets=tuple(sets))


def tamper_plan_pairs(schedule: Schedule) -> CompiledSchedule:
    """Corrupt the lowered pair arrays of the first rotating step.

    Swaps the two slots of the step's first pair in every derived array
    consistently — the plan is self-consistent but no longer lowers the
    source schedule, which only the re-elaboration pass (``PLAN001``)
    can see.  The trajectory is untouched, so ``PLAN002`` stays silent.
    """
    plan = lower_schedule(schedule)
    for k, cs in enumerate(plan.steps):
        if cs.n_pairs:
            pairs = cs.pairs.copy()
            pairs[0] = pairs[0][::-1]
            a = np.ascontiguousarray(pairs[:, 0])
            b = np.ascontiguousarray(pairs[:, 1])
            broken = dataclasses.replace(cs, pairs=pairs, a=a, b=b,
                                         pair_leaves=a >> 1)
            steps = (*plan.steps[:k], broken, *plan.steps[k + 1:])
            return dataclasses.replace(plan, steps=steps)
    raise ValueError(f"{schedule.name} has no rotating step to tamper with")


def tamper_final_layout(schedule: Schedule) -> CompiledSchedule:
    """Swap two entries of the compiled plan's final trajectory row.

    The per-step arrays are untouched (``PLAN001`` stays silent); only
    the independently re-walked trajectory (``PLAN002``) disagrees.
    """
    plan = lower_schedule(schedule)
    require(len(plan.trajectory) >= 1 and plan.n >= 2,
            "plan has no trajectory row to tamper with")
    trajectory = plan.trajectory.copy()
    trajectory[-1, 0], trajectory[-1, 1] = \
        trajectory[-1, 1], trajectory[-1, 0]
    trajectory.setflags(write=False)
    return dataclasses.replace(plan, trajectory=trajectory)


def tamper_fastpath_rows(schedule: Schedule) -> "tuple[CompiledSchedule, FastPathPlan]":
    """Duplicate a content row inside one fast-path step's pairs.

    The compiled plan itself stays sound (``PLAN*`` and the chunking
    rules stay silent); the returned fast-path bundle names one content
    row in two pairs of the first rotating step — the stacked-scatter
    write-write hazard only the fast-path projection (``EXEC006``) can
    see.  Returns ``(plan, corrupted_fastpath)`` for
    :func:`~repro.verify.executor_plan.check_fastpath_projection`.
    """
    plan = lower_schedule(schedule)
    fp = plan.fastpath()
    for k, pc in enumerate(fp.content_pairs):
        if len(pc) >= 2:
            pairs = pc.copy()
            pairs[1, 0] = pairs[0, 0]  # row now written by two pairs
            broken = (*fp.content_pairs[:k], pairs, *fp.content_pairs[k + 1:])
            return plan, dataclasses.replace(fp, content_pairs=broken)
    raise ValueError(f"{schedule.name} has no two-pair step to tamper with")


def stale_plan_memo(schedule: Schedule) -> Schedule:
    """Plant a plan of a *different* schedule under the instance memo.

    Models the failure the memo attribute could cause if schedules were
    ever mutated after compilation (or a fingerprint collided): the
    cache fast path serves a structurally wrong plan.  Only the
    cache-vs-fresh-lowering comparison (``PLAN003``) can notice.
    """
    victim = Schedule(n=schedule.n, steps=list(schedule.steps),
                      name=f"{schedule.name}+stale_plan_memo")
    victim.notes.update(schedule.notes)
    empty = Schedule(n=schedule.n, steps=[], name="empty")
    victim.__dict__[PLAN_MEMO_ATTR] = lower_schedule(empty)
    return victim


def dead_host_map(n_leaves: int) -> tuple[np.ndarray, set[int]]:
    """A degraded host map that never remapped the dead leaf.

    Leaf 0 is dead yet still hosts its own columns — the remap that
    graceful degradation guarantees simply did not happen (``FT001``).
    """
    require(n_leaves >= 2, "need at least two leaves")
    return np.arange(n_leaves, dtype=np.intp), {0}


def stray_column_touch(
    expected_items: list[frozenset[int]],
) -> list[tuple[int, int, tuple[int, ...]]]:
    """A runtime touch record claiming one column no item may write.

    Feed to :func:`~repro.verify.sanitize.check_write_record` as the
    ``touched`` argument (``SAN001``).
    """
    require(bool(expected_items), "need at least one work item")
    stray = max((max(s) for s in expected_items if s), default=-1) + 1
    return [(0, len(expected_items), (stray,))]


def poison_factor(X: np.ndarray) -> np.ndarray:
    """Copy of a factor matrix with one entry poisoned to NaN (``SAN002``)."""
    out = np.array(X, dtype=float, copy=True)
    require(out.size > 0, "cannot poison an empty matrix")
    out.flat[0] = np.nan
    return out


def drift_factor(X: np.ndarray, factor: float = 1e-6) -> np.ndarray:
    """Copy of a factor matrix scaled just past the invariant tolerance.

    A uniform relative scaling keeps every entry finite (``SAN002``
    stays silent) while moving the Frobenius norm far beyond the
    sanitizer's ``1e-9`` relative drift budget (``SAN003``).
    """
    return np.array(X, dtype=float, copy=True) * (1.0 + factor)
