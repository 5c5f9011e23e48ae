"""Serial one-sided Jacobi SVD driver with pluggable parallel orderings.

The Hestenes method (Section 1 of the paper): generate an orthogonal
``V`` as a product of plane rotations so that ``A V = H`` has orthogonal
columns; normalising the nonzero columns of ``H`` gives ``U_r S_r`` with
the singular values on ``S_r``.  The rotations are performed sweep by
sweep in the fixed sequence prescribed by a parallel ordering; the
iteration terminates when one complete sweep passes the threshold test
for every pair.

This driver executes the *slot-level schedules* of
:mod:`repro.orderings`: every step rotates the columns its slot pairs
hold, and every sweep leaves the columns where the schedule's moves put
them, so the sorted-output and order-restoration behaviour of each
ordering is observable on real numerics.  A healthy
:class:`~repro.parallel.ParallelJacobiSVD` run is this driver plus the
plan's cost ledger; the simulated tree machine's event path, which
moves the columns at every move phase, is bit-compared against it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..core.result import SVDResult, SweepRecord, assemble_result
from ..orderings.base import Ordering
from ..orderings.registry import make_ordering
from ..util.errors import ConvergenceWarning
from ..util.validation import require
from .convergence import off_norm
from .rotations import (
    RotationStats,
    _validate_sort,
    apply_step_rotations,
    apply_step_rotations_batched,
    column_norms_sq,
)
from .thresholds import ThresholdStrategy

__all__ = ["KERNELS", "JacobiOptions", "jacobi_svd", "hestenes_sweeps"]

#: registered rotation kernels: ``reference`` is the per-quantity masked
#: implementation the numerics are specified by; ``batched`` is the fused
#: gather/2x2-transform/scatter fast path with the cross-sweep norm cache
KERNELS = ("reference", "batched")


@dataclass(frozen=True)
class JacobiOptions:
    """Tuning knobs of the Jacobi iteration.

    ``tol``
        Relative threshold: a pair counts as orthogonal when
        ``|a_i . a_j| <= tol * ||a_i|| ||a_j||``; the sweep loop stops
        after the first complete sweep in which every pair passes.
    ``max_sweeps``
        Safety bound on the number of sweeps.
    ``sort``
        ``"desc"`` (paper default: singular values emerge nonincreasing),
        ``"asc"``, or ``None`` (never exchange columns).
    ``rank_tol``
        Columns with final norm below ``rank_tol * max_norm`` are treated
        as numerically zero (rank deficiency).
    ``threshold_strategy``
        Optional per-sweep *rotation* threshold schedule (Wilkinson's
        staged strategy); termination always uses ``tol``.
    ``kernel``
        Rotation kernel: ``"reference"`` (masked per-quantity updates) or
        ``"batched"`` (fused 2x2 batch transforms over stacked ``[X; V]``
        with a cross-sweep column-norm cache — same results to rounding,
        measurably faster; see ``repro.bench``).
    """

    tol: float = 1e-12
    max_sweeps: int = 60
    sort: str | None = "desc"
    rank_tol: float = 1e-12
    threshold_strategy: "ThresholdStrategy | None" = None
    kernel: str = "reference"

    def __post_init__(self) -> None:
        # max_sweeps = 0 would hand back the unrotated input as a
        # "partial decomposition"; refuse it like BlockJacobiOptions does
        require(self.max_sweeps >= 1,
                f"max_sweeps must be >= 1, got {self.max_sweeps!r}")
        require(self.kernel in KERNELS,
                f"unknown kernel {self.kernel!r}; "
                f"available: {', '.join(KERNELS)}")
        _validate_sort(self.sort)


def _resolve_ordering(ordering: str | Ordering, n: int, **kwargs: object) -> Ordering:
    if isinstance(ordering, Ordering):
        require(ordering.n == n, f"ordering built for n={ordering.n}, matrix has n={n}")
        return ordering
    return make_ordering(ordering, n, **kwargs)


def _schedule_arrays(
    sched: object,
) -> list[tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]]:
    """Per-step index arrays ``(pairs (k,2), move src, move dst)`` of a
    schedule, drawn from its compiled plan
    (:func:`repro.orderings.plan.compile_schedule`) so the lowering is
    shared with the machine simulator and paid once per structure, not
    once per driver."""
    from ..orderings.plan import compile_schedule

    plan = compile_schedule(sched)
    return [
        (cs.pairs if cs.n_pairs else None,
         cs.src if cs.has_moves else None,
         cs.dst if cs.has_moves else None)
        for cs in plan.steps
    ]


def hestenes_sweeps(
    X: np.ndarray,
    V: np.ndarray | None,
    ordering: Ordering,
    options: JacobiOptions,
) -> tuple[list[SweepRecord], bool, int]:
    """Run threshold-Jacobi sweeps in place; returns (history, converged, sweeps).

    ``X`` (m x n) is transformed into ``H = A V``; ``V`` accumulates the
    rotations when given.  After every sweep both hold their columns
    where the schedule's moves put them, as on the machine.

    With ``options.kernel == "batched"`` the loop works on the stacked
    array ``W = [X; V]`` so data and vector columns advance in one fused
    update per step, and the Gram quantities ``alpha``/``beta`` come from
    a cross-sweep squared-norm cache maintained via the rotation
    invariants (permuted alongside the schedule's column moves) — only
    ``gamma`` costs a fresh dot product per pair.
    """
    if options.kernel == "batched":
        return _sweeps_batched(X, V, ordering, options)
    return _sweeps_reference(X, V, ordering, options)


def _content_pairs(
    sched: object,
) -> tuple[list[np.ndarray | None], np.ndarray]:
    """A sweep in *content* ids (the slot a column held at sweep start):
    per step the ``(k, 2)`` pairs (``None`` for a step without pairs),
    and the sweep permutation.

    Every move phase permutes its slots (:class:`~repro.orderings.schedule.Step`
    requires it), so the columns met at step ``i`` are those the sweep
    started in slots ``layout[pairs]``, ``layout`` being the compiled
    plan's trajectory row before the step."""
    from ..orderings.plan import compile_schedule

    plan = compile_schedule(sched)
    pairs: list[np.ndarray | None] = []
    for i, cs in enumerate(plan.steps):
        if not cs.n_pairs:
            pairs.append(None)
        elif i == 0:
            pairs.append(cs.pairs)
        else:
            pairs.append(plan.trajectory[i - 1][cs.pairs])
    return pairs, plan.final_layout()


def _sweeps_reference(
    X: np.ndarray,
    V: np.ndarray | None,
    ordering: Ordering,
    options: JacobiOptions,
) -> tuple[list[SweepRecord], bool, int]:
    """Reference-kernel sweep loop.

    Columns stay where the sweep found them: each step rotates the
    columns its pairs hold (:func:`_content_pairs`), and the sweep
    permutation is applied to ``X``, ``V`` and the labels once at the
    end — the same values in the same pair order as moving the columns
    at every move phase, without the copies.
    """
    n = X.shape[1]
    history: list[SweepRecord] = []
    converged = False
    sweeps_done = 0
    # logical index labels per slot (the paper numbers columns 1..n);
    # labels follow the schedule's moves but NOT the norm-ordering
    # exchanges — the exchanges are what places the larger-norm column at
    # the slot "associated with the index of a smaller number" (Section 4)
    labels = np.arange(n, dtype=np.intp)
    # schedules are cached per ordering, so content pairs can be
    # memoised by schedule identity across sweeps
    pairs_cache: dict[int, tuple] = {}
    for sweep in range(options.max_sweeps):
        sched = ordering.sweep(sweep)
        entry = pairs_cache.get(id(sched))
        if entry is None:
            entry = pairs_cache[id(sched)] = _content_pairs(sched)
        steps, final = entry
        stats = RotationStats()
        worst = 0.0
        rot_tol = options.tol
        if options.threshold_strategy is not None:
            rot_tol = max(options.threshold_strategy.threshold(sweep), options.tol)
        for pc in steps:
            if pc is None:
                continue
            # orient each pair by the labels its columns carry (fixed for
            # the sweep) so the sorting exchanges are consistent along
            # schedule trajectories
            la = labels[pc]
            flip = la[:, 0] > la[:, 1]
            left = np.where(flip, pc[:, 1], pc[:, 0])
            right = np.where(flip, pc[:, 0], pc[:, 1])
            st, mx = apply_step_rotations(X, V, left, right, rot_tol, options.sort)
            stats.merge(st)
            worst = max(worst, mx)
        X[:] = X[:, final]
        if V is not None:
            V[:] = V[:, final]
        labels = labels[final]
        sweeps_done = sweep + 1
        history.append(
            SweepRecord(
                sweep=sweeps_done,
                off_norm=off_norm(X),
                max_rel_gamma=worst,
                rotations=stats.applied,
                skipped=stats.skipped,
            )
        )
        # the paper's rule: stop after a complete sweep in which all
        # columns were orthogonal AND no columns were interchanged
        if worst <= options.tol and stats.exchanged == 0:
            converged = True
            break
    return history, converged, sweeps_done


def _sweeps_batched(
    X: np.ndarray,
    V: np.ndarray | None,
    ordering: Ordering,
    options: JacobiOptions,
) -> tuple[list[SweepRecord], bool, int]:
    """Batched-kernel sweep loop.

    Works on ``WT``, the stacked factor ``[X; V]`` in column-as-row
    layout, with three structural optimisations over the reference loop:

    * schedule column moves advance a slot-to-row indirection instead of
      copying data (moves in every shipped ordering are slot
      permutations; a non-permutation move step falls back to a physical
      row copy so custom schedules keep reference semantics);
    * per-step oriented pair/row index arrays are cached keyed on the
      (schedule, labels, indirection) state at sweep start — the
      trajectory repeats with the ordering's restoration period, so the
      label-orientation and indirection lookups are paid once, not every
      sweep;
    * Gram quantities ``alpha``/``beta`` come from the cross-sweep
      squared-norm cache maintained by the kernel (keyed by physical
      row, so indirection moves never touch it).
    """
    m, n = X.shape
    history: list[SweepRecord] = []
    converged = False
    sweeps_done = 0
    stack = np.vstack((X, V)) if V is not None else X
    WT = np.ascontiguousarray(stack.T)  # row j = stacked column j
    Xdata = WT[:, :m].T  # data part view; off_norm is permutation-invariant
    norms_sq = column_norms_sq(Xdata)  # keyed by physical row
    labels = np.arange(n, dtype=np.intp)
    rowof = np.arange(n, dtype=np.intp)  # slot -> physical row of WT
    sched_cache: dict[int, list] = {}
    plan_cache: dict = {}
    for sweep in range(options.max_sweeps):
        sched = ordering.sweep(sweep)
        key = (id(sched), labels.tobytes(), rowof.tobytes())
        entry = plan_cache.get(key)
        if entry is None:
            steps = sched_cache.get(id(sched))
            if steps is None:
                steps = sched_cache[id(sched)] = _schedule_arrays(sched)
            plan: list = []
            for ab, src, dst in steps:
                P = csrc = cdst = None
                if ab is not None:
                    # orient each pair by its tracked labels so the
                    # sorting exchanges are consistent along schedule
                    # trajectories, then resolve slots to physical rows
                    la = labels[ab]
                    flip = la[:, 0] > la[:, 1]
                    P = rowof[np.where(flip[:, None], ab[:, ::-1], ab)]
                if src is not None:
                    labels[dst] = labels[src]
                    if np.array_equal(np.sort(src), np.sort(dst)):
                        rowof[dst] = rowof[src]
                    else:  # pragma: no cover - no shipped ordering hits this
                        csrc = rowof[src]
                        cdst = rowof[dst]
                if P is not None or csrc is not None:
                    plan.append((P, csrc, cdst))
            entry = plan_cache[key] = (plan, labels.copy(), rowof.copy())
        stats = RotationStats()
        worst = 0.0
        rot_tol = options.tol
        if options.threshold_strategy is not None:
            rot_tol = max(options.threshold_strategy.threshold(sweep), options.tol)
        for P, csrc, cdst in entry[0]:
            if P is not None:
                st, mx = apply_step_rotations_batched(
                    WT, P, rot_tol, options.sort, norms_sq, m
                )
                stats.merge(st)
                worst = max(worst, mx)
            if csrc is not None:  # pragma: no cover - non-permutation moves
                WT[cdst] = WT[csrc]
                norms_sq[cdst] = norms_sq[csrc]
        labels = entry[1].copy()
        rowof = entry[2].copy()
        sweeps_done = sweep + 1
        history.append(
            SweepRecord(
                sweep=sweeps_done,
                off_norm=off_norm(Xdata),
                max_rel_gamma=worst,
                rotations=stats.applied,
                skipped=stats.skipped,
            )
        )
        # the paper's rule: stop after a complete sweep in which all
        # columns were orthogonal AND no columns were interchanged
        if worst <= options.tol and stats.exchanged == 0:
            converged = True
            break
    # undo the indirection and copy the factors back to the caller
    slot_rows = WT[rowof]
    X[:] = slot_rows[:, :m].T
    if V is not None:
        V[:] = slot_rows[:, m:].T
    return history, converged, sweeps_done


def jacobi_svd(
    a: np.ndarray,
    ordering: str | Ordering = "fat_tree",
    options: JacobiOptions | None = None,
    compute_uv: bool = True,
    allow_wide: bool = False,
    **ordering_kwargs: object,
) -> SVDResult:
    """One-sided Jacobi SVD of ``a`` (m x n, m >= n) under an ordering.

    Returns an :class:`~repro.core.result.SVDResult` whose canonical
    ``sigma`` is nonincreasing; ``sigma_by_slot`` records the physical
    slot order at termination so the paper's sorted-output claims can be
    checked directly (``emerged_sorted`` summarises it as ``"desc"``,
    ``"asc"`` or ``None``).
    """
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2, "a must be a matrix")
    m, n = a.shape
    require(allow_wide or m >= n,
            f"expect m >= n (got {a.shape}); pass a.T for wide matrices, or "
            "allow_wide=True for zero-padded inputs")
    opts = options or JacobiOptions()
    ordering_obj = _resolve_ordering(ordering, n, **ordering_kwargs)

    X = a.copy()
    # pre-scale extreme inputs so column Gram quantities (sums of squares)
    # can neither overflow nor denormalise; sigma is rescaled at the end
    peak = float(np.abs(X).max(initial=0.0))
    prescale = 1.0
    if peak > 1e100 or (0.0 < peak < 1e-100):
        prescale = peak
        X /= prescale
    V = np.eye(n) if compute_uv else None
    # apply the rotations; X becomes H = A V (up to the prescale factor)
    history, converged, sweeps = hestenes_sweeps(X, V, ordering_obj, opts)

    watchdog_msg = None
    if not converged:
        # run the stall detector over the recorded off-norm series so the
        # result says *why* the budget ran out, then refuse to be silent
        from ..faults.watchdog import diagnose_history

        watchdog_msg = diagnose_history(history, opts.max_sweeps)
        warnings.warn(
            f"Jacobi SVD did not converge: {watchdog_msg}; the result is "
            "a partial decomposition (check result.converged)",
            ConvergenceWarning, stacklevel=2)
    # norms are computed on the scaled data (no overflow) and the scale
    # factor re-applied on sigma only; U is scale-invariant
    return assemble_result(X, V, history, converged, sweeps,
                           rank_tol=opts.rank_tol, prescale=prescale,
                           watchdog=watchdog_msg)
