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
ordering is observable on real numerics.  One sweep body
(:meth:`ScalarSweep.sweep`) serves both rotation kernels: columns stay
where the sweep found them and are permuted once per sweep.  A healthy
:class:`~repro.parallel.ParallelJacobiSVD` run is this driver plus the
plan's cost ledger; the simulated tree machine's event path runs the
same sweep body with per-step hooks for fault injection and charging.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..core.result import SVDResult, SweepRecord, assemble_result
from ..orderings.base import Ordering
from ..orderings.plan import CompiledSchedule, compile_schedule
from ..orderings.registry import make_ordering
from ..util.errors import ConvergenceWarning, NumericalBreakdown
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

__all__ = ["KERNELS", "JacobiOptions", "ScalarSweep", "jacobi_svd",
           "hestenes_sweeps"]

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


class ScalarSweep:
    """The scalar sweep loop's storage, and its one sweep body.

    ``X`` (m x n) and ``V`` (or ``None``) hold the columns in slot order
    at every sweep boundary.  The ``reference`` kernel rotates the
    arrays it was given in place.  ``batched`` works on ``W``, the
    stacked factor ``[X; V]`` in column-as-row layout (``X`` and ``V``
    are views of it), so data and vector columns advance in one fused
    update per step, and reads ``alpha``/``beta`` from the cross-sweep
    squared-norm cache ``norms_sq`` — only ``gamma`` costs a fresh dot
    product per pair.

    ``labels`` are the logical column indices per slot (the paper
    numbers columns 1..n): they follow the schedule's moves but NOT the
    norm-ordering exchanges — the exchanges are what places the
    larger-norm column at the slot "associated with the index of a
    smaller number" (Section 4).
    """

    def __init__(self, X: np.ndarray, V: np.ndarray | None, kernel: str):
        m, n = X.shape
        self.labels = np.arange(n, dtype=np.intp)
        self.W = self.norms_sq = None
        if kernel == "batched":
            stack = np.vstack((X, V)) if V is not None else X
            self.W = np.ascontiguousarray(stack.T)  # row j = stacked column j
            X = self.W[:, :m].T
            V = self.W[:, m:].T if V is not None else None
            self.norms_sq = column_norms_sq(X)
        self.X, self.V = X, V

    def arrays(self) -> tuple[np.ndarray | None, ...]:
        """Every array the sweep state lives in, each updated in place
        (a checkpoint copies them and writes them back)."""
        if self.W is not None:
            return self.W, self.norms_sq, self.labels
        return self.X, self.V, self.labels

    def poison(self, cols: np.ndarray) -> None:
        """Mark the storage columns ``cols`` lost: NaN data and norms."""
        self.X[:, cols] = np.nan
        if self.norms_sq is not None:
            self.norms_sq[cols] = np.nan

    def sweep(
        self,
        plan: CompiledSchedule,
        tol: float,
        sort: str | None,
        hooks=None,
    ) -> tuple[RotationStats, float]:
        """Run one sweep of ``plan`` at rotation threshold ``tol``; returns
        the merged rotation counters and the worst relative
        off-diagonal seen before rotating.

        Columns stay where the sweep found them: each step rotates the
        storage columns its slot pairs hold
        (:attr:`~repro.orderings.plan.CompiledSchedule.content_pairs`),
        oriented by the labels as they stood at sweep start so the
        sorting exchanges are consistent along schedule trajectories,
        and the sweep permutation is applied to the storage and the
        labels once at the end — the same values in the same pair order
        as moving the columns at every move phase, without the copies.

        ``hooks`` (optional) is told, before each step and after its
        moves, which storage column every slot holds:
        ``hooks.before(k, cs, held)`` and ``hooks.after(k, cs, held)``
        for the 1-based step ``k`` with compiled step ``cs``.
        """
        pairs, bounds = plan.content_pairs
        la = self.labels[pairs]
        P = np.where((la[:, 0] > la[:, 1])[:, None], pairs[:, ::-1], pairs)
        stats = RotationStats()
        worst = 0.0
        held = np.arange(plan.n, dtype=np.intp)
        for k, cs in enumerate(plan.steps):
            if hooks is not None:
                hooks.before(k + 1, cs, held)
            if cs.n_pairs:
                p = P[bounds[k]:bounds[k + 1]]
                try:
                    if self.W is None:
                        st, mx = apply_step_rotations(
                            self.X, self.V, p[:, 0], p[:, 1], tol, sort)
                    else:
                        st, mx = apply_step_rotations_batched(
                            self.W, p, tol, sort, self.norms_sq,
                            self.X.shape[0])
                except NumericalBreakdown as exc:
                    raise _named_by_slot(exc, held) from None
                stats.merge(st)
                worst = max(worst, mx)
            held = plan.trajectory[k]
            if hooks is not None:
                hooks.after(k + 1, cs, held)
        final = plan.final_layout()
        if self.W is None:
            self.X[:] = self.X[:, final]
            if self.V is not None:
                self.V[:] = self.V[:, final]
        else:
            self.W[:] = self.W[final]
            self.norms_sq[:] = self.norms_sq[final]
        self.labels[:] = self.labels[final]
        return stats, worst


def _named_by_slot(exc: NumericalBreakdown,
                   held: np.ndarray) -> NumericalBreakdown:
    """``exc`` naming its column pair by the slots that hold it: the
    kernels see storage columns, a fault log reads slots."""
    slot_of = np.argsort(held)
    where = tuple(int(slot_of[c]) for c in exc.where)
    return NumericalBreakdown(
        str(exc).replace(f"pair {exc.where}", f"pair {where}", 1), where=where)


def hestenes_sweeps(
    X: np.ndarray,
    V: np.ndarray | None,
    ordering: Ordering,
    options: JacobiOptions,
) -> tuple[list[SweepRecord], bool, int]:
    """Run threshold-Jacobi sweeps in place; returns (history, converged, sweeps).

    ``X`` (m x n) is transformed into ``H = A V``; ``V`` accumulates the
    rotations when given.  After every sweep both hold their columns
    where the schedule's moves put them, as on the machine.  Every sweep
    is :meth:`ScalarSweep.sweep`, with either kernel.
    """
    state = ScalarSweep(X, V, options.kernel)
    history: list[SweepRecord] = []
    converged = False
    sweeps_done = 0
    for sweep in range(options.max_sweeps):
        rot_tol = options.tol
        if options.threshold_strategy is not None:
            rot_tol = max(options.threshold_strategy.threshold(sweep), options.tol)
        stats, worst = state.sweep(compile_schedule(ordering.sweep(sweep)),
                                   rot_tol, options.sort)
        sweeps_done = sweep + 1
        history.append(
            SweepRecord(
                sweep=sweeps_done,
                off_norm=off_norm(state.X),
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
    if state.W is not None:
        # copy the batched kernel's stacked factors back to the caller
        X[:] = state.X
        if V is not None:
            V[:] = state.V
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
