"""Result types for the SVD drivers."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..util.errors import ConvergenceWarning

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.events import FaultEvent
    from ..orderings.plan import PlanCacheStats

__all__ = ["BatchResult", "SVDResult", "SweepRecord", "assemble_result",
           "sigma_converged"]


def sigma_converged(sigma: np.ndarray, converged: bool) -> bool:
    """The convergence flag a result may report for ``sigma``.

    A non-finite singular value is never a converged answer: the flag
    drops to ``False`` and a :class:`ConvergenceWarning` names the cause.
    Every result builder passes its flag through here.
    """
    bad = int(np.count_nonzero(~np.isfinite(sigma)))
    if bad:
        warnings.warn(
            f"{bad} of {len(sigma)} singular value(s) are not finite; "
            "the result is reported as not converged",
            ConvergenceWarning, stacklevel=3)
        return False
    return converged


def assemble_result(
    X: np.ndarray,
    V: np.ndarray | None,
    history: list["SweepRecord"],
    converged: bool,
    sweeps: int,
    *,
    rank_tol: float = 1e-12,
    prescale: float = 1.0,
    watchdog: str | None = None,
    fault_events: list["FaultEvent"] | None = None,
) -> "SVDResult":
    """The decomposition held by a finished sweep loop: the one result
    builder of the scalar, block and simulated drivers.

    ``X`` holds ``H = A V / prescale`` in slot order and ``V`` the
    accumulated rotations (``None`` without vectors).  ``sigma`` is the
    column norms times ``prescale``, sorted nonincreasing; ``rank``
    counts the values above ``rank_tol * sigma_max``, so it does not
    change when the input is scaled.
    """
    # norms along a strided axis sum in a fixed order: a C-order copy
    # gives every caller's storage the same bits
    X = np.ascontiguousarray(X)
    m, n = X.shape
    norms = np.linalg.norm(X, axis=0) * prescale
    sigma_by_slot = norms.copy()
    scale = max(1.0, float(norms.max(initial=0.0)))
    diffs = np.diff(norms)
    if np.all(diffs <= 1e-9 * scale):
        emerged = "desc"
    elif np.all(diffs >= -1e-9 * scale):
        emerged = "asc"
    else:
        emerged = None
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    sigma_max = sigma[0] if n else 0.0
    rank = int(np.count_nonzero(sigma > rank_tol * max(sigma_max, 1e-300)))
    if V is not None:
        u = np.zeros((m, n))
        nz = sigma > 0
        # X is still in the prescaled frame: normalise by the scaled norms
        u[:, nz] = X[:, order[nz]] / (sigma[nz] / prescale)
        v = np.ascontiguousarray(V)[:, order]
    else:
        u = np.zeros((m, 0))
        v = np.zeros((n, 0))
    return SVDResult(
        u=u, sigma=sigma, v=v, rank=rank,
        converged=sigma_converged(sigma, converged),
        sweeps=sweeps, rotations=sum(h.rotations for h in history),
        sigma_by_slot=sigma_by_slot, emerged_sorted=emerged,
        history=history, fault_events=list(fault_events or ()),
        watchdog=watchdog,
    )


@dataclass
class SweepRecord:
    """Per-sweep convergence diagnostics."""

    sweep: int
    off_norm: float
    max_rel_gamma: float
    rotations: int
    skipped: int


@dataclass
class SVDResult:
    """Outcome of a one-sided Jacobi SVD.

    ``u`` has orthonormal columns spanning the range of ``a`` (zero
    columns past the numerical rank ``rank``), ``sigma`` is nonincreasing
    and ``v`` orthogonal, with ``a ~ u @ diag(sigma) @ v.T``.
    ``sigma_by_slot`` preserves the physical slot order at termination —
    the quantity the paper's sorted-output claims are about — while
    ``sigma`` is canonically sorted for consumers.

    ``converged`` must be checked by callers that care about accuracy:
    a ``False`` value means the sweep budget ran out (or fault recovery
    was exhausted) and the factors are a partial decomposition.  The
    drivers additionally emit a
    :class:`~repro.util.errors.ConvergenceWarning` in that case, so the
    condition is never silent.  Under a fault plan, ``fault_events``
    carries the full injection/recovery audit trail and ``watchdog`` any
    convergence-stall diagnosis.

    Block :func:`~repro.svd` and :func:`~repro.svd_batch` run the Jacobi
    iteration on the n×n factor ``X`` of a two-QR preconditioner, not
    on ``a``: there ``history``, ``sweeps``, ``rotations``,
    ``sigma_by_slot`` and ``emerged_sorted`` describe the run on ``X``,
    while ``u``, ``sigma``, ``v``, ``rank`` and ``converged`` describe
    ``a``.  Scalar mode, :func:`~repro.parallel_svd`, ``fault_plan=``
    runs and the raw ``block_jacobi_svd*`` drivers iterate on ``a``
    itself.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    converged: bool
    sweeps: int
    rotations: int
    sigma_by_slot: np.ndarray
    emerged_sorted: str | None
    history: list[SweepRecord] = field(default_factory=list)
    fault_events: list["FaultEvent"] = field(default_factory=list)
    watchdog: str | None = None

    @property
    def sweeps_used(self) -> int:
        """Sweeps actually executed (alias of ``sweeps``, named for the
        convergence summary: compare against the driver's ``max_sweeps``)."""
        return self.sweeps

    def fault_summary(self) -> dict[str, int]:
        """Fault/recovery event counts per action (empty when fault-free)."""
        from ..faults.events import summarize_events

        return summarize_events(self.fault_events)

    def summary(self) -> str:
        """One-line convergence/fault summary for logs and CLIs."""
        state = "converged" if self.converged else "NOT converged"
        line = (f"{state} in {self.sweeps_used} sweeps, "
                f"rank {self.rank}, {self.rotations} rotations")
        if self.fault_events:
            counts = self.fault_summary()
            shown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            line += f"; fault events: {shown}"
        if self.watchdog:
            line += f"; watchdog: {self.watchdog}"
        return line

    def reconstruct(self) -> np.ndarray:
        """``u @ diag(sigma) @ v.T`` (``u``, ``sigma``, ``v`` share the
        canonical nonincreasing order)."""
        return (self.u * self.sigma) @ self.v.T

    def reconstruction_error(self, a: np.ndarray) -> float:
        """Relative Frobenius reconstruction error against ``a``."""
        denom = np.linalg.norm(a) or 1.0
        return float(np.linalg.norm(a - self.reconstruct()) / denom)


@dataclass
class BatchResult:
    """Outcome of :func:`repro.svd_batch` over a stack of matrices.

    A sequence of per-item :class:`SVDResult`\\ s (``batch[i]``,
    ``len(batch)``, iteration) plus the aggregate accounting the batch
    exists for: wall time, throughput, the sweeps histogram across the
    batch, and the plan-cache traffic of this call (``plan_cache`` is
    the *delta* of :func:`repro.orderings.plan.plan_cache_stats` across
    the call — a warm cache shows ``misses == 0``: one compiled schedule
    amortised over every item).
    """

    results: list[SVDResult]
    elapsed_s: float
    plan_cache: "PlanCacheStats | None" = None

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> SVDResult:
        return self.results[i]

    def __iter__(self) -> Iterator[SVDResult]:
        return iter(self.results)

    @property
    def n_items(self) -> int:
        return len(self.results)

    @property
    def converged(self) -> bool:
        """True when *every* item converged."""
        return all(r.converged for r in self.results)

    @property
    def n_converged(self) -> int:
        return sum(1 for r in self.results if r.converged)

    @property
    def sweeps_histogram(self) -> dict[int, int]:
        """``{sweeps_used: item count}``, sorted by sweep count."""
        return dict(sorted(Counter(r.sweeps for r in self.results).items()))

    @property
    def matrices_per_sec(self) -> float:
        return len(self.results) / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def sigma_stack(self) -> np.ndarray:
        """``(B, n)`` stack of the per-item sorted singular values."""
        return np.stack([r.sigma for r in self.results])

    def summary(self) -> str:
        """One-line batch summary for logs and CLIs."""
        hist = ", ".join(f"{s}:{c}" for s, c in self.sweeps_histogram.items())
        line = (f"{self.n_converged}/{self.n_items} converged, "
                f"sweeps histogram {{{hist}}}, "
                f"{self.matrices_per_sec:.1f} matrices/sec")
        if self.plan_cache is not None:
            line += (f", plan cache +{self.plan_cache.hits} hits "
                     f"+{self.plan_cache.misses} misses")
        return line
