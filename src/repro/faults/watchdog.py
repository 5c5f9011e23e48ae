"""Convergence watchdog: off-norm stall detection and escalation.

Jacobi's off-norm should fall quadratically once sweeps start landing;
a fault that silently degrades the iteration (or a degraded machine
that keeps re-rotating the same columns) shows up as a *stall* — the
off-norm stops shrinking long before ``max_sweeps`` runs out.  The
watchdog watches the per-sweep off-norm series and raises a flag the
first time a ``window``-sweep span fails to shrink it by at least the
``factor``; the driver surfaces the flag on the result (and the event
log) instead of letting the loop spin silently to exhaustion.
"""

from __future__ import annotations

from ..util.validation import require

__all__ = ["ConvergenceWatchdog", "diagnose_history"]


class ConvergenceWatchdog:
    """Stateful stall detector over the sweep-by-sweep off-norm series."""

    def __init__(self, window: int = 4, factor: float = 0.9):
        require(window >= 1, f"window must be >= 1, got {window!r}")
        require(0.0 < factor < 1.0,
                f"factor must be in (0, 1), got {factor!r}")
        self.window = window
        self.factor = factor
        self._series: list[float] = []
        #: first stall diagnosis, or None while healthy
        self.message: str | None = None

    @property
    def stalled(self) -> bool:
        return self.message is not None

    def observe(self, sweep: int, off_norm: float) -> str | None:
        """Feed one sweep's off-norm; returns a diagnosis the first time
        a stall is detected, else None."""
        self._series.append(off_norm)
        if self.message is not None or len(self._series) <= self.window:
            return None
        past = self._series[-1 - self.window]
        if past > 0.0 and off_norm > self.factor * past:
            self.message = (
                f"off-norm stalled at sweep {sweep}: "
                f"{past:.3e} -> {off_norm:.3e} over {self.window} sweeps "
                f"(needed factor {self.factor})"
            )
            return self.message
        return None

    def escalate(self, max_sweeps: int) -> str:
        """Final diagnosis when the sweep budget is exhausted."""
        last = self._series[-1] if self._series else float("nan")
        base = (f"not converged after {max_sweeps} sweeps "
                f"(final off-norm {last:.3e})")
        if self.message is not None:
            base += f"; {self.message}"
        self.message = base
        return base


def diagnose_history(history, max_sweeps: int) -> str:
    """Final diagnosis of a run that exhausted its sweep budget, from
    its recorded :class:`~repro.core.result.SweepRecord` series."""
    dog = ConvergenceWatchdog()
    for h in history:
        dog.observe(h.sweep, h.off_norm)
    return dog.escalate(max_sweeps)
