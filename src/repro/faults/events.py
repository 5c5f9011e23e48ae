"""Fault events: the audit trail of every injection and recovery action.

Every time a fault fires and every time the machine reacts (retry,
dedup, rollback, remap, fallback, ...) one immutable
:class:`FaultEvent` is appended to the injector's log and attached to
the step's :class:`~repro.machine.stats.StepRecord`.  The acceptance
bar for the chaos campaign is that *every* injected fault shows up here
with its recovery action and the simulated time it cost — a recovery
that is not charged in the cost model did not happen.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

__all__ = ["FAULT_ACTIONS", "FaultEvent", "summarize_events"]

#: every recovery/reaction an event may record
FAULT_ACTIONS = (
    "injected",        # the fault itself fired
    "retry",           # sender timed out and retransmitted
    "dedup",           # receiver discarded a duplicate by sequence number
    "delivered-late",  # delayed original arrived and was accepted/deduped
    "outage-wait",     # sender backed off until the link window reopened
    "rollback",        # sweep restored from checkpoint
    "remap",           # dead leaf's columns rehosted on its sibling
    "fallback",        # a gram breakdown re-solved pairs with the guarded reference
    "watchdog",        # convergence watchdog flagged a stall/escalation
    "corrupted",       # silent payload corruption was applied
    "unrecoverable",   # recovery budget exhausted; run failed explicitly
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault occurrence or recovery action, fully located and priced."""

    kind: str                  # fault kind, or "recovery" for pure reactions
    action: str                # one of FAULT_ACTIONS
    sweep: int
    step: int                  # 1-based step number; 0 = sweep boundary
    attempt: int = 0
    src: int | None = None
    dst: int | None = None
    leaf: int | None = None
    level: int | None = None
    time_charged: float = 0.0
    detail: str = ""

    def describe(self) -> str:
        where = f"sweep {self.sweep} step {self.step}"
        if self.src is not None and self.dst is not None:
            where += f" link {self.src}->{self.dst}"
        elif self.leaf is not None:
            where += f" leaf {self.leaf}"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}/{self.action} @ {where}: +{self.time_charged:.1f}{tail}"


def summarize_events(events: Iterable[FaultEvent]) -> dict[str, int]:
    """Count events per recovery action (for result summaries and CLI)."""
    return dict(Counter(ev.action for ev in events))
