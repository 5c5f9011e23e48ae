"""Fault injection and recovery for the simulated tree machine.

The chaos-testing subsystem of the reproduction: deterministic,
seed-reproducible fault injection (message drop/duplicate/delay/
corruption, processor crash-stop and stall, link-level outages) plus
the recovery machinery that keeps a faulted run correct — ack/seq
retransmission with capped exponential backoff, sweep-boundary
checkpoints with rollback-and-retry, graceful degradation onto sibling
leaves, and numerical guardrails (non-finite sentinels, the gram
kernel's fallback to the guarded reference solver, convergence
watchdog).

Entry points::

    from repro import FaultPlan, svd
    plan = FaultPlan(seed=7).drop(sweep=0, step=2)
    result = svd(a, fault_plan=plan)
    assert result.converged and result.fault_events

The campaign runner (orderings x fault kinds x sizes survival matrix)
lives in :mod:`repro.faults.campaign` and is imported on demand by the
CLI — not here, to keep the machine layer's import footprint small.
"""

from .checkpoint import MachineCheckpoint, restore_checkpoint, take_checkpoint
from .corruptions import (
    PAYLOAD_MODES,
    corrupt_payload,
    first_remote_move,
    remote_moves,
    unchecked_schedule,
    unchecked_step,
)
from .errors import FaultError, LeafFailure, UnrecoverableFault
from .events import FAULT_ACTIONS, FaultEvent, summarize_events
from .injector import FaultInjector
from .plan import FAULT_KINDS, Fault, FaultPlan
from .recovery import DegradedReport, validate_degraded
from .transport import AckTransport, PhaseOutcome
from .watchdog import ConvergenceWatchdog

__all__ = [
    "AckTransport",
    "ConvergenceWatchdog",
    "DegradedReport",
    "FAULT_ACTIONS",
    "FAULT_KINDS",
    "Fault",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LeafFailure",
    "MachineCheckpoint",
    "PAYLOAD_MODES",
    "PhaseOutcome",
    "UnrecoverableFault",
    "corrupt_payload",
    "first_remote_move",
    "remote_moves",
    "restore_checkpoint",
    "summarize_events",
    "take_checkpoint",
    "unchecked_schedule",
    "unchecked_step",
    "validate_degraded",
]
