"""Fault-tolerance totality analysis (``FT*``).

The fault subsystem promises that *any* single-leaf crash degrades
gracefully: the dead leaf's columns rehost on its sibling and the sweep
retries (:mod:`repro.faults`).  That promise is exercised by fault
campaigns at a handful of injection points — this pass instead proves it
*totally*, by enumerating every possible single-leaf death for a
topology and asserting each one yields a sound degraded configuration:

``FT001``
    kill each leaf in turn on a fresh machine, run
    :meth:`~repro.machine.simulator.TreeMachine.degrade_leaf`, then
    check the resulting host map
    (:func:`~repro.faults.recovery.host_map_problems`) and re-route
    every move phase of the schedule under the degraded map.  Any
    exception or unsound map is a finding.  Oversubscribed channels are
    *accepted* — degraded mode trades contention-freeness for liveness —
    but the routing must exist.

The schedule's structural soundness is checked once without a topology
— capacity findings are a property of the (schedule, machine) pairing
the ``CAP*`` rules already own, not of fault tolerance.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from ..machine.routing import remap_leaves, route_phase
from ..machine.simulator import TreeMachine
from ..machine.topology import TreeTopology
from ..orderings.schedule import Schedule
from ..util.bits import leaf_of_slot
from .diagnostics import Diagnostic
from .races import find_races

__all__ = [
    "check_degraded_totality",
    "check_host_map",
]


def check_host_map(host_of_leaf: np.ndarray,
                   dead_leaves: Collection[int]) -> list[Diagnostic]:
    """Wrap :func:`~repro.faults.recovery.host_map_problems` findings as
    ``FT001`` diagnostics."""
    from ..faults.recovery import host_map_problems

    return [
        Diagnostic(rule="FT001", message=f"degraded host map unsound: {p}")
        for p in host_map_problems(host_of_leaf, dead_leaves)
    ]


def check_degraded_totality(schedule: Schedule,
                            topology: TreeTopology) -> list[Diagnostic]:
    """Prove every single-leaf death of ``topology`` degrades gracefully
    for ``schedule`` (rule ``FT001``)."""
    # slot/move soundness only: sweep-level coverage (SWEEP*) and
    # capacity (CAP*) are other passes' business and some orderings
    # legitimately defer coverage across sweeps (LLB's skipped
    # duplicate rotation)
    races = [d for d in find_races(schedule) if d.is_error]
    if races:
        rules = tuple(sorted({d.rule for d in races}))
        return [Diagnostic(
            rule="FT001",
            message="schedule fails slot/move soundness even before any "
                    f"fault; degraded validation is meaningless "
                    f"({', '.join(rules)})",
            details=(("rules", rules),),
        )]
    out: list[Diagnostic] = []
    for dead in range(topology.n_leaves):
        machine = TreeMachine(topology)
        try:
            machine.degrade_leaf(dead)
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            out.append(Diagnostic(
                rule="FT001",
                message=f"degrading leaf {dead} failed outright: {exc}",
                details=(("dead_leaf", dead),),
            ))
            continue
        out.extend(
            Diagnostic(rule="FT001",
                       message=f"after killing leaf {dead}: {d.message}",
                       details=(("dead_leaf", dead),) + d.details)
            for d in check_host_map(machine.host_of_leaf,
                                    machine.dead_leaves))
        for step_no, step in enumerate(schedule.steps, start=1):
            if not step.moves:
                continue
            try:
                pairs = remap_leaves(
                    ((leaf_of_slot(mv.src), leaf_of_slot(mv.dst))
                     for mv in step.moves),
                    machine.host_of_leaf)
                route_phase(topology, pairs)
            except Exception as exc:  # noqa: BLE001 - see above
                out.append(Diagnostic(
                    rule="FT001", step=step_no,
                    message=f"after killing leaf {dead}, the move phase "
                            f"cannot be routed on the degraded map: {exc}",
                    details=(("dead_leaf", dead),),
                ))
    return out
