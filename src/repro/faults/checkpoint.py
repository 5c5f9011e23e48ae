"""Sweep-boundary checkpoints of the distributed machine state.

Before each sweep the recovery driver snapshots everything a rollback
must restore: the loaded driver's sweep state
(:attr:`~repro.machine.simulator.TreeMachine.state`) — the column
storage, the accumulated right vectors, and the slot labels and norm
cache (scalar mode) or the block-to-column map (block mode).  The
degradation state (``host_of_leaf``, ``dead_leaves``) is deliberately
*not* part of the checkpoint — a leaf that died stays dead across a
rollback; only the numerics rewind.

In the cost model a checkpoint is a leaf-parallel memory copy
(:meth:`~repro.machine.costmodel.CostModel.checkpoint_time`); a restore
additionally pays one synchronisation startup
(:meth:`~repro.machine.costmodel.CostModel.rollback_time`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.simulator import TreeMachine

__all__ = ["MachineCheckpoint", "restore_checkpoint", "take_checkpoint"]


@dataclass
class MachineCheckpoint:
    """Deep copy of one machine's sweep state at a sweep boundary."""

    #: copies of the state's arrays (``None`` where the state has none)
    arrays: tuple[np.ndarray | None, ...]
    #: words copied, for pricing the checkpoint/rollback: the matrix
    #: plus its accumulated right vectors
    words: int


def take_checkpoint(machine: "TreeMachine") -> MachineCheckpoint:
    """Snapshot a loaded machine's numerics."""
    V = machine.V
    return MachineCheckpoint(
        arrays=tuple(None if a is None else a.copy()
                     for a in machine.state.arrays()),
        words=machine.X.size + (V.size if V is not None else 0),
    )


def restore_checkpoint(machine: "TreeMachine", cp: MachineCheckpoint) -> None:
    """Rewind the machine's numerics to ``cp`` (degradation state kept).

    The state is restored **in place**, so references to the machine's
    buffers (``machine.X``/``machine.V``) stay current.
    """
    for a, saved in zip(machine.state.arrays(), cp.arrays):
        if a is not None:
            a[...] = saved
