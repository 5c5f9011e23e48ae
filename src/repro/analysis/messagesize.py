"""Message-size study (TAB-MSG): when does locality matter?

The paper cites the CM-5 measurements of Ponnusamy, Choudhary & Fox
[13]: "in order to achieve high performance on a (skinny) fat-tree
architecture, communication should be kept local (**especially for
large messages**) and contention should be avoided as far as possible."

This experiment sweeps the column length ``m`` (the message size of a
column transfer) and reports the per-sweep communication time of the
localised fat-tree ordering against the global-every-step round-robin
ordering on the CM-5 model.  For small messages the per-phase startup
``alpha`` dominates and the orderings tie; as messages grow, the
contention rounds on the skinny channels multiply the bandwidth term
and locality wins — the [13] observation, reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.costmodel import CostModel
from ..machine.simulator import sweep_ledger
from ..machine.topology import make_topology
from ..orderings.plan import compile_schedule
from ..orderings.registry import make_ordering
from ..util.formatting import render_table

__all__ = ["MessageSizeRow", "message_size_table", "render_message_size_table"]


@dataclass(frozen=True)
class MessageSizeRow:
    m: int
    words_per_message: int
    comm_time: dict[str, float]
    advantage: float  # round_robin comm time / fat_tree comm time


def message_size_table(
    n: int = 64,
    sizes: list[int] | None = None,
    topology: str = "cm5",
    cost_model: CostModel | None = None,
) -> list[MessageSizeRow]:
    """TAB-MSG: communication time vs message (column) size.

    Each sweep is the plan's cost ledger
    (:func:`~repro.machine.simulator.sweep_ledger`), messages carrying
    one ``m``-word column.
    """
    sizes = sizes or [8, 32, 128, 512]
    cm = cost_model or CostModel()
    topo = make_topology(topology, n // 2)
    rows: list[MessageSizeRow] = []
    for m in sizes:
        times: dict[str, float] = {}
        for name in ("round_robin", "fat_tree", "ring_new"):
            plan = compile_schedule(make_ordering(name, n).sweep(0))
            times[name] = sweep_ledger(plan, topo, cm, m, m).comm_time
        rows.append(
            MessageSizeRow(
                m=m,
                words_per_message=m,
                comm_time=times,
                advantage=times["round_robin"] / times["fat_tree"],
            )
        )
    return rows


def render_message_size_table(rows: list[MessageSizeRow]) -> str:
    """Text table for TAB-MSG rows."""
    headers = ["column length", "round_robin", "fat_tree", "ring_new", "RR/fat ratio"]
    data = [
        [
            r.m,
            f"{r.comm_time['round_robin']:.0f}",
            f"{r.comm_time['fat_tree']:.0f}",
            f"{r.comm_time['ring_new']:.0f}",
            f"{r.advantage:.2f}",
        ]
        for r in rows
    ]
    return render_table(headers, data, title="TAB-MSG (comm time per sweep, CM-5)")
