"""Machine-size scaling study (TAB-SCALE).

Section 2 of the paper frames the design problem: "A problem which is
compute-bound on a serial computer may be communication-bound on a
parallel computer", so the orderings compete on how their communication
cost grows with the machine.  This experiment holds the per-leaf work
constant (two columns per leaf, fixed row count) and grows the machine,
reporting per-sweep simulated time, its compute/communication split and
the contention trend per ordering x topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.costmodel import CostModel
from ..machine.simulator import sweep_ledger
from ..machine.topology import make_topology
from ..orderings.plan import compile_schedule
from ..orderings.registry import make_ordering
from ..util.formatting import render_table

__all__ = ["ScalingRow", "scaling_table", "render_scaling_table"]


@dataclass(frozen=True)
class ScalingRow:
    ordering: str
    topology: str
    n: int
    n_leaves: int
    sweep_time: float
    compute_time: float
    comm_time: float
    comm_fraction: float
    max_contention: float


def scaling_table(
    sizes: list[int] | None = None,
    m: int = 128,
    topology: str = "cm5",
    names: list[str] | None = None,
    cost_model: CostModel | None = None,
    **kwargs_by_name: dict,
) -> list[ScalingRow]:
    """TAB-SCALE: one-sweep simulated time as the machine grows.

    Each size ``n`` uses ``n/2`` leaves (weak scaling in the column
    dimension at fixed row count ``m``).  A sweep's cost does not depend
    on the data, so each row is the plan's cost ledger
    (:func:`~repro.machine.simulator.sweep_ledger`), with messages
    carrying a column and its row of ``V`` (``m + n`` words).
    """
    sizes = sizes or [16, 32, 64, 128]
    names = names or ["round_robin", "ring_new", "fat_tree", "hybrid"]
    cm = cost_model or CostModel()
    rows: list[ScalingRow] = []
    for n in sizes:
        topo = make_topology(topology, n // 2)
        for name in names:
            kw = dict(kwargs_by_name.get(name, {}))
            if name == "hybrid" and "n_groups" not in kw:
                kw["n_groups"] = max(2, n // 8)  # blocks of <= 4 columns
            ordering = make_ordering(name, n, **kw)
            stats = sweep_ledger(compile_schedule(ordering.sweep(0)), topo,
                                 cm, m, m + n)
            total = stats.total_time
            rows.append(
                ScalingRow(
                    ordering=name,
                    topology=topology,
                    n=n,
                    n_leaves=n // 2,
                    sweep_time=total,
                    compute_time=stats.compute_time,
                    comm_time=stats.comm_time,
                    comm_fraction=(stats.comm_time / total) if total else 0.0,
                    max_contention=stats.max_contention,
                )
            )
    return rows


def render_scaling_table(rows: list[ScalingRow]) -> str:
    """Text table for TAB-SCALE rows."""
    headers = ["n", "leaves", "ordering", "sweep time", "comm %", "max cont"]
    data = [
        [
            r.n,
            r.n_leaves,
            r.ordering,
            f"{r.sweep_time:.0f}",
            f"{100 * r.comm_fraction:.0f}%",
            f"{r.max_contention:.2f}",
        ]
        for r in rows
    ]
    return render_table(headers, data,
                        title=f"TAB-SCALE ({rows[0].topology})" if rows else "TAB-SCALE")
