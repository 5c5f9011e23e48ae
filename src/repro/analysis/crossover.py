"""Capacity crossover study (TAB-CROSS): when does the fat-tree ordering win?

The paper's closing sentence: "If communication-handling capability is
increased, then our fat-tree ordering will become more attractive."
This experiment turns that prediction into a curve: sweep the level
above which the tree goes skinny (``SkinnyFatTree(skinny_above=L)``,
from an ordinary binary tree at L = 1 to a perfect fat-tree at the top
level) and record the per-sweep communication time of the fat-tree and
hybrid orderings.  The crossover level — where the fat-tree ordering
first matches the hybrid — quantifies how much channel capacity the
fat-tree ordering needs before its superior locality pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.costmodel import CostModel
from ..machine.simulator import sweep_ledger
from ..machine.topology import SkinnyFatTree
from ..orderings.plan import compile_schedule
from ..orderings.registry import make_ordering
from ..util.bits import ilog2
from ..util.formatting import render_table

__all__ = ["CrossoverRow", "crossover_table", "render_crossover_table", "crossover_level"]


@dataclass(frozen=True)
class CrossoverRow:
    skinny_above: int
    comm_time: dict[str, float]
    fat_tree_contention: float
    fat_tree_wins: bool


def crossover_table(
    n: int = 64,
    m: int = 96,
    cost_model: CostModel | None = None,
) -> list[CrossoverRow]:
    """TAB-CROSS: comm time of fat-tree vs hybrid as capacity grows.

    Each sweep is the plan's cost ledger
    (:func:`~repro.machine.simulator.sweep_ledger`), messages carrying
    one ``m``-word column.
    """
    cm = cost_model or CostModel()
    n_leaves = n // 2
    levels = ilog2(n_leaves)
    rows: list[CrossoverRow] = []
    hybrid_groups = max(2, n // 8)
    for L in range(1, levels + 1):
        topo = SkinnyFatTree(n_leaves, skinny_above=L)
        times: dict[str, float] = {}
        fat_cont = 0.0
        for name in ("fat_tree", "hybrid"):
            kw = {"n_groups": hybrid_groups} if name == "hybrid" else {}
            plan = compile_schedule(make_ordering(name, n, **kw).sweep(0))
            stats = sweep_ledger(plan, topo, cm, m, m)
            times[name] = stats.comm_time
            if name == "fat_tree":
                fat_cont = stats.max_contention
        rows.append(
            CrossoverRow(
                skinny_above=L,
                comm_time=times,
                fat_tree_contention=fat_cont,
                fat_tree_wins=times["fat_tree"] <= times["hybrid"],
            )
        )
    return rows


def crossover_level(rows: list[CrossoverRow]) -> int | None:
    """First skinny-above level at which the fat-tree ordering wins."""
    for r in rows:
        if r.fat_tree_wins:
            return r.skinny_above
    return None


def render_crossover_table(rows: list[CrossoverRow]) -> str:
    """Text table for TAB-CROSS rows."""
    headers = ["skinny above level", "fat_tree comm", "hybrid comm",
               "fat_tree contention", "winner"]
    data = [
        [
            r.skinny_above,
            f"{r.comm_time['fat_tree']:.0f}",
            f"{r.comm_time['hybrid']:.0f}",
            f"{r.fat_tree_contention:.2f}",
            "fat_tree" if r.fat_tree_wins else "hybrid",
        ]
        for r in rows
    ]
    return render_table(headers, data, title="TAB-CROSS (channel capacity sweep)")
