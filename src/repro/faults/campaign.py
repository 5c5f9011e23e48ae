"""Registered chaos campaign: fault kinds x orderings x sizes x kernels.

Each campaign case injects exactly one fault — placed on the *first
remote move* of the sweep-0 schedule, so it is guaranteed to fire — and
checks the survival contract end to end:

* the recovered run reproduces the fault-free singular values to 1e-8
  (or fails *explicitly* with ``converged=False``, never silently),
* the simulator terminates (bounded retries, then remap — termination
  is by construction, but the campaign is the regression net),
* every injected fault shows up in the result's fault-event trail with
  its recovery action and a charged recovery cost.

The quick tier (``repro-harness faults --quick``) runs the scalar
reference kernel at n=8; the full tier (wired into CI and ``make
faults``) adds n in {16, 32}, the scalar batched kernel and the BLAS-3
gram block kernel, so every sweep loop the event path runs — the
scalar sweep with either kernel and the block step loop — meets every
fault kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.bits import leaf_of_slot
from ..util.formatting import render_table
from .events import summarize_events
from .plan import FAULT_KINDS, FaultPlan

__all__ = [
    "CampaignCase",
    "CaseOutcome",
    "campaign_cases",
    "single_fault_plan",
    "run_campaign",
    "render_survival_matrix",
]

ORDERINGS = ("fat_tree", "ring_new", "hybrid")

#: relative sigma tolerance of the survival contract
SIGMA_RTOL = 1e-8


@dataclass(frozen=True)
class CampaignCase:
    """One registered chaos scenario."""

    ordering: str
    kind: str
    n: int
    kernel: str = "reference"
    block_size: int | None = None

    @property
    def label(self) -> str:
        blk = f"/b{self.block_size}" if self.block_size else ""
        return f"{self.ordering}/{self.kind}/n{self.n}/{self.kernel}{blk}"


@dataclass
class CaseOutcome:
    """Survival verdict of one campaign case."""

    case: CampaignCase
    survived: bool
    converged: bool
    rel_err: float
    overhead: float
    event_counts: dict[str, int] = field(default_factory=dict)
    detail: str = ""


def campaign_cases(quick: bool = False) -> list[CampaignCase]:
    """The registered scenario grid.

    Quick: every fault kind x every ordering, scalar reference kernel
    at n=8 (24 cases).  Full additionally sweeps n in {16, 32}, the
    scalar batched kernel and the gram block kernel (block_size=1 at
    n=8 so the hybrid ordering keeps its 8 schedule units, 2 above):
    216 cases.
    """
    sizes = (8,) if quick else (8, 16, 32)
    kernels = ("reference",) if quick else ("reference", "batched", "gram")
    cases = []
    for kernel in kernels:
        for n in sizes:
            block = None
            if kernel == "gram":
                # hybrid needs >= 8 schedule units: n=8 forces b=1
                block = 1 if n == 8 else 2
            for ordering in ORDERINGS:
                for kind in FAULT_KINDS:
                    cases.append(CampaignCase(ordering, kind, n,
                                              kernel, block))
    return cases


def single_fault_plan(case: CampaignCase) -> FaultPlan:
    """Build the one-fault plan of a case from its actual schedule.

    The fault site is the first remote move of the sweep-0 schedule —
    slots mapped down to leaves, the outage level read off the real
    route — so every registered fault is guaranteed to fire rather than
    matching nothing and vacuously "surviving".
    """
    from ..machine.topology import make_topology
    from ..orderings.registry import make_ordering
    from .corruptions import first_remote_move

    n_units = case.n // (case.block_size or 1)
    ordering = make_ordering(case.ordering, n_units)
    step_k, mv = first_remote_move(ordering.sweep(0))
    src, dst = leaf_of_slot(mv.src), leaf_of_slot(mv.dst)
    plan = FaultPlan(seed=7)
    if case.kind == "drop":
        return plan.drop(sweep=0, step=step_k, src=src, dst=dst)
    if case.kind == "duplicate":
        return plan.duplicate(sweep=0, step=step_k, src=src, dst=dst)
    if case.kind == "delay":
        return plan.delay(sweep=0, step=step_k, src=src, dst=dst,
                          duration=150.0)
    if case.kind == "corrupt":
        return plan.corrupt(sweep=0, step=step_k, src=src, dst=dst,
                            mode="scale")
    if case.kind == "corrupt_silent":
        # detectable damage (finiteness sentinel / norm invariant); a
        # finite sign flip needs the checksummed 'corrupt' kind
        return plan.corrupt(sweep=0, step=step_k, src=src, dst=dst,
                            mode="nan", silent=True)
    if case.kind == "stall":
        return plan.stall(leaf=src, sweep=0, step=step_k, duration=150.0)
    if case.kind == "crash":
        return plan.crash(leaf=dst, sweep=0, step=step_k)
    if case.kind == "outage":
        topo = make_topology("perfect", max(2, n_units // 2))
        level = topo.comm_level(src, dst)
        return plan.outage(level=level, sweep=0, step=step_k,
                           until_step=step_k + 1)
    raise ValueError(f"unknown fault kind {case.kind!r}")


def _run_case(case: CampaignCase, baseline, a: np.ndarray) -> CaseOutcome:
    import warnings

    from ..core.api import parallel_svd
    from ..util.errors import ConvergenceWarning

    r0, rep0 = baseline
    plan = single_fault_plan(case)
    kwargs = {}
    if case.block_size is not None:
        kwargs["block_size"] = case.block_size
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            r, rep = parallel_svd(
                a, topology="perfect", ordering=case.ordering,
                kernel=case.kernel, fault_plan=plan, **kwargs)
    except Exception as exc:  # campaign must never crash the harness
        return CaseOutcome(case, survived=False, converged=False,
                           rel_err=float("inf"), overhead=float("inf"),
                           detail=f"raised {type(exc).__name__}: {exc}")
    rel_err = float(np.max(np.abs(r.sigma - r0.sigma))) / max(
        float(r0.sigma[0]), 1e-300)
    counts = summarize_events(r.fault_events)
    injected = counts.get("injected", 0)
    overhead = rep.total_time / rep0.total_time if rep0.total_time else 1.0
    problems = []
    if not r.converged:
        problems.append("not converged")
    if rel_err > SIGMA_RTOL:
        problems.append(f"sigma off by {rel_err:.2e}")
    if injected == 0:
        problems.append("fault never fired")
    if rep.recovery_time <= 0:
        problems.append("no recovery cost charged")
    return CaseOutcome(
        case,
        survived=not problems,
        converged=r.converged,
        rel_err=rel_err,
        overhead=overhead,
        event_counts=dict(counts),
        detail="; ".join(problems),
    )


def run_campaign(quick: bool = False, seed: int = 1234,
                 progress=None) -> list[CaseOutcome]:
    """Run the registered campaign; returns one outcome per case.

    Fault-free twin runs are computed once per (ordering, n, kernel)
    and shared by that column of the grid; ``progress`` (if given) is
    called with each finished :class:`CaseOutcome`.
    """
    from ..core.api import parallel_svd

    rng = np.random.default_rng(seed)
    matrices: dict[int, np.ndarray] = {}
    baselines: dict[tuple, tuple] = {}
    outcomes = []
    for case in campaign_cases(quick):
        if case.n not in matrices:
            matrices[case.n] = rng.standard_normal((case.n + 8, case.n))
        a = matrices[case.n]
        key = (case.ordering, case.n, case.kernel, case.block_size)
        if key not in baselines:
            kwargs = {}
            if case.block_size is not None:
                kwargs["block_size"] = case.block_size
            baselines[key] = parallel_svd(
                a, topology="perfect", ordering=case.ordering,
                kernel=case.kernel, **kwargs)
        outcome = _run_case(case, baselines[key], a)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return outcomes


def render_survival_matrix(outcomes: list[CaseOutcome]) -> str:
    """Fault-kind x ordering survival matrix plus a failure detail table.

    Each cell aggregates every (n, kernel) combination of that pair as
    ``survived/total``; failures get one detail row each below.
    """
    cells: dict[tuple[str, str], list[CaseOutcome]] = {}
    for o in outcomes:
        cells.setdefault((o.case.kind, o.case.ordering), []).append(o)
    kinds = sorted({k for k, _ in cells})
    orderings = [o for o in ORDERINGS if any(o == b for _, b in cells)]
    rows = []
    for kind in kinds:
        row = [kind]
        for ordering in orderings:
            group = cells.get((kind, ordering), [])
            ok = sum(1 for g in group if g.survived)
            mark = "OK" if ok == len(group) else "FAIL"
            row.append(f"{ok}/{len(group)} {mark}")
        rows.append(row)
    out = render_table(["fault", *orderings], rows,
                       title="survival matrix (recovered/injected)")
    survived = sum(1 for o in outcomes if o.survived)
    mean_overhead = float(np.mean([
        o.overhead for o in outcomes if np.isfinite(o.overhead)]))
    out += (f"\n{survived}/{len(outcomes)} cases survived; "
            f"mean recovery overhead {mean_overhead:.2f}x fault-free time")
    failures = [o for o in outcomes if not o.survived]
    if failures:
        out += "\n" + render_table(
            ["case", "detail"],
            [[f.case.label, f.detail] for f in failures],
            title="failures")
    return out
