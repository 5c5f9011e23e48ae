"""Named benchmark scenarios.

Four kinds of workload, matching the trajectories the ROADMAP wants
protected:

``svd-kernel``       one full serial :func:`~repro.svd.jacobi_svd` run
                     with a chosen rotation kernel, ordering and size —
                     the batched-vs-reference pairs yield the headline
                     speedups;
``block-kernel``     one full serial
                     :func:`~repro.blockjacobi.block_jacobi_svd` run
                     with a chosen block-pair kernel and block size —
                     the gram-vs-reference pair is the BLAS-3 headline;
``parallel-sweeps``  sweep throughput of the simulated tree machine
                     (:class:`~repro.parallel.ParallelJacobiSVD`),
                     i.e. real wall time of the simulator, not modelled
                     machine time (scalar and block granularity);
``svd-parallel-exec`` one block Jacobi run under a chosen step-execution
                     backend (:mod:`repro.parallel.executor`) — the
                     threads-vs-serial pair is the multicore headline
                     (bit-identical results, wall time scaled by the
                     GIL-releasing GEMM phases);
``routing``          message-routing throughput over every communication
                     phase of one compiled sweep: the ``loop`` scenario
                     runs the per-message reference router
                     (:func:`~repro.machine.routing.route_phase`), the
                     ``vec`` twin the vectorised
                     :func:`~repro.machine.routing.route_moves` hot path
                     behind the simulator — the vec-vs-loop pair is the
                     routing headline;
``svd-batch``        throughput of the many-matrix API over a stack of
                     small problems (the ROADMAP's per-user workload):
                     ``batch`` scenarios run one :func:`repro.svd_batch`
                     call, ``loop`` scenarios the per-matrix
                     :func:`repro.svd` loop they amortise — the
                     batch-vs-loop pair is the problem-axis headline;
``lint``             latency of the static schedule verifier over the
                     ordering registry;
``analyze``          latency of the execution-layer analysis gate
                     (:func:`~repro.verify.analyze_registry`: compiled
                     plans, executor chunkings, fault-tolerance
                     totality) — the cost CI pays per ``analyze
                     --quick``;
``sanitize-overhead`` one gram-kernel block run with the runtime
                     sanitizer armed, against its sanitizer-off twin —
                     the per-run price of the write-set records and
                     numeric canaries;
``faults-recovery``  one faulted parallel run (crash + silent
                     corruption, checkpoint/rollback/remap recovery)
                     against its fault-free twin — the simulator-side
                     price of the fault-tolerance machinery;
``fastpath``         one fault-free gram-kernel sweep on the tree
                     machine, vectorised fast path vs its event-driven
                     twin (``force_event``) on the same prebuilt
                     schedule — the large-n simulator headline (the
                     event side is timed inside the scenario and the
                     speedup lands in meta);
``tune``             latency of one quick single-round
                     :func:`repro.tune.tune` search — the cost CI pays
                     for the autotuner smoke gate.

Scenario inputs are deterministic (fixed seed), and orderings/drivers
are constructed *outside* the timed region — ordering construction is a
large fraction of a small run's wall time and would otherwise drown the
kernel signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..util.validation import require
from .timing import time_callable

__all__ = ["Scenario", "default_scenarios", "run_scenario", "scenario_names"]

#: seed for every generated benchmark matrix — results must be comparable
#: across runs and machines
_SEED = 2024

#: the kinds that time one :func:`~repro.blockjacobi.block_jacobi_svd`
#: run (the gram kernel unless the params name one): the further
#: ``BlockJacobiOptions`` fields each takes from its params, and the
#: params it reports in meta
_BLOCK_KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "block-kernel": ((), ()),
    "svd-parallel-exec": (("executor", "workers"), ("executor", "workers")),
    "sanitize-overhead": (("executor", "workers", "sanitize"),
                          ("sanitize", "executor")),
}


@dataclass(frozen=True)
class Scenario:
    """One named, self-contained timing target."""

    name: str
    kind: str  # one of the workload kinds in the module docstring
    params: dict[str, Any] = field(default_factory=dict)
    #: name of the baseline scenario this one is reported as a speedup
    #: against (the batched kernel points at its reference twin)
    reference: str | None = None


def _svd_scenario(kernel: str, ordering: str, n: int) -> Scenario:
    ref = None if kernel == "reference" else f"svd/reference/{ordering}/n{n}"
    return Scenario(
        name=f"svd/{kernel}/{ordering}/n{n}",
        kind="svd-kernel",
        params={"kernel": kernel, "ordering": ordering, "n": n, "m": n + 16},
        reference=ref,
    )


def _block_scenario(kernel: str, ordering: str, n: int, b: int) -> Scenario:
    ref = None if kernel == "reference" else f"block/reference/{ordering}/n{n}b{b}"
    return Scenario(
        name=f"block/{kernel}/{ordering}/n{n}b{b}",
        kind="block-kernel",
        params={"kernel": kernel, "ordering": ordering, "n": n,
                "m": n + 16, "block_size": b},
        reference=ref,
    )


def _exec_scenario(executor: str, n: int, b: int, workers: int) -> Scenario:
    ref = None if executor == "serial" else f"exec/serial/ring_new/n{n}b{b}"
    return Scenario(
        name=f"exec/{executor}/ring_new/n{n}b{b}",
        kind="svd-parallel-exec",
        params={"executor": executor, "ordering": "ring_new", "n": n,
                "m": n + 16, "block_size": b,
                "workers": workers if executor != "serial" else 1},
        reference=ref,
    )


def _route_scenario(mode: str, ordering: str, n: int) -> Scenario:
    ref = None if mode == "loop" else f"route/loop/{ordering}/n{n}"
    return Scenario(
        name=f"route/{mode}/{ordering}/n{n}",
        kind="routing",
        params={"mode": mode, "ordering": ordering,
                "topology": "perfect", "n": n},
        reference=ref,
    )


def _sanitize_scenario(sanitize: bool, executor: str, n: int,
                       b: int) -> Scenario:
    switch = "on" if sanitize else "off"
    ref = f"sanitize/off/{executor}/n{n}b{b}" if sanitize else None
    return Scenario(
        name=f"sanitize/{switch}/{executor}/n{n}b{b}",
        kind="sanitize-overhead",
        params={"sanitize": sanitize, "executor": executor,
                "ordering": "ring_new", "n": n, "m": n + 16,
                "block_size": b,
                "workers": 2 if executor == "threads" else 1},
        reference=ref,
    )


def _batch_scenario(mode: str, batch: int, n: int, b: int,
                    paired: bool = True) -> Scenario:
    ref = None
    if mode == "batch" and paired:
        ref = f"batch/loop/ring_new/n{n}x{batch}"
    return Scenario(
        name=f"batch/{mode}/ring_new/n{n}x{batch}",
        kind="svd-batch",
        params={"mode": mode, "ordering": "ring_new", "n": n, "m": n + 8,
                "block_size": b, "batch": batch},
        reference=ref,
    )


def default_scenarios(quick: bool = False) -> list[Scenario]:
    """The shipped scenario list.

    Full mode: scalar kernels x {fat_tree, ring_new} x n in {32, 64},
    the block kernels (gram vs reference at n=128, b=8), the
    step-executor pair (serial vs threads on the same block run), the
    sanitizer-overhead pairs (off vs on, serial and threads), the
    batch-throughput pairs (svd_batch vs the looped-svd baseline at
    batch sizes 10^2-10^4), the routing pair (vectorised vs per-message
    router over one n=256 compiled sweep), the simulator fast-path pair
    (vectorised vs event-driven n=512 gram sweep, speedup in meta), the
    autotuner smoke search, the parallel simulator at scalar and block
    granularity, the fault-recovery overhead run, and the lint and
    analyze gates (30 scenarios).  ``quick`` mode shrinks every size
    for CI smoke runs (20 scenarios) while keeping the same name
    structure.
    """
    sizes = (16,) if quick else (32, 64)
    out = []
    for n in sizes:
        for ordering in ("fat_tree", "ring_new"):
            for kernel in ("reference", "batched"):
                out.append(_svd_scenario(kernel, ordering, n))
    # the block-gram-vs-reference pair: the BLAS-3 fast path against the
    # per-pair reference numerics on the same block schedule
    bn, bb = (32, 4) if quick else (128, 8)
    for kernel in ("reference", "gram"):
        out.append(_block_scenario(kernel, "ring_new", bn, bb))
    # the simulator fast path against its event-driven twin: one
    # fault-free gram sweep at the largest size the suite runs (the
    # tentpole's speedup claim is recorded here, in meta).  Runs before
    # the allocation-heavy batch/executor scenarios: the event path's
    # per-event object churn is measurably cheaper in a process whose
    # allocator arenas they have already warmed, which deflates the
    # recorded ratio by ~20% if this pair runs after them.
    sn = 64 if quick else 512
    out.append(
        Scenario(
            name=f"sim/fastpath-vs-event/n{sn}",
            kind="fastpath",
            params={"n": sn, "m": sn + 16, "block_size": 1,
                    "kernel": "gram", "ordering": "ring_new"},
        )
    )
    # the executor pair: the same gram-kernel block run under the
    # serial and threaded step backends (results are bit-identical; only
    # the wall time may differ, by however many cores the host offers —
    # on a single-core host the threaded twin records parity plus
    # dispatch overhead, and the gate only enforces no-regression)
    en, eb = (32, 4) if quick else (128, 8)
    for executor in ("serial", "threads"):
        out.append(_exec_scenario(executor, en, eb,
                                  workers=2 if quick else 4))
    # the sanitizer-overhead pair(s): the same gram block run with the
    # runtime sanitizer off and on — the "on" scenario reports its
    # overhead against the off twin
    for executor in (("serial",) if quick else ("serial", "threads")):
        for sanitize in (False, True):
            out.append(_sanitize_scenario(sanitize, executor, en, eb))
    # the batch-throughput pairs: one svd_batch call against the looped
    # svd() baseline it amortises, at n=16 b=4 (the per-user workload
    # shape); full mode spans batch sizes 10^2-10^4 (the 10^4 point is
    # batch-only — its loop twin would dominate the whole bench run)
    if quick:
        out.append(_batch_scenario("loop", 50, 16, 4))
        out.append(_batch_scenario("batch", 50, 16, 4))
    else:
        for bsize in (100, 1000):
            out.append(_batch_scenario("loop", bsize, 16, 4))
            out.append(_batch_scenario("batch", bsize, 16, 4))
        out.append(_batch_scenario("batch", 10000, 16, 4, paired=False))
    # the routing pair: the per-message reference router against the
    # vectorised hot path, over every communication phase of one
    # compiled sweep (n leaves exchange n columns per step)
    rn = 64 if quick else 256
    for mode in ("loop", "vec"):
        out.append(_route_scenario(mode, "ring_new", rn))
    # the autotuner smoke search (quick space, single round)
    tm, tn = (40, 32) if quick else (72, 64)
    out.append(
        Scenario(
            name=f"tune/quick/n{tn}",
            kind="tune",
            params={"m": tm, "n": tn, "batch": None},
        )
    )
    pn = 8 if quick else 32
    out.append(
        Scenario(
            name=f"parallel/hybrid/cm5/n{pn}",
            kind="parallel-sweeps",
            params={"topology": "cm5", "ordering": "hybrid", "n": pn, "m": pn + 8},
        )
    )
    if not quick:
        out.append(
            Scenario(
                name="parallel/hybrid/cm5/n64b4",
                kind="parallel-sweeps",
                params={"topology": "cm5", "ordering": "hybrid", "n": 64,
                        "m": 72, "block_size": 4},
            )
        )
    fn = 8 if quick else 16
    out.append(
        Scenario(
            name=f"faults/recovery-overhead/n{fn}",
            kind="faults-recovery",
            params={"topology": "perfect", "ordering": "fat_tree",
                    "n": fn, "m": fn + 8},
        )
    )
    out.append(
        Scenario(
            name="lint/registry",
            kind="lint",
            params={"sizes": [8] if quick else [8, 16]},
        )
    )
    out.append(
        Scenario(
            name="analyze/registry",
            kind="analyze",
            params={"sizes": [8] if quick else [8, 16],
                    "workers": [1, 2]},
        )
    )
    return out


def scenario_names(quick: bool = False) -> list[str]:
    return [s.name for s in default_scenarios(quick)]


def run_scenario(
    scenario: Scenario, repeats: int = 5, warmup: int = 1,
) -> dict[str, Any]:
    """Execute one scenario; returns its schema record (see report.py)."""
    meta: dict[str, Any] = {}
    p = scenario.params
    if scenario.kind == "svd-kernel":
        from ..orderings import make_ordering
        from ..svd.hestenes import JacobiOptions, jacobi_svd

        rng = np.random.default_rng(_SEED)
        a = rng.standard_normal((p["m"], p["n"]))
        ordering = make_ordering(p["ordering"], p["n"])
        options = JacobiOptions(kernel=p["kernel"])

        def work() -> None:
            r = jacobi_svd(a, ordering=ordering, options=options)
            meta.update(
                sweeps=r.sweeps,
                rotations=r.rotations,
                converged=bool(r.converged),
            )

    elif scenario.kind in _BLOCK_KINDS:
        from ..blockjacobi import BlockJacobiOptions, block_jacobi_svd
        from ..orderings import make_ordering

        knobs, reported = _BLOCK_KINDS[scenario.kind]
        rng = np.random.default_rng(_SEED)
        a = rng.standard_normal((p["m"], p["n"]))
        ordering = make_ordering(p["ordering"], p["n"] // p["block_size"])
        options = BlockJacobiOptions(block_size=p["block_size"],
                                     kernel=p.get("kernel", "gram"),
                                     **{k: p[k] for k in knobs})

        def work() -> None:
            r = block_jacobi_svd(a, ordering=ordering, options=options)
            meta.update(
                sweeps=r.sweeps,
                rotations=r.rotations,
                converged=bool(r.converged),
                **{k: p[k] for k in reported},
            )

    elif scenario.kind == "svd-batch":
        from ..core.api import svd, svd_batch

        rng = np.random.default_rng(_SEED)
        stack = rng.standard_normal((p["batch"], p["m"], p["n"]))
        # both sides go through the public API with an ordering *name*:
        # per-call ordering construction and plan-cache traffic are part
        # of exactly the amortisation the pair measures
        kw = dict(ordering=p["ordering"], kernel="gram",
                  block_size=p["block_size"])
        if p["mode"] == "loop":
            def work() -> None:
                results = [svd(stack[i], **kw) for i in range(len(stack))]
                meta.update(
                    batch=len(results),
                    converged=all(r.converged for r in results),
                )
        else:
            def work() -> None:
                br = svd_batch(stack, **kw)
                meta.update(
                    batch=br.n_items,
                    converged=bool(br.converged),
                    matrices_per_sec=round(br.matrices_per_sec, 1),
                    sweeps_histogram={str(k): v for k, v
                                      in br.sweeps_histogram.items()},
                )

    elif scenario.kind == "routing":
        from ..machine.routing import route_moves, route_phase
        from ..machine.topology import make_topology
        from ..orderings import make_ordering
        from ..orderings.plan import compile_schedule

        plan = compile_schedule(make_ordering(p["ordering"], p["n"]).sweep(0))
        topology = make_topology(p["topology"], p["n"] // 2)
        move_arrays = [s.move_leaves for s in plan.steps
                       if len(s.move_leaves)]
        require(bool(move_arrays),
                f"{p['ordering']}(n={p['n']}) sweep has no communication "
                f"phase to route")
        if p["mode"] == "loop":
            pair_lists = [[(int(s), int(d)) for s, d in ml]
                          for ml in move_arrays]

            def work() -> None:
                phases = [route_phase(topology, pl) for pl in pair_lists]
                meta.update(
                    phases=len(phases),
                    messages=sum(ph.n_messages for ph in phases),
                )
        else:
            def work() -> None:
                phases = [route_moves(topology, ml[:, 0], ml[:, 1])
                          for ml in move_arrays]
                meta.update(
                    phases=len(phases),
                    messages=sum(ph.n_messages for ph in phases),
                )

    elif scenario.kind == "parallel-sweeps":
        from ..parallel.driver import ParallelJacobiSVD

        rng = np.random.default_rng(_SEED)
        a = rng.standard_normal((p["m"], p["n"]))
        options = None
        if p.get("block_size"):
            from ..blockjacobi import BlockJacobiOptions

            options = BlockJacobiOptions(block_size=p["block_size"])
        driver = ParallelJacobiSVD(topology=p["topology"],
                                   ordering=p["ordering"], options=options)

        def work() -> None:
            r, rep = driver.compute(a)
            meta.update(
                sweeps=r.sweeps,
                rotations=r.rotations,
                converged=bool(r.converged),
                model_time=rep.total_time,
            )

    elif scenario.kind == "faults-recovery":
        import warnings

        from ..faults.campaign import CampaignCase, single_fault_plan
        from ..parallel.driver import ParallelJacobiSVD
        from ..util.errors import ConvergenceWarning

        rng = np.random.default_rng(_SEED)
        a = rng.standard_normal((p["m"], p["n"]))
        driver = ParallelJacobiSVD(topology=p["topology"],
                                   ordering=p["ordering"])
        plan = single_fault_plan(
            CampaignCase(p["ordering"], "crash", p["n"]))
        plan = single_fault_plan(
            CampaignCase(p["ordering"], "corrupt_silent", p["n"])
        ).add(plan.faults[0])
        # the fault-free twin is timed inside the same region so the
        # reported figure is total (faulted + baseline) wall time and the
        # overhead ratio lands in meta
        def work() -> None:
            r0, rep0 = driver.compute(a)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                r, rep = driver.compute(a, fault_plan=plan)
            meta.update(
                converged=bool(r.converged),
                rollbacks=rep.rollbacks,
                fault_events=len(r.fault_events),
                model_overhead=(rep.total_time / rep0.total_time
                                if rep0.total_time else 1.0),
            )

    elif scenario.kind == "fastpath":
        from ..machine.simulator import TreeMachine
        from ..machine.topology import PerfectFatTree
        from ..orderings import make_ordering

        b = p["block_size"]
        n_slots = p["n"] // b
        rng = np.random.default_rng(_SEED)
        a = rng.standard_normal((p["m"], p["n"]))
        # schedule construction is outside the timed region on both
        # sides: the pair measures sweep execution, not ordering setup
        sched = make_ordering(p["ordering"], n_slots).sweep(0)

        def run(force_event: bool) -> None:
            machine = TreeMachine(PerfectFatTree(n_slots // 2))
            machine.load(a, kernel=p["kernel"], block_size=b)
            machine.force_event = force_event
            machine.run_sweep(sched, sweep_index=0)
            expected = "event" if force_event else "fast"
            require(machine.last_sweep_path == expected,
                    f"expected {expected} path, got "
                    f"{machine.last_sweep_path!r}")

        # the event twin is priced here at a bounded repeat count (it is
        # the slow side by design); the headline wall_time_s below is
        # the fast path, and the speedup ratio is attached post-timing
        event = time_callable(lambda: run(True),
                              repeats=min(repeats, 3), warmup=min(warmup, 1))
        meta.update(event_median_s=event.median_s,
                    event_repeats=min(repeats, 3))

        def work() -> None:
            run(False)

    elif scenario.kind == "tune":
        from ..tune import tune

        def work() -> None:
            result = tune(p["m"], p["n"], p.get("batch"), quick=True,
                          repeats_schedule=(1,))
            meta.update(
                winner=result.winner.label(),
                candidates=len(result.candidates),
                speedup=round(result.speedup, 2),
            )

    elif scenario.kind == "lint":
        from ..verify import lint_registry

        sizes = tuple(p["sizes"])

        def work() -> None:
            reports = lint_registry(sizes=sizes)
            meta.update(targets=len(reports), clean=all(r.ok for r in reports))

    elif scenario.kind == "analyze":
        from ..verify import analyze_registry

        sizes = tuple(p["sizes"])
        workers = tuple(p["workers"])

        def work() -> None:
            reports = analyze_registry(sizes=sizes, workers=workers)
            meta.update(targets=len(reports), clean=all(r.ok for r in reports))

    else:
        require(False, f"unknown scenario kind {scenario.kind!r}")

    timing = time_callable(work, repeats=repeats, warmup=warmup)
    if scenario.kind == "fastpath":
        meta["speedup"] = meta["event_median_s"] / timing.median_s
    return {
        "name": scenario.name,
        "kind": scenario.kind,
        "params": dict(p),
        "reference": scenario.reference,
        "wall_time_s": timing.median_s,
        "times_s": list(timing.times_s),
        "meta": meta,
    }
