"""Command-line interface: regenerate experiments and run quick SVDs.

Installed as ``repro-harness``; also runnable as ``python -m repro.cli``.

Subcommands
-----------
``list``                         list available experiments and orderings
``figures [IDS...]``             print figure step tables (default: all)
``tables [IDS...]``              print TAB-* tables (default: all)
``svd --m M --n N [--ordering O] [--topology T]``
                                 run one decomposition and report telemetry
``lint [--ordering O ...] [--n N ...] [--topology T] [--json]``
                                 statically verify schedules (exit 1 on findings)
``analyze [--ordering O ...] [--n N ...] [--workers W ...] [--quick] [--json]``
                                 statically verify the execution layer: compiled
                                 plans, executor chunkings, fault-tolerance
                                 totality (exit 1 on findings)
``bench [--tag T] [--compare OLD.json] [--quick] [--json]``
                                 run the timing harness, write BENCH_<tag>.json
                                 (exit 1 on perf regression vs --compare)
``faults [--quick] [--json]``    run the registered chaos campaign and print
                                 the survival matrix (exit 1 on any casualty)
``tune --m M --n N [--batch B] [--quick] [--dry-run] [--check]``
                                 search (kernel, ordering, block size,
                                 executor, workers) for the shape and
                                 persist the winner as a tuned profile
                                 (PROFILE_<host>.json)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

_FIGURES = ("FIG1", "FIG2", "FIG3", "FIG4", "FIG5", "FIG6", "FIG7", "FIG8", "FIG9")
_TABLES = ("TAB-COMM", "TAB-CONT", "TAB-TIME", "TAB-CONV", "TAB-SWEEP",
           "TAB-SCALE", "TAB-MSG", "TAB-OPT", "TAB-CROSS", "TAB-BATCH")


def build_parser() -> argparse.ArgumentParser:
    """The repro-harness argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-harness",
        description="Zhou & Brent (ICPP 1993) reproduction harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, orderings and topologies")

    fig = sub.add_parser("figures", help="regenerate figure step tables")
    fig.add_argument("ids", nargs="*", default=[], help=f"subset of {_FIGURES}")

    tab = sub.add_parser("tables", help="regenerate evaluation tables")
    tab.add_argument("ids", nargs="*", default=[], help=f"subset of {_TABLES}")

    run = sub.add_parser("svd", help="run one SVD and report telemetry")
    run.add_argument("--m", type=int, default=96)
    run.add_argument("--n", type=int, default=64)
    run.add_argument("--ordering", default="hybrid")
    run.add_argument("--topology", default="cm5")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--serial", action="store_true",
                     help="use the serial driver (no machine simulation)")
    run.add_argument("--batch", type=int, default=None, metavar="B",
                     help="solve a batch of B independent seeded matrices "
                          "through svd_batch (schedule compiled once, "
                          "problem-axis stacked GEMMs) and report the "
                          "throughput; incompatible with --fault")
    run.add_argument("--kernel", default=None,
                     choices=["reference", "batched", "gram"],
                     help="rotation kernel (batched = fused scalar fast "
                          "path; gram = BLAS-3 block kernel, needs "
                          "--block-size)")
    run.add_argument("--block-size", type=int, default=None, metavar="B",
                     help="run at block granularity with B columns per "
                          "schedule unit (default: scalar, 1 column)")
    run.add_argument("--executor", default=None,
                     choices=["serial", "threads"],
                     help="block step-execution backend (threads split "
                          "each step's pair subproblems across workers, "
                          "bit-identical to serial; needs --block-size)")
    run.add_argument("--workers", type=int, default=None, metavar="W",
                     help="workers of --executor threads "
                          "(default: $REPRO_WORKERS or the usable CPU count)")
    run.add_argument("--sanitize", action="store_true",
                     help="arm the runtime sanitizer (write-set records + "
                          "sweep-boundary numeric canaries; needs "
                          "--block-size, incompatible with --fault)")
    run.add_argument("--max-sweeps", type=int, default=None, metavar="S",
                     help="outer sweep budget (exit 1 if exhausted without "
                          "convergence)")
    run.add_argument("--fault", default=None, metavar="KIND",
                     help="inject one fault of this kind (see 'faults' "
                          "subcommand) on the first remote move and recover")

    faults = sub.add_parser(
        "faults",
        help="run the registered chaos campaign (fault kinds x orderings "
             "x sizes) and print the survival matrix",
    )
    faults.add_argument("--quick", action="store_true",
                        help="n=8, scalar reference kernel only (the full "
                             "tier is the CI gate)")
    faults.add_argument("--seed", type=int, default=1234,
                        help="matrix seed of the campaign runs")
    faults.add_argument("--json", action="store_true",
                        help="emit machine-readable per-case outcomes")

    lint = sub.add_parser(
        "lint",
        help="statically verify schedules (races, deadlock, direction, "
             "coverage, restoration; plus link capacity with --topology)",
    )
    lint.add_argument("--ordering", action="append", default=None,
                      metavar="NAME", dest="orderings",
                      help="ordering to lint (repeatable; default: all registered)")
    lint.add_argument("--n", action="append", type=int, default=None,
                      metavar="N", dest="sizes",
                      help="problem size to lint at (repeatable; default: 8 16 32)")
    lint.add_argument("--topology", default=None,
                      help="enable deadlock and link-capacity checks on this "
                           "topology (default: structural checks only)")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON report")

    analyze = sub.add_parser(
        "analyze",
        help="statically verify the execution layer: compiled-plan "
             "integrity, executor chunking races/determinism, and "
             "fault-tolerance totality for every registered ordering",
    )
    analyze.add_argument("--ordering", action="append", default=None,
                         metavar="NAME", dest="orderings",
                         help="ordering to analyze (repeatable; "
                              "default: all registered)")
    analyze.add_argument("--n", action="append", type=int, default=None,
                         metavar="N", dest="sizes",
                         help="problem size to analyze at (repeatable; "
                              "default: 8 16 32)")
    analyze.add_argument("--workers", action="append", type=int, default=None,
                         metavar="W", dest="workers",
                         help="executor worker count to prove the chunking "
                              "for (repeatable; default: 1 2 4)")
    analyze.add_argument("--topology", default="perfect",
                         help="machine for the fault-tolerance totality "
                              "pass (default: perfect; 'none' disables it)")
    analyze.add_argument("--quick", action="store_true",
                         help="CI smoke matrix: n=8, workers 1 2")
    analyze.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON report")

    bench = sub.add_parser(
        "bench",
        help="time the named scenarios (kernels, parallel simulator, lint "
             "gate) and write a schema-versioned BENCH_<tag>.json",
    )
    bench.add_argument("--tag", default="local",
                       help="report tag; output file is BENCH_<tag>.json")
    bench.add_argument("--out", default=".", metavar="DIR",
                       help="directory the report is written to")
    bench.add_argument("--repeats", type=int, default=5,
                       help="measured repeats per scenario (median reported)")
    bench.add_argument("--warmup", type=int, default=1,
                       help="discarded warmup runs per scenario")
    bench.add_argument("--quick", action="store_true",
                       help="tiny problem sizes (CI smoke mode)")
    bench.add_argument("--scenario", action="append", default=None,
                       metavar="NAME", dest="scenarios",
                       help="run only this scenario (repeatable)")
    bench.add_argument("--filter", default=None, metavar="REGEX",
                       help="run only scenarios whose name matches this "
                            "regular expression (re.search; composes with "
                            "--scenario)")
    bench.add_argument("--json", action="store_true",
                       help="print the full report JSON to stdout")
    bench.add_argument("--compare", default=None, metavar="OLD.json",
                       help="compare against a previous report; exit 1 when "
                            "any shared scenario regressed")
    bench.add_argument("--max-slowdown", type=float, default=20.0,
                       metavar="PCT",
                       help="allowed per-scenario slowdown for --compare "
                            "(percent, default 20)")

    tune = sub.add_parser(
        "tune",
        help="search kernel x ordering x block size x executor x workers "
             "for one shape and persist the winner as a tuned profile "
             "(PROFILE_<host>.json)",
    )
    tune.add_argument("--m", type=int, default=96)
    tune.add_argument("--n", type=int, default=64)
    tune.add_argument("--batch", type=int, default=None, metavar="B",
                      help="tune the svd_batch path for batches of B "
                           "matrices (default: single-matrix svd)")
    tune.add_argument("--quick", action="store_true",
                      help="one candidate per axis and a short repeat "
                           "schedule (CI smoke mode)")
    tune.add_argument("--dry-run", action="store_true",
                      help="print the candidate space without timing "
                           "anything")
    tune.add_argument("--out", default=".", metavar="DIR",
                      help="directory the profile is written to")
    tune.add_argument("--host", default=None, metavar="TAG",
                      help="profile filename tag (default: this host's "
                           "sanitised node name)")
    tune.add_argument("--no-save", action="store_true",
                      help="search but do not write the profile")
    tune.add_argument("--check", action="store_true",
                      help="exit 1 unless the winner beats the default "
                           "configuration within --slack (the CI gate)")
    tune.add_argument("--slack", type=float, default=1.0, metavar="R",
                      help="--check passes when winner <= default * R "
                           "(default 1.0: strictly no slower)")
    tune.add_argument("--json", action="store_true",
                      help="emit the tune result as JSON")
    return p


def _harness():
    # deferred import: the harness lives in benchmarks/ for discoverability,
    # but the CLI must work from an installed package too, so the experiment
    # runners are resolved from repro.analysis directly
    import importlib.util
    import pathlib

    here = pathlib.Path(__file__).resolve()
    for candidate in (
        here.parents[2] / "benchmarks" / "harness.py",
        here.parents[3] / "benchmarks" / "harness.py",
    ):
        if candidate.exists():
            spec = importlib.util.spec_from_file_location("repro_harness", candidate)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            return mod.EXPERIMENTS
    raise RuntimeError("benchmarks/harness.py not found; run from the repository")


def _out_dir_problem(path: str) -> str | None:
    """Create the ``--out`` directory if it is missing; the one-line
    reason it cannot hold a report, or ``None``.  Called before any
    timing, so a bad path never discards a finished run."""
    import os

    if os.path.exists(path) and not os.path.isdir(path):
        return f"--out {path!r} is not a directory"
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return f"cannot create --out directory {path!r}: {exc}"
    return None


def _bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand body; returns a process exit code
    (0 clean, 1 regression vs --compare, 2 usage/validation error)."""
    import json
    import os
    import re

    from repro.bench import (
        build_report,
        compare_reports,
        default_scenarios,
        load_report,
        pin_blas_threads,
        render_report,
        run_scenario,
        validate_report,
        write_report,
    )

    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.tag):
        print(f"invalid tag {args.tag!r}: use letters, digits, . _ -")
        return 2
    if args.repeats < 1 or args.warmup < 0:
        print("need --repeats >= 1 and --warmup >= 0")
        return 2
    if args.max_slowdown <= 0:
        print("--max-slowdown must be a positive percentage")
        return 2
    problem = _out_dir_problem(args.out)
    if problem is not None:
        print(problem)
        return 2
    old = None
    if args.compare is not None:
        # fail on a bad baseline *before* spending time measuring
        try:
            old = load_report(args.compare)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.compare}: {exc}")
            return 2
        problems = validate_report(old)
        if problems:
            print(f"invalid report {args.compare}:")
            for msg in problems:
                print(f"  - {msg}")
            return 2

    scens = default_scenarios(quick=args.quick)
    if args.filter is not None:
        try:
            pat = re.compile(args.filter)
        except re.error as exc:
            print(f"invalid --filter regex {args.filter!r}: {exc}")
            return 2
        scens = [s for s in scens if pat.search(s.name)]
        if not scens:
            print(f"--filter {args.filter!r} matches no scenario")
            return 2
    if args.scenarios:
        by_name = {s.name: s for s in scens}
        unknown = [n for n in args.scenarios if n not in by_name]
        if unknown:
            print(f"unknown scenario(s) {unknown}; "
                  f"available: {', '.join(by_name)}")
            return 2
        scens = [by_name[n] for n in args.scenarios]

    # pin the BLAS pool so executor speedups are attributable to the
    # step executor, not to OpenBLAS's own threading
    pinned = pin_blas_threads(1)
    blas_threads = 1 if pinned is not None else None
    if not args.json and blas_threads is None:
        print("warning: no controllable BLAS pool found; timings unpinned",
              flush=True)
    records = []
    for s in scens:
        if not args.json:
            print(f"timing {s.name} ...", flush=True)
        records.append(run_scenario(s, repeats=args.repeats,
                                    warmup=args.warmup))
    doc = build_report(args.tag, records, repeats=args.repeats,
                       warmup=args.warmup, quick=args.quick,
                       blas_threads=blas_threads)
    path = os.path.join(args.out, f"BENCH_{args.tag}.json")
    write_report(doc, path)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_report(doc))
        print(f"wrote {path}")

    if old is not None:
        regressions, compared = compare_reports(
            old, doc, max_slowdown=args.max_slowdown / 100.0
        )
        if not compared:
            print(f"no shared scenarios with {args.compare}; nothing compared")
            return 0
        if regressions:
            print(f"PERF REGRESSION vs {args.compare} "
                  f"(> {args.max_slowdown:g}% slower):")
            for r in regressions:
                print(f"  {r['name']}: {r['old_wall_time_s'] * 1e3:.3f} ms -> "
                      f"{r['new_wall_time_s'] * 1e3:.3f} ms "
                      f"({r['ratio']:.2f}x)")
            return 1
        print(f"{len(compared)} scenario(s) compared against "
              f"{args.compare}: no regression")
    return 0


def _tune(args: argparse.Namespace) -> int:
    """The ``tune`` subcommand body; returns a process exit code
    (0 ok, 1 --check failed, 2 usage error)."""
    import dataclasses
    import json

    from repro.bench import pin_blas_threads
    from repro.tune import candidate_space, profile_path, save_profile, tune

    if args.m < 2 or args.n < 2 or args.m < args.n:
        print("need --m >= --n >= 2")
        return 2
    if args.batch is not None and args.batch < 1:
        print("--batch must be a positive matrix count")
        return 2
    if args.slack <= 0:
        print("--slack must be a positive ratio")
        return 2
    if not (args.dry_run or args.no_save):
        problem = _out_dir_problem(args.out)
        if problem is not None:
            print(problem)
            return 2

    candidates = candidate_space(args.m, args.n, args.batch,
                                 quick=args.quick)
    if args.dry_run:
        if args.json:
            print(json.dumps({
                "m": args.m, "n": args.n, "batch": args.batch,
                "quick": args.quick,
                "candidates": [c.options_dict() for c in candidates],
            }, indent=2))
        else:
            shape = f"{args.m}x{args.n}" + \
                (f" batch={args.batch}" if args.batch else "")
            print(f"candidate space for {shape} "
                  f"({len(candidates)} configuration(s)):")
            for c in candidates:
                print(f"  {c.label()}")
        return 0

    # same pinning discipline as bench: attributable medians
    pin_blas_threads(1)
    log = None if args.json else (lambda msg: print(f"  {msg}", flush=True))
    if not args.json:
        print(f"tuning {args.m}x{args.n}"
              + (f" batch={args.batch}" if args.batch else "")
              + f" over {len(candidates)} candidate(s) ...", flush=True)
    result = tune(args.m, args.n, args.batch, quick=args.quick,
                  candidates=candidates, log=log)
    path = None
    if not args.no_save:
        path = profile_path(args.out, args.host)
        save_profile(result, path, host=args.host)
    beats = result.winner_median_s <= result.default_median_s * args.slack
    if args.json:
        print(json.dumps({
            "m": result.m, "n": result.n, "batch": result.batch,
            "winner": result.winner.options_dict(),
            "winner_median_s": result.winner_median_s,
            "default_median_s": result.default_median_s,
            "speedup": result.speedup,
            "beats_default": beats,
            "profile": None if path is None else str(path),
            "trials": [
                {**dataclasses.asdict(t), "candidate": t.candidate.label()}
                for t in result.trials
            ],
        }, indent=2))
    else:
        print(f"winner: {result.winner.label()}  "
              f"{result.winner_median_s * 1e3:.2f} ms "
              f"(default {result.default_median_s * 1e3:.2f} ms, "
              f"{result.speedup:.2f}x)")
        if path is not None:
            print(f"wrote {path}")
    if args.check and not beats:
        print(f"TUNE CHECK FAILED: winner {result.winner_median_s * 1e3:.2f} "
              f"ms > default {result.default_median_s * 1e3:.2f} ms "
              f"* slack {args.slack:g}")
        return 1
    return 0


def _svd(args: argparse.Namespace) -> int:
    """The ``svd`` subcommand body; returns a process exit code (0 ok,
    1 non-converged result, 2 usage error)."""
    if args.kernel == "gram" and args.block_size is None:
        print("--kernel gram is a block kernel; pass --block-size B")
        return 2
    if args.kernel == "batched" and args.block_size is not None:
        print("--kernel batched is a scalar kernel; block mode runs gram "
              "or reference")
        return 2
    if args.block_size is not None and args.block_size < 1:
        print("--block-size must be a positive column count")
        return 2
    if args.executor is not None and args.block_size is None:
        print("--executor applies to block mode; pass --block-size B")
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1")
        return 2
    if args.workers is not None and args.block_size is None:
        print("--workers applies to block mode; pass --block-size B")
        return 2
    if args.max_sweeps is not None and args.max_sweeps < 1:
        print("--max-sweeps must be >= 1")
        return 2
    if args.sanitize and args.block_size is None:
        print("--sanitize applies to block mode; pass --block-size B")
        return 2
    if args.sanitize and args.fault is not None:
        print("--sanitize is for healthy runs; fault-injected runs use "
              "the recovery machinery's own detectors")
        return 2
    if args.batch is not None and args.batch < 1:
        print("--batch must be a positive matrix count")
        return 2
    if args.batch is not None and args.fault is not None:
        print("--batch runs the direct batch driver; fault injection is a "
              "machine-layer feature (drop --batch or --fault)")
        return 2
    options = None
    if args.sanitize:
        from repro.blockjacobi import BlockJacobiOptions

        options = BlockJacobiOptions(
            block_size=args.block_size, sanitize=True,
            **({"max_sweeps": args.max_sweeps}
               if args.max_sweeps is not None else {}))
    elif args.max_sweeps is not None:
        from repro.svd import JacobiOptions

        options = JacobiOptions(max_sweeps=args.max_sweeps)
    plan = None
    if args.fault is not None:
        from repro.faults.campaign import CampaignCase, single_fault_plan
        from repro.faults.plan import FAULT_KINDS

        if args.fault not in FAULT_KINDS:
            print(f"unknown fault kind {args.fault!r}; "
                  f"available: {', '.join(FAULT_KINDS)}")
            return 2
        try:
            plan = single_fault_plan(CampaignCase(
                args.ordering, args.fault, args.n,
                args.kernel or "reference", args.block_size))
        except ValueError as exc:
            print(f"cannot place a {args.fault!r} fault: {exc}")
            return 2
    rng = np.random.default_rng(args.seed)
    import warnings

    from repro.util.errors import ConvergenceWarning

    if args.batch is not None:
        from repro import svd_batch

        stack = rng.standard_normal((args.batch, args.m, args.n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            batch = svd_batch(stack, ordering=args.ordering,
                              kernel=args.kernel, block_size=args.block_size,
                              executor=args.executor, workers=args.workers,
                              options=options)
        print(f"batch of {len(batch)}: {batch.summary()}")
        print(f"elapsed={batch.elapsed_s:.3f}s "
              f"throughput={batch.matrices_per_sec:.1f} matrices/sec")
        # LAPACK spot check on a handful of items
        errs = []
        for i in {0, len(batch) // 2, len(batch) - 1}:
            ref = np.linalg.svd(stack[i], compute_uv=False)
            errs.append(float(np.max(np.abs(batch[i].sigma - ref)) / ref[0]))
        print(f"max relative sigma error vs LAPACK (spot check): "
              f"{max(errs):.2e}")
        if not batch.converged:
            print(f"NOT CONVERGED: {batch.n_items - batch.n_converged} of "
                  f"{batch.n_items} items")
            return 1
        return 0

    a = rng.standard_normal((args.m, args.n))
    with warnings.catch_warnings():
        # the CLI reports convergence explicitly (and via the exit code)
        warnings.simplefilter("ignore", ConvergenceWarning)
        if args.serial and plan is None:
            from repro import svd

            r = svd(a, ordering=args.ordering, kernel=args.kernel,
                    block_size=args.block_size, executor=args.executor,
                    workers=args.workers, options=options)
            print(f"converged={r.converged} sweeps={r.sweeps} "
                  f"rotations={r.rotations} sorted={r.emerged_sorted}")
        else:
            from repro import parallel_svd

            r, rep = parallel_svd(a, topology=args.topology,
                                  ordering=args.ordering, kernel=args.kernel,
                                  block_size=args.block_size,
                                  executor=args.executor,
                                  workers=args.workers,
                                  options=options, fault_plan=plan)
            print(f"converged={r.converged} sweeps={r.sweeps}")
            print(f"total={rep.total_time:.0f} compute={rep.compute_time:.0f} "
                  f"comm={rep.comm_time:.0f}")
            print(f"max contention={rep.max_contention:.2f} "
                  f"contention-free={rep.contention_free}")
            if plan is not None:
                from repro.machine.trace import render_fault_log

                print(f"recovery={rep.recovery_time:.0f} "
                      f"rollbacks={rep.rollbacks}")
                print(render_fault_log(r.fault_events))
    if not r.converged:
        print(f"NOT CONVERGED: {r.summary()}")
        return 1
    ref = np.linalg.svd(a, compute_uv=False)
    err = float(np.max(np.abs(r.sigma - ref)) / ref[0])
    print(f"max relative sigma error vs LAPACK: {err:.2e}")
    return 0


def _faults(args: argparse.Namespace) -> int:
    """The ``faults`` subcommand body; returns a process exit code
    (0 all cases survived, 1 any casualty)."""
    import dataclasses
    import json

    from repro.faults.campaign import render_survival_matrix, run_campaign

    progress = None
    if not args.json:
        tier = "quick" if args.quick else "full"
        print(f"running the {tier} chaos campaign ...", flush=True)

        def progress(o):
            mark = "ok " if o.survived else "FAIL"
            print(f"  {mark} {o.case.label}"
                  + (f"  ({o.detail})" if o.detail else ""), flush=True)

    outcomes = run_campaign(quick=args.quick, seed=args.seed,
                            progress=progress)
    ok = all(o.survived for o in outcomes)
    if args.json:
        print(json.dumps({
            "ok": ok,
            "quick": args.quick,
            "seed": args.seed,
            "cases": [
                {**dataclasses.asdict(o.case), "survived": o.survived,
                 "converged": o.converged, "rel_err": o.rel_err,
                 "overhead": o.overhead, "events": o.event_counts,
                 "detail": o.detail}
                for o in outcomes
            ],
        }, indent=2))
    else:
        print(render_survival_matrix(outcomes))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        from repro.machine.topology import TOPOLOGIES
        from repro.orderings import ordering_names

        print("figures:    ", " ".join(_FIGURES))
        print("tables:     ", " ".join(_TABLES))
        print("orderings:  ", " ".join(ordering_names()))
        print("topologies: ", " ".join(sorted(TOPOLOGIES)))
        return 0

    if args.command in ("figures", "tables"):
        experiments = _harness()
        allowed = _FIGURES if args.command == "figures" else _TABLES
        wanted = [i.upper() for i in args.ids] or list(allowed)
        for key in wanted:
            if key not in allowed:
                print(f"unknown id {key!r}; choose from {', '.join(allowed)}")
                return 2
            print(f"==== {key} " + "=" * (60 - len(key)))
            experiments[key]()
        return 0

    if args.command == "lint":
        import json

        from repro.machine.topology import TOPOLOGIES
        from repro.orderings import ordering_names
        from repro.verify import DEFAULT_SIZES, lint_registry

        if args.topology is not None and args.topology not in TOPOLOGIES:
            print(f"unknown topology {args.topology!r}; "
                  f"available: {', '.join(sorted(TOPOLOGIES))}")
            return 2
        unknown = set(args.orderings or []) - set(ordering_names())
        if unknown:
            print(f"unknown ordering(s) {sorted(unknown)}; "
                  f"available: {', '.join(ordering_names())}")
            return 2
        reports = lint_registry(
            names=args.orderings,
            sizes=tuple(args.sizes) if args.sizes else DEFAULT_SIZES,
            topology=args.topology,
        )
        ok = all(r.ok for r in reports)
        if args.json:
            print(json.dumps(
                {"ok": ok, "topology": args.topology,
                 "reports": [r.to_dict() for r in reports]},
                indent=2, default=str,
            ))
        else:
            for r in reports:
                print(r.render())
            n_err = sum(len(r.errors) for r in reports)
            n_warn = sum(len(r.warnings) for r in reports)
            print(f"{len(reports)} target(s): "
                  f"{'all clean' if ok else f'{n_err} error(s)'}, "
                  f"{n_warn} warning(s)")
        return 0 if ok else 1

    if args.command == "analyze":
        import json

        from repro.machine.topology import TOPOLOGIES
        from repro.orderings import ordering_names
        from repro.verify import ANALYZE_WORKERS, DEFAULT_SIZES, analyze_registry

        topology = None if args.topology == "none" else args.topology
        if topology is not None and topology not in TOPOLOGIES:
            print(f"unknown topology {topology!r}; "
                  f"available: {', '.join(sorted(TOPOLOGIES))} (or 'none')")
            return 2
        unknown = set(args.orderings or []) - set(ordering_names())
        if unknown:
            print(f"unknown ordering(s) {sorted(unknown)}; "
                  f"available: {', '.join(ordering_names())}")
            return 2
        if args.workers and any(w < 1 for w in args.workers):
            print("--workers must be >= 1")
            return 2
        reports = analyze_registry(
            names=args.orderings,
            sizes=tuple(args.sizes) if args.sizes else DEFAULT_SIZES,
            topology=topology,
            workers=tuple(args.workers) if args.workers else ANALYZE_WORKERS,
            quick=args.quick,
        )
        ok = all(r.ok for r in reports)
        if args.json:
            print(json.dumps(
                {"ok": ok, "topology": topology, "quick": args.quick,
                 "reports": [r.to_dict() for r in reports]},
                indent=2, default=str,
            ))
        else:
            for r in reports:
                print(r.render())
            n_err = sum(len(r.errors) for r in reports)
            n_warn = sum(len(r.warnings) for r in reports)
            print(f"{len(reports)} target(s): "
                  f"{'all clean' if ok else f'{n_err} error(s)'}, "
                  f"{n_warn} warning(s)")
        return 0 if ok else 1

    if args.command == "bench":
        return _bench(args)

    if args.command == "faults":
        return _faults(args)

    if args.command == "tune":
        return _tune(args)

    if args.command == "svd":
        return _svd(args)

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
