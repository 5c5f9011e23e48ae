"""End-to-end benchmark of the repro SVD library.

Runs each workload of workloads.py as a closed loop (one client, one op
in flight) in its own fresh interpreter, checks every op against LAPACK,
and prints the end-to-end metrics; a separate traced run gives the
per-layer self times and counts.  Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 2024 --out e2e-out
    python3 benchmarks/e2e/run.py --workload solo-tall --seed 1 --seconds 10 --trace 0

``--trace 0`` measures only the end-to-end metrics, ``--trace 1`` only
the per-layer ones, and no ``--trace`` both.  The last line of output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
more than one workload the metric names are prefixed ``<workload>/``.
Exit codes: 0 on a finished run (failed ops included), 2 on bad
arguments or missing sources, 1 when a benchmark process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from spans import SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters timed for ``setup_s`` per workload
SETUP_PROCS = 7
#: BLAS pinned to one thread in every benchmark process
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150

#: ``(name, unit, better)`` of the end-to-end metrics BENCHMARK.json
#: bounds; they make up the result line
END_TO_END = (
    ("latency_p50_s", "s", "lower"),
    ("items_per_s", "matrices/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: end-to-end metrics that are printed but carry no bound: the p90
#: spreads 16-37% between runs on a shared host, above the largest
#: bound a metric may have, and the error rate is 0 on a correct build
REPORTED = (
    ("latency_p90_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics (per op unless noted)
PER_LAYER = (
    *((f"{s}.self_s", "s", "lower") for s in SPANS),
    *((f"{s}.calls", "count", "lower") for s in SPANS),
    ("setup.import_s", "s", "lower"),
    *((f"setup.{s}.self_s", "s", "lower") for s in SPANS),
    ("orderings.plan.hit_ratio", "ratio", "higher"),
    ("orderings.plan.misses", "count", "lower"),
    ("blockjacobi.kernel.gflop", "gflop", "lower"),
    ("blockjacobi.kernel.gflops", "gflop/s", "higher"),
    ("blockjacobi.kernel.fallbacks", "count", "lower"),
    ("eig.inner_sweeps", "count", "lower"),
    ("eig.useful_rotation_ratio", "ratio", "higher"),
    ("svd.rotations.applied", "count", "lower"),
    ("core.result.sweeps", "count", "lower"),
    ("core.result.rotations", "count", "lower"),
    ("machine.simulator.fast_sweep_ratio", "ratio", "higher"),
    ("machine.costmodel.model_time", "model-units", "lower"),
    ("machine.costmodel.messages", "count", "lower"),
    ("machine.costmodel.max_contention", "ratio", "lower"),
    ("process.cpu_per_wall", "ratio", "higher"),
    ("process.trace_overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.op_wall_s", "s", "lower"),
)


class HarnessError(RuntimeError):
    """A benchmark process failed; the run has no result."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples``; refuses when fewer
    than 10 samples lie beyond it (so p90 needs at least 100)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{round(q * 100)} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it; need 10")
    return ordered[rank - 1]


def child_env() -> dict[str, str]:
    """The benchmark processes' environment: no ``REPRO_*`` variable (each
    can switch the code path being measured), BLAS pinned, ``src`` first
    on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def host_stamp() -> dict:
    try:
        # the ceiling keeps git from finding a repository above the root
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_head": head,
            "blas_env": BLAS_PINS}


def run_child(mode: str, workload: str, args, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.out is not None:
        cmd += ["--out", str(args.out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} {workload}: no result within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} {workload}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(wl, setups: list[dict], load: dict) -> dict[str, float]:
    p50 = statistics.median(load["latencies"])
    return {
        "latency_p50_s": p50,
        "latency_p90_s": percentile(load["latencies"], 0.9),
        "items_per_s": wl.items / p50,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": load["peak_rss_mb"],
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end SVD benchmark (closed loop, LAPACK-checked).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and "
                             "<workload>.trace.json")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def check_out(out: Path) -> str | None:
    """Why ``out`` cannot take the results, or None when it can."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=out):
            pass
    except OSError as exc:
        return f"--out {out}: {exc.strerror or exc}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.out is not None:
        problem = check_out(args.out)
        if problem:
            print(f"e2e: {problem}", file=sys.stderr)
            return 2
        args.out = args.out.resolve()
    names = [args.workload] if args.workload else list(WORKLOADS)
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    stamp = host_stamp()

    setups: dict[str, list[dict]] = {w: [] for w in names}
    loads: dict[str, dict] = {}
    traces: dict[str, dict] = {}
    try:
        if want_e2e:
            for _ in range(SETUP_PROCS):  # interleaved across workloads
                for w in names:
                    setups[w].append(run_child("setup", w, args, SETUP_TIMEOUT_S))
            for w in names:
                loads[w] = run_child("load", w, args, RUN_TIMEOUT_S)
        if want_layers:
            for w in names:
                traces[w] = run_child("trace", w, args, RUN_TIMEOUT_S)
    except HarnessError as exc:
        print(f"e2e: harness error: {exc}", file=sys.stderr)
        return 1

    units = {name: unit for name, unit, _ in END_TO_END + REPORTED + PER_LAYER}
    unbounded = {name for name, _, _ in REPORTED}
    report: dict[str, dict] = {}
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for w in names:
        runs = setups[w] + [r for r in (loads.get(w), traces.get(w)) if r]
        w_attempted = sum(r["attempted"] for r in runs)
        w_failed = sum(r["failed"] for r in runs)
        attempted += w_attempted
        failed += w_failed
        values = {"error_rate": w_failed / w_attempted}
        if want_e2e:
            values.update(end_to_end(WORKLOADS[w], setups[w], loads[w]))
        if want_layers:
            values.update(traces[w]["metrics"])
        prefix = f"{w}/" if len(names) > 1 else ""
        for name, value in values.items():
            if name not in unbounded:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
        child = loads.get(w) or traces[w]
        stamp.update(numpy=child["numpy"], blas_threads=child["blas_threads"])
        report[w] = {
            "why": WORKLOADS[w].why,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            "measured_ops": len(loads[w]["latencies"]) if w in loads else None,
            "failures": [f for r in runs for f in r["failures"]],
            "missing_sites": traces[w]["missing_sites"] if w in traces else None,
        }

    print(f"host: cpus={stamp['cpus']} python={stamp['python']} "
          f"numpy={stamp['numpy']} blas_threads={stamp['blas_threads']} "
          f"git={stamp['git_head']} seed={args.seed}")
    for w, r in report.items():
        print(f"{w}: {len(r['failures'])} failures, "
              f"measured_ops={r['measured_ops']}")
        for f in r["failures"][:5]:
            print(f"  failure: op {f['op']} item {f['item']}: {f['reason']} "
                  f"({f['value']})")
        if r["missing_sites"]:
            print(f"  missing sites: {', '.join(r['missing_sites'])}")
        for name, m in r["metrics"].items():
            note = "  (no bound)" if name in unbounded else ""
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    if args.out is not None:
        with open(args.out / "results.json", "w", encoding="utf-8") as fh:
            json.dump({"host": stamp, "seed": args.seed, "seconds": args.seconds,
                       "workloads": report}, fh, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
