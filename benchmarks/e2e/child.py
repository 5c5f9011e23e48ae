"""One benchmark process, started by run.py in a fresh interpreter.

Modes:

``setup``  time ``import repro`` plus the first, cold op;
``load``   the closed loop: 3 warm-up ops, then measured ops until both
           ``MIN_OPS`` ops and ``--seconds`` have passed;
``trace``  the traced run: a traced cold op and 2 warm-up ops, then
           pairs of one untraced and one traced op until both
           ``MIN_TRACED`` pairs and ``--seconds`` have passed.

Every op is checked against LAPACK outside its timer.  The process
prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

#: measured ops of the load loop; the 90th percentile then has 10
#: samples beyond it
MIN_OPS = 100
#: traced (and as many interleaved untraced) ops of the traced run
MIN_TRACED = 30
WARMUP = 3


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS pool (None if not found)."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class Loop:
    """Issues each op on a fresh seeded input and checks it against LAPACK."""

    def __init__(self, repro, workload, rng):
        self.repro = repro
        self.workload = workload
        self.rng = rng
        self.attempted = 0
        self.failures: list[dict] = []

    def op(self) -> tuple[float, float]:
        """Run and check one op; returns its (wall, cpu) seconds."""
        import gate

        i = self.attempted
        x = self.workload.make(self.rng)
        ref = gate.reference(x)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.repro, x)
        except Exception as exc:  # a failed op is data, not a harness error
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            self.failures.append({"op": i, "item": None, "reason": "exception",
                                  "value": f"{type(exc).__name__}: {exc}"})
        else:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            for item, reason, value in gate.check(x, ref, out):
                # NaN is not JSON; keep it readable
                self.failures.append({"op": i, "item": item, "reason": reason,
                                      "value": value if value == value else "nan"})
        self.attempted += 1
        return wall, cpu

    def result(self) -> dict:
        return {"attempted": self.attempted,
                "failed": len({f["op"] for f in self.failures}),
                "failures": self.failures}


def _setup(repro, wl, rng, import_s: float) -> dict:
    loop = Loop(repro, wl, rng)
    cold, _ = loop.op()
    return {"setup_s": import_s + cold, "import_s": import_s, **loop.result()}


def _load(repro, wl, rng, seconds: float) -> dict:
    import resource

    loop = Loop(repro, wl, rng)
    for _ in range(WARMUP):
        loop.op()
    latencies = []
    start = time.perf_counter()
    while len(latencies) < MIN_OPS or time.perf_counter() - start < seconds:
        latencies.append(loop.op()[0])
    return {"latencies": latencies,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **loop.result()}


def _trace(repro, wl, rng, seconds: float, import_s: float,
           out_dir: str | None) -> dict:
    import statistics

    from repro.orderings.plan import plan_cache_stats

    from spans import SPANS, Tracer

    tracer = Tracer()
    loop = Loop(repro, wl, rng)

    def traced_op() -> float:
        tracer.op = loop.attempted
        tracer.install()
        try:
            return loop.op()[0]
        finally:
            tracer.uninstall()

    traced_op()  # the cold op: set-up
    setup = tracer.summary({0})
    for _ in range(WARMUP - 1):
        traced_op()
    tracer.counts.clear()
    before = plan_cache_stats()
    traced: dict[int, float] = {}
    plain: list[tuple[float, float]] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        plain.append(loop.op())
        op_id = loop.attempted
        traced[op_id] = traced_op()
    after = plan_cache_stats()

    n = len(traced)
    spans = tracer.summary(set(traced))
    metrics: dict[str, float] = {}
    for span in SPANS:
        self_s, calls = spans.get(span, (0.0, 0))
        metrics[f"{span}.self_s"] = self_s / n
        metrics[f"{span}.calls"] = calls / n
    metrics["setup.import_s"] = import_s
    for span in SPANS:
        metrics[f"setup.{span}.self_s"] = setup.get(span, (0.0, 0))[0]

    c = tracer.counts
    hits = (after.hits - before.hits) + (after.instance_hits - before.instance_hits)
    misses = after.misses - before.misses
    kernel_s = spans.get("blockjacobi.kernel", (0.0, 0))[0]
    metrics.update({
        "orderings.plan.hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "orderings.plan.misses": misses / (n + len(plain)),
        "blockjacobi.kernel.gflop": c["kernel.flop"] / 1e9 / n,
        "blockjacobi.kernel.gflops": c["kernel.flop"] / 1e9 / kernel_s if kernel_s else 0.0,
        "blockjacobi.kernel.fallbacks": c["kernel.fallbacks"] / n,
        "eig.inner_sweeps": c["eig.sweeps"] / n,
        "eig.useful_rotation_ratio": (c["eig.rotations"] / c["eig.slots"]
                                      if c["eig.slots"] else 0.0),
        "svd.rotations.applied": c["rotations.applied"] / n,
        "core.result.sweeps": c["result.sweeps"] / max(1, c["result.items"]),
        "core.result.rotations": c["result.rotations"] / max(1, c["result.items"]),
        "machine.simulator.fast_sweep_ratio": (c["sim.fast_sweeps"] / c["sim.sweeps"]
                                               if c["sim.sweeps"] else 0.0),
        "machine.costmodel.model_time": c["model.time"] / n,
        "machine.costmodel.messages": c["model.messages"] / n,
        "machine.costmodel.max_contention": c["model.max_contention"],
        "process.cpu_per_wall": (sum(cpu for _, cpu in plain)
                                 / sum(wall for wall, _ in plain)),
        "process.trace_overhead": (statistics.median(traced.values())
                                   / statistics.median(w for w, _ in plain) - 1.0),
        "trace.unattributed_s": (sum(traced.values())
                                 - sum(s for s, _ in spans.values())) / n,
        "trace.op_wall_s": sum(traced.values()) / n,
    })
    if out_dir is not None:
        tracer.write_chrome_trace(Path(out_dir) / f"{wl.name}.trace.json")
    return {"metrics": metrics, "missing_sites": tracer.missing_sites,
            "traced_ops": n, "untraced_ops": len(plain), **loop.result()}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "load", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro
    import_s = time.perf_counter() - t0

    import numpy as np

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    if args.mode == "setup":
        result = _setup(repro, wl, rng, import_s)
    elif args.mode == "load":
        result = _load(repro, wl, rng, args.seconds)
    else:
        result = _trace(repro, wl, rng, args.seconds, import_s, args.out)
    result.update(numpy=np.__version__, blas_threads=_blas_threads())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
