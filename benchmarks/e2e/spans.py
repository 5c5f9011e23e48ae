"""Span tracer that times the library's layers from outside.

The tracer wraps the public functions at each layer boundary of
``repro`` (listed in :data:`SITES`) with a timing shim, so a traced run
needs no instrumentation inside ``src/``.  A module-level
``from x import f`` binds its own reference to ``f``, so every binding
of a wrapped function in any loaded ``repro`` module is patched, and
methods are patched on their class.

Each call records one event ``(span, parent span, op id, start,
duration, time spent in child spans)``; the events stay in memory and
are summarised per op (self time = duration minus child time) or
exported in the Chrome trace-event format.  Hooks read counts from
arguments and return values at the same boundaries.  A site that no
longer exists (the function moved or was renamed) is reported in
:attr:`Tracer.missing_sites` instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

#: layer spans in report order
SPANS = (
    "core.api",
    "svd.hestenes",
    "blockjacobi.driver",
    "parallel.driver",
    "orderings.build",
    "orderings.plan",
    "blockjacobi.kernel",
    "eig",
    "svd.rotations",
    "svd.convergence",
    "machine.simulator",
    "machine.routing",
    "machine.costmodel",
)


def _gemm_flop(nb: int, k: int, rows: int) -> float:
    """Flop of ``nb`` stacked ``(k x rows) @ (rows x k)`` products."""
    return 2.0 * nb * k * k * rows


def _block_step_hook(tr: "Tracer", args, kwargs, out) -> None:
    # solve_block_step(X, V, pair_cols, tol, sort, inner_sweeps, kernel, ...)
    kernel = args[6] if len(args) > 6 else kwargs.get("kernel", "gram")
    stats, _ = out
    tr.counts["kernel.fallbacks"] += stats.fallbacks
    if kernel != "gram" or len(args[2]) == 0:
        return
    X, V, pair_cols = args[0], args[1], args[2]
    nb, k, m = len(pair_cols), len(pair_cols[0]), X.shape[0]
    flop = _gemm_flop(nb, k, m)
    if stats.applied:
        flop += _gemm_flop(nb, k, m + (V.shape[0] if V is not None else 0))
    tr.counts["kernel.flop"] += flop


def _block_batch_hook(tr: "Tracer", args, kwargs, out) -> None:
    # solve_block_step_batch(Xs, Vs, items, pair_cols, tol, sort,
    #                        inner_sweeps, kernel, ...)
    kernel = args[7] if len(args) > 7 else kwargs.get("kernel", "gram")
    Xs, Vs, items, pair_cols = args[0], args[1], args[2], args[3]
    if kernel != "gram" or len(pair_cols) == 0 or len(items) == 0:
        return
    applied, _ = out
    nb, k, m = len(pair_cols), len(pair_cols[0]), Xs.shape[1]
    rows = m + (Vs.shape[2] if Vs is not None else 0)
    tr.counts["kernel.flop"] += (_gemm_flop(len(items) * nb, k, m)
                                 + _gemm_flop(int((applied > 0).sum()) * nb,
                                              k, rows))


def _fastpath_hook(tr: "Tracer", args, kwargs, out) -> None:
    # fastpath_gram_step(XT, VT, row_of_col, cols_arr, ...)
    XT, VT, cols = args[0], args[1], args[3]
    nb, k, m = len(cols), len(cols[0]), XT.shape[1]
    flop = _gemm_flop(nb, k, m)
    if out[0].applied:
        flop += _gemm_flop(nb, k, m + (VT.shape[1] if VT is not None else 0))
    tr.counts["kernel.flop"] += flop


def _eigh_batched_hook(tr: "Tracer", args, kwargs, out) -> None:
    nb, k = args[0].shape[0], args[0].shape[1]
    _, rotations, sweeps, _ = out
    tr.counts["eig.sweeps"] += sweeps
    tr.counts["eig.rotations"] += rotations
    tr.counts["eig.slots"] += sweeps * nb * k * (k - 1) // 2


def _eigh_grouped_hook(tr: "Tracer", args, kwargs, out) -> None:
    k = args[0].shape[1]
    group = kwargs.get("group_size", args[4] if len(args) > 4 else 1)
    _, rotations, sweeps, _ = out
    tr.counts["eig.sweeps"] += int(sweeps.sum())
    tr.counts["eig.rotations"] += int(rotations.sum())
    tr.counts["eig.slots"] += int(sweeps.sum()) * group * k * (k - 1) // 2


def _rotations_hook(tr: "Tracer", args, kwargs, out) -> None:
    tr.counts["rotations.applied"] += out[0].applied


def _run_sweep_hook(tr: "Tracer", args, kwargs, out) -> None:
    tr.counts["sim.sweeps"] += 1
    tr.counts["sim.fast_sweeps"] += args[0].last_sweep_path == "fast"


def _api_hook(tr: "Tracer", args, kwargs, out) -> None:
    if tr._stack:  # a nested public call (scalar svd_batch loops svd)
        return
    report = None
    if isinstance(out, tuple):  # parallel_svd -> (result, report)
        out, report = out
    results = getattr(out, "results", [out])  # BatchResult or SVDResult
    tr.counts["result.items"] += len(results)
    tr.counts["result.sweeps"] += sum(r.sweeps for r in results)
    tr.counts["result.rotations"] += sum(r.rotations for r in results)
    if report is not None:
        tr.counts["model.time"] += report.total_time
        tr.counts["model.messages"] += sum(s.total_messages
                                           for s in report.sweep_stats)
        tr.counts["model.max_contention"] = max(
            tr.counts["model.max_contention"], report.max_contention)


Hook = Callable[["Tracer", tuple, dict, object], None]

#: ``(span, module, qualified name, hook)`` of every wrapped site
SITES: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("core.api", "repro.core.api", "svd", _api_hook),
    ("core.api", "repro.core.api", "svd_batch", _api_hook),
    ("core.api", "repro.core.api", "parallel_svd", _api_hook),
    ("svd.hestenes", "repro.svd.hestenes", "jacobi_svd", None),
    ("blockjacobi.driver", "repro.blockjacobi.driver", "block_jacobi_svd", None),
    ("blockjacobi.driver", "repro.blockjacobi.driver",
     "block_jacobi_svd_batch", None),
    ("parallel.driver", "repro.parallel.driver",
     "ParallelJacobiSVD.compute", None),
    ("orderings.build", "repro.orderings.base", "Ordering.sweep", None),
    ("orderings.plan", "repro.orderings.plan", "compile_schedule", None),
    ("blockjacobi.kernel", "repro.blockjacobi.kernel", "solve_block_step",
     _block_step_hook),
    ("blockjacobi.kernel", "repro.blockjacobi.kernel",
     "solve_block_step_batch", _block_batch_hook),
    ("blockjacobi.kernel", "repro.blockjacobi.kernel", "fastpath_gram_step",
     _fastpath_hook),
    ("eig", "repro.eig.jacobi", "gram_eigh_batched", _eigh_batched_hook),
    ("eig", "repro.eig.jacobi", "gram_eigh_grouped", _eigh_grouped_hook),
    ("svd.rotations", "repro.svd.rotations", "apply_step_rotations",
     _rotations_hook),
    ("svd.rotations", "repro.svd.rotations", "apply_step_rotations_batched",
     _rotations_hook),
    ("svd.convergence", "repro.svd.convergence", "off_norm", None),
    ("machine.simulator", "repro.machine.simulator", "TreeMachine.run_sweep",
     _run_sweep_hook),
    ("machine.simulator", "repro.machine.simulator", "TreeMachine.load", None),
    ("machine.routing", "repro.machine.routing", "route_moves", None),
    ("machine.routing", "repro.machine.routing", "route_phase", None),
    ("machine.costmodel", "repro.machine.costmodel", "CostModel.comm_time",
     None),
    ("machine.costmodel", "repro.machine.costmodel", "CostModel.compute_time",
     None),
)


class Tracer:
    """Wraps the sites of ``sites`` once; :meth:`install` switches the
    wrappers in, :meth:`uninstall` restores the originals."""

    def __init__(self, sites: Iterable[tuple] = SITES,
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op = -1
        #: ``(span, parent, op, start, duration, child time)`` per call
        self.events: list[tuple[str, str | None, int, float, float, float]] = []
        self.counts: Counter = Counter()
        self.missing_sites: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for span, module, qualname, hook in sites:
            self._resolve(span, module, qualname, hook)

    def _resolve(self, span: str, module: str, qualname: str,
                 hook: Hook | None) -> None:
        site = f"{module}:{qualname}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.missing_sites.append(site)
            return
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.missing_sites.append(site)
            return
        wrapper = self._wrap(fn, span, hook)
        if path:  # a method: patch the class attribute
            self._patches.append((owner, attr, fn, wrapper))
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, fn, wrapper))

    def _wrap(self, fn, span: str, hook: Hook | None):
        clock = self.clock
        stack = self._stack
        events = self.events

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                events.append((span, parent, self.op, t0, dur, frame[1]))
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def summary(self, ops: set[int]) -> dict[str, tuple[float, int]]:
        """``{span: (self seconds, calls)}`` summed over the ops ``ops``."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span, _, op, _, dur, child in self.events:
            if op in ops:
                acc = out[span]
                acc[0] += dur - child
                acc[1] += 1
        return {span: (v[0], v[1]) for span, v in out.items()}

    def write_chrome_trace(self, path) -> None:
        """Write the events in Chrome trace-event format (complete
        events, microseconds from the first event)."""
        origin = min((e[3] for e in self.events), default=0.0)
        trace = {
            "displayTimeUnit": "ms",
            "otherData": {"missing_sites": self.missing_sites},
            "traceEvents": [
                {"name": span, "cat": "span", "ph": "X", "pid": 1, "tid": 1,
                 "ts": (t0 - origin) * 1e6, "dur": dur * 1e6,
                 "args": {"parent": parent, "op": op,
                          "self_us": (dur - child) * 1e6}}
                for span, parent, op, t0, dur, child in self.events
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
