"""Step executors: how one schedule step's independent work is run.

The paper's orderings make every step *embarrassingly parallel*: the
block pairs met in one step occupy disjoint column sets, so their local
subproblems are independent.  The simulator charges that parallelism to
the cost model; this module adds the real thing — a
:class:`StepExecutor` abstraction whose backends run a step's
independent work items in the calling thread or across OS threads
sharing the column buffer.

Backends
--------
``serial``
    Everything in the calling thread; the reference behaviour.
``threads``
    A reused :class:`~concurrent.futures.ThreadPoolExecutor`.  Numpy's
    GEMMs drop the GIL, so the BLAS-3 phases of the gram kernel (and the
    per-pair reference solves) can overlap on multicore hosts.

Determinism contract
--------------------
Results are **bit-identical to serial for any worker count**.  Three
rules make that hold by construction:

1. *Disjoint writes.*  A work item writes only its own columns (the
   schedule's step pairs are disjoint); chunks of a batched phase write
   only their own slice of a preallocated output.  No write is ever
   shared, so memory order cannot matter.
2. *Identical per-item arithmetic.*  Chunking only splits the batch
   dimension of batched GEMMs (each 2D GEMM in the batch is unchanged)
   or the loop over independent pairs; no floating-point operation is
   reassociated.  Coupled reductions — notably the inner Gram Jacobi,
   whose convergence floor couples matrices across the batch — are
   *never* chunked (see
   :func:`repro.blockjacobi.kernel.solve_block_step`).
3. *Deterministic reduction.*  Convergence statistics are merged in
   chunk order, and the first exception (by chunk index, not by wall
   clock) is the one re-raised, mirroring the serial loop's semantics.

Worker and backend defaults resolve from the environment
(``REPRO_EXECUTOR``, ``REPRO_WORKERS``) so a whole test run can be
switched onto another backend without code changes.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from ..util.validation import require

__all__ = [
    "EXECUTORS",
    "SerialExecutor",
    "StepExecutor",
    "ThreadStepExecutor",
    "default_executor_name",
    "default_workers",
    "resolve_executor",
    "usable_cpu_count",
]

#: registered executor backends, in robustness order
EXECUTORS = ("serial", "threads")

T = TypeVar("T")


def unknown_executor_message(name: object) -> str:
    """The error text for an unrecognised backend name."""
    return f"unknown executor {name!r}; available: {', '.join(EXECUTORS)}"


def default_executor_name() -> str:
    """Backend used when none is requested: ``$REPRO_EXECUTOR`` or serial."""
    name = os.environ.get("REPRO_EXECUTOR", "serial").strip() or "serial"
    require(name in EXECUTORS,
            f"REPRO_EXECUTOR={name!r} is not one of {', '.join(EXECUTORS)}")
    return name


def usable_cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    exposes one, else the machine's CPU count; at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count when none is requested: ``$REPRO_WORKERS`` or the
    usable CPU count."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        workers = int(env)
        require(workers >= 1, f"REPRO_WORKERS must be >= 1, got {env!r}")
        return workers
    return usable_cpu_count()


class StepExecutor:
    """Runs the independent work of one schedule step.

    ``run_chunks(n_items, fn)`` partitions ``range(n_items)`` into at
    most :attr:`workers` contiguous chunks and calls ``fn(lo, hi)`` for
    each, returning the per-chunk results **in chunk order**.  The
    partition depends only on ``(n_items, workers)``, never on timing.
    Exceptions are collected and the lowest-chunk one re-raised after
    all chunks settle, so a failure is deterministic too.
    """

    name: str = "abstract"
    workers: int = 1
    #: optional :class:`~repro.verify.sanitize.RuntimeSanitizer`; when
    #: armed, every dispatch reports its actual chunk bounds so the
    #: sanitizer can cross-check them against the static chunking
    sanitizer = None

    def run_chunks(self, n_items: int,
                   fn: Callable[[int, int], T]) -> list[T]:
        raise NotImplementedError

    def _note_dispatch(self, n_items: int,
                       bounds: list[tuple[int, int]]) -> None:
        """Report the bounds about to be dispatched to the sanitizer."""
        san = self.sanitizer
        if san is not None:
            san.note_dispatch(n_items, bounds)

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "StepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def chunk_bounds(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
        """Contiguous ``(lo, hi)`` bounds covering ``range(n_items)``.

        At most ``n_chunks`` chunks, never an empty one; sizes differ by
        at most one, larger chunks first — a pure function of its
        arguments.  Degenerate inputs fail loudly: ``n_items`` must be a
        non-negative integer and ``n_chunks`` a positive one (a request
        for zero or negative chunks is a caller bug, not a smaller
        partition).  ``n_chunks > n_items`` clamps to one item per chunk,
        and zero items yield zero chunks — never silent empty chunks.
        """
        n_items = operator.index(n_items)
        n_chunks = operator.index(n_chunks)
        require(n_items >= 0,
                f"n_items must be >= 0, got {n_items!r}")
        require(n_chunks >= 1,
                f"n_chunks must be >= 1, got {n_chunks!r}")
        if n_items == 0:
            return []
        n_chunks = min(n_chunks, n_items)
        q, r = divmod(n_items, n_chunks)
        bounds = []
        lo = 0
        for i in range(n_chunks):
            hi = lo + q + (1 if i < r else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds


class SerialExecutor(StepExecutor):
    """Everything in the calling thread, one chunk — the reference path."""

    name = "serial"
    workers = 1

    def run_chunks(self, n_items: int,
                   fn: Callable[[int, int], T]) -> list[T]:
        if n_items <= 0:
            return []
        self._note_dispatch(n_items, [(0, n_items)])
        return [fn(0, n_items)]


class ThreadStepExecutor(StepExecutor):
    """Chunks dispatched to a reused thread pool sharing the buffers.

    The pool is created lazily on first use and reused across steps and
    sweeps of a run (thread spin-up would otherwise dominate the small
    steps).  Call :meth:`close` (or use as a context manager) when the
    run finishes.
    """

    name = "threads"

    def __init__(self, workers: int | None = None):
        workers = default_workers() if workers is None else int(workers)
        require(workers >= 1, f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def run_chunks(self, n_items: int,
                   fn: Callable[[int, int], T]) -> list[T]:
        if n_items <= 0:
            return []
        bounds = self.chunk_bounds(n_items, self.workers)
        self._note_dispatch(n_items, bounds)
        if len(bounds) == 1:
            return [fn(0, n_items)]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-step")
        futures = [self._pool.submit(fn, lo, hi) for lo, hi in bounds]
        results: list[T] = []
        error: BaseException | None = None
        for fut in futures:  # chunk order, not completion order
            try:
                results.append(fut.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def resolve_executor(
    executor: "str | StepExecutor | None" = None,
    workers: int | None = None,
) -> StepExecutor:
    """Build (or pass through) the executor for a run.

    ``executor`` may be a backend name from :data:`EXECUTORS`, an
    existing :class:`StepExecutor` (returned as-is; ``workers`` must
    then be ``None``), or ``None`` for the environment default.  The
    caller owns the result and should :meth:`~StepExecutor.close` it.

    Unknown names raise ``ValueError`` listing the registered backends.
    """
    if isinstance(executor, StepExecutor):
        require(workers is None,
                "pass workers when naming a backend, not with an instance")
        return executor
    name = default_executor_name() if executor is None else executor
    require(name in EXECUTORS, unknown_executor_message(name))
    if workers is not None:
        require(workers >= 1, f"workers must be >= 1, got {workers!r}")
    if name == "serial":
        return SerialExecutor()
    return ThreadStepExecutor(workers)
