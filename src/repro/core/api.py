"""Top-level convenience API.

``svd`` is the one-call entry point a downstream user wants: pick an
ordering (default: the paper's fat-tree ordering), pad to an admissible
width if needed, run the one-sided Jacobi iteration, strip the padding.
``parallel_svd`` does the same on a simulated tree machine and returns
the execution telemetry alongside the decomposition.  Both accept
``block_size=b`` to run at block granularity (``b`` columns per
schedule unit, BLAS-3 gram kernel by default); block ``svd`` and
``svd_batch`` first reduce each matrix to an n×n triangular factor
with two QRs (:func:`_precondition`).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..blockjacobi.driver import BlockJacobiOptions, block_jacobi_svd_batch
from ..blockjacobi.kernel import BLOCK_KERNELS
from ..machine.costmodel import CostModel
from ..orderings.base import Ordering
from ..orderings.plan import PlanCacheStats, plan_cache_stats
from ..parallel.distribution import (next_admissible_width, pad_columns,
                                     strip_padding)
from ..parallel.driver import ParallelJacobiSVD, ParallelRunReport
from ..svd.hestenes import JacobiOptions, jacobi_svd
from ..util.validation import (as_float_matrix, as_float_stack, require,
                               require_finite)
from .result import BatchResult, SVDResult
from .scaling import range_scale, range_unscale

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan

__all__ = ["parallel_svd", "svd", "svd_batch"]


def _require_tall(shape: tuple[int, ...]) -> None:
    """Reject wide input before any padding: the ``n - m`` null
    directions of a wide matrix never pass the relative threshold."""
    m, n = shape[-2:]
    require(m >= n, f"expect m >= n (got {(m, n)}); pass a.T for wide "
                    "matrices")


def _needs_power_of_two(ordering: str | Ordering) -> bool:
    name = ordering if isinstance(ordering, str) else ordering.name
    return name in ("fat_tree", "llb", "hybrid")


def _profile_fill(
    profile: "str | Mapping | None",
    m: int,
    n: int,
    batch: int | None,
    default_ordering: str,
    ordering: "str | Ordering | None",
    options,
    kernel: str | None,
    block_size: int | None,
    executor: str | None,
    workers: int | None,
):
    """Fill unset knobs from a tuned profile; resolve ordering defaults.

    ``profile`` is a path or an already-loaded mapping; ``None`` falls
    back to ``$REPRO_PROFILE`` (unset → no profile, pure defaults).
    Only knobs the caller left at ``None`` are filled — an explicit
    argument always wins — and the fill is conservative where knobs
    couple: the kernel family (kernel + block size) fills only when the
    caller set *neither*, and the block-mode-only knobs (executor,
    workers) fill only when the resolved configuration actually is
    block mode.  An explicit ``options`` object is a
    complete configuration, so the profile then fills nothing but the
    ordering.  The tune import is lazy (``repro.tune`` times this
    module's entry points — a module-level import would be a cycle).
    """
    if profile is None:
        profile = os.environ.get("REPRO_PROFILE", "").strip() or None
    if profile is not None:
        from ..tune.profile import profile_options

        filled = profile_options(profile, m, n, batch)
        if filled:
            if ordering is None:
                ordering = filled["ordering"]
            if options is None:
                if kernel is None and block_size is None:
                    kernel = filled["kernel"]
                    block_size = filled["block_size"]
                if block_size is not None:
                    if executor is None:
                        executor = filled["executor"]
                    if workers is None:
                        workers = filled["workers"]
    if ordering is None:
        ordering = default_ordering
    return ordering, kernel, block_size, executor, workers


def _with_kernel(
    options: JacobiOptions | None, kernel: str | None
) -> JacobiOptions | None:
    if kernel is None:
        return options
    return dataclasses.replace(options or JacobiOptions(), kernel=kernel)


def _block_options(
    options: JacobiOptions | BlockJacobiOptions | None,
    kernel: str | None,
    block_size: int | None,
    executor: str | None = None,
    workers: int | None = None,
) -> BlockJacobiOptions | None:
    """Resolve the block-mode options, or ``None`` for scalar mode.

    Block mode is requested by ``block_size`` or by passing a
    :class:`BlockJacobiOptions` directly; scalar ``JacobiOptions`` carry
    their shared knobs (tol, max_sweeps, sort) over.  A block-only
    kernel (``"gram"``) without a block size is a usage error, as is an
    explicit step executor (the scalar kernels have no independent pair
    subproblems to hand to workers).
    """
    if block_size is None and not isinstance(options, BlockJacobiOptions):
        require(kernel != "gram",
                "kernel='gram' is a block kernel; pass block_size=...")
        require(executor is None,
                f"executor={executor!r} applies to block mode only; "
                "pass block_size=...")
        require(workers is None,
                "workers= applies to block mode only; pass block_size=...")
        return None
    if isinstance(options, BlockJacobiOptions):
        base = options
        if block_size is not None and block_size != base.block_size:
            base = dataclasses.replace(base, block_size=block_size)
    else:
        shared = {}
        if options is not None:
            shared = {"tol": options.tol, "max_sweeps": options.max_sweeps,
                      "sort": options.sort}
        base = BlockJacobiOptions(block_size=block_size, **shared)
    if kernel is not None:
        require(kernel in BLOCK_KERNELS,
                f"unknown block kernel {kernel!r}; "
                f"available: {', '.join(BLOCK_KERNELS)}")
        base = dataclasses.replace(base, kernel=kernel)
    if executor is not None:
        base = dataclasses.replace(base, executor=executor)
    if workers is not None:
        base = dataclasses.replace(base, workers=workers)
    return base


def _precondition(
    stack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Drmač–Veselić QR preconditioner of a ``(B, m, n)`` stack.

    Sort each item's rows by decreasing ∞-norm (``Π A``) and its columns
    by decreasing 2-norm (``P``), factor ``Π A P = Q R`` and
    ``Rᵀ = Q₁ R₁``.  Returns ``(Πᵀ Q, P Q₁, X)`` with ``X = R₁ᵀ``
    (``B`` n×n factors), so ``A = (Πᵀ Q) X (P Q₁)ᵀ``: block Jacobi runs
    on ``X`` and the left and right factors map its vectors back.

    Both sorts are one stable gather; the QRs and permutations are
    stacked, so every item gets the bits it gets alone.
    """
    item = np.arange(stack.shape[0])[:, None]
    rows = np.argsort(-np.abs(stack).max(axis=2), axis=1, kind="stable")
    cols = np.argsort(-np.linalg.norm(stack, axis=1), axis=1, kind="stable")
    q, r = np.linalg.qr(stack[item[:, :, None], rows[:, :, None],
                              cols[:, None, :]])
    q1, r1 = np.linalg.qr(r.transpose(0, 2, 1))
    left = np.empty_like(q)
    left[item, rows] = q
    right = np.empty_like(q1)
    right[item, cols] = q1
    return left, right, r1.transpose(0, 2, 1)


def _block_svds(
    stack: np.ndarray,
    ordering: "str | Ordering",
    options: BlockJacobiOptions,
    ordering_kwargs: Mapping[str, object],
) -> list[SVDResult]:
    """Block mode over a ``(B, m, n)`` stack — the one block path of
    :func:`svd` (a batch of one) and :func:`svd_batch`.

    Each item is scaled into range, preconditioned by two QRs
    (:func:`_precondition`), and the batch driver runs once on the n×n
    factors ``X``, zero-padded to the admissible width.  The padding is
    stripped, ``U = Πᵀ Q U_X`` and ``V = P Q₁ V_X`` map the vectors
    back, and ``sigma`` is unscaled.  ``history``, ``sweeps``,
    ``rotations``, ``sigma_by_slot`` and ``emerged_sorted`` describe the
    run on ``X``; ``sigma``, ``u``, ``v``, ``rank`` and ``converged``
    describe ``A``.  Scalar mode, ``svd(fault_plan=...)``,
    :func:`parallel_svd` and the raw ``block_jacobi_svd*`` drivers do
    not come through here and iterate on ``A`` itself.
    """
    stack, shifts = range_scale(stack)
    left, right, x = _precondition(stack)
    nitems, _, n = x.shape
    width = next_admissible_width(n, _needs_power_of_two(ordering),
                                  options.block_size)
    if width != n:
        padded = np.zeros((nitems, n, width))
        padded[:, :, :n] = x
        x = padded
    results = block_jacobi_svd_batch(x, ordering=ordering,
                                     options=options, **ordering_kwargs)
    if width != n:
        results = [strip_padding(r, n) for r in results]
    u = left @ np.stack([r.u for r in results])
    v = right @ np.stack([r.v for r in results])
    for i, r in enumerate(results):
        r.u, r.v = u[i], v[i]
    return [range_unscale(r, int(k)) for r, k in zip(results, shifts)]


def svd(
    a: np.ndarray,
    ordering: "str | Ordering | None" = None,
    options: JacobiOptions | BlockJacobiOptions | None = None,
    kernel: str | None = None,
    block_size: int | None = None,
    executor: str | None = None,
    workers: int | None = None,
    fault_plan: "FaultPlan | None" = None,
    profile: "str | Mapping | None" = None,
    **ordering_kwargs: object,
) -> SVDResult:
    """One-sided Jacobi SVD of ``a`` (m x n, m >= n) under a parallel ordering.

    Matrices whose width is not admissible for the chosen ordering
    (power of two for the tree orderings, even otherwise) are transparently
    zero-padded and the result stripped back to ``n`` columns.

    Wide input (m < n) raises ``ValueError``: pass ``a.T`` and swap the
    factors.

    ``kernel`` (``"reference"`` or ``"batched"``) overrides the rotation
    kernel of ``options``; the batched kernel fuses each parallel step
    into a single gathered 2x2 block transform and is the fast path.

    ``block_size=b`` switches to the block Jacobi driver: the ordering
    runs on ``b``-column blocks and the local subproblems are solved by
    a block kernel (``"gram"``, the BLAS-3 default, or its oracle
    ``"reference"``).  Block mode first preconditions ``a`` with two
    QRs (rows and columns sorted by norm, ``A P = Q R``, ``Rᵀ = Q₁ R₁``)
    and runs the driver on the n×n factor ``X = R₁ᵀ``, so admissibility
    and padding are decided for ``X`` at block granularity, and
    ``history``, ``sweeps``, ``rotations``, ``sigma_by_slot`` and
    ``emerged_sorted`` describe the run on ``X``.  Block mode runs the
    path of :func:`svd_batch` on a batch of one matrix, so it gives that
    batch's bits.  Scalar mode, ``fault_plan=`` runs, :func:`parallel_svd`
    and the raw drivers (``block_jacobi_svd*``) are not preconditioned.

    ``executor``/``workers`` pick the step-execution backend of block
    mode (``"serial"`` or ``"threads"``; workers split each step's
    independent pair subproblems, bit-identical to serial) — see
    :mod:`repro.parallel.executor`.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) runs the
    decomposition on the simulated tree machine under fault injection
    and recovery; the telemetry is discarded and only the result
    returned (use :func:`parallel_svd` to keep the run report).

    Inputs whose largest magnitude lies far outside the unit range are
    scaled by an exact power of two before the iteration and ``sigma``
    is scaled back (:mod:`repro.core.scaling`); ``history`` stays in the
    scaled frame.

    ``profile`` (a ``PROFILE_<host>.json`` path or loaded mapping; also
    ``$REPRO_PROFILE``) fills every knob left unset from the nearest
    tuned entry of a ``repro-harness tune`` profile — explicit
    arguments always win, and with no profile the ordering defaults to
    the paper's ``"fat_tree"``.
    """
    a = as_float_matrix(a, "a")
    _require_tall(a.shape)
    ordering, kernel, block_size, executor, workers = _profile_fill(
        profile, a.shape[0], a.shape[1], None, "fat_tree", ordering,
        options, kernel, block_size, executor, workers)
    if fault_plan is not None:
        # fault injection lives in the machine layer; run there and
        # return just the decomposition
        result, _ = parallel_svd(
            a, topology="perfect", ordering=ordering, options=options,
            kernel=kernel, block_size=block_size, executor=executor,
            workers=workers, fault_plan=fault_plan, **ordering_kwargs)
        return result
    bopts = _block_options(options, kernel, block_size, executor, workers)
    if bopts is not None:
        return _block_svds(a[None], ordering, bopts, ordering_kwargs)[0]
    a, shift = range_scale(a)
    n = a.shape[1]
    pow2 = _needs_power_of_two(ordering)
    options = _with_kernel(options, kernel)
    if next_admissible_width(n, pow2) == n:
        result = jacobi_svd(a, ordering=ordering, options=options,
                            **ordering_kwargs)
    else:
        padded, orig = pad_columns(a, power_of_two=pow2)
        result = strip_padding(
            jacobi_svd(padded, ordering=ordering, options=options,
                       allow_wide=True, **ordering_kwargs), orig)
    return range_unscale(result, int(shift))


def parallel_svd(
    a: np.ndarray,
    topology: str = "cm5",
    ordering: "str | Ordering | None" = None,
    cost_model: CostModel | None = None,
    options: JacobiOptions | BlockJacobiOptions | None = None,
    kernel: str | None = None,
    block_size: int | None = None,
    executor: str | None = None,
    workers: int | None = None,
    fault_plan: "FaultPlan | None" = None,
    profile: "str | Mapping | None" = None,
    **ordering_kwargs: object,
) -> tuple[SVDResult, ParallelRunReport]:
    """Distributed SVD on a simulated tree machine; returns result + telemetry.

    ``block_size=b`` runs the machine at block granularity: ``n / b``
    schedule units, ``b``-column messages, block kernels on the leaves
    (the BLAS-3 gram kernel by default).  ``executor``/``workers``
    choose the block step-execution backend (``"serial"`` or
    ``"threads"``, bit-identical) — see :mod:`repro.parallel.executor`.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) injects the
    planned faults during the run; the machine recovers via the ack/seq
    transport, sweep checkpoints and leaf remapping, every recovery
    action is charged to the cost model and recorded on
    ``result.fault_events``, and an unrecoverable plan yields an
    explicit ``converged=False`` result — never silently wrong output.

    ``profile`` / ``$REPRO_PROFILE`` fill unset knobs from a tuned
    profile exactly as in :func:`svd`; the ordering default here is the
    machine-level ``"hybrid"``.  Out-of-range inputs are scaled and wide
    inputs rejected as in :func:`svd`.
    """
    a = as_float_matrix(a, "a")
    _require_tall(a.shape)
    ordering, kernel, block_size, executor, workers = _profile_fill(
        profile, a.shape[0], a.shape[1], None, "hybrid", ordering,
        options, kernel, block_size, executor, workers)
    bopts = _block_options(options, kernel, block_size, executor, workers)
    a, shift = range_scale(a)
    pow2 = _needs_power_of_two(ordering)
    if bopts is not None:
        options = bopts
        padded, orig = pad_columns(a, power_of_two=pow2,
                                   block_size=bopts.block_size)
    else:
        options = _with_kernel(options, kernel)
        padded, orig = pad_columns(a, power_of_two=pow2)
    driver = ParallelJacobiSVD(
        topology=topology,
        ordering=ordering,
        cost_model=cost_model,
        options=options,
        **ordering_kwargs,
    )
    result, report = driver.compute(padded, fault_plan=fault_plan)
    if padded.shape[1] != orig:
        result = strip_padding(result, orig)
    return range_unscale(result, int(shift)), report


def _as_batch_stack(matrices: "np.ndarray | Sequence[np.ndarray]") -> np.ndarray:
    """Normalise the batch input to a C-contiguous float64 ``(B, m, n)``
    stack; accepts a 3-D array or a sequence of same-shape 2-D arrays."""
    if isinstance(matrices, np.ndarray):
        stack = as_float_stack(matrices, "matrices")
    else:
        items = [np.asarray(x) for x in matrices]
        require(len(items) >= 1, "svd_batch needs at least one matrix")
        for i, x in enumerate(items):
            require(x.ndim == 2,
                    f"matrices[{i}] must be a 2-D matrix, got ndim={x.ndim}")
            require(x.shape == items[0].shape,
                    "all matrices of a batch must share one shape; "
                    f"matrices[{i}] has {x.shape}, expected {items[0].shape}")
        stack = as_float_stack(np.stack(items), "matrices")
    require(stack.shape[0] >= 1, "svd_batch needs at least one matrix")
    return stack


def svd_batch(
    matrices: "np.ndarray | Sequence[np.ndarray]",
    ordering: "str | Ordering | None" = None,
    options: JacobiOptions | BlockJacobiOptions | None = None,
    kernel: str | None = None,
    block_size: int | None = None,
    executor: str | None = None,
    workers: int | None = None,
    profile: "str | Mapping | None" = None,
    **ordering_kwargs: object,
) -> BatchResult:
    """Jacobi SVD of many independent same-shape matrices at once.

    ``matrices`` is a ``(B, m, n)`` stack or a sequence of ``B``
    same-shape 2-D arrays.  The knobs are those of :func:`svd` and are
    shared by every item; the returned :class:`~repro.core.BatchResult`
    holds one :class:`~repro.core.SVDResult` per item (in input order)
    plus the aggregate accounting (sweeps histogram, plan-cache delta,
    matrices/sec).

    The contract is **bit-identity**: ``svd_batch(stack, ...)[i]`` equals
    ``svd(stack[i], ...)`` exactly, for every kernel, ordering and
    executor.  What the batch changes is amortisation, not arithmetic —
    in block mode the schedule is compiled once and every step's local
    solves fuse the whole batch into stacked GEMMs, with per-item
    convergence masks dropping finished matrices out of later sweeps
    (:func:`~repro.blockjacobi.driver.block_jacobi_svd_batch`).  Block
    mode preconditions every item as :func:`svd` does, with stacked QRs
    and products, and runs the driver on the n×n factors: each item's
    ``history``, ``sweeps``, ``rotations``, ``sigma_by_slot`` and
    ``emerged_sorted`` (and so the sweeps histogram) describe its
    factor, its ``sigma``, ``u``, ``v``, ``rank`` and ``converged`` the
    item.  The raw driver itself is not preconditioned.  Block
    :func:`svd` runs this same path on a batch of one.
    ``executor="threads"`` chunks the fused (item, block pair) rows of
    each step's gather/Gram-form and apply/scatter phases across
    workers, while the bits stay those of a serial loop.  Scalar mode
    (no ``block_size``) falls back to a plain loop of :func:`svd`.

    A non-finite entry raises ``ValueError`` naming the offending batch
    index and coordinates (``matrices[i] contains ... at index (r, c)``);
    wide items (m < n) raise ``ValueError`` as in :func:`svd`.

    ``profile`` / ``$REPRO_PROFILE`` fill unset knobs from a tuned
    profile as in :func:`svd`, with the batch size part of the shape
    lookup (a profile tuned for this batch shape wins over single-call
    entries).  Each item is range-scaled on its own, exactly as
    :func:`svd` would scale it.
    """
    stack = _as_batch_stack(matrices)
    _require_tall(stack.shape)
    nitems, _, n = stack.shape
    ordering, kernel, block_size, executor, workers = _profile_fill(
        profile, stack.shape[1], n, nitems, "fat_tree", ordering,
        options, kernel, block_size, executor, workers)
    # vectorised finiteness sweep; on failure re-check the first bad item
    # so the error names the batch index and in-matrix coordinates
    ok = np.isfinite(stack).reshape(nitems, -1).all(axis=1)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        require_finite(stack[i], f"matrices[{i}]")
    bopts = _block_options(options, kernel, block_size, executor, workers)
    before = plan_cache_stats()
    t0 = time.perf_counter()
    if bopts is not None:
        results = _block_svds(stack, ordering, bopts, ordering_kwargs)
    else:
        scalar_opts = _with_kernel(options, kernel)
        results = [
            svd(stack[i], ordering=ordering, options=scalar_opts,
                **ordering_kwargs)
            for i in range(nitems)
        ]
    elapsed = time.perf_counter() - t0
    after = plan_cache_stats()
    delta = PlanCacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        instance_hits=after.instance_hits - before.instance_hits,
        size=after.size,
    )
    return BatchResult(results=results, elapsed_s=elapsed, plan_cache=delta)
