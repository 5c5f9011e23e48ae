"""One-sided *block* Jacobi SVD: blocks of columns per leaf.

The paper's hybrid ordering already treats blocks of columns as the unit
of scheduling (Schreiber's partitioning [14]); this module generalises
the whole driver to that regime, in the spirit of Bischof's block Jacobi
[1]: the matrix is partitioned into ``2P`` column blocks of width ``b``
(leaf processor ``i`` holds blocks ``2i`` and ``2i+1``), any parallel
ordering from :mod:`repro.orderings` is run at *block* granularity, and
a "rotation" of a block pair orthogonalises all ``2b`` columns of the
two blocks against each other (a local sub-problem solved by cyclic
one-sided Jacobi sweeps).

Why it matters: with ``b`` columns per message the per-step traffic
volume grows but the number of outer steps shrinks to ``2P - 1``, so
block size trades startup cost (alpha) against bandwidth (beta) — the
same dial the hybrid ordering turns to avoid contention on the CM-5.
Convergence follows from the same threshold argument as the scalar
method: every column pair is covered once per outer sweep (within-block
and met-block pairs by the local solver, the rest by the ordering).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from ..core.result import SVDResult, SweepRecord, sigma_converged
from ..orderings.base import Ordering
from ..orderings.plan import compile_schedule
from ..orderings.registry import make_ordering
from ..svd.convergence import off_norm
from ..util.errors import ConvergenceWarning
from ..util.validation import require
from .kernel import BLOCK_KERNELS, solve_block_step_batch

__all__ = ["BlockJacobiOptions", "block_jacobi_svd", "block_jacobi_svd_batch"]


@dataclass(frozen=True)
class BlockJacobiOptions:
    """Tuning knobs of the block Jacobi iteration.

    ``block_size``
        Columns per block (b >= 1; b = 1 degenerates to the scalar
        method with one column per slot).
    ``tol``
        Relative orthogonality threshold, as in the scalar driver.
    ``inner_sweeps``
        Bound on the cyclic Jacobi sweeps applied to each met block pair
        (2 is enough near convergence; the outer iteration absorbs the
        slack).  It bounds the ``reference`` kernel and the gram
        kernel's inner loop for Grams outside the ``eigh`` gate; a Gram
        inside the gate is solved by one LAPACK ``eigh`` whatever the
        bound (see :mod:`repro.blockjacobi.kernel`).  The simulator's
        cost model still charges ``inner_sweeps`` sweeps per pair.
    ``max_sweeps``
        Outer sweep bound.
    ``sort``
        Norm ordering inside the local solver (sorted output emerges at
        block granularity).
    ``kernel``
        Local block-pair solver: ``"gram"`` (BLAS-3 Gram-space fast
        path, the default) or ``"reference"`` (per-step masked
        rotations, the numerics gram is tested against and the solver a
        gram breakdown falls back to) — see
        :mod:`repro.blockjacobi.kernel`.
    ``executor``
        Step-execution backend: ``"serial"`` or ``"threads"`` (worker
        threads share the column buffer; each solves a disjoint subset
        of a step's independent pair subproblems — bit-identical to
        serial for any worker count).  ``None`` resolves from
        ``$REPRO_EXECUTOR`` (default serial).  See
        :mod:`repro.parallel.executor`.
    ``workers``
        Workers of the ``threads`` backend; ``None`` resolves from
        ``$REPRO_WORKERS`` (default: usable CPU count).
    ``sanitize``
        Arm the runtime sanitizer (:mod:`repro.verify.sanitize`):
        per-step write-set records cross-checked against the static
        chunking, plus sweep-boundary numeric canaries.  ``None``
        resolves from ``$REPRO_SANITIZE`` (default off); a violation
        raises :class:`~repro.verify.sanitize.SanitizerError`.
    """

    block_size: int = 4
    tol: float = 1e-12
    inner_sweeps: int = 2
    max_sweeps: int = 60
    sort: str | None = "desc"
    kernel: str = "gram"
    executor: str | None = None
    workers: int | None = None
    sanitize: bool | None = None

    def __post_init__(self) -> None:
        from ..parallel.executor import EXECUTORS, unknown_executor_message

        # a non-integral block size fails here, not deep inside the
        # admissibility arithmetic
        object.__setattr__(self, "block_size", operator.index(self.block_size))
        # inner_sweeps = 0 would make every local solve a no-op that
        # reports worst = 0.0, so the driver would declare convergence
        # after one sweep with a wrong result; fail loudly instead
        require(self.block_size >= 1, "block_size must be positive")
        require(self.inner_sweeps >= 1,
                f"inner_sweeps must be >= 1, got {self.inner_sweeps!r}")
        require(self.max_sweeps >= 1,
                f"max_sweeps must be >= 1, got {self.max_sweeps!r}")
        require(self.kernel in BLOCK_KERNELS,
                f"unknown block kernel {self.kernel!r}; "
                f"available: {', '.join(BLOCK_KERNELS)}")
        require(self.executor is None or self.executor in EXECUTORS,
                unknown_executor_message(self.executor))
        require(self.workers is None or self.workers >= 1,
                f"workers must be >= 1, got {self.workers!r}")

    def make_executor(self):
        """Build the run's :class:`~repro.parallel.executor.StepExecutor`
        (the caller owns and closes it)."""
        from ..parallel.executor import resolve_executor

        return resolve_executor(self.executor, self.workers)

    def make_sanitizer(self):
        """Build the run's :class:`~repro.verify.sanitize.RuntimeSanitizer`,
        or ``None`` when sanitizing is off (option, else env)."""
        from ..verify.sanitize import RuntimeSanitizer, sanitize_enabled

        return RuntimeSanitizer() if sanitize_enabled(self.sanitize) else None


def block_jacobi_svd(
    a: np.ndarray,
    ordering: str | Ordering = "ring_new",
    options: BlockJacobiOptions | None = None,
    compute_uv: bool = True,
    **ordering_kwargs: object,
) -> SVDResult:
    """One-sided block Jacobi SVD of ``a`` under a block-level ordering.

    The column count must be ``2 P b`` for an integer number of leaves
    ``P`` admissible to the chosen ordering (the ordering runs on the
    ``2P`` blocks).  The run is :func:`block_jacobi_svd_batch` on a
    batch of one matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2, "matrix expected")
    return block_jacobi_svd_batch(a[None], ordering, options, compute_uv,
                                  **ordering_kwargs)[0]


def _watchdog_message(history: list[SweepRecord], max_sweeps: int) -> str:
    """Diagnose a non-converged run's off-norm series (see repro.faults)."""
    from ..faults.watchdog import ConvergenceWatchdog

    dog = ConvergenceWatchdog()
    for h in history:
        dog.observe(h.sweep, h.off_norm)
    return dog.escalate(max_sweeps)


def _finalize_block_result(
    X: np.ndarray,
    V: np.ndarray | None,
    m: int,
    n: int,
    compute_uv: bool,
    history: list[SweepRecord],
    converged: bool,
    watchdog_msg: str | None,
) -> SVDResult:
    """Extract the decomposition from one item's finished column buffer."""
    norms = np.linalg.norm(X, axis=0)
    sigma_by_slot = norms.copy()
    scale = max(1.0, float(norms.max(initial=0.0)))
    diffs = np.diff(norms)
    if np.all(diffs <= 1e-9 * scale):
        emerged = "desc"
    elif np.all(diffs >= -1e-9 * scale):
        emerged = "asc"
    else:
        emerged = None
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    rank = int(np.count_nonzero(sigma > 1e-12 * max(scale, 1e-300)))
    if compute_uv:
        u = np.zeros((m, n))
        nz = sigma > 0
        cols = X[:, order]
        u[:, nz] = cols[:, nz] / sigma[nz]
        v = V[:, order]
    else:
        u = np.zeros((m, 0))
        v = np.zeros((n, 0))
    return SVDResult(
        u=u, sigma=sigma, v=v, rank=rank,
        converged=sigma_converged(sigma, converged),
        sweeps=len(history), rotations=sum(h.rotations for h in history),
        sigma_by_slot=sigma_by_slot, emerged_sorted=emerged, history=history,
        watchdog=watchdog_msg,
    )


def block_jacobi_svd_batch(
    stack: np.ndarray,
    ordering: str | Ordering = "ring_new",
    options: BlockJacobiOptions | None = None,
    compute_uv: bool = True,
    **ordering_kwargs: object,
) -> list[SVDResult]:
    """Block Jacobi SVD of a ``(B, m, n)`` stack of independent problems.

    The one block sweep loop: :func:`block_jacobi_svd` runs it on a
    batch of one matrix.  Every problem runs the same ordering, so the
    schedule is compiled once per sweep (the plan-cache hit is shared by
    all ``B`` items) and each step's local solves fuse the batch into
    one problem-axis super-batch
    (:func:`~repro.blockjacobi.kernel.solve_block_step_batch`).
    Per-item convergence masks drop finished matrices out of later
    sweeps.  Results are **bit-identical** to calling
    :func:`block_jacobi_svd` on each slice with the same options.

    The executor (when ``workers > 1``) chunks the step's GEMM phases
    over the fused (item, block pair) rows.  With the sanitizer armed
    (one per run), every step is a write-set record over those rows
    (SAN001) and each item gets its own sweep-boundary canaries
    (SAN002/003).
    """
    stack = np.asarray(stack, dtype=np.float64)
    require(stack.ndim == 3, "stack of matrices expected")
    nitems, m, n = stack.shape
    require(nitems >= 1, "batch must contain at least one matrix")
    opts = options or BlockJacobiOptions()
    b = opts.block_size
    require(n % (2 * b) == 0, f"n={n} must be a multiple of 2*block_size={2 * b}")
    n_blocks = n // b
    if isinstance(ordering, Ordering):
        require(ordering.n == n_blocks, "ordering must cover the block count")
        ord_obj = ordering
    else:
        ord_obj = make_ordering(ordering, n_blocks, **ordering_kwargs)

    executor = opts.make_executor()
    Xs = stack.copy()
    Vs = np.eye(n)[None].repeat(nitems, axis=0) if compute_uv else None
    # the block trajectory is data-independent, hence shared by all items;
    # block_cols[s] = the matrix columns currently stored in block slot s
    block_cols = np.arange(n, dtype=np.intp).reshape(n_blocks, b)

    histories: list[list[SweepRecord]] = [[] for _ in range(nitems)]
    converged = np.zeros(nitems, dtype=bool)
    active = np.arange(nitems, dtype=np.intp)
    sanitizer = opts.make_sanitizer()
    if sanitizer is not None:
        executor.sanitizer = sanitizer
        sanitizer.arm_reference(Xs)
    try:
        for sweep in range(opts.max_sweeps):
            if active.size == 0:
                break
            plan = compile_schedule(ord_obj.sweep(sweep))
            worst = np.zeros(active.size)
            rotations = np.zeros(active.size, dtype=np.intp)
            for cs in plan.steps:
                if cs.n_pairs:
                    pair_cols = block_cols[cs.pairs].reshape(cs.n_pairs, 2 * b)
                    ap, wo = solve_block_step_batch(
                        Xs, Vs, active, pair_cols, opts.tol, opts.sort,
                        opts.inner_sweeps, opts.kernel, executor=executor,
                        sanitizer=sanitizer)
                    np.maximum(worst, wo, out=worst)
                    rotations += ap
                if cs.has_moves:
                    # fancy assignment materialises the gather first, so
                    # the move phase keeps its snapshot semantics
                    block_cols[cs.dst] = block_cols[cs.src]
            for i, w, r in zip(active.tolist(), worst.tolist(),
                               rotations.tolist()):
                if sanitizer is not None:
                    sanitizer.check_sweep(
                        Xs[i], None if Vs is None else Vs[i],
                        sweep=sweep + 1, item=i)
                histories[i].append(
                    SweepRecord(
                        sweep=sweep + 1,
                        off_norm=off_norm(Xs[i]),
                        max_rel_gamma=w,
                        rotations=r,
                        skipped=0,
                    )
                )
            done = worst <= opts.tol
            converged[active[done]] = True
            active = active[~done]
    finally:
        executor.close()

    watchdogs: list[str | None] = [None] * nitems
    stuck = np.flatnonzero(~converged)
    if stuck.size:
        # same refusal-to-be-silent contract as the scalar driver: diagnose
        # the off-norm series and warn once (see repro.svd.hestenes)
        for i in stuck:
            watchdogs[i] = _watchdog_message(histories[i], opts.max_sweeps)
        which = ("" if nitems == 1 else
                 f" on {stuck.size} of {nitems} matrices (first: item "
                 f"{int(stuck[0])})")
        warnings.warn(
            f"block Jacobi SVD did not converge{which}: "
            f"{watchdogs[stuck[0]]}; a non-converged result is a partial "
            "decomposition (check result.converged)",
            ConvergenceWarning, stacklevel=2)

    return [
        _finalize_block_result(
            Xs[i], None if Vs is None else Vs[i], m, n, compute_uv,
            histories[i], bool(converged[i]), watchdogs[i])
        for i in range(nitems)
    ]
