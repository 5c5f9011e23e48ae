"""Block-pair kernels: the local solvers of the block Jacobi method.

A met block pair is a set of ``2b`` co-resident columns ``Y`` that must
be orthogonalised against each other before the schedule moves the
blocks on.  Two interchangeable solvers are provided:

``reference``
    The original loop: ``inner_sweeps`` cyclic odd-even sweeps of
    disjoint plane rotations, each step a masked BLAS-1
    :func:`~repro.svd.rotations.apply_step_rotations` call on the full
    matrix.  The numerics the gram kernel is tested against, and the
    solver every gram breakdown falls back to.

``gram``
    BLAS-3: form the ``2b x 2b`` Gram matrix ``G = Y^T Y`` once,
    diagonalise it in ``2b x 2b`` space to get the orthogonal factor
    ``W`` (:func:`repro.eig.gram_eigh_batched`), then apply ``Y <- Y W``
    and ``V <- V W`` with single GEMMs.  A Gram whose diagonal spread
    ``max G_ii / min G_ii`` is below :data:`repro.eig.jacobi.EIGH_GATE`
    is solved by one stacked LAPACK ``eigh``; any other keeps the inner
    cyclic Jacobi, bounded by ``inner_sweeps``.  Strided column updates
    collapse into two ``(m x 2b) @ (2b x 2b)`` matmuls per pair, so the
    dominant cost is matrix-matrix work.  Because the block pairs met in
    one schedule step have disjoint column sets, the gram kernel solves
    *all* of them at once through :func:`solve_block_step`: one stacked
    Gram form, one batched inner solve, one stacked application — on a
    simulated machine this is exactly the work the leaves do
    concurrently.

Accuracy note for ``gram``: forming and applying in Gram space is
norm-wise backward stable, but the BLAS-3 application mixes all ``2b``
columns, so pairwise dot products cannot be driven below a noise floor
of ``~ 2b * eps * max||y_i||^2`` (the reference kernel, rotating column
pairs directly, has no such floor).  The kernel therefore measures
convergence against ``tol * ||y_i|| ||y_j|| + floor`` — singular values
still match LAPACK to the suite's absolute tolerances, while the tiniest
values keep only absolute (not relative) accuracy, the standard
trade-off of blocked Jacobi (cf. arXiv:1401.2720).  LAPACK ``eigh``
carries absolute eigenvector error, which costs column-scaled input its
relative accuracy and stalls rank-deficient input; the gate sends those
Grams to the cyclic loop, whose relative threshold does not.  The gram
kernel's bits therefore depend on the LAPACK in use, and its contract is
a tolerance against LAPACK's singular values; ``reference`` stays the
oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..eig.jacobi import gram_eigh_batched, gram_eigh_grouped
from ..svd.rotations import RotationStats, apply_step_rotations
from ..util.errors import NumericalBreakdown
from ..util.validation import require

__all__ = ["BLOCK_KERNELS", "GRAM_NOISE", "KERNEL_STAGES",
           "fastpath_gram_flush", "fastpath_gram_step", "solve_block_pair",
           "solve_block_step",
           "solve_block_step_batch"]

#: registered block-pair kernels; ``gram`` is the BLAS-3 fast path and
#: ``reference`` its oracle
BLOCK_KERNELS = ("reference", "gram")

#: declarative stage structure of each kernel under the step executor:
#: ``(stage name, splittable)`` in execution order.  A splittable stage
#: may be chunked over its batch/pair dimension (every chunk writes a
#: disjoint slice); an unsplittable stage must run as one full-stack
#: call — the gram kernel's inner cyclic Jacobi couples the Grams
#: outside the ``eigh`` gate across the batch through its convergence
#: test, so splitting it would change the rotation sequence and break
#: the bit-identity contract.  The static executor-plan analyzer
#: (:mod:`repro.verify.executor_plan`) proves each stage's chunking
#: against this table (rule ``EXEC002``).
KERNEL_STAGES: dict[str, tuple[tuple[str, bool], ...]] = {
    "reference": (("pair-solve", True),),
    "gram": (("gram-form", True), ("gram-solve", False), ("gram-apply", True)),
}

#: local column magnitudes above this trip the reference solver's
#: prescale guard (Gram products overflow around 1e154)
_PRESCALE_PEAK = 1e100

#: safety factor of the gram kernel's convergence noise floor
#: ``GRAM_NOISE * 2b * eps * max(G_ii)`` (see module docstring)
GRAM_NOISE = 8.0

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_SORT_MODES = ("desc", "asc", None)


def solve_block_pair(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
) -> tuple[RotationStats, float]:
    """Orthogonalise the ``2b`` columns ``cols`` of ``X`` against each other.

    ``X`` (and ``V``) are modified in place.  Returns the rotation
    counters and the worst relative off-diagonal observed at first touch
    — the outer driver's convergence signal.  With ``sort`` set, the
    local solve leaves norms ordered along ascending column index
    (larger norms at smaller indices for ``"desc"``), the convention
    that makes sorted output emerge at block granularity.
    """
    return solve_block_step(X, V, [np.asarray(cols, dtype=np.intp)],
                            tol, sort, inner_sweeps, kernel)


def solve_block_step(
    X: np.ndarray,
    V: np.ndarray | None,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
    executor=None,
    sanitizer=None,
) -> tuple[RotationStats, float]:
    """Solve every met block pair of one schedule step.

    ``pair_cols`` holds one ``2b``-element column-index array per block
    pair (a list of arrays or one ``(n_pairs, 2b)`` array); the sets are
    disjoint (the pairs run on distinct leaves), so the local solves are
    independent and the gram kernel batches them into stacked BLAS-3
    calls.  Returns merged rotation counters and the worst first-touch
    relative off-diagonal across all pairs.

    ``executor`` (a :class:`~repro.parallel.executor.StepExecutor`)
    spreads the step's independent work over worker threads: the gram
    kernel chunks only its gather/Gram-form and apply/scatter GEMM
    phases — the inner Gram solve stays one full-stack call, because
    the cyclic loop's convergence test couples the Grams outside the
    ``eigh`` gate across the batch and splitting it would change the
    rotation sequence — while the reference kernel chunks the pair loop
    itself.  Either way the result is bit-identical to the serial path
    for any worker count (see :mod:`repro.parallel.executor` for the
    contract).

    On :class:`~repro.util.errors.NumericalBreakdown` the step degrades
    gracefully: the pairs are re-solved one by one, each first with its
    own kernel and, should that break down too, with the guarded
    reference solver (``stats.fallbacks`` counts the pairs that fell
    back).  A breakdown the guarded solver cannot absorb (genuinely
    corrupted data) propagates to the caller — under a fault-recovery
    driver that triggers a sweep-checkpoint rollback instead of garbage
    output.  The stacked solvers only raise *before* touching
    ``X``/``V``, so the per-pair retry starts from unmodified data.

    ``sanitizer`` (a :class:`~repro.verify.sanitize.RuntimeSanitizer`)
    opens a write-set record for the step: the solvers report the column
    sets they actually scatter into, and the record is cross-checked
    against the per-pair column sets when the step closes (rule
    ``SAN001``).
    """
    require(sort in _SORT_MODES, f"sort must be one of {_SORT_MODES}, got {sort!r}")
    if len(pair_cols) == 0:
        return RotationStats(), 0.0
    require(kernel in BLOCK_KERNELS,
            f"unknown block kernel {kernel!r}; "
            f"available: {', '.join(BLOCK_KERNELS)}")
    if sanitizer is None:
        return _solve_step_body(X, V, pair_cols, tol, sort, inner_sweeps,
                                kernel, executor, None)
    expected = [frozenset(int(c) for c in pair_cols[i])
                for i in range(len(pair_cols))]
    workers = 1 if executor is None else executor.workers
    sanitizer.begin_step(len(pair_cols), expected, workers=workers)
    try:
        out = _solve_step_body(X, V, pair_cols, tol, sort, inner_sweeps,
                               kernel, executor, sanitizer)
    except BaseException:
        # the step never completed; its write-set record is meaningless
        sanitizer.abort_step()
        raise
    sanitizer.end_step()
    return out


def _phase_bounds(executor, n_items: int,
                  chunked: bool) -> list[tuple[int, int]]:
    """The chunk bounds a dispatched phase ran with (the calling thread
    replays the deterministic bounds into the sanitizer after the
    dispatch settles, so workers never touch the sanitizer)."""
    if not chunked:
        return [(0, n_items)] if n_items else []
    return executor.chunk_bounds(n_items, executor.workers)


def _solve_step_body(
    X: np.ndarray,
    V: np.ndarray | None,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
    executor,
    sanitizer,
) -> tuple[RotationStats, float]:
    """The dispatch body of :func:`solve_block_step` (validated input)."""
    if kernel == "gram":
        try:
            return _solve_gram_many(X, V, pair_cols, tol, sort, inner_sweeps,
                                    executor, sanitizer)
        except NumericalBreakdown:
            pass  # isolate the poisoned pairs with per-pair solves
    n_pairs = len(pair_cols)

    def solve_pairs(lo: int, hi: int) -> tuple[RotationStats, float]:
        stats = RotationStats()
        worst = 0.0
        for i in range(lo, hi):
            st, mx = _solve_pair(X, V, pair_cols[i], tol, sort,
                                 inner_sweeps, kernel)
            stats.merge(st)
            worst = max(worst, mx)
        return stats, worst

    chunked = executor is not None and executor.workers > 1
    if not chunked:
        out = [solve_pairs(0, n_pairs)]
    else:
        # pairs touch disjoint columns, so the chunks are fully
        # independent; results merge in chunk order for a deterministic
        # reduction
        out = executor.run_chunks(n_pairs, solve_pairs)
    if sanitizer is not None:
        # the per-pair solves rewrite every column of their pairs
        for lo, hi in _phase_bounds(executor, n_pairs, chunked):
            sanitizer.record_touch(
                lo, hi, np.concatenate([np.asarray(pair_cols[i])
                                        for i in range(lo, hi)]))
    stats = RotationStats()
    worst = 0.0
    for st, mx in out:
        stats.merge(st)
        worst = max(worst, mx)
    return stats, worst


def _solve_pair(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
) -> tuple[RotationStats, float]:
    """Solve one block pair with its own kernel; a gram breakdown falls
    back to the guarded reference solver (one ``stats.fallbacks``)."""
    if kernel == "gram":
        try:
            return _solve_gram_many(X, V, [cols], tol, sort, inner_sweeps)
        except NumericalBreakdown:
            st, mx = _solve_reference_guarded(X, V, cols, tol, sort,
                                              inner_sweeps)
            st.fallbacks += 1
            return st, mx
    return _solve_reference_guarded(X, V, cols, tol, sort, inner_sweeps)


def _solve_reference_guarded(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[RotationStats, float]:
    """Reference solver with an overflow prescale guard.

    Plane rotations are scale-invariant, so when the local columns are
    large enough for their Gram products to overflow (the breakdown the
    fast kernels just reported), dividing the block by its peak
    magnitude, solving, and multiplying back recovers the exact same
    rotations without ever leaving the finite range.  Genuinely
    corrupted data (NaN, or Inf entries) still trips the sentinels
    inside and propagates — the fallback rescues overflow, not
    corruption.
    """
    peak = float(np.max(np.abs(X[:, cols]), initial=0.0))
    if np.isfinite(peak) and peak > _PRESCALE_PEAK:
        X[:, cols] /= peak
        try:
            return _solve_reference(X, V, cols, tol, sort, inner_sweeps)
        finally:
            X[:, cols] *= peak
    return _solve_reference(X, V, cols, tol, sort, inner_sweeps)


def _solve_reference(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[RotationStats, float]:
    """Cyclic odd-even sweeps of masked per-pair rotations (the spec).

    Runs ``inner_sweeps`` cyclic odd-even sweeps of disjoint rotations
    over the 2b local columns (all arithmetic is leaf-local on the
    machine, so the simulator charges it as compute).  Returns the worst
    relative off-diagonal seen at first touch (the convergence signal).
    """
    k = len(cols)
    stats = RotationStats()
    worst = 0.0
    first = True
    for _ in range(inner_sweeps):
        # odd-even over positions: covers all pairs of the 2b columns in
        # k steps of disjoint rotations
        order = list(cols)
        for parity in range(k):
            starts = range(parity % 2, k - 1, 2)
            pa = np.array([order[i] for i in starts], dtype=np.intp)
            pb = np.array([order[i + 1] for i in starts], dtype=np.intp)
            # orient by column id so the norm-ordering exchanges stay
            # consistent across sweeps (same fix as the scalar driver)
            left = np.minimum(pa, pb)
            right = np.maximum(pa, pb)
            if left.size:
                st, mx = apply_step_rotations(X, V, left, right, tol, sort)
                stats.merge(st)
                if first:
                    worst = max(worst, mx)
            # unconditional neighbour exchange walks every pair past
            # every other (odd-even transposition at position level)
            for i in starts:
                order[i], order[i + 1] = order[i + 1], order[i]
        first = False
    return stats, worst


def _sort_perm(w: np.ndarray, sort: str | None) -> np.ndarray | None:
    if sort == "desc":
        return np.argsort(-w, kind="stable")
    if sort == "asc":
        return np.argsort(w, kind="stable")
    return None


@lru_cache(maxsize=None)
def _triu_cache(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(k, 1)


def _sort_exchanges(
    pair_cols,
    d: np.ndarray,
    sort: str | None,
    stats: RotationStats,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Column permutation implied by the norm-ordering convention on
    already-orthogonal blocks: concatenated ``(src, tgt)`` column ids of
    every pair that needs exchanging (``(None, None)`` when none does),
    with ``stats.exchanged`` counted.  Shared by the in-place event path
    (:func:`_apply_sort_only`) and the simulator fast path, which applies
    the same permutation as a pure row relabelling."""
    srcs = []
    tgts = []
    for i in range(len(pair_cols)):
        cols = pair_cols[i]
        perm = _sort_perm(d[i], sort)
        if perm is None:
            continue
        target = np.sort(cols)
        src = cols[perm]
        if not np.array_equal(src, target):
            stats.exchanged += int(np.count_nonzero(src != target)) // 2
            srcs.append(src)
            tgts.append(target)
    if not srcs:
        return None, None
    return np.concatenate(srcs), np.concatenate(tgts)


def _apply_sort_only(
    X: np.ndarray,
    V: np.ndarray | None,
    pair_cols: list[np.ndarray],
    d: np.ndarray,
    sort: str | None,
    stats: RotationStats,
    sanitizer=None,
) -> None:
    """Apply the norm-ordering convention to already-orthogonal blocks."""
    src, tgt = _sort_exchanges(pair_cols, d, sort, stats)
    if src is not None:
        X[:, tgt] = X[:, src]
        if V is not None:
            V[:, tgt] = V[:, src]
        if sanitizer is not None:
            sanitizer.record_touch(0, len(pair_cols), tgt)


def _gram(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(B, k, m) -> (B, k, k)``: ``y @ y^T`` per stack entry."""
    return np.matmul(y, y.transpose(0, 2, 1), out=out)


def _apply_wt(w: np.ndarray, y: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``(B, k, k), (B, k, m) -> (B, k, m)``: ``w^T @ y`` per stack entry
    (the ``out`` form copies the same bits as the allocating form)."""
    return np.matmul(w.transpose(0, 2, 1), y, out=out)


def _gram_measure(
    G: np.ndarray,
    cols_arr: np.ndarray,
    k: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Finite check, symmetrisation and convergence measurement of a
    ``(nb, k, k)`` Gram stack — the decision half of the gram kernel,
    shared verbatim by the event-driven path (:func:`_solve_gram_many`)
    and the simulator fast path (:func:`fastpath_gram_step`) so their
    bit-identity holds by construction.  Returns
    ``(G_sym, d, floor, worst)``; raises before any column is touched."""
    finite = np.isfinite(G)
    if not finite.all():
        # breakdown sentinel: raise before any column is touched so the
        # per-pair fallback can re-solve the poisoned pairs from clean data
        i = int(np.argwhere(~finite)[0][0])
        raise NumericalBreakdown(
            f"non-finite Gram block for pair {i} "
            f"(columns {cols_arr[i].tolist()})",
            where=(int(cols_arr[i][0]), int(cols_arr[i][-1])))
    # gemm output is symmetric only to rounding; the solver updates
    # (p, q) and (q, p) through the same rotation, so symmetrise once
    G = 0.5 * (G + G.transpose(0, 2, 1))
    d = np.diagonal(G, axis1=1, axis2=2)  # (nb, k) squared norms
    gmax = d.max(axis=1)
    floor = GRAM_NOISE * k * _EPS * gmax  # zero blocks get a zero floor
    fdiv = (floor / tol)[:, None] if tol > 0.0 else np.zeros((len(G), 1))
    i0, i1 = _triu_cache(k)
    denom = np.sqrt(np.abs(d[:, i0] * d[:, i1]))
    rel = np.abs(G[:, i0, i1]) / (denom + fdiv + _TINY)
    worst = float(rel.max(initial=0.0))
    return G, d, floor, worst


def _gram_factors(
    G: np.ndarray,
    cols_arr: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    floor: np.ndarray,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Inner Gram solve plus the sort convention — the factor half of
    the gram kernel, shared by both execution paths.  Returns
    ``(W, rotations, tgt_arr)`` with ``W``'s columns already permuted to
    land each block's norms in target order (``tgt_arr`` the sorted
    column targets, or ``cols_arr`` itself with ``sort=None``)."""
    W, rotations, _, _ = gram_eigh_batched(G, tol=tol,
                                           max_sweeps=inner_sweeps,
                                           floor=floor)
    if not np.isfinite(W).all():
        raise NumericalBreakdown(
            "non-finite rotation factor from the inner Gram Jacobi")
    if sort is not None:
        d2 = np.diagonal(G, axis1=1, axis2=2)
        if sort == "desc":
            perm = np.argsort(-d2, axis=1, kind="stable")
        else:
            perm = np.argsort(d2, axis=1, kind="stable")
        W = np.take_along_axis(W, perm[:, None, :], axis=2)
        tgt_arr = np.sort(cols_arr, axis=1)
    else:
        tgt_arr = cols_arr
    return W, rotations, tgt_arr


def _fp_buffer(scratch: "dict | None", key: str, rows: int,
               tail: tuple[int, ...]) -> np.ndarray:
    """Sweep-persistent step buffer for the fast path.

    Large per-step temporaries (the gathered ``(nb*2b, m)`` stacks and
    their rotated outputs) dominate the fast path's non-GEMM cost when
    freshly allocated each step: at n = 512 the malloc/page-fault churn
    of four ~2 MB arrays per step costs more than the gathers
    themselves.  Buffers live in ``scratch`` keyed by name, are grown
    monotonically, and are handed out as leading-axis views, so a whole
    sweep allocates each stack once.
    """
    if scratch is None:
        return np.empty((rows, *tail))
    buf = scratch.get(key)
    if buf is None or buf.shape[0] < rows or buf.shape[1:] != tail:
        buf = np.empty((max(rows, buf.shape[0] if buf is not None else 0),
                        *tail))
        scratch[key] = buf
    return buf[:rows]


def fastpath_gram_flush(
    XT: np.ndarray,
    VT: np.ndarray | None,
    scratch: "dict | None",
) -> None:
    """Write a carried rotation stack back into canonical storage.

    Full-coverage steps leave their rotated stacks in ``scratch`` (see
    :func:`fastpath_gram_step`) instead of scattering into ``XT``/``VT``;
    until the next flush the canonical buffers are stale for the stacked
    rows.  Callers must flush before reading ``XT``/``VT`` directly —
    the simulator does so at sweep end and before delegating a
    broken-down step to the event solver.  A no-op when nothing is
    carried."""
    if not scratch:
        return
    rows = scratch.pop("stack_rows", None)
    if rows is None:
        return
    XT[rows] = scratch["xstk"][:len(rows)]
    if VT is not None:
        VT[rows] = scratch["vstk"][:len(rows)]


def fastpath_gram_step(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    cols_arr: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    scratch: "dict | None" = None,
) -> tuple[RotationStats, float]:
    """One schedule step of the gram kernel on transposed storage — the
    simulator fast path's solver.

    ``XT`` (``(n, m)``) and ``VT`` (``(n, n)``) hold the matrix columns
    as contiguous *rows*; ``row_of_col`` maps column id -> physical row
    (updated in place).  The step gathers its rows into the same
    C-contiguous ``(nb, 2b, m)`` stacks as the event path's
    Gram-form phase, runs the shared measurement/factor helpers,
    and scatters results back into the gathered rows — so every GEMM
    sees bit-identical operands in bit-identical layouts, and row-major
    fancy gathers replace the event path's strided column gathers (the
    fast path's actual win).  Norm-ordering exchanges of
    already-orthogonal blocks become pure ``row_of_col`` relabelings:
    zero data movement, same ``stats.exchanged`` count.  ``scratch``
    (see :func:`_fp_buffer`) carries the step stacks across a sweep so
    steady-state steps are allocation-free; ``np.take(..., mode="clip")``
    and the ``out=`` GEMM forms copy the same bits as the allocating
    forms.

    Raises :class:`~repro.util.errors.NumericalBreakdown` before
    touching any row; the caller materialises ``X``/``V`` and delegates
    the step to the event-path solver (same per-pair fallback).
    """
    stats = RotationStats()
    cols_arr = np.asarray(cols_arr, dtype=np.intp)
    nb, k = cols_arr.shape
    m = XT.shape[1]
    n_rows = XT.shape[0]
    rows = row_of_col[cols_arr.reshape(-1)]
    # stack carry: a step that rotates every column leaves its output in
    # the scratch stack; the next full-coverage step gathers straight
    # from it (one warm permuted copy instead of a scatter + re-gather
    # through XT/VT).  Anything else flushes first, so the canonical
    # buffers are current whenever they are actually read.
    full = scratch is not None and len(rows) == n_rows
    stack_rows = scratch.get("stack_rows") if scratch is not None else None
    if stack_rows is not None and not full:
        fastpath_gram_flush(XT, VT, scratch)
        stack_rows = None
    Ys2d = _fp_buffer(scratch, "Ys", nb * k, (m,))
    if stack_rows is not None:
        idx = scratch["pos"][rows]
        np.take(scratch["xstk"], idx, axis=0, out=Ys2d, mode="clip")
    else:
        idx = None
        np.take(XT, rows, axis=0, out=Ys2d, mode="clip")
    Ys = Ys2d.reshape(nb, k, m)
    G = _gram(Ys, out=_fp_buffer(scratch, "G", nb, (k, k)))
    G, d, floor, worst = _gram_measure(G, cols_arr, k, tol)
    if worst <= tol:
        # already orthogonal: only the norm-ordering convention may act,
        # and it moves no data — any carried stack stays valid
        src, tgt = _sort_exchanges(cols_arr, d, sort, stats)
        if src is not None:
            row_of_col[tgt] = row_of_col[src]
        return stats, worst
    W, rotations, tgt_arr = _gram_factors(G, cols_arr, tol, sort,
                                          inner_sweeps, floor)
    stats.applied = rotations
    if VT is not None:
        nv = VT.shape[1]
        Vs2d = _fp_buffer(scratch, "Vs", nb * k, (nv,))
        if idx is not None:
            np.take(scratch["vstk"], idx, axis=0, out=Vs2d, mode="clip")
        else:
            np.take(VT, rows, axis=0, out=Vs2d, mode="clip")
        Vs = Vs2d.reshape(nb, k, nv)
    if full:
        # rotate into the stack: the gathers above copied this step's
        # operands out, so the stack buffers are free to take the
        # (Y_i W_i)^T outputs; XT/VT go stale until the next flush
        xstk = _fp_buffer(scratch, "xstk", n_rows, (m,))
        _apply_wt(W, Ys, out=xstk.reshape(nb, k, m))
        if VT is not None:
            vstk = _fp_buffer(scratch, "vstk", n_rows, (nv,))
            _apply_wt(W, Vs, out=vstk.reshape(nb, k, nv))
        scratch["stack_rows"] = rows
        pos = scratch.get("pos")
        if pos is None or len(pos) != n_rows:
            pos = np.empty(n_rows, dtype=np.intp)
            scratch["pos"] = pos
        pos[rows] = np.arange(n_rows, dtype=np.intp)
    else:
        out2d = _fp_buffer(scratch, "out", nb * k, (m,))
        _apply_wt(W, Ys, out=out2d.reshape(nb, k, m))  # (Y_i W_i)^T
        XT[rows] = out2d
        if VT is not None:
            vout2d = _fp_buffer(scratch, "vout", nb * k, (nv,))
            _apply_wt(W, Vs, out=vout2d.reshape(nb, k, nv))
            VT[rows] = vout2d
    row_of_col[tgt_arr.reshape(-1)] = rows
    return stats, worst


def _solve_gram_many(
    X: np.ndarray,
    V: np.ndarray | None,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    executor=None,
    sanitizer=None,
) -> tuple[RotationStats, float]:
    """BLAS-3 Gram-space solve of a whole step's met pairs at once.

    One stacked Gram form ``G_i = Y_i^T Y_i``, one batched inner solve
    (:func:`repro.eig.gram_eigh_batched`: stacked LAPACK ``eigh`` inside
    the gate, cyclic Jacobi outside it), one stacked application
    ``Y_i <- Y_i W_i`` / ``V_i <- V_i W_i``.

    With an ``executor``, the two GEMM phases (gather/Gram-form and
    apply/scatter) are chunked over the batch dimension: each chunk
    gathers and writes only its own ``[lo:hi]`` slice of the
    preallocated stacks, and each 2D GEMM inside the batch is computed
    exactly as in the serial path, so the result is bit-identical for
    any worker count.  The inner solve between the phases is
    deliberately one full-stack call: the cyclic loop's convergence
    test couples the Grams outside the gate across the batch (a
    converged-by-floor block in a mixed batch would receive extra
    rotations if batches were split), so chunking it would break the
    determinism contract.
    """
    stats = RotationStats()
    k = len(pair_cols[0])
    require(all(len(c) == k for c in pair_cols),
            "all block pairs of a step must have equal width")
    cols_arr = np.asarray(pair_cols, dtype=np.intp)
    nb = len(cols_arr)
    m = X.shape[0]
    Ys = np.empty((nb, k, m))  # Ys[i] = Y_i^T
    G = np.empty((nb, k, k))
    XT = X.T

    def gram_form(lo: int, hi: int) -> None:
        # gather chunk [lo, hi) and form its Gram blocks: writes only
        # its own Ys/G slices
        Ys[lo:hi] = XT[cols_arr[lo:hi].reshape(-1)].reshape(hi - lo, k, m)
        _gram(Ys[lo:hi], out=G[lo:hi])

    chunked = executor is not None and executor.workers > 1
    if chunked:
        executor.run_chunks(nb, gram_form)
    else:
        gram_form(0, nb)
    G, d, floor, worst = _gram_measure(G, cols_arr, k, tol)
    if worst <= tol:
        # already orthogonal: only the norm-ordering convention may act
        _apply_sort_only(X, V, pair_cols, d, sort, stats, sanitizer)
        return stats, worst
    W, rotations, tgt_arr = _gram_factors(G, cols_arr, tol, sort,
                                          inner_sweeps, floor)
    stats.applied = rotations
    n = V.shape[0] if V is not None else 0

    def gram_apply(lo: int, hi: int) -> None:
        # apply chunk [lo, hi) of the rotation factors and scatter into
        # the (disjoint) target columns
        out = _apply_wt(W[lo:hi], Ys[lo:hi])  # (Y_i W_i)^T
        t = tgt_arr[lo:hi].reshape(-1)
        X[:, t] = out.reshape((hi - lo) * k, m).T
        if V is not None:
            Vs = V.T[cols_arr[lo:hi].reshape(-1)].reshape(hi - lo, k, n)
            V[:, t] = _apply_wt(W[lo:hi], Vs).reshape((hi - lo) * k, n).T

    if chunked:
        executor.run_chunks(nb, gram_apply)
    else:
        gram_apply(0, nb)
    if sanitizer is not None:
        for lo, hi in _phase_bounds(executor, nb, chunked):
            sanitizer.record_touch(lo, hi, tgt_arr[lo:hi].reshape(-1))
    return stats, worst


def solve_block_step_batch(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
    executor=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one schedule step for *many problem matrices* at once.

    The many-matrix analogue of :func:`solve_block_step`: ``Xs`` is a
    ``(B, m, n)`` stack of independent problems (``Vs`` the matching
    ``(B, n, n)`` stack of accumulated factors, or ``None``), ``items``
    the batch indices still iterating, and ``pair_cols`` the step's met
    block pairs — shared by every item, because all problems of a batch
    run the same compiled schedule.  Returns per-item arrays
    ``(applied, worst)`` aligned with ``items``.

    The contract is the batch API's: **bit-identical to solving each
    matrix alone**.  The gram kernel fuses the problem axis into its
    stacked GEMM phases — one ``(len(items) * n_pairs, 2b, m)``
    gather/Gram-form and one apply/scatter — while the inner Gram
    solve runs through :func:`repro.eig.gram_eigh_grouped` with one
    *convergence group per problem*, so no problem's factors ever
    depend on its batch neighbours.  The reference kernel loops
    over the items.  ``executor`` chunks the *batch axis* (items, not
    GEMM rows, are the unit of parallel work); chunks write disjoint
    ``Xs[i]`` slices and merge in chunk order, so any worker count
    yields the same bits.

    A poisoned item (non-finite Gram blocks or rotation factors) is
    delegated alone to :func:`solve_block_step`'s body, which re-raises
    the same breakdown from the untouched columns and takes the same
    per-pair fallback a solo run would.
    """
    require(sort in _SORT_MODES, f"sort must be one of {_SORT_MODES}, got {sort!r}")
    require(kernel in BLOCK_KERNELS,
            f"unknown block kernel {kernel!r}; "
            f"available: {', '.join(BLOCK_KERNELS)}")
    items = np.asarray(items, dtype=np.intp)
    if items.size == 0 or len(pair_cols) == 0:
        return np.zeros(items.size, dtype=np.intp), np.zeros(items.size)

    def solve_items(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return _solve_batch_items(Xs, Vs, items[lo:hi], pair_cols, tol,
                                  sort, inner_sweeps, kernel)

    if executor is None or executor.workers == 1 or items.size == 1:
        return solve_items(0, items.size)
    applied = np.empty(items.size, dtype=np.intp)
    worst = np.empty(items.size)
    pos = 0
    for ap, wo in executor.run_chunks(items.size, solve_items):
        applied[pos:pos + len(ap)] = ap
        worst[pos:pos + len(wo)] = wo
        pos += len(ap)
    return applied, worst


def _solve_batch_items(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    sub: np.ndarray,
    cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of the batch path: solve the batch items ``sub``."""
    if kernel == "gram":
        return _solve_gram_batch(Xs, Vs, sub, cols, tol, sort, inner_sweeps)
    applied = np.zeros(sub.size, dtype=np.intp)
    worst = np.zeros(sub.size)
    for j, i in enumerate(sub):
        st, mx = _solve_step_body(
            Xs[i], None if Vs is None else Vs[i], cols, tol, sort,
            inner_sweeps, kernel, None, None)
        applied[j] = st.applied
        worst[j] = mx
    return applied, worst


def _expand_groups(pos: np.ndarray, nb: int) -> np.ndarray:
    """Stack-row indices of the ``nb``-pair groups at positions ``pos``."""
    return (pos[:, None] * nb + np.arange(nb, dtype=np.intp)).reshape(-1)


def _apply_sort_only_batch(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    rows: np.ndarray,
    cols_arr: np.ndarray,
    d: np.ndarray,
    sort: str | None,
) -> None:
    """Vectorised :func:`_apply_sort_only` across problem matrices.

    ``rows`` are batch indices, ``d`` the ``(len(rows) * nb, k)``
    squared norms aligned with them.  Pairs already in norm order are
    rewritten with their own values — a bitwise no-op — so the whole
    permutation is two gather/scatter pairs regardless of batch size.
    """
    if sort is None:
        return
    nb, k = cols_arr.shape
    if sort == "desc":
        perm = np.argsort(-d, axis=1, kind="stable")
    else:
        perm = np.argsort(d, axis=1, kind="stable")
    cols_tiled = np.tile(cols_arr, (len(rows), 1))
    src = np.take_along_axis(cols_tiled, perm, axis=1)
    src_rows = src.reshape(len(rows), nb * k)
    tgt_flat = np.sort(cols_arr, axis=1).reshape(-1)
    XsT = Xs.transpose(0, 2, 1)
    XsT[np.ix_(rows, tgt_flat)] = XsT[rows[:, None], src_rows]
    if Vs is not None:
        VsT = Vs.transpose(0, 2, 1)
        VsT[np.ix_(rows, tgt_flat)] = VsT[rows[:, None], src_rows]


def _solve_gram_batch(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The gram kernel's problem-axis super-batch (see
    :func:`solve_block_step_batch`): :func:`_solve_gram_many` with the
    batch dimension extended from ``n_pairs`` to ``B x n_pairs`` and
    every per-matrix decision (sort-only early exit, inner-solve
    convergence, breakdown delegation) taken per problem."""
    nm = items.size
    k = len(pair_cols[0])
    require(all(len(c) == k for c in pair_cols),
            "all block pairs of a step must have equal width")
    cols_arr = np.asarray(pair_cols, dtype=np.intp)
    nb = len(cols_arr)
    m = Xs.shape[1]
    allcols = cols_arr.reshape(-1)
    applied = np.zeros(nm, dtype=np.intp)
    worst_out = np.zeros(nm)

    XsT = Xs.transpose(0, 2, 1)  # (B, n, m) view of the column stacks
    Ys = XsT[np.ix_(items, allcols)].reshape(nm * nb, k, m)
    G = _gram(Ys)

    def delegate(j: int) -> None:
        # the solo path re-forms this item's Gram blocks from its still
        # untouched columns, hits the same breakdown, and takes the same
        # per-pair fallback — bit-identical to a standalone run
        st, mx = _solve_step_body(
            Xs[items[j]], None if Vs is None else Vs[items[j]], pair_cols,
            tol, sort, inner_sweeps, "gram", None, None)
        applied[j] = st.applied
        worst_out[j] = mx

    finite = np.isfinite(G).reshape(nm, -1).all(axis=1)
    keep = np.flatnonzero(finite)
    for j in np.flatnonzero(~finite):
        delegate(int(j))
    if keep.size == 0:
        return applied, worst_out
    if keep.size < nm:
        sel = _expand_groups(keep, nb)
        Ys = Ys[sel]
        G = G[sel]
    # gemm output is symmetric only to rounding (see _solve_gram_many)
    G = 0.5 * (G + G.transpose(0, 2, 1))
    d = np.diagonal(G, axis1=1, axis2=2)  # (keep * nb, k) squared norms
    gmax = d.max(axis=1)
    floor = GRAM_NOISE * k * _EPS * gmax
    fdiv = (floor / tol)[:, None] if tol > 0.0 else np.zeros((len(G), 1))
    i0, i1 = _triu_cache(k)
    denom = np.sqrt(np.abs(d[:, i0] * d[:, i1]))
    rel = np.abs(G[:, i0, i1]) / (denom + fdiv + _TINY)
    relw = rel.reshape(keep.size, -1).max(axis=1)
    worst_out[keep] = relw

    so_mask = relw <= tol
    so_local = np.flatnonzero(so_mask)
    if so_local.size:
        # already orthogonal: only the norm-ordering convention may act
        _apply_sort_only_batch(Xs, Vs, items[keep[so_local]], cols_arr,
                               d[_expand_groups(so_local, nb)], sort)
    sv_local = np.flatnonzero(~so_mask)
    if sv_local.size == 0:
        return applied, worst_out
    sel_sv = _expand_groups(sv_local, nb)
    Gs = G[sel_sv]
    Ws, rots, _, _ = gram_eigh_grouped(Gs, tol=tol, max_sweeps=inner_sweeps,
                                       floor=floor[sel_sv], group_size=nb)
    wfin = np.isfinite(Ws).reshape(sv_local.size, -1).all(axis=1)
    for j_local in np.flatnonzero(~wfin):
        delegate(int(keep[sv_local[j_local]]))
    ok_local = np.flatnonzero(wfin)
    if ok_local.size == 0:
        return applied, worst_out
    sel_ok = _expand_groups(ok_local, nb)
    W_ok = Ws[sel_ok]
    Ys_ok = Ys[_expand_groups(sv_local[ok_local], nb)]
    if sort is not None:
        d2 = np.diagonal(Gs, axis1=1, axis2=2)[sel_ok]
        if sort == "desc":
            perm = np.argsort(-d2, axis=1, kind="stable")
        else:
            perm = np.argsort(d2, axis=1, kind="stable")
        W_ok = np.take_along_axis(W_ok, perm[:, None, :], axis=2)
        tgt_flat = np.sort(cols_arr, axis=1).reshape(-1)
    else:
        tgt_flat = allcols
    rows = items[keep[sv_local[ok_local]]]
    out = _apply_wt(W_ok, Ys_ok)  # (Y_i W_i)^T per pair
    XsT[np.ix_(rows, tgt_flat)] = out.reshape(rows.size, nb * k, m)
    if Vs is not None:
        n = Vs.shape[2]
        VsT = Vs.transpose(0, 2, 1)
        Vg = VsT[np.ix_(rows, allcols)].reshape(rows.size * nb, k, n)
        vout = _apply_wt(W_ok, Vg)
        VsT[np.ix_(rows, tgt_flat)] = vout.reshape(rows.size, nb * k, n)
    applied[keep[sv_local[ok_local]]] = rots[ok_local]
    return applied, worst_out
