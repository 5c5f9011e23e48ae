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
    ``W`` (:func:`repro.eig.gram_eigh_grouped`), then apply ``Y <- Y W``
    and ``V <- V W`` with single GEMMs.  A Gram whose diagonal spread
    ``max G_ii / min G_ii`` is below :data:`repro.eig.jacobi.EIGH_GATE`
    is solved by one stacked LAPACK ``eigh``; any other keeps the inner
    cyclic Jacobi, bounded by ``inner_sweeps``.  Strided column updates
    collapse into two ``(m x 2b) @ (2b x 2b)`` matmuls per pair, so the
    dominant cost is matrix-matrix work.

One step body serves both public entries.  It runs over a ``(B, m, n)``
stack of problem matrices: the block pairs met in one schedule step have
disjoint column sets, so every met pair of every matrix still iterating
is one row of one stacked Gram form, one grouped inner solve (one
convergence group per matrix) and one stacked application — on a
simulated machine this is exactly the work the leaves do concurrently.
:func:`solve_block_step` runs the body as a batch of one matrix and
:func:`solve_block_step_batch` as it is, so both give the same bits
for the same matrix; the body also holds the runtime sanitizer's step
records.  The block driver stores each matrix's columns as contiguous
rows of a ``(B, n, m)`` array and hands the body its ``(B, m, n)``
view, so the body's gathers and scatters move whole rows.

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

from dataclasses import astuple, fields
import numpy as np

from ..eig.jacobi import _triu_cache, gram_eigh_grouped
from ..svd.rotations import RotationStats, apply_step_rotations
from ..util.errors import NumericalBreakdown
from ..util.validation import require

__all__ = ["BLOCK_KERNELS", "GRAM_NOISE", "KERNEL_STAGES", "solve_block_step",
           "solve_block_step_batch"]

#: registered block-pair kernels; ``gram`` is the BLAS-3 fast path and
#: ``reference`` its oracle
BLOCK_KERNELS = ("reference", "gram")

#: declarative stage structure of each kernel under the step executor:
#: ``(stage name, splittable)`` in execution order.  A splittable stage
#: may be chunked over its rows — the met pairs of the step, one row per
#: pair and matrix — and every chunk writes a disjoint slice; an
#: unsplittable stage must run as one full-stack call — the gram
#: kernel's inner cyclic Jacobi couples a matrix's Grams outside the
#: ``eigh`` gate through its convergence test, so splitting it would
#: change the rotation sequence and break the bit-identity contract.
#: The static executor-plan analyzer (:mod:`repro.verify.executor_plan`)
#: proves each stage's chunking against this table (rule ``EXEC002``).
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

#: the step body's per-matrix counters: one column per
#: :class:`~repro.svd.rotations.RotationStats` field, in field order
_COUNTERS = tuple(f.name for f in fields(RotationStats))
_APPLIED = _COUNTERS.index("applied")
_EXCHANGED = _COUNTERS.index("exchanged")

#: the item list of a batch of one, and the empty item list
_SOLO = np.zeros(1, dtype=np.intp)
_NO_ITEMS = np.zeros(0, dtype=np.intp)
_SOLO.flags.writeable = _NO_ITEMS.flags.writeable = False


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
    calls.  ``X`` (and ``V``) are modified in place.  Returns merged
    rotation counters and the worst first-touch relative off-diagonal
    across all pairs — the outer driver's convergence signal.  With
    ``sort`` set, each local solve leaves norms ordered along ascending
    column index (larger norms at smaller indices for ``"desc"``), the
    convention that makes sorted output emerge at block granularity.
    The step runs the shared step body as a batch of one matrix, so it
    gives the bits :func:`solve_block_step_batch` gives that matrix.

    ``executor`` (a :class:`~repro.parallel.executor.StepExecutor`)
    spreads the step's independent work over worker threads: the gram
    kernel chunks only its gather/Gram-form and apply/scatter GEMM
    phases over the step's pairs — the inner Gram solve stays one
    full-stack call, because the cyclic loop's convergence test couples
    the Grams outside the ``eigh`` gate and splitting it would change
    the rotation sequence — while the reference kernel chunks the pair
    loop itself.  Either way the result is bit-identical to the serial
    path for any worker count (see :mod:`repro.parallel.executor` for
    the contract).

    A numerical breakdown degrades gracefully: the gram kernel detects a
    non-finite Gram block or rotation factor before touching ``X``/``V``
    and then re-solves the pairs one by one, each first with the gram
    kernel alone and, should that break down too, with the guarded
    reference solver (``stats.fallbacks`` counts the pairs that fell
    back).  A breakdown the guarded solver cannot absorb (genuinely
    corrupted data) raises :class:`~repro.util.errors.NumericalBreakdown`
    to the caller — under a fault-recovery driver that triggers a
    sweep-checkpoint rollback instead of garbage output.

    ``sanitizer`` (a :class:`~repro.verify.sanitize.RuntimeSanitizer`)
    gets the step's write-set record (rule ``SAN001``), as in
    :func:`solve_block_step_batch`.
    """
    counts, worst = _solve_step(X[None], None if V is None else V[None],
                                _SOLO, pair_cols, tol, sort, inner_sweeps,
                                kernel, executor, sanitizer)
    return RotationStats(*counts[0].tolist()), float(worst[0])


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
    sanitizer=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one schedule step for *many problem matrices* at once.

    The many-matrix form of :func:`solve_block_step`: ``Xs`` is a
    ``(B, m, n)`` stack of independent problems (``Vs`` the matching
    ``(B, n, n)`` stack of accumulated factors, or ``None``), ``items``
    the batch indices still iterating, and ``pair_cols`` the step's met
    block pairs — shared by every item, because all problems of a batch
    run the same compiled schedule.  Returns per-item arrays
    ``(applied, worst)`` aligned with ``items``.

    The contract is the batch API's: **bit-identical to solving each
    matrix alone**, by construction — both entries run the same step
    body, this one on all ``items`` at once.  The gram kernel fuses the
    problem axis into its stacked GEMM phases — one
    ``(len(items) * n_pairs, 2b, m)`` gather/Gram-form and one
    apply/scatter — while the inner Gram solve runs through
    :func:`repro.eig.gram_eigh_grouped` with one *convergence group per
    problem*, so no problem's factors ever depend on its batch
    neighbours.  Every per-matrix decision (sort-only exit, breakdown)
    is taken per item.  ``executor`` chunks the GEMM phases (and the
    reference kernel's pair loop) over the fused (item, pair) rows;
    chunks write disjoint slices, so any worker count yields the same
    bits.

    ``sanitizer`` (a :class:`~repro.verify.sanitize.RuntimeSanitizer`)
    opens a write-set record for the step over its fused rows: row
    ``(i, p)`` may write the keys ``i * n + c`` of its pair's columns
    ``c``, the solvers report the keys they actually scatter into, and
    a phase that runs only some of the items checks its rows in a scope
    of its own (rule ``SAN001``).
    """
    counts, worst = _solve_step(Xs, Vs, np.asarray(items, dtype=np.intp),
                                pair_cols, tol, sort, inner_sweeps, kernel,
                                executor, sanitizer)
    return counts[:, _APPLIED], worst


def _pair_array(pair_cols: "list[np.ndarray] | np.ndarray") -> np.ndarray:
    """The step's met pairs as one ``(n_pairs, 2b)`` column-index array."""
    if not isinstance(pair_cols, np.ndarray):
        k = len(pair_cols[0])
        require(all(len(c) == k for c in pair_cols),
                "all block pairs of a step must have equal width")
    cols = np.asarray(pair_cols, dtype=np.intp)
    require(cols.ndim == 2, "pair_cols must hold one column array per pair")
    return cols


def _phase_bounds(executor, n_items: int,
                  chunked: bool) -> list[tuple[int, int]]:
    """The chunk bounds a dispatched phase ran with (the calling thread
    replays the deterministic bounds into the sanitizer after the
    dispatch settles, so workers never touch the sanitizer)."""
    if not chunked:
        return [(0, n_items)] if n_items else []
    return executor.chunk_bounds(n_items, executor.workers)


def _dispatch(executor, chunked: bool, n_rows: int, fn) -> list:
    """``fn(lo, hi)`` over ``range(n_rows)``: in executor chunks (results
    in chunk order) or as one call."""
    if chunked:
        return executor.run_chunks(n_rows, fn)
    return [fn(0, n_rows)]


def _rows(items: np.ndarray, nb: int, lo: int, hi: int):
    """The fused (item, pair) rows ``[lo, hi)`` of a step: an item-index
    column and a pair index (a plain slice when there is one item), so
    ``XsT[item, cols[pair]]`` addresses the rows' ``(hi - lo, 2b)``
    column stacks."""
    if len(items) == 1:
        return items[:, None], slice(lo, hi)
    r = np.arange(lo, hi)
    return items[r // nb, None], r % nb


def _take_items(a: np.ndarray, nb: int, pos: np.ndarray) -> np.ndarray:
    """The fused rows of the items at ``pos`` of a stack holding ``nb``
    consecutive (item, pair) rows per item."""
    return a.reshape(-1, nb, *a.shape[1:])[pos].reshape(-1, *a.shape[1:])


def _write_keys(items: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The write-set keys of the fused (item, pair) rows of ``items``
    (``(len(items) * nb, 2b)``): column ``c`` of matrix ``i`` is key
    ``i * n + c``, so for a batch of one a key is the column id."""
    return (items[:, None, None] * n + cols).reshape(-1, cols.shape[1])


def _write_sets(keys: np.ndarray) -> tuple[int, list[frozenset[int]]]:
    """``(work items, per-item write-sets)`` of a sanitizer scope over
    the rows holding ``keys``."""
    return len(keys), [frozenset(k) for k in keys.tolist()]


def _begin_scope(sanitizer, keys: np.ndarray, step_rows: int) -> None:
    """Give a phase that runs only some of the step's ``step_rows`` rows
    (its rows hold ``keys``) a sanitizer scope of its own; phases run
    one after another, so checking them apart misses no race."""
    if len(keys) < step_rows:
        sanitizer.begin_scope(*_write_sets(keys))


def _solve_step(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
    executor,
    sanitizer,
) -> tuple[np.ndarray, np.ndarray]:
    """The one step body: solve the met pairs ``pair_cols`` of every
    matrix ``Xs[i]``, ``i`` in ``items``, in place.

    Returns per-item counters (``(len(items), 5)``, one column per
    :class:`~repro.svd.rotations.RotationStats` field) and per-item worst
    first-touch relative off-diagonals.  The gram kernel runs
    :func:`_solve_gram`; an item it reports broken (non-finite Gram or
    factor, columns untouched) is re-solved pair by pair through
    :func:`_solve_pairs`, which is also the whole reference kernel.
    With a ``sanitizer`` the step is one write-set record.
    """
    require(sort in _SORT_MODES, f"sort must be one of {_SORT_MODES}, got {sort!r}")
    require(kernel in BLOCK_KERNELS,
            f"unknown block kernel {kernel!r}; "
            f"available: {', '.join(BLOCK_KERNELS)}")
    counts = np.zeros((len(items), len(_COUNTERS)), dtype=np.intp)
    worst = np.zeros(len(items))
    if len(items) == 0 or len(pair_cols) == 0:
        return counts, worst
    cols = _pair_array(pair_cols)
    nb = len(cols)
    if sanitizer is not None:
        sanitizer.begin_step(
            *_write_sets(_write_keys(items, cols, Xs.shape[2])),
            workers=1 if executor is None else executor.workers)
    try:
        if kernel == "gram":
            broken = _solve_gram(Xs, Vs, items, cols, tol, sort,
                                 inner_sweeps, executor, sanitizer, counts,
                                 worst)
            if broken.size:
                _solve_pairs(Xs, Vs, items,
                             (broken[:, None] * nb + np.arange(nb)).reshape(-1),
                             cols, tol, sort, inner_sweeps, kernel, executor,
                             sanitizer, counts, worst)
        else:
            _solve_pairs(Xs, Vs, items, np.arange(len(items) * nb), cols,
                         tol, sort, inner_sweeps, kernel, executor,
                         sanitizer, counts, worst)
    except BaseException:
        if sanitizer is not None:
            # the step never completed; its write-set record is meaningless
            sanitizer.abort_step()
        raise
    if sanitizer is not None:
        sanitizer.end_step()
    return counts, worst


def _solve_pairs(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
    executor,
    sanitizer,
    counts: np.ndarray,
    worst: np.ndarray,
) -> None:
    """Solve the fused (item, pair) ``rows`` one pair at a time, merging
    into the per-item ``counts`` and ``worst``.

    The reference kernel runs every row here, and the gram kernel the
    rows of its broken items.  Pairs touch disjoint columns, so
    ``executor`` may chunk the rows; results merge in chunk order.
    """
    nb = len(cols)
    if sanitizer is not None:
        keys = _write_keys(items, cols, Xs.shape[2])[rows]
        _begin_scope(sanitizer, keys, len(items) * nb)

    def solve(lo: int, hi: int) -> list:
        out = []
        for r in rows[lo:hi]:
            j, p = divmod(int(r), nb)
            i = items[j]
            out.append((j, *_solve_pair(Xs[i], None if Vs is None else Vs[i],
                                        cols[p], tol, sort, inner_sweeps,
                                        kernel)))
        return out

    chunked = executor is not None and executor.workers > 1
    for part in _dispatch(executor, chunked, len(rows), solve):
        for j, st, mx in part:
            counts[j] += st
            worst[j] = max(worst[j], mx)
    if sanitizer is not None:
        # the per-pair solves rewrite every column of their pairs
        for lo, hi in _phase_bounds(executor, len(rows), chunked):
            sanitizer.record_touch(lo, hi, keys[lo:hi])


def _solve_pair(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
) -> tuple[tuple[int, ...], float]:
    """Solve one block pair with its own kernel; a gram breakdown falls
    back to the guarded reference solver (one ``fallbacks``).  Returns
    the pair's counters (``RotationStats`` field order) and worst."""
    if kernel == "gram":
        counts = np.zeros((1, len(_COUNTERS)), dtype=np.intp)
        worst = np.zeros(1)
        if _solve_gram(X[None], None if V is None else V[None], _SOLO,
                       cols[None], tol, sort, inner_sweeps, None, None,
                       counts, worst).size == 0:
            return tuple(counts[0]), float(worst[0])
        st, mx = _solve_reference_guarded(X, V, cols, tol, sort, inner_sweeps)
        st.fallbacks += 1
    else:
        st, mx = _solve_reference_guarded(X, V, cols, tol, sort, inner_sweeps)
    return astuple(st), mx


def _solve_gram(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    executor,
    sanitizer,
    counts: np.ndarray,
    worst: np.ndarray,
) -> np.ndarray:
    """The gram kernel over the matrices ``items`` of a ``(B, m, n)``
    stack: one stacked Gram form ``G_r = Y_r^T Y_r`` over the fused
    (item, pair) rows, one grouped inner solve
    (:func:`repro.eig.gram_eigh_grouped`, one group per item), one
    stacked application ``Y_r <- Y_r W_r`` / ``V_r <- V_r W_r``.  An item
    whose pairs are all already orthogonal takes the sort-only exit.

    Fills ``counts``/``worst`` for the items it solves and returns the
    positions (into ``items``) of the broken ones: a non-finite Gram
    block or rotation factor, detected before any of that item's
    columns is touched; a broken item's counters and worst stay zero.

    With an ``executor``, the gather/Gram-form and apply/scatter phases
    are chunked over the fused rows; each chunk gathers and writes only
    its own ``[lo:hi]`` rows and every 2D GEMM is the serial one, so any
    worker count gives the serial bits.  The inner solve stays one call
    (see :func:`solve_block_step`).
    """
    nm = len(items)
    nb, k = cols.shape
    m, n = Xs.shape[1:]
    XsT = Xs.transpose(0, 2, 1)  # (B, n, m): columns as rows
    VsT = None if Vs is None else Vs.transpose(0, 2, 1)
    Ys = np.empty((nm * nb, k, m))  # Ys[r] = Y_r^T
    G = np.empty((nm * nb, k, k))

    def gram_form(lo: int, hi: int) -> None:
        # gather rows [lo, hi) and form their Gram blocks: writes only
        # its own Ys/G slices
        item, pair = _rows(items, nb, lo, hi)
        Ys[lo:hi] = XsT[item, cols[pair]]
        _gram(Ys[lo:hi], out=G[lo:hi])

    chunked = executor is not None and executor.workers > 1
    _dispatch(executor, chunked, nm * nb, gram_form)
    broken, G, d, floor, item_worst = _gram_measure(G, nm, tol)
    # the positions (into items) the rows of G, d, floor and Ys belong to
    pos = np.arange(nm)
    if broken.size:
        pos = np.delete(pos, broken)
        if pos.size == 0:
            return broken
        Ys = _take_items(Ys, nb, pos)
    worst[pos] = item_worst
    solve = item_worst > tol
    if not solve.all():
        # already orthogonal: only the norm-ordering convention may act,
        # and only the columns out of norm order move
        done = np.flatnonzero(~solve)
        if done.size < pos.size:
            d = _take_items(d, nb, done)
        done_items = items[pos[done]]
        moves = _sort_exchanges(cols if done.size == 1
                                else np.tile(cols, (done.size, 1)), d, sort)
        if moves is not None:
            row, src, dst, exchanged = moves
            item = done_items[row // nb]
            XsT[item, dst] = XsT[item, src]
            if VsT is not None:
                VsT[item, dst] = VsT[item, src]
            if sanitizer is not None:
                _begin_scope(sanitizer, _write_keys(done_items, cols, n),
                             nm * nb)
                sanitizer.record_touch(0, done.size * nb, item * n + dst)
            counts[pos[done], _EXCHANGED] = exchanged.reshape(
                done.size, nb).sum(axis=1)
        if done.size == pos.size:
            return broken
        keep = np.flatnonzero(solve)
        pos, G, floor, Ys = (pos[keep], _take_items(G, nb, keep),
                             _take_items(floor, nb, keep),
                             _take_items(Ys, nb, keep))
    W, rotations, ok, tgt = _gram_factors(G, floor, cols, tol, sort,
                                          inner_sweeps)
    if not ok.all():
        broken = np.union1d(broken, pos[~ok])
        worst[pos[~ok]] = 0.0
        keep = np.flatnonzero(ok)
        if keep.size == 0:
            return broken
        pos, rotations = pos[keep], rotations[keep]
        W, Ys = _take_items(W, nb, keep), _take_items(Ys, nb, keep)
    counts[pos, _APPLIED] = rotations
    sub = items[pos]

    def gram_apply(lo: int, hi: int) -> None:
        # apply rows [lo, hi) of the rotation factors and scatter into
        # the (disjoint) target columns
        item, pair = _rows(sub, nb, lo, hi)
        XsT[item, tgt[pair]] = _apply_wt(W[lo:hi], Ys[lo:hi])  # (Y_r W_r)^T
        if VsT is not None:
            VsT[item, tgt[pair]] = _apply_wt(W[lo:hi],
                                             VsT[item, cols[pair]])

    if sanitizer is not None:
        _begin_scope(sanitizer, _write_keys(sub, cols, n), nm * nb)
    _dispatch(executor, chunked, len(W), gram_apply)
    if sanitizer is not None:
        keys = _write_keys(sub, tgt, n)
        for lo, hi in _phase_bounds(executor, len(W), chunked):
            sanitizer.record_touch(lo, hi, keys[lo:hi])
    return broken


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


def _sort_perm(d: np.ndarray, sort: str | None) -> np.ndarray | None:
    """Per-row stable permutation putting the squared norms ``d``
    (``(rows, 2b)``) in ``sort`` order; ``None`` for ``sort=None``."""
    if sort == "desc":
        return np.argsort(-d, axis=1, kind="stable")
    if sort == "asc":
        return np.argsort(d, axis=1, kind="stable")
    return None


def _sort_exchanges(
    cols: np.ndarray,
    d: np.ndarray,
    sort: str | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Column moves implied by the norm-ordering convention on
    already-orthogonal blocks: row ``r`` of ``cols`` (``(rows, 2b)``
    column ids, squared norms ``d``) keeps its column set, and the
    column whose norm ranks ``j``-th moves to the ``j``-th smallest id.
    Returns ``(row, src, tgt, exchanged)`` — per moved column its row,
    source and target id (columns already in place are left out), and
    per row the exchanges it counts — or ``None`` when nothing moves
    (always for ``sort=None``)."""
    perm = _sort_perm(d, sort)
    if perm is None:
        return None
    src = cols[np.arange(len(cols))[:, None], perm]
    tgt = np.sort(cols, axis=1)
    moved = src != tgt
    if not moved.any():
        return None
    return (np.nonzero(moved)[0], src[moved], tgt[moved],
            np.count_nonzero(moved, axis=1) // 2)


def _gram(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(B, k, m) -> (B, k, k)``: ``y @ y^T`` per stack entry."""
    return np.matmul(y, y.transpose(0, 2, 1), out=out)


def _apply_wt(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(B, k, k), (B, k, m) -> (B, k, m)``: ``w^T @ y`` per stack entry."""
    return np.matmul(w.transpose(0, 2, 1), y)


def _gram_measure(
    G: np.ndarray,
    nm: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Finite check, symmetrisation and convergence measurement of the
    Gram stack of ``nm`` matrices (``len(G) / nm`` consecutive pair rows
    each) — the decision half of the gram kernel.  Returns
    ``(broken, G, d, floor, worst)``: the positions of the matrices with
    a non-finite Gram block, then for the rows of the other matrices
    only the symmetrised Grams, their squared column norms and noise
    floors, and per matrix the worst relative off-diagonal."""
    nb = len(G) // nm
    finite = np.isfinite(G)
    if finite.all():
        broken = _NO_ITEMS
    else:
        finite = finite.reshape(nm, -1).all(axis=1)
        broken = np.flatnonzero(~finite)
        G = _take_items(G, nb, np.flatnonzero(finite))
    # gemm output is symmetric only to rounding; the solver updates
    # (p, q) and (q, p) through the same rotation, so symmetrise once
    G = 0.5 * (G + G.transpose(0, 2, 1))
    k = G.shape[1]
    d = np.diagonal(G, axis1=1, axis2=2)  # (rows, k) squared norms
    gmax = d.max(axis=1)
    floor = GRAM_NOISE * k * _EPS * gmax  # zero blocks get a zero floor
    fdiv = (floor / tol)[:, None] if tol > 0.0 else np.zeros((len(G), 1))
    i0, i1 = _triu_cache(k)
    denom = np.sqrt(np.abs(d[:, i0] * d[:, i1]))
    rel = np.abs(G[:, i0, i1]) / (denom + fdiv + _TINY)
    worst = rel.reshape(len(G) // nb, nb * len(i0)).max(axis=1, initial=0.0)
    return broken, G, d, floor, worst


def _gram_factors(
    G: np.ndarray,
    floor: np.ndarray,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inner Gram solve plus the sort convention — the factor half of
    the gram kernel.  ``G``
    holds one Gram per met pair ``cols`` (``(nb, 2b)``) for each matrix,
    and each matrix is one convergence group.  Returns
    ``(W, rotations, ok, tgt)``: ``W`` with its columns permuted to land
    each block's norms in target order, per matrix its rotation count
    and whether all its factors are finite, and the pairs' target
    column ids (sorted with ``sort`` set, else ``cols``)."""
    W, rotations, _, _ = gram_eigh_grouped(G, tol=tol,
                                           max_sweeps=inner_sweeps,
                                           floor=floor, group_size=len(cols))
    ok = np.isfinite(W).reshape(len(rotations), -1).all(axis=1)
    perm = _sort_perm(np.diagonal(G, axis1=1, axis2=2), sort)
    if perm is None:
        return W, rotations, ok, cols
    return (np.take_along_axis(W, perm[:, None, :], axis=2), rotations, ok,
            np.sort(cols, axis=1))
