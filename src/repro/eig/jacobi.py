"""Two-sided Jacobi symmetric eigensolver driven by the parallel orderings.

The paper's lineage (Brent & Luk [2]: "The solution of singular-value
and *symmetric eigenvalue* problems on multiprocessor arrays") applies
the same parallel orderings to the classical two-sided Jacobi method:
each step annihilates the off-diagonal entries of the disjoint index
pairs the ordering prescribes, ``A <- J^T A J``, and a sweep visits
every pair exactly once.  Any ordering from :mod:`repro.orderings`
drives the sweep; column moves translate into symmetric row+column
permutations, so the tree-locality properties carry over unchanged.

The kernels are vectorised over the disjoint pairs of a step: one fused
row update and one fused column update per step instead of a Python
loop over pairs.

The Gram solver behind the block kernel (:func:`gram_eigh_grouped`)
diagonalises stacks of small Gram matrices: one stacked LAPACK ``eigh``
for every matrix whose diagonal spread is below :data:`EIGH_GATE`,
cyclic two-sided Jacobi for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..orderings.base import Ordering
from ..orderings.registry import make_ordering
from ..svd.rotations import _validate_sort
from ..util.validation import require

__all__ = ["EIGH_GATE", "EigOptions", "EigResult", "gram_eigh_grouped",
           "jacobi_eigh", "symmetric_off_norm"]

_TINY = float(np.finfo(np.float64).tiny)

#: largest diagonal spread ``max g_ii / min g_ii`` of a Gram matrix that
#: :func:`gram_eigh_grouped` hands to LAPACK ``eigh``; a wider spread
#: keeps the cyclic loop, whose relative threshold keeps the relative
#: accuracy ``eigh`` alone loses on column-scaled input
EIGH_GATE = 1e8

#: the LAPACK solver of the gated branch
_lapack_eigh = np.linalg.eigh


@dataclass(frozen=True)
class EigOptions:
    """Tuning knobs of the two-sided Jacobi iteration."""

    tol: float = 1e-12
    max_sweeps: int = 60
    sort: str | None = "desc"

    def __post_init__(self) -> None:
        # max_sweeps = 0 would return the input diagonal as eigenvalues
        require(self.max_sweeps >= 1,
                f"max_sweeps must be >= 1, got {self.max_sweeps!r}")
        _validate_sort(self.sort)


@dataclass
class EigResult:
    """Eigendecomposition ``a = v @ diag(w) @ v.T``.

    ``w`` is sorted (nonincreasing by default); ``v`` is orthogonal with
    columns in the matching order.
    """

    w: np.ndarray
    v: np.ndarray
    converged: bool
    sweeps: int
    rotations: int
    off_history: list[float] = field(default_factory=list)

    def reconstruct(self) -> np.ndarray:
        return (self.v * self.w) @ self.v.T


def symmetric_off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the strict off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _eig_rotation_params(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray):
    """Classical symmetric Jacobi angles annihilating ``a_pq`` (vectorised)."""
    c = np.ones_like(app)
    s = np.zeros_like(app)
    nz = apq != 0.0
    if np.any(nz):
        theta = (aqq[nz] - app[nz]) / (2.0 * apq[nz])
        t = np.sign(theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
        t = np.where(theta == 0.0, 1.0, t)
        cn = 1.0 / np.sqrt(1.0 + t * t)
        c[nz] = cn
        s[nz] = t * cn
    return c, s


def _apply_two_sided(A: np.ndarray, V: np.ndarray | None,
                     p: np.ndarray, q: np.ndarray,
                     c: np.ndarray, s: np.ndarray) -> None:
    """``A <- J^T A J`` for the disjoint rotations J(p_k, q_k, theta_k)."""
    # row update: rows p and q mix
    Ap = A[p, :]
    Aq = A[q, :]
    A[p, :] = c[:, None] * Ap - s[:, None] * Aq
    A[q, :] = s[:, None] * Ap + c[:, None] * Aq
    # column update
    Ap = A[:, p]
    Aq = A[:, q]
    A[:, p] = c * Ap - s * Aq
    A[:, q] = s * Ap + c * Aq
    if V is not None:
        Vp = V[:, p]
        Vq = V[:, q]
        V[:, p] = c * Vp - s * Vq
        V[:, q] = s * Vp + c * Vq


def jacobi_eigh(
    a: np.ndarray,
    ordering: str | Ordering = "fat_tree",
    options: EigOptions | None = None,
    compute_v: bool = True,
    **ordering_kwargs: object,
) -> EigResult:
    """Eigendecomposition of a symmetric matrix under a parallel ordering.

    The iteration stops after the first complete sweep in which every
    prescribed pair already satisfies the relative threshold
    ``|a_pq| <= tol * sqrt(|a_pp a_qq|)`` (or the absolute scale of the
    matrix when a diagonal entry vanishes).
    """
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2 and a.shape[0] == a.shape[1], "square matrix expected")
    require(np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))),
            "matrix must be symmetric")
    n = a.shape[0]
    opts = options or EigOptions()
    if isinstance(ordering, Ordering):
        require(ordering.n == n, "ordering size mismatch")
        ord_obj = ordering
    else:
        ord_obj = make_ordering(ordering, n, **ordering_kwargs)

    A = a.copy()
    V = np.eye(n) if compute_v else None
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    history: list[float] = []
    rotations = 0
    converged = False
    sweeps = 0
    # logical labels follow the moves; pairs address matrix indices through
    # the slot -> index map so the schedule machinery is reused verbatim
    slot_index = np.arange(n, dtype=np.intp)
    for sweep in range(opts.max_sweeps):
        sched = ord_obj.sweep(sweep)
        worst = 0.0
        for step in sched.steps:
            if step.pairs:
                sa = np.fromiter((pr[0] for pr in step.pairs), dtype=np.intp)
                sb = np.fromiter((pr[1] for pr in step.pairs), dtype=np.intp)
                p = slot_index[sa]
                q = slot_index[sb]
                app = A[p, p]
                aqq = A[q, q]
                apq = A[p, q]
                denom = np.sqrt(np.abs(app * aqq))
                denom = np.where(denom > 0, denom, scale)
                rel = np.abs(apq) / denom
                worst = max(worst, float(rel.max(initial=0.0)))
                rotate = rel > opts.tol
                if np.any(rotate):
                    c, s = _eig_rotation_params(app[rotate], aqq[rotate], apq[rotate])
                    _apply_two_sided(A, V, p[rotate], q[rotate], c, s)
                    rotations += int(np.count_nonzero(rotate))
            if step.moves:
                src = np.fromiter((m.src for m in step.moves), dtype=np.intp)
                dst = np.fromiter((m.dst for m in step.moves), dtype=np.intp)
                slot_index[dst] = slot_index[src]
        sweeps = sweep + 1
        history.append(symmetric_off_norm(A))
        if worst <= opts.tol:
            converged = True
            break

    w = np.diag(A).copy()
    if opts.sort == "desc":
        order = np.argsort(-w, kind="stable")
    elif opts.sort == "asc":
        order = np.argsort(w, kind="stable")
    else:
        order = np.arange(n)
    w = w[order]
    v = V[:, order] if compute_v else np.zeros((n, 0))
    return EigResult(
        w=w, v=v, converged=converged, sweeps=sweeps,
        rotations=rotations, off_history=history,
    )


@lru_cache(maxsize=None)
def _round_robin_steps(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``k - 1`` steps of ``k/2`` disjoint pairs covering all ``C(k, 2)``
    index pairs once (the circle method; ``k`` must be even)."""
    arr = list(range(k))
    steps = []
    for _ in range(k - 1):
        pa = []
        qa = []
        for i in range(k // 2):
            a, b = arr[i], arr[k - 1 - i]
            pa.append(min(a, b))
            qa.append(max(a, b))
        steps.append(
            (np.array(pa, dtype=np.intp), np.array(qa, dtype=np.intp))
        )
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return tuple(steps)


@lru_cache(maxsize=None)
def _triu_cache(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a
    ``k x k`` matrix; cached and read-only, as every step of the block
    kernel and its inner solve indexes the same ``2b x 2b`` pairs."""
    i0, i1 = np.triu_indices(k, 1)
    i0.flags.writeable = False
    i1.flags.writeable = False
    return i0, i1


def _lapack_vectors(gs: np.ndarray) -> np.ndarray:
    """Eigenvectors (ascending eigenvalues) of the stack ``gs``.

    LAPACK refuses a whole stack when any one matrix fails to converge;
    the stack is then solved one matrix at a time and every matrix that
    still fails gets a NaN factor — the non-finite-``W`` breakdown
    signal the block kernels already handle.
    """
    try:
        return _lapack_eigh(gs)[1]
    except np.linalg.LinAlgError:
        V = np.full_like(gs, np.nan)
        for i in range(len(gs)):
            try:
                V[i] = _lapack_eigh(gs[i])[1]
            except np.linalg.LinAlgError:
                pass
        return V


def _solve_gated(g: np.ndarray, W: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The LAPACK branch of :func:`gram_eigh_grouped`: every matrix of
    the stack inside the gate gets its rank-matched, sign-fixed ``W``
    and ``g <- W^T g W`` in place, from one stacked ``eigh``.  Returns
    the gate mask and the per-matrix rotation count (the pairs above
    the relative threshold on entry; zero outside the gate).
    """
    nb, k = g.shape[0], g.shape[1]
    d = np.diagonal(g, axis1=1, axis2=2)
    dmin = d.min(axis=1, initial=np.inf)
    gated = (dmin > 0.0) & (d.max(axis=1, initial=0.0) < EIGH_GATE * dmin)
    rotations = np.zeros(nb, dtype=np.intp)
    idx = np.flatnonzero(gated)
    if idx.size == 0:
        return gated, rotations
    gs = g[idx]
    ds = d[idx]
    i0, i1 = _triu_cache(k)
    rotations[idx] = np.count_nonzero(
        np.abs(gs[:, i0, i1]) > tol * np.sqrt(ds[:, i0] * ds[:, i1]), axis=1)
    V = _lapack_vectors(gs)
    # the eigenvector of the j-th smallest eigenvalue goes to the slot of
    # the j-th smallest g_ii, signed so diag(W) >= 0: W -> I as g
    # becomes diagonal
    slot = np.argsort(ds, axis=1, kind="stable")
    Ws = np.take_along_axis(V, np.argsort(slot, axis=1)[:, None, :], axis=2)
    Ws *= np.where(np.diagonal(Ws, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    W[idx] = Ws
    g[idx] = np.matmul(Ws.transpose(0, 2, 1), np.matmul(gs, Ws))
    return gated, rotations


def _cyclic_sweeps(
    g: np.ndarray,
    W: np.ndarray,
    rotations: np.ndarray,
    members: np.ndarray,
    group: np.ndarray,
    ngroups: int,
    tol: float,
    max_sweeps: int,
    floor: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic two-sided Jacobi on the matrices ``members`` of the stack.

    ``g[members]`` is overwritten with ``W^T g W``, the rotations are
    accumulated into ``W[members]`` and counted per matrix in
    ``rotations``.  ``group[i]`` names the convergence group of
    ``members[i]``; each group stops sweeping once *its own* worst
    relative off-diagonal clears ``tol`` and is then left out of the
    gathered working stack.  Every step's rotation angles come from
    ``(B, k/2)`` arrays and are applied as one batched ``(B, k, k)`` GEMM
    per side, so a matrix's arithmetic depends only on its own group.
    Returns per-group ``(sweeps, converged)``.
    """
    nb, k = g.shape[0], g.shape[1]
    if tol > 0.0:
        fdiv = np.broadcast_to(
            np.asarray(floor, dtype=np.float64).reshape(-1, 1) / tol, (nb, 1))
    else:
        fdiv = np.zeros((nb, 1))
    steps = _round_robin_steps(k)
    eye = np.eye(k)
    sweeps = np.zeros(ngroups, dtype=np.intp)
    converged = np.zeros(ngroups, dtype=bool)
    live = np.ones(members.size, dtype=bool)
    for _ in range(max_sweeps):
        if not live.any():
            break
        idx = members[live]
        own = group[live]
        ga = g[idx]
        Wa = W[idx]
        fa = fdiv[idx]
        Ja = np.broadcast_to(eye, ga.shape).copy()
        tmp = np.empty_like(ga)
        Wbuf = np.empty_like(Wa)
        worst = np.zeros(idx.size)
        for p, q in steps:
            gpp = ga[:, p, p]
            gqq = ga[:, q, q]
            gpq = ga[:, p, q]
            denom = np.sqrt(np.abs(gpp * gqq))
            rel = np.abs(gpq) / np.maximum(denom + fa, _TINY)
            worst = np.maximum(worst, rel.max(axis=1))
            hits = (np.abs(gpq) > tol * denom) & (denom > 0.0)
            if not hits.any():
                continue
            rotations[idx] += hits.sum(axis=1)
            safe = np.where(gpq == 0.0, 1.0, gpq)
            theta = (gqq - gpp) / (2.0 * safe)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            t = np.where(theta == 0.0, 1.0, t)
            t = np.where(hits, t, 0.0)  # identity for pairs below threshold
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            Ja[:, p, p] = c
            Ja[:, q, q] = c
            Ja[:, p, q] = s
            Ja[:, q, p] = -s
            np.matmul(ga, Ja, out=tmp)
            np.matmul(Ja.transpose(0, 2, 1), tmp, out=ga)
            np.matmul(Wa, Ja, out=Wbuf)
            Wa, Wbuf = Wbuf, Wa
            Ja[:, p, q] = 0.0
            Ja[:, q, p] = 0.0
        g[idx] = ga
        W[idx] = Wa
        active = np.zeros(ngroups, dtype=bool)
        active[own] = True
        unsettled = np.zeros(ngroups, dtype=bool)
        unsettled[own[worst > tol]] = True
        sweeps[active] += 1
        converged |= active & ~unsettled
        live = ~converged[group]
    return sweeps, converged


def gram_eigh_grouped(
    g: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 60,
    floor: np.ndarray | float = 0.0,
    group_size: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalise a *stack* of small symmetric matrices in place, with
    independent convergence per group.

    The inner solve of the Gram-space block kernel
    (:mod:`repro.blockjacobi.kernel`): ``g`` of shape ``(B, k, k)`` —
    the ``2b x 2b`` Gram matrices of the block pairs met in one schedule
    step — is overwritten **in place** with ``W^T g W`` while the
    orthogonal factors ``W`` (one per matrix) are built.  The stack is
    treated as ``G = B / group_size`` consecutive groups of
    ``group_size`` matrices each; the block kernel makes one group of
    the pairs one problem matrix meets in a step, so a single matrix's
    step is one group.

    Each matrix takes one of two solvers, gated by its diagonal spread:

    * inside the gate (``min g_ii > 0`` and ``max g_ii < EIGH_GATE *
      min g_ii``) one stacked LAPACK ``eigh`` solves it.  Its
      eigenvectors are rank-matched to the diagonal (the eigenvector of
      the ``j``-th smallest eigenvalue goes to the slot of the ``j``-th
      smallest ``g_ii``, stable ties) and signed so ``diag(W) >= 0``,
      which makes ``W -> I`` as ``g`` becomes diagonal.  Such a matrix
      counts as ``rotations`` the pairs with
      ``|g_pq| > tol * sqrt(g_pp g_qq)`` on entry.
    * outside it (column-scaled or vanishing columns, where ``eigh``
      alone loses relative accuracy or stalls) cyclic two-sided Jacobi
      rotates every pair that fails the *relative* threshold
      ``|g_pq| > tol * sqrt(g_pp g_qq)``; pairs below it ride along
      with exact identity rotations.  A group's loop exits once every
      pair of *its own* loop matrices satisfies
      ``|g_pq| <= tol * sqrt(g_pp g_qq) + floor``, or after
      ``max_sweeps`` sweeps; a finished group leaves the gathered
      working stack.  ``floor`` (scalar or per-matrix array) absorbs
      the Gram-formation noise a block kernel cannot rotate below
      (``~ k * eps * max(g_ii)`` after each BLAS-3 application);
      ``floor = 0`` demands full relative orthogonality as the
      one-sided reference kernel does.

    The gate and ``eigh`` act per matrix and the loop per group, so the
    arithmetic any group sees is bit-identical to a call on that group
    alone — the property the batch API's conformance contract rests on.
    A matrix LAPACK fails on gets a NaN ``W`` (the kernels' breakdown
    signal) instead of an exception.

    Returns ``(W, rotations, sweeps, converged)``: ``W`` the full
    ``(B, k, k)`` stack of factors, the other three per-group arrays of
    shape ``(G,)``.  A group whose matrices all passed the gate reports
    one sweep, converged.  The final squared column norms are the
    diagonals of ``g`` after the call.
    """
    require(g.ndim == 3 and g.shape[1] == g.shape[2],
            "stack of square matrices expected")
    nb, k = g.shape[0], g.shape[1]
    require(k % 2 == 0, "gram_eigh_grouped needs an even dimension "
                        "(2b columns)")
    require(group_size >= 1 and nb % group_size == 0,
            f"stack of {nb} matrices does not divide into groups "
            f"of {group_size}")
    ngroups = nb // group_size
    group = np.arange(nb, dtype=np.intp) // group_size
    W = np.broadcast_to(np.eye(k), g.shape).copy()
    gated, rotations = _solve_gated(g, W, tol)
    loop = np.flatnonzero(~gated)
    sweeps, converged = _cyclic_sweeps(g, W, rotations, loop, group[loop],
                                       ngroups, tol, max_sweeps, floor)
    looped = np.zeros(ngroups, dtype=bool)
    looped[group[loop]] = True
    sweeps[~looped] = 1
    converged[~looped] = True
    return (W, rotations.reshape(ngroups, group_size).sum(axis=1), sweeps,
            converged)
