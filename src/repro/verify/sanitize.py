"""Opt-in runtime sanitizer: dynamic cross-checks of the static claims.

The static layers prove their invariants from the plan alone; this
module verifies them while a run executes, the way TSAN/ASAN shadow a
compiled binary.  Two families of checks:

write-set records (``SAN001``)
    The block step body (shared by
    :func:`~repro.blockjacobi.kernel.solve_block_step` and
    :func:`~repro.blockjacobi.kernel.solve_block_step_batch`) opens a
    record per schedule step whose work items are the step's fused
    (item, pair) rows; row ``r`` of matrix ``i`` may write the keys
    ``i * n + c`` of its pair's columns ``c``, so for one matrix a key
    is the column id.  Solvers report the keys they actually scatter
    into (``record_touch``) and executors report the chunk bounds they
    actually dispatch (``note_dispatch``).  A phase that runs only some
    of the step's matrices (the sort-only moves, the application when
    other matrices took the sort-only exit or broke down, the per-pair
    re-solves of broken matrices) opens a scope of its own over its
    rows (``begin_scope``); phases run one after another, so a race can
    only happen inside one.  When the step closes, each scope must
    agree with its statically derived per-row write-sets: every touched
    key inside its claimed range's sets, disjoint ranges touching
    disjoint keys, dispatched bounds equal to
    :meth:`~repro.parallel.executor.StepExecutor.chunk_bounds`.

sweep-boundary numeric canaries (``SAN002``/``SAN003``)
    The same invariant detectors the fault-recovery driver uses
    (:mod:`repro.faults`), armed on healthy runs: factors must stay
    finite, ``||X||_F`` must stay put (one sweep only right-multiplies
    by orthogonal rotations), and ``V`` must stay orthogonal.

Enabling
--------
Set ``REPRO_SANITIZE=1`` in the environment (the whole test-suite can
run sanitized without code changes), or pass ``sanitize=True`` through
:class:`~repro.blockjacobi.BlockJacobiOptions` / the ``repro-harness
svd --sanitize`` flag.  A violation raises :class:`SanitizerError`
carrying the rule-tagged :class:`~repro.verify.diagnostics.Diagnostic`
— fail-fast, because past the first violation the run's output is
already suspect.

Fault-injected runs do *not* arm the sanitizer: injected damage is
meant to reach the recovery machinery (rollback, remap), not to abort
the process, and the fault driver runs the same detectors itself.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .diagnostics import Diagnostic

__all__ = [
    "RuntimeSanitizer",
    "SanitizerError",
    "check_numeric_canaries",
    "check_write_record",
    "sanitize_enabled",
]

_TRUTHY = ("1", "true", "yes", "on")

#: relative tolerance of the Frobenius-invariant canary (matches the
#: fault driver's silent-corruption detector)
FROBENIUS_RTOL = 1e-9

#: absolute tolerance on ``max|V^T V - I|`` — orders of magnitude above
#: honest rotation round-off, far below any real orthogonality loss
ORTHOGONALITY_TOL = 1e-8


def sanitize_enabled(explicit: bool | None = None) -> bool:
    """Resolve the sanitizer switch: explicit option, else ``$REPRO_SANITIZE``."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


class SanitizerError(RuntimeError):
    """A runtime sanitizer check failed; ``diagnostic`` names the rule."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def check_write_record(
    n_items: int,
    expected_items: Sequence[frozenset[int]],
    dispatched: Sequence[tuple[int, tuple[tuple[int, int], ...]]],
    touched: Sequence[tuple[int, int, tuple[int, ...]]],
    *,
    workers: int = 1,
    step: int | None = None,
) -> list[Diagnostic]:
    """Cross-check one step's runtime write record (rule ``SAN001``).

    ``expected_items[i]`` is the static column write-set of work item
    ``i``; ``dispatched`` holds ``(n_items, bounds)`` per executor
    dispatch; ``touched`` holds ``(lo, hi, columns)`` claims from the
    solvers.  Pure function — the negative tests feed it corrupted
    records directly.
    """
    from ..parallel.executor import StepExecutor

    out: list[Diagnostic] = []
    want = tuple(StepExecutor.chunk_bounds(n_items, workers))
    for nd, bounds in dispatched:
        if nd != n_items or tuple(bounds) != want:
            out.append(Diagnostic(
                rule="SAN001", step=step,
                message=f"executor dispatched bounds {list(bounds)} over "
                        f"{nd} item(s); the static chunking of {n_items} "
                        f"item(s) across {workers} worker(s) is {list(want)}",
                details=(("dispatched", tuple(bounds)), ("expected", want)),
            ))
    claims: list[tuple[int, int, frozenset[int]]] = []
    for lo, hi, cols in touched:
        colset = frozenset(int(c) for c in cols)
        if not 0 <= lo <= hi <= n_items:
            out.append(Diagnostic(
                rule="SAN001", step=step,
                message=f"touch record claims items [{lo}, {hi}) outside "
                        f"the step's {n_items} work item(s)",
                details=(("lo", lo), ("hi", hi), ("n_items", n_items)),
            ))
            continue
        allowed: set[int] = set()
        for s in expected_items[lo:hi]:
            allowed |= s
        stray = sorted(colset - allowed)
        if stray:
            out.append(Diagnostic(
                rule="SAN001", step=step,
                message=f"worker for items [{lo}, {hi}) touched column(s) "
                        f"{stray} outside its static write-set",
                details=(("stray", tuple(stray)),),
            ))
        claims.append((lo, hi, colset))
    for i, (lo1, hi1, c1) in enumerate(claims):
        for lo2, hi2, c2 in claims[i + 1:]:
            if hi1 <= lo2 or hi2 <= lo1:  # disjoint item ranges
                shared = sorted(c1 & c2)
                if shared:
                    out.append(Diagnostic(
                        rule="SAN001", step=step,
                        message=f"disjoint chunks [{lo1}, {hi1}) and "
                                f"[{lo2}, {hi2}) both touched column(s) "
                                f"{shared} (write-write overlap)",
                        details=(("shared", tuple(shared)),),
                    ))
    return out


def check_numeric_canaries(
    X: np.ndarray,
    V: np.ndarray | None,
    ref_norm: float | None,
    *,
    frobenius_rtol: float = FROBENIUS_RTOL,
    orthogonality_tol: float = ORTHOGONALITY_TOL,
    sweep: int | None = None,
) -> list[Diagnostic]:
    """Sweep-boundary numeric canaries (rules ``SAN002``/``SAN003``).

    ``ref_norm`` is ``||X||_F`` measured before the first sweep; pass
    ``None`` (or a non-finite value — deliberately-extreme overflow
    inputs have no meaningful invariant) to skip the Frobenius check.
    """
    out: list[Diagnostic] = []
    for label, mat in (("X", X), ("V", V)):
        if mat is None:
            continue
        finite = np.isfinite(mat)
        if not finite.all():
            idx = tuple(int(i) for i in np.argwhere(~finite)[0])
            out.append(Diagnostic(
                rule="SAN002", step=sweep,
                message=f"non-finite entry in {label} at {idx} "
                        "at the sweep boundary",
                details=(("factor", label), ("index", idx)),
            ))
    if out:
        return out  # drift is meaningless on non-finite data
    if ref_norm is not None and np.isfinite(ref_norm):
        # sweeps only right-multiply X by orthogonal rotations, so the
        # Frobenius norm is an invariant of the whole run
        drift = abs(float(np.linalg.norm(X)) - ref_norm)
        if drift > frobenius_rtol * max(ref_norm, 1.0):
            out.append(Diagnostic(
                rule="SAN003", step=sweep,
                message=f"||X||_F drifted by {drift:.3e} from its initial "
                        f"value {ref_norm:.6e} (orthogonal invariant broken)",
                details=(("drift", drift), ("ref_norm", ref_norm)),
            ))
    if V is not None and V.size:
        G = V.T @ V
        err = float(np.max(np.abs(G - np.eye(G.shape[0]))))
        if not np.isfinite(err) or err > orthogonality_tol:
            out.append(Diagnostic(
                rule="SAN003", step=sweep,
                message=f"V lost orthogonality: max|V^T V - I| = {err:.3e} "
                        f"(tolerance {orthogonality_tol:g})",
                details=(("error", err),),
            ))
    return out


class _Scope(NamedTuple):
    """One scope of a step's write record: the work items its phases
    run over, their static write-sets, and the dispatches and touches
    recorded while they ran (the arguments of
    :func:`check_write_record`)."""

    n_items: int
    expected: list[frozenset[int]]
    dispatched: list[tuple[int, tuple[tuple[int, int], ...]]]
    touched: list[tuple[int, int, tuple[int, ...]]]


class RuntimeSanitizer:
    """Run-scoped sanitizer state: one write record per step, numeric
    canaries per sweep.

    Thread-safe: ``record_touch``/``note_dispatch`` are called from
    executor worker threads.  ``diagnostics`` accumulates every finding;
    with ``raise_on_violation`` (the default) the first finding also
    raises :class:`SanitizerError` so a poisoned run cannot keep going.
    """

    def __init__(
        self,
        *,
        frobenius_rtol: float = FROBENIUS_RTOL,
        orthogonality_tol: float = ORTHOGONALITY_TOL,
        raise_on_violation: bool = True,
    ) -> None:
        self.frobenius_rtol = frobenius_rtol
        self.orthogonality_tol = orthogonality_tol
        self.raise_on_violation = raise_on_violation
        self.diagnostics: list[Diagnostic] = []
        self.steps_checked = 0
        self.sweeps_checked = 0
        self._lock = threading.Lock()
        self._active = False
        self._workers = 1
        self._scopes: list[_Scope] = []  # the open record's scopes
        self._ref_norms: list[float] = []

    # -- step write-set protocol ----------------------------------------

    def begin_step(self, n_items: int,
                   expected_items: Sequence[frozenset[int]],
                   workers: int = 1) -> None:
        """Open the write record of one schedule step."""
        with self._lock:
            self._active = True
            self._workers = int(workers)
            self._scopes = [_Scope(int(n_items), list(expected_items), [], [])]

    def begin_scope(self, n_items: int,
                    expected_items: Sequence[frozenset[int]]) -> None:
        """Start a new scope of the open record: the next phase runs
        over other work items (a subset of the step's rows)."""
        with self._lock:
            if self._active:
                self._scopes.append(
                    _Scope(int(n_items), list(expected_items), [], []))

    def note_dispatch(self, n_items: int,
                      bounds: Sequence[tuple[int, int]]) -> None:
        """Record the chunk bounds an executor actually dispatched."""
        with self._lock:
            if self._active:
                self._scopes[-1].dispatched.append(
                    (int(n_items),
                     tuple((int(lo), int(hi)) for lo, hi in bounds)))

    def record_touch(self, lo: int, hi: int,
                     cols: "Sequence[int] | np.ndarray") -> None:
        """Record columns a worker touched while owning items [lo, hi)."""
        flat = tuple(int(c) for c in np.asarray(cols).reshape(-1))
        with self._lock:
            if self._active:
                self._scopes[-1].touched.append((int(lo), int(hi), flat))

    def abort_step(self) -> None:
        """Discard the open record (the step raised; nothing to check)."""
        with self._lock:
            self._active = False

    def end_step(self, step: int | None = None) -> None:
        """Close the record and cross-check each of its scopes against
        the static sets."""
        with self._lock:
            if not self._active:
                return
            self._active = False
            diags = [d for scope in self._scopes
                     for d in check_write_record(*scope, workers=self._workers,
                                                 step=step)]
            self.steps_checked += 1
        self._report(diags)

    # -- sweep-boundary canaries ----------------------------------------

    def arm_reference(self, X: np.ndarray) -> None:
        """Capture ``||X||_F`` before the first sweep (SAN003 baseline);
        a ``(B, m, n)`` stack gets one reference per item."""
        self._ref_norms = [float(np.linalg.norm(x))
                           for x in (X[None] if X.ndim == 2 else X)]

    def check_sweep(self, X: np.ndarray, V: np.ndarray | None = None,
                    sweep: int | None = None, item: int = 0) -> None:
        """Run the numeric canaries at a sweep boundary; ``item`` is
        ``X``'s index in the stack given to :meth:`arm_reference`."""
        diags = check_numeric_canaries(
            X, V, self._ref_norms[item] if self._ref_norms else None,
            frobenius_rtol=self.frobenius_rtol,
            orthogonality_tol=self.orthogonality_tol, sweep=sweep)
        self.sweeps_checked += 1
        self._report(diags)

    # -- reporting -------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def _report(self, diags: list[Diagnostic]) -> None:
        if not diags:
            return
        with self._lock:
            self.diagnostics.extend(diags)
        if self.raise_on_violation:
            raise SanitizerError(diags[0])
