"""Correctness gate: every op's output against a LAPACK reference.

An item fails with the first reason code that applies, in this order:

``exception``      the call raised (recorded by the caller);
``not_converged``  the result reports ``converged=False``;
``non_finite``     a singular value is NaN or infinite;
``sigma_error``    ``max|sigma - sigma_ref| / sigma_ref[0] > TOL``;
``orthogonality``  ``max|V^T V - I| > TOL``;
``residual``       ``||A - U diag(sigma) V^T||_F / ||A||_F > TOL``.

The reference is computed once per input, and the checks run outside
the timed region.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-11

REASONS = ("exception", "not_converged", "non_finite", "sigma_error",
           "orthogonality", "residual")


def items_of(out) -> list:
    """The per-matrix :class:`repro.SVDResult` objects of one op's output
    (an ``SVDResult``, a ``BatchResult`` or ``parallel_svd``'s pair)."""
    if isinstance(out, tuple):
        out = out[0]
    return list(getattr(out, "results", [out]))


def reference(x: np.ndarray) -> np.ndarray:
    """LAPACK singular values of a matrix or a ``(B, m, n)`` stack."""
    return np.linalg.svd(x, compute_uv=False)


def check(x: np.ndarray, ref: np.ndarray, out) -> list[tuple[int, str, float]]:
    """Failures ``(item, reason, value)`` of one op's output ``out`` on
    input ``x`` with reference singular values ``ref``."""
    a = x if x.ndim == 3 else x[None]
    sref = ref if ref.ndim == 2 else ref[None]
    results = items_of(out)
    sigma = np.stack([r.sigma for r in results])
    v = np.stack([r.v for r in results])
    u = np.stack([r.u for r in results])
    with np.errstate(all="ignore"):
        sigma_err = (np.abs(sigma - sref).max(axis=1)
                     / np.maximum(sref[:, 0], np.finfo(float).tiny))
        orth = np.abs(v.transpose(0, 2, 1) @ v - np.eye(v.shape[2])).max(axis=(1, 2))
        resid = (np.linalg.norm(a - (u * sigma[:, None, :]) @ v.transpose(0, 2, 1),
                                axis=(1, 2))
                 / np.maximum(np.linalg.norm(a, axis=(1, 2)),
                              np.finfo(float).tiny))
    failures = []
    for i, r in enumerate(results):
        if not r.converged:
            failures.append((i, "not_converged", float(r.sweeps)))
        elif not np.isfinite(sigma[i]).all():
            failures.append((i, "non_finite",
                             float(np.count_nonzero(~np.isfinite(sigma[i])))))
        else:
            # NaN compares false, so "not <=" also catches non-finite factors
            for reason, value in (("sigma_error", sigma_err[i]),
                                  ("orthogonality", orth[i]),
                                  ("residual", resid[i])):
                if not value <= TOL:
                    failures.append((i, reason, float(value)))
                    break
    return failures
