"""Range-safe entry scaling for the public SVD entry points.

The block kernels form Gram products ``y_i . y_j``, which overflow once
entries pass ~1e154 and lose every digit to underflow below ~1e-154 —
and do so *finitely*, so no breakdown sentinel fires.  The entry points
therefore move an out-of-range input into the safe range first, by one
exact power of two chosen from its largest magnitude (the range
discipline of LAPACK's ``xGESVJ``), and divide ``sigma`` by the same
power afterwards.  ``U`` and ``V`` are scale-invariant.

An input whose largest magnitude has a binary exponent within
``±SAFE_EXPONENT`` gets factor 1 and is not copied, so results on
in-range inputs keep their exact bits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .result import SVDResult, sigma_converged

__all__ = ["SAFE_EXPONENT", "range_scale", "range_unscale"]

#: largest |binary exponent| of max|a_ij| left unscaled: squares of
#: entries within 2**±256 stay far from over- and underflow
SAFE_EXPONENT = 256


def range_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a * 2**k, k)`` for a matrix or a ``(B, m, n)`` stack.

    ``k`` (one per matrix) brings max|a_ij| into ``[0.5, 1)`` when its
    binary exponent lies outside ``±SAFE_EXPONENT``, and is 0 otherwise.
    When every ``k`` is 0, ``a`` itself is returned (no copy).
    """
    peak = np.abs(a).max(axis=(-2, -1), initial=0.0)
    _, e = np.frexp(peak)
    k = np.where(np.abs(e) > SAFE_EXPONENT, -e, 0)
    if not k.any():
        return a, k
    return np.ldexp(a, k[..., None, None]), k


def range_unscale(result: SVDResult, k: int) -> SVDResult:
    """Undo :func:`range_scale`'s factor ``2**k`` on a result's singular
    values (a no-op for ``k == 0``).  An unscaled ``sigma`` that leaves
    the float64 range is reported as not converged."""
    if k == 0:
        return result
    with np.errstate(over="ignore"):  # reported below, not as a numpy warning
        sigma = np.ldexp(result.sigma, -k)
        by_slot = np.ldexp(result.sigma_by_slot, -k)
    return dataclasses.replace(
        result, sigma=sigma, sigma_by_slot=by_slot,
        converged=sigma_converged(sigma, result.converged))
