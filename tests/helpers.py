"""Shared helpers for tests (importable as ``tests.helpers``)."""

from __future__ import annotations

import numpy as np


def make_graded(m: int, n: int, rng: np.random.Generator, lo: float = 1e-4) -> np.ndarray:
    """Matrix with geometrically graded, well separated singular values."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(1.0, lo, n)
    return (u * s) @ v.T


def oracle_sigma(a: np.ndarray, tol: float = 1e-18,
                 max_sweeps: int = 40) -> np.ndarray:
    """Singular values of ``a`` (m >= n), nonincreasing, to high
    *relative* accuracy: one-sided cyclic Jacobi in ``np.longdouble``.

    Where that type is 80-bit extended (eps ~1.1e-19, exponents to
    ±4932), no float64 input's squared norms or their products
    over- or underflow, and each sigma of ``a = B D`` (``D`` diagonal,
    ``B`` well conditioned) comes out with a relative error near
    ``n * 1e-19 * cond(B)`` — the yardstick for the float64 paths'
    relative accuracy.  Plain loops: about 0.01-0.2 s at 40×32.
    """
    x = np.array(a, dtype=np.longdouble)
    n = x.shape[1]
    one = np.longdouble(1)
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            xi = x[:, i]
            for j in range(i + 1, n):
                xj = x[:, j]
                alpha, beta, gamma = xi @ xi, xj @ xj, xi @ xj
                if abs(gamma) <= tol * np.sqrt(alpha) * np.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2 * gamma)
                t = np.copysign(one, zeta) / (abs(zeta)
                                              + np.sqrt(one + zeta * zeta))
                c = one / np.sqrt(one + t * t)
                s = c * t
                xi[:], xj[:] = c * xi - s * xj, s * xi + c * xj
        if not rotated:
            break
    else:
        raise AssertionError("oracle_sigma did not converge")
    return np.sort(np.sqrt((x * x).sum(axis=0)).astype(np.float64))[::-1]
