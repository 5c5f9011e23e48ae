"""The two-QR preconditioner of block ``svd()`` and ``svd_batch()``.

Block mode sorts rows and columns by norm, factors ``A P = Q R`` and
``Rᵀ = Q₁ R₁``, and runs the block driver on the n×n ``X = R₁ᵀ``
(:func:`repro.core.api._precondition`).  The grid below is the
preconditioned path's accuracy contract on four input classes, square
and tall, solo and batched: every case converges, sigma lies within
1e-11·sigma_max of LAPACK, and ``‖VᵀV − I‖`` and the relative residual
stay at or below 1e-11.  ``V`` is a product of orthogonal factors, so it
stays orthogonal past the rank — the padded rank-deficient cases check
that, since a single QR leaves ``V`` with zero columns there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import svd, svd_batch
from repro.core.api import _precondition
from tests.helpers import make_graded

TOL = 1e-11

#: (m, n, block size): square-ish, the e2e tall shape, and a small one
SHAPES = ((24, 16, 4), (144, 128, 16), (1024, 128, 16))
CLASSES = ("gaussian", "columns", "graded", "rank_third")


def _rank_deficient(m: int, n: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def _make(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    if kind == "rank_third":
        return _rank_deficient(m, n, n // 3, seed)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((m, n))
    if kind == "columns":
        return rng.standard_normal((m, n)) * np.logspace(0, -10, n)
    if kind == "graded":
        return make_graded(m, n, rng, lo=1e-12)
    raise AssertionError(kind)


def _assert_accurate(a: np.ndarray, r) -> None:
    n = a.shape[1]
    lap = np.linalg.svd(a, compute_uv=False)
    assert r.converged
    assert r.u.shape == a.shape and r.v.shape == (n, n)
    assert np.max(np.abs(r.sigma - lap)) <= TOL * lap[0]
    assert np.linalg.norm(r.v.T @ r.v - np.eye(n)) <= TOL
    assert r.reconstruction_error(a) <= TOL


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize("m,n,b", SHAPES)
def test_svd_grid(kind, m, n, b):
    a = _make(kind, m, n, seed=0)
    _assert_accurate(a, svd(a, block_size=b))


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize("m,n,b", SHAPES)
def test_svd_batch_grid(kind, m, n, b):
    stack = np.stack([_make(kind, m, n, seed=s) for s in (1, 2)])
    for a, r in zip(stack, svd_batch(stack, block_size=b)):
        _assert_accurate(a, r)


@pytest.mark.parametrize("m,n,rank,b", [(144, 120, 100, 16),
                                        (40, 30, 20, 4)])
def test_padded_rank_deficient(m, n, rank, b):
    a = _rank_deficient(m, n, rank, seed=5)
    r = svd(a, block_size=b)
    _assert_accurate(a, r)
    assert r.rank == rank


@pytest.mark.parametrize("shape,kw", [
    ((3, 1), {"block_size": 1}),
    ((2, 2), {"block_size": 1}),
    ((5, 2), {"block_size": 1, "ordering": "ring_new"}),
    ((24, 13), {"block_size": 4}),
    ((144, 130), {"block_size": 16}),
], ids=["3x1", "2x2", "5x2-ring_new", "24x13", "144x130"])
def test_degenerate_and_padded_shapes(shape, kw):
    a = np.random.default_rng(9).standard_normal(shape)
    _assert_accurate(a, svd(a, **kw))


def test_zero_and_rank_one_input():
    rng = np.random.default_rng(4)
    zero = svd(np.zeros((12, 8)), block_size=2)
    assert zero.converged and zero.rank == 0
    assert not zero.sigma.any() and not zero.u.any()
    np.testing.assert_allclose(zero.v.T @ zero.v, np.eye(8), atol=TOL)
    a = np.outer(rng.standard_normal(12), rng.standard_normal(8))
    r = svd(a, block_size=2)
    _assert_accurate(a, r)
    assert r.rank == 1


def test_factorisation():
    """``A = L X Rᵀ`` with ``L`` orthonormal columns, ``R`` orthogonal
    and ``X`` lower triangular, per item of a stack."""
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 20, 12)) * np.logspace(0, -6, 20)[:, None]
    left, right, x = _precondition(stack)
    assert left.shape == (3, 20, 12) and right.shape == x.shape == (3, 12, 12)
    eye = np.eye(12)
    for a, lq, rq, xi in zip(stack, left, right, x):
        np.testing.assert_allclose(lq @ xi @ rq.T, a, atol=1e-14)
        np.testing.assert_allclose(lq.T @ lq, eye, atol=1e-14)
        np.testing.assert_allclose(rq.T @ rq, eye, atol=1e-14)
        np.testing.assert_array_equal(np.triu(xi, 1), 0.0)

