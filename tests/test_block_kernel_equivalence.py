"""Golden-numerics equivalence of the block-pair kernels.

The gram block kernel is a performance rewrite of the reference block
solver: across block sizes and matrix classes (generic Gaussian,
exactly rank-deficient, ill-conditioned) each kernel must converge to
singular values matching LAPACK to the suite tolerance and agree with
the reference kernel's values, and ``block_size=1`` must reproduce the
scalar driver.  The gram kernel's convergence measure carries a
Gram-formation noise floor (see :mod:`repro.blockjacobi.kernel`), so the
guarantees here are the *absolute* sigma tolerances — exactly what the
scalar suite demands — not bitwise trajectory equality.
"""

import numpy as np
import pytest

from repro.blockjacobi import (
    BLOCK_KERNELS,
    BlockJacobiOptions,
    block_jacobi_svd,
    solve_block_pair,
    solve_block_step,
)
from repro.blockjacobi.kernel import _solve_reference_guarded
from repro.svd import JacobiOptions, jacobi_svd

BLOCK_SIZES = (1, 2, 4, 8)

#: relative agreement demanded between two kernels' singular values
RTOL_SIGMA = 1e-12

#: absolute-vs-LAPACK tolerance, scaled by the largest singular value
LAPACK_TOL = 1e-11


def _matrix(case: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(100 + n)
    m = n + 6
    if case == "gaussian":
        return rng.standard_normal((m, n))
    if case == "rank_deficient":
        half = max(2, n // 2)
        return rng.standard_normal((m, half)) @ rng.standard_normal((half, n))
    if case == "ill_conditioned":
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (u * np.logspace(0, -10, n)) @ v.T
    raise AssertionError(case)


def _solve(a: np.ndarray, kernel: str, b: int, **kw):
    return block_jacobi_svd(
        a, ordering="ring_new",
        options=BlockJacobiOptions(block_size=b, kernel=kernel, **kw),
    )


class TestBlockKernelEquivalence:
    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    @pytest.mark.parametrize("b", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "case", ["gaussian", "rank_deficient", "ill_conditioned"]
    )
    def test_kernel_matches_lapack(self, kernel, b, case):
        a = _matrix(case, 32)
        r = _solve(a, kernel, b)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - lap)) <= LAPACK_TOL * lap[0]

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "case", ["gaussian", "rank_deficient", "ill_conditioned"]
    )
    def test_fast_kernels_agree_with_reference(self, b, case):
        a = _matrix(case, 32)
        ref = _solve(a, "reference", b)
        scale = max(float(ref.sigma[0]), 1.0)
        fast = _solve(a, "gram", b)
        assert fast.converged
        assert fast.rank == ref.rank
        assert np.max(np.abs(fast.sigma - ref.sigma)) <= RTOL_SIGMA * scale

    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    def test_block_size_one_reproduces_scalar_driver(self, kernel):
        a = _matrix("gaussian", 16)
        scalar = jacobi_svd(a, ordering="ring_new",
                            options=JacobiOptions(kernel="reference"))
        blocked = _solve(a, kernel, 1)
        assert blocked.converged
        scale = max(float(scalar.sigma[0]), 1.0)
        assert np.max(np.abs(blocked.sigma - scalar.sigma)) <= RTOL_SIGMA * scale
        assert blocked.rank == scalar.rank
        assert blocked.emerged_sorted == "desc"

    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    def test_result_is_a_valid_svd(self, kernel):
        a = _matrix("gaussian", 32)
        r = _solve(a, kernel, 4)
        scale = float(r.sigma[0])
        recon = (r.u * r.sigma) @ r.v.T
        assert np.max(np.abs(recon - a)) <= 1e-10 * scale
        # orthogonality of the accumulated right factor
        assert np.max(np.abs(r.v.T @ r.v - np.eye(32))) <= 1e-12

    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    @pytest.mark.parametrize("ordering", ["fat_tree", "hybrid", "odd_even"])
    def test_tree_orderings_at_block_granularity(self, kernel, ordering):
        a = _matrix("gaussian", 32)
        r = block_jacobi_svd(
            a, ordering=ordering,
            options=BlockJacobiOptions(block_size=4, kernel=kernel),
        )
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - lap)) <= LAPACK_TOL * lap[0]

    @pytest.mark.parametrize("sort", ["desc", "asc", None])
    def test_sort_modes_agree_across_kernels(self, sort):
        a = _matrix("gaussian", 16)
        sigmas = []
        for kernel in BLOCK_KERNELS:
            r = _solve(a, kernel, 4, sort=sort)
            assert r.converged
            sigmas.append(r.sigma)
        scale = max(float(sigmas[0][0]), 1.0)
        for s in sigmas[1:]:
            assert np.max(np.abs(s - sigmas[0])) <= RTOL_SIGMA * scale

    def test_tall_matrix(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((120, 16))
        ref = _solve(a, "reference", 2)
        gram = _solve(a, "gram", 2)
        assert np.max(np.abs(ref.sigma - gram.sigma)) <= RTOL_SIGMA * ref.sigma[0]

    def test_unknown_kernel_rejected_by_options(self):
        with pytest.raises(ValueError, match="unknown block kernel"):
            BlockJacobiOptions(kernel="fused")

    def test_unknown_kernel_rejected_by_solver(self):
        X = np.eye(4)
        with pytest.raises(ValueError, match="unknown block kernel"):
            solve_block_pair(X, None, np.arange(4), 1e-12, "desc", 2,
                             kernel="fused")

    def test_bad_sort_mode_rejected(self):
        X = np.eye(4)
        with pytest.raises(ValueError, match="sort must be one of"):
            solve_block_pair(X, None, np.arange(4), 1e-12, "up", 2)


class TestBreakdownFallback:
    def test_poisoned_pair_falls_back_to_guarded_reference(self):
        # healthy pairs keep gram bits; only the poisoned pair goes to
        # the guarded reference solver, counted as one fallback
        X0 = np.random.default_rng(5).standard_normal((20, 16))
        X0[:, 5] *= 1e200  # the Gram form of pair 1 overflows to inf
        pairs = [np.arange(i, i + 4) for i in range(0, 16, 4)]
        X, V = X0.copy(), np.eye(16)
        with np.errstate(over="ignore", invalid="ignore"):
            stats, _ = solve_block_step(X, V, pairs, 1e-12, "desc", 2, "gram")
        assert stats.fallbacks == 1
        for i, cols in enumerate(pairs):
            Xw, Vw = X0.copy(), np.eye(16)
            if i == 1:
                _solve_reference_guarded(Xw, Vw, cols, 1e-12, "desc", 2)
            else:
                solve_block_pair(Xw, Vw, cols, 1e-12, "desc", 2, kernel="gram")
            assert np.array_equal(X[:, cols], Xw[:, cols])
            assert np.array_equal(V[:, cols], Vw[:, cols])
