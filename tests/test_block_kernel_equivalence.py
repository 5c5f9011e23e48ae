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
    solve_block_step,
    solve_block_step_batch,
)
from repro import svd
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
            solve_block_step(X, None, [np.arange(4)], 1e-12, "desc", 2,
                             kernel="fused")

    def test_bad_sort_mode_rejected(self):
        X = np.eye(4)
        with pytest.raises(ValueError, match="sort must be one of"):
            solve_block_step(X, None, [np.arange(4)], 1e-12, "up", 2)

    def test_batch_step_sort_only_items_match_solo_steps(self):
        # items whose pairs are already orthogonal rotate nothing: each
        # pair's columns are only permuted into decreasing-norm order (V
        # records the permutation), next to an item that needs a solve
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((20, 16)))
        norms = rng.permutation(np.arange(1.0, 17.0))
        X0 = np.stack([q * norms, rng.standard_normal((20, 16)),
                       q * np.arange(16.0, 0.0, -1.0)])
        pairs = [np.arange(i, i + 4) for i in range(0, 16, 4)]
        moves = sum(np.count_nonzero(np.argsort(-norms[c], kind="stable")
                                     != np.arange(4)) // 2 for c in pairs)
        Xs = X0.copy()
        Vs = np.broadcast_to(np.eye(16), (3, 16, 16)).copy()
        applied, worst = solve_block_step_batch(
            Xs, Vs, np.arange(3), pairs, 1e-12, "desc", 2, "gram")
        for i, exchanged in ((0, moves), (1, 0), (2, 0)):
            X, V = X0[i].copy(), np.eye(16)
            stats, mx = solve_block_step(X, V, pairs, 1e-12, "desc", 2, "gram")
            assert np.array_equal(Xs[i], X)
            assert np.array_equal(Vs[i], V)
            assert applied[i] == stats.applied
            assert worst[i] == mx
            assert stats.exchanged == exchanged
            if i != 1:
                assert stats.applied == 0 and mx <= 1e-12
                assert np.array_equal(X, X0[i] @ V)
                for cols in pairs:
                    assert np.all(np.diff(np.linalg.norm(X[:, cols], axis=0))
                                  < 0)
        assert moves > 0 and applied[1] > 0


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
                solve_block_step(Xw, Vw, [cols], 1e-12, "desc", 2, kernel="gram")
            assert np.array_equal(X[:, cols], Xw[:, cols])
            assert np.array_equal(V[:, cols], Vw[:, cols])

    def test_batch_step_breakdown_matches_solo_steps(self):
        # a poisoned batch item is re-solved pair by pair exactly as the
        # solo step re-solves it; its neighbours keep their solo bits
        X0 = np.random.default_rng(5).standard_normal((3, 20, 16))
        X0[1, :, 5] *= 1e200  # the Gram form of item 1, pair 1 overflows
        pairs = [np.arange(i, i + 4) for i in range(0, 16, 4)]
        Xs = X0.copy()
        Vs = np.broadcast_to(np.eye(16), (3, 16, 16)).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            applied, worst = solve_block_step_batch(
                Xs, Vs, np.arange(3), pairs, 1e-12, "desc", 2, "gram")
            for i in range(3):
                X, V = X0[i].copy(), np.eye(16)
                stats, mx = solve_block_step(X, V, pairs, 1e-12, "desc", 2,
                                             "gram")
                if i == 1:
                    assert stats.fallbacks == 1
                assert np.array_equal(Xs[i], X)
                assert np.array_equal(Vs[i], V)
                assert applied[i] == stats.applied
                assert worst[i] == mx

    def test_lapack_failure_falls_back_to_guarded_reference(self,
                                                            monkeypatch):
        # a LAPACK eigh that never converges must take the breakdown
        # path of every pair, never escape as LinAlgError
        import repro.eig.jacobi as jac

        def refuse(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(jac, "_lapack_eigh", refuse)
        X0 = np.random.default_rng(6).standard_normal((20, 16))
        pairs = [np.arange(i, i + 4) for i in range(0, 16, 4)]
        X, V = X0.copy(), np.eye(16)
        stats, _ = solve_block_step(X, V, pairs, 1e-12, "desc", 2, "gram")
        assert stats.fallbacks == len(pairs)
        for cols in pairs:
            Xw, Vw = X0.copy(), np.eye(16)
            _solve_reference_guarded(Xw, Vw, cols, 1e-12, "desc", 2)
            assert np.array_equal(X[:, cols], Xw[:, cols])
            assert np.array_equal(V[:, cols], Vw[:, cols])

    def test_fallen_back_step_reports_its_per_pair_worst(self, monkeypatch):
        # with LAPACK refusing, the step is re-solved pair by pair: the
        # pair outside the eigh gate keeps the gram kernel, the others
        # fall back, and the step's convergence signal is the worst of
        # those re-solves, not the measure of the step's own Grams
        import repro.eig.jacobi as jac

        def refuse(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(jac, "_lapack_eigh", refuse)
        X0 = np.random.default_rng(7).standard_normal((20, 16))
        X0[:, :4] *= np.logspace(0, -6, 4)  # pair 0 is outside the gate
        pairs = [np.arange(i, i + 4) for i in range(0, 16, 4)]
        stats, worst = solve_block_step(X0.copy(), np.eye(16), pairs, 1e-12,
                                        "desc", 2, "gram")
        assert stats.fallbacks == len(pairs) - 1
        want = [solve_block_step(X0.copy(), np.eye(16), pairs[:1], 1e-12,
                                 "desc", 2, "gram")[1]]
        want += [_solve_reference_guarded(X0.copy(), np.eye(16), cols, 1e-12,
                                          "desc", 2)[1] for cols in pairs[1:]]
        assert worst == max(want)


class TestEighGate:
    """The column-scale gate of the gram kernel's LAPACK inner solve.

    ``eigh`` alone carries absolute eigenvector error, which costs
    column-scaled input its relative accuracy and lets a rank-deficient
    input stall; the gate sends both to the cyclic loop.  Measured on
    the ungated solver: up to 1.2e-9 relative sigma error on the
    column-scaled case, and no convergence in 60 sweeps on rank 40.

    The gate is pinned on the raw block driver, which is what
    ``parallel_svd`` runs: block ``svd()`` preconditions its input, and
    on the n×n triangular factor the ungated solver still read 5.9e-14
    and 5.3e-13 relative on the column-scaled cases.  The ``svd()`` pins
    hold the preconditioned path to its own, tighter bound.
    """

    @staticmethod
    def _raw(a):
        return block_jacobi_svd(a, ordering="fat_tree",
                                options=BlockJacobiOptions(block_size=16))

    @staticmethod
    def _column_scaled(seed, m=144, n=128):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, n)) * np.logspace(0, -10, n)

    @staticmethod
    def _worst_relative(r, a):
        lap = np.linalg.svd(a, compute_uv=False)
        return np.max(np.abs(r.sigma - lap) / lap)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_column_scaled_input_keeps_relative_accuracy(self, seed):
        a = self._column_scaled(seed)
        r = self._raw(a)
        assert r.converged
        assert self._worst_relative(r, a) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_preconditioned_svd_keeps_relative_accuracy(self, seed):
        a = self._column_scaled(seed)
        r = svd(a, block_size=16)
        assert r.converged
        assert self._worst_relative(r, a) <= 1e-13

    def test_70x64_keeps_relative_accuracy(self):
        # the loop alone read 2.2e-12 here: every Gram is outside the gate
        a = self._column_scaled(0, 70, 64)
        r = svd(a, block_size=16)
        assert r.converged
        assert self._worst_relative(r, a) <= 1e-12

    def test_rank_deficient_input_converges(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((144, 40)) @ rng.standard_normal((40, 128))
        r = self._raw(a)
        assert r.converged and r.sweeps <= 12
        assert r.rank == 40
        r = svd(a, block_size=16)
        assert r.converged and r.sweeps <= 6
        assert r.rank == 40

