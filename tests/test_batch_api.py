"""Golden batch conformance: ``svd_batch`` is bit-identical to a loop of ``svd``.

The batch API's whole contract is that fusing the problem axis changes
amortisation, not arithmetic — ``svd_batch(stack, ...)[i]`` must equal
``svd(stack[i], ...)`` *bit for bit* for every kernel, ordering and
executor, including batches mixing well-conditioned, rank-deficient and
ill-conditioned items (whose convergence masks retire them in different
sweeps).  These tests enforce that with ``np.array_equal``, no
tolerances anywhere.

Also here: the input-normalisation regressions (F-contiguous / non-float
inputs used to flow into the kernels unchanged) and the ``BatchResult``
aggregate accounting.
"""

import numpy as np
import pytest

from repro import BatchResult, parallel_svd, svd, svd_batch
from repro.core.result import SVDResult

KERNELS = ("reference", "gram")
ORDERINGS = ("fat_tree", "ring_new")
EXECUTORS = (("serial", None), ("threads", 2))

RESULT_FIELDS = ("u", "sigma", "v", "sigma_by_slot", "rank", "converged",
                 "sweeps", "rotations", "emerged_sorted")


def make_mixed_batch(n: int, rng: np.random.Generator, extra_rows: int = 2
                     ) -> np.ndarray:
    """Batch mixing gaussian, rank-deficient and ill-conditioned items."""
    m = n + extra_rows
    mats = [rng.standard_normal((m, n)) for _ in range(5)]
    mats[2][:, -1] = mats[2][:, 0]                      # rank-deficient
    mats[3] = mats[3] @ np.diag(np.logspace(0, -9, n))  # ill-conditioned
    mats[4][:, : n // 2] = 0.0                          # half-zero columns
    return np.stack(mats)


def assert_results_identical(got: SVDResult, want: SVDResult) -> None:
    """Bitwise equality of every user-visible field, history included."""
    for f in RESULT_FIELDS:
        x, y = getattr(got, f), getattr(want, f)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f"field {f} differs"
        else:
            assert x == y, f"field {f} differs: {x!r} != {y!r}"
    assert len(got.history) == len(want.history)
    for hg, hw in zip(got.history, want.history):
        assert (hg.sweep, hg.off_norm, hg.max_rel_gamma, hg.rotations,
                hg.skipped) == (hw.sweep, hw.off_norm, hw.max_rel_gamma,
                                hw.rotations, hw.skipped)
    assert got.watchdog == want.watchdog


class TestBatchConformance:
    """The golden grid: every kernel x ordering x size x executor."""

    @pytest.mark.parametrize("executor,workers", EXECUTORS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_equals_loop(self, rng, kernel, ordering, n, executor,
                               workers):
        b = max(1, n // 4)
        stack = make_mixed_batch(n, rng)
        kw = dict(ordering=ordering, kernel=kernel, block_size=b,
                  executor=executor, workers=workers)
        batch = svd_batch(stack, **kw)
        assert isinstance(batch, BatchResult)
        assert len(batch) == len(stack)
        for i in range(len(stack)):
            assert_results_identical(batch[i], svd(stack[i], **kw))

    def test_batch_equals_loop_padded_width(self, rng):
        # n=12 with b=2 under fat_tree: 6 blocks is not a power of two,
        # so both paths must take the same transparent padding route
        stack = np.stack([rng.standard_normal((14, 12)) for _ in range(4)])
        kw = dict(ordering="fat_tree", kernel="gram", block_size=2)
        batch = svd_batch(stack, **kw)
        for i in range(4):
            assert_results_identical(batch[i], svd(stack[i], **kw))

    def test_batch_equals_loop_scalar_mode(self, rng):
        # no block_size: svd_batch degrades to a loop of scalar svd()
        stack = np.stack([rng.standard_normal((10, 8)) for _ in range(3)])
        batch = svd_batch(stack)
        for i in range(3):
            assert_results_identical(batch[i], svd(stack[i]))

    def test_batch_equals_loop_no_sort(self, rng):
        from repro import BlockJacobiOptions

        opts = BlockJacobiOptions(block_size=4, sort=None)
        stack = make_mixed_batch(16, rng)
        batch = svd_batch(stack, ordering="ring_new", options=opts)
        for i in range(len(stack)):
            assert_results_identical(
                batch[i], svd(stack[i], ordering="ring_new", options=opts))

    def test_list_input_equals_stack_input(self, rng):
        mats = [rng.standard_normal((10, 8)) for _ in range(3)]
        a = svd_batch(mats, kernel="gram", block_size=2)
        b = svd_batch(np.stack(mats), kernel="gram", block_size=2)
        for i in range(3):
            assert_results_identical(a[i], b[i])

    def test_nonconverged_items_match_loop(self, rng):
        from repro import BlockJacobiOptions
        from repro.util.errors import ConvergenceWarning

        opts = BlockJacobiOptions(block_size=4, max_sweeps=2)
        stack = make_mixed_batch(16, rng)
        with pytest.warns(ConvergenceWarning):
            batch = svd_batch(stack, ordering="ring_new", options=opts)
        assert not batch.converged
        for i in range(len(stack)):
            with pytest.warns(ConvergenceWarning):
                solo = svd(stack[i], ordering="ring_new", options=opts)
            assert_results_identical(batch[i], solo)


class TestBatchResultAggregates:
    def test_aggregates(self, rng):
        stack = make_mixed_batch(16, rng)
        batch = svd_batch(stack, kernel="gram", block_size=4)
        assert batch.n_items == len(stack) == len(batch)
        assert batch.converged and batch.n_converged == len(stack)
        hist = batch.sweeps_histogram
        assert sum(hist.values()) == len(stack)
        assert all(r.sweeps in hist for r in batch)
        assert batch.elapsed_s > 0 and batch.matrices_per_sec > 0
        assert batch.sigma_stack().shape == (len(stack), 16)
        assert np.array_equal(batch.sigma_stack()[0], batch[0].sigma)
        s = batch.summary()
        assert "converged" in s and "matrices/sec" in s

    def test_plan_cache_amortisation(self, rng):
        # a second identical-shape batch must recompile nothing
        stack = np.stack([rng.standard_normal((18, 16)) for _ in range(4)])
        svd_batch(stack, kernel="gram", block_size=4)  # warm the cache
        batch = svd_batch(stack, kernel="gram", block_size=4)
        assert batch.plan_cache is not None
        assert batch.plan_cache.misses == 0
        assert batch.plan_cache.hits + batch.plan_cache.instance_hits > 0

    def test_iteration_yields_results(self, rng):
        stack = np.stack([rng.standard_normal((10, 8)) for _ in range(3)])
        batch = svd_batch(stack, kernel="gram", block_size=2)
        assert [r.rank for r in batch] == [batch[i].rank for i in range(3)]


class TestBatchValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            svd_batch([])
        with pytest.raises(ValueError, match="at least one"):
            svd_batch(np.empty((0, 8, 8)))

    def test_rejects_wrong_ndim(self, rng):
        with pytest.raises(ValueError, match="3-D"):
            svd_batch(rng.standard_normal((8, 8)))
        with pytest.raises(ValueError, match="2-D"):
            svd_batch([rng.standard_normal(8)])

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValueError, match="share one shape"):
            svd_batch([rng.standard_normal((8, 8)),
                       rng.standard_normal((10, 8))])

    def test_nonfinite_error_names_item_and_coords(self, rng):
        stack = np.stack([rng.standard_normal((10, 8)) for _ in range(4)])
        stack[2, 5, 3] = np.nan
        with pytest.raises(ValueError, match=r"matrices\[2\].*\(5, 3\)"):
            svd_batch(stack, kernel="gram", block_size=2)


class TestInputNormalisation:
    """Regressions for the F-contiguous / non-float validation gap."""

    @pytest.mark.parametrize("entry", ["svd", "svd_batch"])
    def test_f_contiguous_matches_c_contiguous(self, rng, entry):
        a = rng.standard_normal((12, 8))
        fa = np.asfortranarray(a)
        assert not fa.flags.c_contiguous
        if entry == "svd":
            got, want = svd(fa), svd(a)
        else:
            got = svd_batch(fa[None])[0]
            want = svd_batch(a[None])[0]
        assert_results_identical(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_nonfloat64_dtypes_are_normalised(self, rng, dtype):
        a = (rng.standard_normal((12, 8)) * 8).astype(dtype)
        want = svd(a.astype(np.float64))
        assert_results_identical(svd(a), want)
        assert_results_identical(svd_batch(a[None])[0], want)

    def test_parallel_svd_normalises_too(self, rng):
        a = rng.standard_normal((12, 8))
        got, _ = parallel_svd(np.asfortranarray(a), topology="perfect")
        want, _ = parallel_svd(a, topology="perfect")
        assert_results_identical(got, want)

    @pytest.mark.parametrize("fn", [svd, parallel_svd])
    def test_complex_input_rejected(self, rng, fn):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises((ValueError, TypeError)):
            fn(a)

    def test_complex_batch_rejected(self, rng):
        a = rng.standard_normal((2, 8, 8)).astype(np.complex128)
        with pytest.raises((ValueError, TypeError)):
            svd_batch(a)

    def test_input_not_mutated(self, rng):
        a = rng.standard_normal((12, 8))
        keep = a.copy()
        svd(a, kernel="gram", block_size=2)
        assert np.array_equal(a, keep)
        stack = np.stack([keep, keep])
        keep3 = stack.copy()
        svd_batch(stack, kernel="gram", block_size=2)
        assert np.array_equal(stack, keep3)


class TestPcaBatch:
    def test_pca_batch_matches_loop(self, rng):
        from repro import pca, pca_batch

        xs = np.stack([rng.standard_normal((12, 8)) for _ in range(3)])
        results = pca_batch(xs, k=3)
        assert len(results) == 3
        for i, got in enumerate(results):
            want = pca(xs[i], k=3)
            assert np.array_equal(got.components, want.components)
            assert np.array_equal(got.scores, want.scores)
            assert np.array_equal(got.explained_variance,
                                  want.explained_variance)
            assert np.array_equal(got.explained_variance_ratio,
                                  want.explained_variance_ratio)
            assert np.array_equal(got.mean, want.mean)

    def test_pca_batch_wide(self, rng):
        from repro import pca, pca_batch

        xs = np.stack([rng.standard_normal((6, 12)) for _ in range(2)])
        results = pca_batch(xs, k=2)
        for i, got in enumerate(results):
            want = pca(xs[i], k=2)
            assert np.array_equal(got.components, want.components)
            assert np.array_equal(got.scores, want.scores)
