"""Tests of the top-level public API."""

import numpy as np
import pytest

from repro import (
    JacobiOptions,
    SVDResult,
    jacobi_svd,
    make_ordering,
    ordering_names,
    parallel_svd,
    svd,
    svd_batch,
)


class TestSvd:
    def test_basic(self, rng):
        a = rng.standard_normal((20, 16))
        r = svd(a)
        assert isinstance(r, SVDResult)
        assert r.converged

    def test_awkward_width_padded(self, rng):
        a = rng.standard_normal((20, 13))
        r = svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]
        assert r.u.shape == (20, 13)
        assert r.v.shape == (13, 13)
        assert np.linalg.norm(a - (r.u * r.sigma) @ r.v.T) < 1e-10

    def test_even_width_ring_not_padded(self, rng):
        a = rng.standard_normal((20, 10))
        r = svd(a, ordering="ring_new")
        assert r.sigma.shape == (10,)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_odd_width_ring_padded(self, rng):
        a = rng.standard_normal((20, 9))
        r = svd(a, ordering="ring_new")
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_options_forwarded(self, rng):
        a = rng.standard_normal((20, 16))
        r = svd(a, options=JacobiOptions(max_sweeps=1))
        assert r.sweeps == 1

    def test_ordering_kwargs_forwarded(self, rng):
        a = rng.standard_normal((40, 32))
        r = svd(a, ordering="hybrid", n_groups=8)
        assert r.converged


class TestParallelSvd:
    def test_default_cm5_hybrid(self, rng):
        a = rng.standard_normal((48, 32))
        result, report = parallel_svd(a)
        assert result.converged
        assert report.contention_free  # the paper's CM-5 design point

    def test_padding_path(self, rng):
        a = rng.standard_normal((30, 20))
        result, report = parallel_svd(a, topology="perfect", ordering="fat_tree")
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(result.sigma - ref)) < 1e-12 * ref[0]
        assert result.u.shape == (30, 20)

    def test_report_has_per_sweep_stats(self, rng):
        a = rng.standard_normal((24, 16))
        result, report = parallel_svd(a, topology="cm5", ordering="fat_tree")
        assert len(report.sweep_stats) == result.sweeps


class TestRegistry:
    def test_names_stable(self):
        assert ordering_names() == [
            "fat_tree", "hybrid", "llb", "odd_even",
            "ring_modified", "ring_new", "round_robin",
        ]

    def test_make_each(self):
        for name in ordering_names():
            o = make_ordering(name, 16)
            assert o.n == 16
            assert o.sweep(0).n_rotation_steps >= 15

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_ordering("butterfly", 16)


class TestResultObject:
    def test_reconstruct(self, rng):
        a = rng.standard_normal((16, 8))
        r = jacobi_svd(a)
        assert np.allclose(r.reconstruct(), a, atol=1e-10)

    def test_reconstruction_error_normalised(self, rng):
        a = rng.standard_normal((16, 8))
        r = jacobi_svd(a)
        assert r.reconstruction_error(a) < 1e-12

    def test_version_exported(self):
        import repro

        assert repro.__version__


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_svd_rejects_non_finite_input(self, rng, bad):
        a = rng.standard_normal((12, 8))
        a[3, 5] = bad
        with pytest.raises(ValueError, match=r"\(3, 5\)"):
            svd(a)

    def test_parallel_svd_rejects_non_finite_input(self, rng):
        a = rng.standard_normal((12, 8))
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            parallel_svd(a)

    def test_error_names_the_offending_coordinate(self, rng):
        a = rng.standard_normal((12, 8))
        a[7, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            svd(a)

    # every entry point rejects wide input before padding: 3x6 would be
    # padded to 8 columns (whose null columns never converge), 3x8 not
    @pytest.mark.parametrize("kw", [{}, {"ordering": "ring_new"},
                                    {"block_size": 2}],
                             ids=["default", "ring_new", "block"])
    def test_wide_input_rejected(self, rng, kw):
        for a in (rng.standard_normal((3, 6)), rng.standard_normal((3, 8))):
            for call in (svd, parallel_svd, svd_batch):
                with pytest.raises(ValueError, match=r"pass a\.T"):
                    call(a[None] if call is svd_batch else a, **kw)

    def test_options_reject_what_they_cannot_run(self, rng):
        with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
            JacobiOptions(max_sweeps=0)
        with pytest.raises(ValueError, match="sort must be one of"):
            JacobiOptions(sort="up")
        with pytest.raises(TypeError):
            svd(rng.standard_normal((40, 32)), block_size=1.5)


class TestConvergenceSurfacing:
    def test_non_convergence_warns_and_flags(self, rng):
        from repro import ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with pytest.warns(ConvergenceWarning):
            r = svd(a, options=JacobiOptions(max_sweeps=1))
        assert not r.converged
        assert r.sweeps_used == 1
        assert r.watchdog is not None
        assert "NOT converged" in r.summary()

    def test_block_driver_warns_too(self, rng):
        from repro import BlockJacobiOptions, ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with pytest.warns(ConvergenceWarning):
            r = svd(a, options=BlockJacobiOptions(block_size=2, max_sweeps=1))
        assert not r.converged

    def test_block_warning_reads_for_one_matrix(self, rng):
        # block svd() is a batch of one: it warns once, with the watchdog
        # diagnosis and without the batch's item count
        import warnings

        from repro import BlockJacobiOptions, ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = svd(a, options=BlockJacobiOptions(block_size=2, max_sweeps=1))
        msgs = [str(w.message) for w in caught
                if issubclass(w.category, ConvergenceWarning)]
        assert len(msgs) == 1
        assert r.watchdog in msgs[0]
        assert "item" not in msgs[0] and "of 1" not in msgs[0]

    def test_converged_run_is_quiet(self, rng):
        import warnings

        from repro import ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            r = svd(a)
        assert r.converged
        assert r.watchdog is None
        assert r.fault_summary() == {}
