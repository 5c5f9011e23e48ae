"""Range safety: every result is right or visibly wrong at any scale.

The block kernels form Gram products, which over- or underflow at
extreme input scales without tripping any non-finite sentinel.  The
public entry points therefore scale out-of-range inputs by an exact
power of two (:mod:`repro.core.scaling`), and every result builder
refuses to report convergence for a non-finite ``sigma``.  The sweep
below checks both across kernels and entry points against LAPACK.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parallel_svd, svd, svd_batch
from repro.blockjacobi import BlockJacobiOptions, block_jacobi_svd
from repro.core.result import sigma_converged
from repro.core.scaling import SAFE_EXPONENT, range_scale
from repro.parallel.driver import ParallelJacobiSVD
from repro.svd.hestenes import jacobi_svd
from repro.util.errors import ConvergenceWarning, NumericalBreakdown

SCALES = (1e-310, 1e-300, 1e-150, 1e150, 1e160, 1e300)

#: kernel configurations: scalar mode plus the three block kernels
KERNELS = {
    "scalar": {},
    "gram": {"block_size": 4},
    "batched": {"block_size": 4, "kernel": "batched"},
    "reference": {"block_size": 4, "kernel": "reference"},
}


def _matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


def _right_or_visible(result, x):
    """A converged result must match LAPACK within 1e-12 * sigma_max."""
    if not result.converged:
        return
    ref = np.linalg.svd(x, compute_uv=False)
    assert np.isfinite(result.sigma).all()
    err = float(np.max(np.abs(result.sigma - ref)))
    assert err <= 1e-12 * ref[0], err / ref[0]


def _call(entry, kernel, x):
    """Run one entry point; a raised breakdown counts as visibly wrong."""
    kw = KERNELS[kernel]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ConvergenceWarning)
        try:
            if entry == "svd":
                return [svd(x, **kw)]
            if entry == "svd_batch":
                return list(svd_batch(x, **kw))
            return [parallel_svd(x, **kw)[0]]
        except (NumericalBreakdown, ValueError):
            return []


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("entry", ["svd", "svd_batch", "parallel_svd"])
def test_scale_sweep_is_right_or_visibly_wrong(entry, kernel, scale):
    if entry == "svd_batch":
        # an in-range item between two scaled ones: scaling is per item
        x = np.stack([_matrix(24, 16, 0) * scale, _matrix(24, 16, 1),
                      _matrix(24, 16, 2) * scale])
    elif entry == "svd":
        x = _matrix(24, 16, 0) * scale
    else:
        x = _matrix(40, 32, 0) * scale
    results = _call(entry, kernel, x)
    for r, item in zip(results, x if x.ndim == 3 else [x]):
        _right_or_visible(r, item)


@pytest.mark.parametrize("kernel", ["gram", "batched", "reference"])
@pytest.mark.parametrize("scale", [1e-300, 1e160])
def test_scaled_batch_is_bitwise_the_looped_svd(kernel, scale):
    stack = np.stack([_matrix(24, 16, i) * (scale if i % 2 else 1.0)
                      for i in range(4)])
    br = svd_batch(stack, **KERNELS[kernel])
    for i in range(len(stack)):
        solo = svd(stack[i], **KERNELS[kernel])
        np.testing.assert_array_equal(br[i].sigma, solo.sigma)
        np.testing.assert_array_equal(br[i].u, solo.u)
        np.testing.assert_array_equal(br[i].v, solo.v)


class TestRangeScale:
    def test_in_range_input_is_not_copied(self):
        a = _matrix(8, 4, 3) * 2.0 ** 40
        scaled, k = range_scale(a)
        assert scaled is a and k == 0

    def test_in_range_result_is_bitwise_the_driver(self):
        a = _matrix(24, 16, 4) * 2.0 ** -40
        opts = BlockJacobiOptions(block_size=4)
        direct = block_jacobi_svd(a, ordering="fat_tree", options=opts)
        np.testing.assert_array_equal(svd(a, options=opts).sigma,
                                      direct.sigma)

    @given(st.integers(min_value=-1070, max_value=1020),
           st.floats(min_value=0.5, max_value=1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_factor_is_an_exact_power_of_two(self, exponent, mantissa):
        a = np.array([[np.ldexp(mantissa, exponent), 0.0],
                      [0.0, np.ldexp(mantissa, exponent - 1)]])
        scaled, k = range_scale(a)
        if abs(exponent) <= SAFE_EXPONENT:
            assert k == 0 and scaled is a
        else:
            assert 0.5 <= np.abs(scaled).max() < 1.0
        # the entries lie within a factor of two, so none turns
        # subnormal on the way: the shift loses no bit
        np.testing.assert_array_equal(np.ldexp(scaled, -k), a)

    def test_stack_gets_one_factor_per_item(self):
        stack = np.stack([np.ones((2, 2)), 1e200 * np.ones((2, 2))])
        scaled, k = range_scale(stack)
        assert k[0] == 0 and k[1] < 0
        np.testing.assert_array_equal(scaled[0], stack[0])


class TestNonFiniteSigma:
    """A non-finite singular value never reports convergence."""

    def test_rule(self):
        with pytest.warns(ConvergenceWarning, match="not finite"):
            assert sigma_converged(np.array([1.0, np.inf]), True) is False
        assert sigma_converged(np.array([2.0, 1.0]), True) is True

    def test_scalar_builder(self):
        with pytest.warns(ConvergenceWarning, match="not finite"), \
                np.errstate(all="ignore"):
            r = jacobi_svd(np.full((8, 4), 1e308))
        assert not r.converged

    def test_block_builder(self):
        # the driver alone has no entry scaling: column norms overflow
        a = _matrix(24, 16, 0) * 1e160
        with pytest.warns(ConvergenceWarning, match="not finite"), \
                np.errstate(all="ignore"):
            r = block_jacobi_svd(a, options=BlockJacobiOptions(block_size=4))
        assert not r.converged

    def test_machine_builder(self):
        a = _matrix(24, 16, 0) * 1e160
        driver = ParallelJacobiSVD(topology="perfect", ordering="ring_new",
                                   options=BlockJacobiOptions(block_size=2))
        with pytest.warns(ConvergenceWarning, match="not finite"), \
                np.errstate(all="ignore"):
            r, _ = driver.compute(a)
        assert not r.converged

    def test_sigma_beyond_float64_after_unscaling(self):
        with pytest.warns(ConvergenceWarning, match="not finite"):
            r = svd(np.full((8, 4), 1.5e308), block_size=1)
        assert not r.converged


class TestUnknownKeywords:
    def test_unknown_keyword_raises(self):
        a = _matrix(24, 16, 0)
        with pytest.raises(TypeError, match="bogus_knob"):
            svd(a, bogus_knob=3)
        with pytest.raises(TypeError, match="bogus_knob"):
            svd_batch(a[None], block_size=4, bogus_knob=3)
        with pytest.raises(TypeError, match="bogus_knob"):
            parallel_svd(a, bogus_knob=3)

    def test_removed_compute_backend_fails_loudly(self):
        a = _matrix(24, 16, 0)
        with pytest.raises(TypeError, match="compute_backend"):
            svd(a, block_size=4, compute_backend="numpy")

    def test_ordering_keywords_still_reach_the_constructor(self):
        a = _matrix(40, 32, 0)
        r, _ = parallel_svd(a, ordering="hybrid", n_groups=2)
        assert r.converged

    def test_processes_executor_is_rejected(self):
        with pytest.raises(ValueError, match="serial, threads"):
            svd(_matrix(24, 16, 0), block_size=4, executor="processes")


def test_import_loads_no_process_machinery():
    code = ("import sys, repro; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('multiprocessing') "
            "or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
