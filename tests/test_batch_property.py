"""Hypothesis properties of the batch SVD path.

Four behavioural laws the batch API must satisfy on *generated* inputs,
not just the golden grid: batch order is irrelevant (permuting the items
permutes the results, bit for bit), runs are deterministic (same data →
identical ``BatchResult``), a batch of one is exactly ``svd()``, and a
planted non-finite entry is reported with its batch index and in-matrix
coordinates.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import svd, svd_batch

from .test_batch_api import assert_results_identical

SETTINGS = dict(deadline=None, max_examples=15,
                suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
batch_sizes = st.integers(min_value=1, max_value=5)
kernels = st.sampled_from(["reference", "gram"])


def make_stack(seed: int, nitems: int, n: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nitems, n + 2, n))


@given(seed=seeds, nitems=batch_sizes, kernel=kernels, permseed=seeds)
@settings(**SETTINGS)
def test_permuting_items_permutes_results(seed, nitems, kernel, permseed):
    stack = make_stack(seed, nitems)
    perm = np.random.default_rng(permseed).permutation(nitems)
    base = svd_batch(stack, kernel=kernel, block_size=2)
    shuffled = svd_batch(stack[perm], kernel=kernel, block_size=2)
    for j, i in enumerate(perm):
        assert_results_identical(shuffled[j], base[int(i)])


@given(seed=seeds, nitems=batch_sizes, kernel=kernels)
@settings(**SETTINGS)
def test_same_input_gives_identical_batch(seed, nitems, kernel):
    stack = make_stack(seed, nitems)
    a = svd_batch(stack, kernel=kernel, block_size=2)
    b = svd_batch(stack, kernel=kernel, block_size=2)
    assert len(a) == len(b) == nitems
    for i in range(nitems):
        assert_results_identical(a[i], b[i])
    assert a.sweeps_histogram == b.sweeps_histogram
    assert a.n_converged == b.n_converged


@given(seed=seeds, kernel=kernels)
@settings(**SETTINGS)
def test_batch_of_one_equals_svd(seed, kernel):
    stack = make_stack(seed, 1)
    batch = svd_batch(stack, kernel=kernel, block_size=2)
    assert len(batch) == 1
    assert_results_identical(batch[0], svd(stack[0], kernel=kernel,
                                           block_size=2))


@given(seed=seeds, nitems=batch_sizes, data=st.data())
@settings(**SETTINGS)
def test_nonfinite_reports_item_and_coordinates(seed, nitems, data):
    stack = make_stack(seed, nitems)
    item = data.draw(st.integers(0, nitems - 1))
    row = data.draw(st.integers(0, stack.shape[1] - 1))
    col = data.draw(st.integers(0, stack.shape[2] - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    stack[item, row, col] = bad
    with pytest.raises(ValueError) as exc:
        svd_batch(stack, kernel="gram", block_size=2)
    msg = str(exc.value)
    assert re.search(rf"matrices\[{item}\]", msg)
    # the reported coordinates must point at a genuinely non-finite entry
    # of that item (the first one in scan order; ours if it is unique)
    coords = re.search(r"at index \((\d+), (\d+)\)", msg)
    assert coords is not None
    r, c = int(coords.group(1)), int(coords.group(2))
    assert not np.isfinite(stack[item, r, c])
