"""Relative accuracy of every SVD path, against an extended-precision oracle.

One-sided Jacobi's claim over LAPACK is *relative* accuracy: for
``A = B D`` (``B`` well conditioned, ``D`` diagonal) every singular
value comes out with a small relative error.  The grid grades a
Gaussian 40×32 matrix (seed 7) by columns, rows or both with
``logspace(0, log10(span))`` factors, in sorted and in random row and
column order, at spans 1e-10, 1e-30, 1e-100 and 1e-150, and runs it
through block gram ``svd()``, block ``reference``, one ``svd_batch`` of
the whole grid and both scalar kernels.  :func:`tests.helpers.oracle_sigma`
is the yardstick; each oracle and each path result is computed once per
module.

The contract per path (README, "Accuracy"):

- no path reports ``converged=True`` with sigma outside
  ``1e-12 * sigma_max`` of LAPACK, anywhere on the grid;
- column-graded input, any order and span: every path to 1e-13,
  converged (block mode thanks to its QR preconditioner);
- row-graded input: block ``reference`` and both scalar kernels to
  1e-10; gram to 1e-11 at spans 1e-10 and 1e-30 and normwise only
  beyond (the Gram-formation floor acting on the triangular factor);
- graded both ways at spans 1e-10 and 1e-30: block ``reference`` to
  1e-13, scalar to 1e-10, gram to 1e-8.  At 1e-100 and 1e-150
  ``sigma_min**2`` falls below float64 ``tiny`` and every Jacobi path
  is normwise only.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import svd, svd_batch
from tests.helpers import oracle_sigma

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="the oracle needs an extended-precision np.longdouble")

SPANS = (1e-10, 1e-30, 1e-100, 1e-150)
MODERATE = SPANS[:2]
KINDS = ("columns", "rows", "both")
ORDERS = ("sorted", "random")
CASES = [(k, o, s) for k in KINDS for o in ORDERS for s in SPANS]

#: block gram as svd() and as one svd_batch of the grid (same bits)
GRAM = ("gram", "batch")
#: the rotation paths: block reference and both scalar kernels
ROTATION = ("reference", "scalar", "batched")
PATHS = GRAM + ROTATION

_SOLO = {
    "gram": lambda a: svd(a, block_size=4),
    "reference": lambda a: svd(a, block_size=4, kernel="reference"),
    "scalar": lambda a: svd(a),
    "batched": lambda a: svd(a, kernel="batched"),
}


def _input(base, rows, cols, kind, order, span):
    a = base.copy()
    if kind != "rows":
        a *= np.logspace(0, np.log10(span), a.shape[1])
    if kind != "columns":
        a *= np.logspace(0, np.log10(span), a.shape[0])[:, None]
    return a[rows][:, cols] if order == "random" else a


@pytest.fixture(scope="module")
def grid():
    """``{case: (input, oracle sigma, {path: result})}``."""
    rng = np.random.default_rng(7)
    base = rng.standard_normal((40, 32))
    rows, cols = rng.permutation(40), rng.permutation(32)
    inputs = {c: _input(base, rows, cols, *c) for c in CASES}
    with warnings.catch_warnings():
        # the σ² underflow cases do not converge on the scalar kernels
        warnings.simplefilter("ignore")
        batch = svd_batch(np.stack([inputs[c] for c in CASES]), block_size=4)
        out = {}
        for c, item in zip(CASES, batch):
            results = {p: f(inputs[c]) for p, f in _SOLO.items()}
            results["batch"] = item
            out[c] = (inputs[c], oracle_sigma(inputs[c]), results)
    return out


def _relative(grid, case, path) -> float:
    _, oracle, results = grid[case]
    return float(np.max(np.abs(results[path].sigma - oracle) / oracle))


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_no_path_reports_converged_with_wrong_sigma(grid, case):
    a, _, results = grid[case]
    lap = np.linalg.svd(a, compute_uv=False)
    for path in PATHS:
        r = results[path]
        if r.converged:
            assert np.max(np.abs(r.sigma - lap)) <= 1e-12 * lap[0], path


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("span", SPANS)
def test_column_graded_is_relatively_accurate_on_every_path(grid, order,
                                                            span):
    case = ("columns", order, span)
    for path in PATHS:
        assert grid[case][2][path].converged, path
        assert _relative(grid, case, path) <= 1e-13, path


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("span", SPANS)
def test_row_graded_bounds(grid, order, span):
    case = ("rows", order, span)
    for path in ROTATION:
        assert grid[case][2][path].converged, path
        assert _relative(grid, case, path) <= 1e-10, path
    if span in MODERATE:
        for path in GRAM:
            assert grid[case][2][path].converged, path
            assert _relative(grid, case, path) <= 1e-11, path


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("span", MODERATE)
def test_graded_both_ways_bounds(grid, order, span):
    case = ("both", order, span)
    bounds = {"reference": 1e-13, "scalar": 1e-10, "batched": 1e-10,
              "gram": 1e-8, "batch": 1e-8}
    for path, bound in bounds.items():
        assert grid[case][2][path].converged, path
        assert _relative(grid, case, path) <= bound, path

