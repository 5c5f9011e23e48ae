"""The benchmark's five workloads: seeded inputs and one public call each.

Each workload is what one kind of user does with the library; the
shapes are chosen so that the workloads load different layers (see
README.md for the per-layer shares each was chosen for).  The calls go
through the ``repro`` module passed in, so a traced run sees the
wrappers installed on its public functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: matrices per op
    items: int
    make: Callable[[np.random.Generator], np.ndarray]
    run: Callable[[object, np.ndarray], object]


def _gaussian(m: int, n: int) -> Callable[[np.random.Generator], np.ndarray]:
    return lambda rng: rng.standard_normal((m, n))


def _mixed_batch(rng: np.random.Generator) -> np.ndarray:
    """256 matrices 24x16: a quarter each Gaussian, graded (sigma from 1
    to 1e-8), rank 8, and Gaussian scaled by 2**k with k in [-40, 40]."""
    q, m, n = 64, 24, 16
    gauss = rng.standard_normal((q, m, n))
    left, _ = np.linalg.qr(rng.standard_normal((q, m, n)))
    right, _ = np.linalg.qr(rng.standard_normal((q, n, n)))
    graded = (left * np.logspace(0, -8, n)) @ right
    rank8 = rng.standard_normal((q, m, 8)) @ rng.standard_normal((q, 8, n))
    scaled = (rng.standard_normal((q, m, n))
              * np.exp2(rng.integers(-40, 41, q))[:, None, None])
    stack = np.concatenate([gauss, graded, rank8, scaled])
    return stack[rng.permutation(len(stack))]


WORKLOADS = {w.name: w for w in (
    Workload(
        "solo-square",
        "svd(A 144x128, block_size=16): the tuned default block path; the "
        "inner Gram solve (eig) dominates",
        1, _gaussian(144, 128),
        lambda repro, a: repro.svd(a, block_size=16)),
    Workload(
        "solo-tall",
        "svd(A 1024x128, block_size=16): same inner solve as solo-square, "
        "but gather, Gram form and apply scale with m, so the GEMM kernel "
        "leads",
        1, _gaussian(1024, 128),
        lambda repro, a: repro.svd(a, block_size=16)),
    Workload(
        "batch-small",
        "svd_batch of 256 24x16 matrices with mixed spectra, block_size=4: "
        "the many-small-matrix user; per-item convergence masks and loops",
        256, _mixed_batch,
        lambda repro, s: repro.svd_batch(s, block_size=4)),
    Workload(
        "scalar-small",
        "svd(A 80x64) with no options: the scalar reference kernel the "
        "block kernels never touch; rotations and ordering builds dominate",
        1, _gaussian(80, 64),
        lambda repro, a: repro.svd(a)),
    Workload(
        "sim-cm5",
        "parallel_svd(A 72x64): the paper's 32-node CM-5 simulation with "
        "the hybrid ordering; simulator, routing and cost model run",
        1, _gaussian(72, 64),
        lambda repro, a: repro.parallel_svd(a)),
)}
