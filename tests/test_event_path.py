"""The simulator's event path against the one numerics engine.

A healthy ``parallel_svd`` (no fault plan, sanitizer off) runs the
serial driver and charges each sweep the plan's cost ledger.  Fault
injection and the runtime sanitizer run the machine's event path
instead, which moves the columns at every move phase and charges every
step as it happens.  Arming the sanitizer reaches that path with no
other change, so these tests pin it to the healthy run: the same
decomposition and history, and the same step records as the ledger.
"""

import numpy as np
import pytest

from repro import JacobiOptions, parallel_svd, svd
from repro.blockjacobi import BlockJacobiOptions
from repro.machine import CostModel
from repro.machine.simulator import TreeMachine, sweep_ledger
from repro.machine.topology import make_topology
from repro.orderings import make_ordering, ordering_names
from repro.orderings.plan import compile_schedule
from repro.svd.thresholds import StagedThreshold

#: (ordering, topology, block size) of the paper-scale runs: four scalar
#: orderings on their topologies, two block runs on the CM-5
CONFIGS = (
    ("hybrid", "cm5", None),
    ("fat_tree", "perfect", None),
    ("ring_new", "binary", None),
    ("llb", "perfect", None),
    ("hybrid", "cm5", 4),
    ("fat_tree", "cm5", 16),
)


def _matrix(kind: str) -> np.ndarray:
    a = np.random.default_rng(2024).standard_normal((72, 64))
    if kind == "graded":
        a *= np.logspace(0, -10, 64)
    return a


def _run(monkeypatch, a, ordering, topology, b, kernel, event):
    """One ``parallel_svd``; ``event`` arms the sanitizer, which sends
    the run down the event path."""
    if b is None:
        if event:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
        else:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        opts = JacobiOptions(kernel=kernel)
    else:
        opts = BlockJacobiOptions(block_size=b, kernel=kernel, sanitize=event)
    return parallel_svd(a, topology=topology, ordering=ordering,
                        options=opts)


def _ledger(a, ordering, topology, b, sweeps):
    """The cost ledger of each sweep of a run, built from the plans."""
    m, n = a.shape
    units = n // (b or 1)
    ordg = make_ordering(ordering, units)
    topo = make_topology(topology, units // 2)
    words = (b or 1) * (m + n)
    return [sweep_ledger(compile_schedule(ordg.sweep(s)), topo, CostModel(),
                         m, words, b, 2)
            for s in range(sweeps)]


def _history(r):
    return [(h.sweep, h.off_norm, h.max_rel_gamma, h.rotations, h.skipped)
            for h in r.history]


def _history_without_skipped(r):
    # the block driver records no skipped pairs; the event path counts
    # the reference kernel's
    return [(h.sweep, h.off_norm, h.max_rel_gamma, h.rotations)
            for h in r.history]


@pytest.mark.parametrize("kind", ["gaussian", "graded"])
@pytest.mark.parametrize("ordering,topology,b,kernel", [
    (o, t, b, k) for o, t, b in CONFIGS
    for k in (("reference", "batched") if b is None else ("gram",))
])
def test_event_path_matches_healthy_run(monkeypatch, ordering, topology, b,
                                        kernel, kind):
    a = _matrix(kind)
    healthy, hrep = _run(monkeypatch, a, ordering, topology, b, kernel, False)
    event, erep = _run(monkeypatch, a, ordering, topology, b, kernel, True)
    if kernel == "batched":
        # the scalar batched kernel starts its norm cache and measures
        # off_norm in a different layout on the two paths: same answer
        # to rounding, not the same bits
        assert event.converged == healthy.converged
        assert np.max(np.abs(event.sigma - healthy.sigma)) \
            <= 1e-13 * healthy.sigma[0]
    else:
        assert event.sweeps == healthy.sweeps
        assert _history(event) == _history(healthy)
        for field in ("sigma", "u", "v"):
            np.testing.assert_array_equal(getattr(event, field),
                                          getattr(healthy, field))
        assert erep.total_time == hrep.total_time
    for rep, r in ((hrep, healthy), (erep, event)):
        assert len(rep.sweep_stats) == r.sweeps
        for got, want in zip(rep.sweep_stats,
                             _ledger(a, ordering, topology, b, r.sweeps)):
            assert got.steps == want.steps


@pytest.mark.parametrize("kernel,b", [("reference", None), ("batched", None),
                                      ("gram", 2), ("reference", 2)])
@pytest.mark.parametrize("ordering", ordering_names())
def test_every_ordering_matches_healthy_run(monkeypatch, ordering, kernel, b):
    # every registered ordering at a small size: the serial loops' sweep
    # layouts (content pairs, contiguous rows) against the event path's
    # column moves, sort exchanges included
    a = np.random.default_rng(11).standard_normal((20, 16))
    healthy, hrep = _run(monkeypatch, a, ordering, "perfect", b, kernel,
                         False)
    event, erep = _run(monkeypatch, a, ordering, "perfect", b, kernel, True)
    if kernel == "batched":
        assert event.converged == healthy.converged
        assert np.max(np.abs(event.sigma - healthy.sigma)) \
            <= 1e-13 * healthy.sigma[0]
        return
    assert event.sweeps == healthy.sweeps
    history = _history if b is None else _history_without_skipped
    assert history(event) == history(healthy)
    for field in ("sigma", "sigma_by_slot", "u", "v"):
        np.testing.assert_array_equal(getattr(event, field),
                                      getattr(healthy, field))
    assert [s.steps for s in erep.sweep_stats] == \
        [s.steps for s in hrep.sweep_stats]


def test_machine_sweep_charges_the_ledger():
    # the event path's own records, one sweep straight on the machine
    a = _matrix("gaussian")
    machine = TreeMachine(make_topology("cm5", 32))
    machine.load(a, compute_v=False)
    ordg = make_ordering("hybrid", 64)
    stats, _, _ = machine.run_sweep(ordg.sweep(0))
    assert stats.steps == sweep_ledger(
        compile_schedule(ordg.sweep(0)), machine.topology, machine.cost,
        72, 72).steps


@pytest.mark.parametrize("event", [False, True])
def test_threshold_strategy_is_honoured(monkeypatch, event):
    """Both paths rotate at the serial driver's staged per-sweep
    threshold, not at ``tol``."""
    a = _matrix("gaussian")
    opts = JacobiOptions(
        threshold_strategy=StagedThreshold(initial=0.5, decay=0.05))
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    want = svd(a, ordering="hybrid", options=opts)
    if event:
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    got, _ = parallel_svd(a, options=opts)
    assert got.sweeps == want.sweeps
    assert got.rotations == want.rotations
    assert _history(got) == _history(want)
    for field in ("sigma", "u", "v"):
        np.testing.assert_array_equal(getattr(got, field),
                                      getattr(want, field))
