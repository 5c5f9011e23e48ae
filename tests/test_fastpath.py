"""Fast-path/event-path equivalence suite.

The simulator's vectorised fast path must be *bit-identical* to the
event-driven reference: same X, V, labels and block indirections, same
worst off-diagonal, same rotation counters, and the same StepRecord
stream (closed-form costs == accumulated per-event costs).  The golden
suite sweeps kernels × orderings × sizes; a Hypothesis property checks
the dispatch rule (any armed injector or sanitizer pins the event
path); a planted overflow exercises the breakdown fallback, which must
delegate to the event solver and stay bitwise on the final state.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.faults.injector import FaultInjector
from repro.machine.simulator import TreeMachine
from repro.machine.topology import PerfectFatTree
from repro.orderings.registry import make_ordering, ordering_names
from repro.verify.sanitize import RuntimeSanitizer

ORDERINGS = tuple(ordering_names())

#: (kernel, block_size) configurations under parity test
CONFIGS = (
    ("reference", None),
    ("batched", None),
    ("gram", 2),
    ("gram", 4),
    ("reference", 2),
)


def _run(n, m, kernel, block_size, ordering, *, force_event, sweeps=2,
         sort="desc", seed=11, compute_v=True):
    b = block_size or 1
    n_slots = n // b
    machine = TreeMachine(PerfectFatTree(n_slots // 2))
    rng = np.random.default_rng(seed)
    machine.load(rng.standard_normal((m, n)), compute_v=compute_v,
                 kernel=kernel, block_size=block_size)
    machine.force_event = force_event
    ordg = make_ordering(ordering, n_slots)
    results = []
    for s in range(sweeps):
        results.append(machine.run_sweep(ordg.sweep(s), sort=sort,
                                         sweep_index=s))
    return machine, results


def _assert_parity(n, m, kernel, block_size, ordering, **kw):
    ev, ev_out = _run(n, m, kernel, block_size, ordering,
                      force_event=True, **kw)
    fa, fa_out = _run(n, m, kernel, block_size, ordering,
                      force_event=False, **kw)
    assert ev.last_sweep_path == "event"
    assert fa.last_sweep_path == "fast"
    np.testing.assert_array_equal(ev.X, fa.X)
    if ev.V is not None:
        np.testing.assert_array_equal(ev.V, fa.V)
    np.testing.assert_array_equal(ev.labels, fa.labels)
    if block_size is not None:
        np.testing.assert_array_equal(ev.block_cols, fa.block_cols)
    for (es, er, ew), (fs, fr, fw) in zip(ev_out, fa_out):
        assert ew == fw
        assert (er.applied, er.skipped, er.exchanged) == \
            (fr.applied, fr.skipped, fr.exchanged)
        assert es.steps == fs.steps  # full StepRecords, costs included


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("kernel,block_size", CONFIGS)
def test_parity_small(ordering, kernel, block_size):
    # every ordering needs >= 8 slots; keep 8 slots at any block size
    n = 8 * (block_size or 1)
    _assert_parity(n, n + 4, kernel, block_size, ordering)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("kernel,block_size", CONFIGS)
def test_parity_medium(ordering, kernel, block_size):
    _assert_parity(64, 72, kernel, block_size, ordering, sweeps=1)


@pytest.mark.parametrize("ordering", ("ring_new", "fat_tree"))
@pytest.mark.parametrize("kernel,block_size",
                         (("batched", None), ("gram", 8)))
def test_parity_large(ordering, kernel, block_size):
    _assert_parity(256, 272, kernel, block_size, ordering, sweeps=1)


@pytest.mark.parametrize("sort", ("asc", None))
def test_parity_sort_conventions(sort):
    _assert_parity(32, 40, "gram", 4, "ring_new", sort=sort)
    _assert_parity(32, 40, "batched", None, "odd_even", sort=sort)


def test_parity_without_v():
    _assert_parity(32, 40, "gram", 2, "fat_tree", compute_v=False)
    _assert_parity(32, 40, "reference", None, "ring_modified",
                   compute_v=False)


def test_parity_converged_sweeps():
    """Late sweeps (sort-only steps, carried stacks never dirtied) stay
    bitwise too — the relabel-only path is exercised once the matrix is
    orthogonal."""
    _assert_parity(16, 20, "gram", 2, "ring_new", sweeps=6)
    _assert_parity(16, 20, "batched", None, "ring_new", sweeps=6)


def test_breakdown_fallback_is_bitwise():
    """A planted overflow makes the stacked Gram form non-finite; the
    fast path must materialise, delegate the step to the event solver
    (same per-pair fallback) and still match bit for bit."""
    n, m = 16, 20
    rng = np.random.default_rng(3)
    a = rng.standard_normal((m, n))
    a[:, 5] *= 1e200  # Gram entry overflows to inf
    out = {}
    for force in (True, False):
        machine = TreeMachine(PerfectFatTree(4))
        machine.load(a, kernel="gram", block_size=2)
        machine.force_event = force
        ordg = make_ordering("ring_new", 8)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(2):
                machine.run_sweep(ordg.sweep(s), sweep_index=s)
        out[force] = machine
    np.testing.assert_array_equal(out[True].X, out[False].X)
    np.testing.assert_array_equal(out[True].V, out[False].V)
    np.testing.assert_array_equal(out[True].block_cols,
                                  out[False].block_cols)


def test_force_event_knob():
    machine, _ = _run(8, 12, "reference", None, "ring_new",
                      force_event=False)
    assert machine.last_sweep_path == "fast"
    machine, _ = _run(8, 12, "reference", None, "ring_new",
                      force_event=True)
    assert machine.last_sweep_path == "event"


@given(
    ordering=st.sampled_from(ORDERINGS),
    kernel_block=st.sampled_from(CONFIGS),
    guard=st.sampled_from(("injector", "sanitizer")),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_guard_forces_event_path(ordering, kernel_block, guard):
    """Fault injection and runtime sanitizing are event-path semantics:
    arming either must disable the fast path, whatever the config."""
    kernel, block_size = kernel_block
    b = block_size or 1
    n, m = 8 * b, 8 * b + 4
    n_slots = n // b
    machine = TreeMachine(PerfectFatTree(n_slots // 2))
    rng = np.random.default_rng(5)
    sanitizer = RuntimeSanitizer() if guard == "sanitizer" else None
    machine.load(rng.standard_normal((m, n)), kernel=kernel,
                 block_size=block_size, sanitizer=sanitizer)
    if guard == "injector":
        machine.install_faults(FaultInjector(FaultPlan(), n_slots // 2))
    ordg = make_ordering(ordering, n_slots)
    machine.run_sweep(ordg.sweep(0), sweep_index=0)
    assert machine.last_sweep_path == "event"
