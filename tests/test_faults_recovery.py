"""End-to-end recovery tests: faulted runs must reproduce the
fault-free singular values exactly, or fail explicitly — never return
silently wrong output."""

import warnings

import numpy as np
import pytest

from repro import ConvergenceWarning, FaultPlan, parallel_svd, svd
from repro.faults.campaign import CampaignCase, single_fault_plan
from repro.util.bits import leaf_of_slot


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(7).standard_normal((24, 16))


@pytest.fixture(scope="module")
def baseline(matrix):
    return parallel_svd(matrix, topology="perfect", ordering="fat_tree")


def _relerr(r, r0):
    return float(np.max(np.abs(r.sigma - r0.sigma))) / float(r0.sigma[0])


def _faulted(matrix, plan, **kwargs):
    kwargs.setdefault("topology", "perfect")
    kwargs.setdefault("ordering", "fat_tree")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return parallel_svd(matrix, fault_plan=plan, **kwargs)


class TestMessageFaultRecovery:
    @pytest.mark.parametrize("kind", ["drop", "duplicate", "delay", "corrupt"])
    def test_transport_recovers_exactly(self, matrix, baseline, kind):
        plan = single_fault_plan(CampaignCase("fat_tree", kind, 16))
        r, rep = _faulted(matrix, plan)
        assert r.converged
        assert _relerr(r, baseline[0]) <= 1e-8
        assert any(e.action == "injected" for e in r.fault_events)
        assert rep.recovery_time > 0

    def test_recovery_cost_lands_in_total_time(self, matrix, baseline):
        plan = single_fault_plan(CampaignCase("fat_tree", "drop", 16))
        _, rep = _faulted(matrix, plan)
        assert rep.total_time > baseline[1].total_time

    def test_retries_visible_in_step_records(self, matrix):
        plan = single_fault_plan(CampaignCase("fat_tree", "drop", 16))
        r, rep = _faulted(matrix, plan)
        assert rep.total_retries >= 1
        stepped = [ev for s in rep.sweep_stats for ev in s.fault_events]
        assert any(e.kind == "drop" for e in stepped)


class TestCrashRecovery:
    def test_crash_remaps_and_recovers_exactly(self, matrix, baseline):
        plan = FaultPlan().crash(leaf=3, sweep=0, step=2)
        r, rep = _faulted(matrix, plan)
        assert r.converged
        assert _relerr(r, baseline[0]) <= 1e-8
        actions = {e.action for e in r.fault_events}
        assert "rollback" in actions and "remap" in actions
        assert rep.rollbacks >= 1

    def test_buddy_pair_double_crash_fails_explicitly(self, matrix):
        plan = (FaultPlan()
                .crash(leaf=2, sweep=0, step=1)
                .crash(leaf=3, sweep=1, step=1))
        r, rep = _faulted(matrix, plan)
        assert not r.converged
        assert any(e.action == "unrecoverable" for e in r.fault_events)

    def test_degraded_validation_reported(self, matrix):
        plan = FaultPlan().crash(leaf=1, sweep=0, step=1)
        r, _ = _faulted(matrix, plan)
        remaps = [e for e in r.fault_events
                  if e.action == "remap" and e.kind == "recovery"]
        assert remaps and "degraded" in remaps[0].detail


class TestSilentCorruption:
    @pytest.mark.parametrize("mode", ["nan", "inf", "scale", "zero"])
    def test_detected_and_rolled_back(self, matrix, baseline, mode):
        plan = FaultPlan()
        case_plan = single_fault_plan(
            CampaignCase("fat_tree", "corrupt_silent", 16))
        f = case_plan.faults[0]
        plan = plan.corrupt(sweep=f.sweep, step=f.step, src=f.src,
                            dst=f.dst, mode=mode, silent=True)
        r, rep = _faulted(matrix, plan)
        assert r.converged
        assert _relerr(r, baseline[0]) <= 1e-8
        assert rep.rollbacks >= 1


class TestStallAndOutage:
    def test_stall_charged_but_harmless(self, matrix, baseline):
        plan = FaultPlan().stall(leaf=0, sweep=0, step=1, duration=300.0)
        r, rep = _faulted(matrix, plan)
        assert r.converged
        assert _relerr(r, baseline[0]) <= 1e-8
        stalls = [e for e in r.fault_events if e.kind == "stall"]
        assert stalls and stalls[0].time_charged == 300.0

    def test_outage_waited_out(self, matrix, baseline):
        plan = single_fault_plan(CampaignCase("fat_tree", "outage", 16))
        r, rep = _faulted(matrix, plan)
        assert r.converged
        assert _relerr(r, baseline[0]) <= 1e-8
        assert any(e.action == "outage-wait" for e in r.fault_events)


class TestExplicitFailure:
    def test_exhausted_retries_never_silently_wrong(self, matrix):
        plan = single_fault_plan(CampaignCase("fat_tree", "drop", 16))
        f = plan.faults[0]
        hopeless = FaultPlan(max_retries=2).drop(
            sweep=f.sweep, step=f.step, src=f.src, dst=f.dst, fires=50)
        with pytest.warns(ConvergenceWarning):
            r, rep = parallel_svd(matrix, topology="perfect",
                                  ordering="fat_tree", fault_plan=hopeless)
        assert not r.converged
        assert any(e.action == "unrecoverable" for e in r.fault_events)

    def test_failed_result_summary_says_so(self, matrix):
        plan = FaultPlan(max_retries=1).drop(
            sweep=None, step=None, src=None, dst=None, fires=10 ** 6)
        r, _ = _faulted(matrix, plan)
        assert not r.converged
        assert "NOT converged" in r.summary()


class TestBlockAndKernelPaths:
    def test_gram_block_path_recovers(self, matrix):
        r0, _ = parallel_svd(matrix, topology="perfect", ordering="ring_new",
                             block_size=2, kernel="gram")
        plan = single_fault_plan(
            CampaignCase("ring_new", "corrupt_silent", 16, "gram", 2))
        r, rep = _faulted(matrix, plan, ordering="ring_new",
                          block_size=2, kernel="gram")
        assert r.converged
        assert _relerr(r, r0) <= 1e-8

    def test_batched_kernel_path_recovers(self, matrix, baseline):
        r0, _ = parallel_svd(matrix, topology="perfect", ordering="fat_tree",
                             kernel="batched")
        plan = single_fault_plan(CampaignCase("fat_tree", "crash", 16,
                                              "batched"))
        r, _ = _faulted(matrix, plan, kernel="batched")
        assert r.converged
        assert _relerr(r, r0) <= 1e-8


class TestSvdEntryPoint:
    def test_svd_fault_plan_delegates_to_machine(self, matrix):
        plan = FaultPlan().crash(leaf=2, sweep=0, step=1)
        r = svd(matrix, ordering="fat_tree", fault_plan=plan)
        clean = svd(matrix, ordering="fat_tree")
        assert r.converged
        assert _relerr(r, clean) <= 1e-8
        assert r.fault_events

    def test_fault_free_plan_is_bit_identical(self, matrix):
        # an installed injector with an empty plan must not perturb the
        # simulation results (the recovery scaffolding only prices real
        # faults): the event path runs the healthy run's own sweeps, so
        # every kernel returns the healthy bits
        for kwargs in ({"kernel": "reference"}, {"kernel": "batched"},
                       {"kernel": "gram", "block_size": 2},
                       {"kernel": "reference", "block_size": 2}):
            healthy, _ = parallel_svd(matrix, topology="perfect",
                                      ordering="fat_tree", **kwargs)
            r, _ = _faulted(matrix, FaultPlan(), **kwargs)
            for field in ("sigma", "u", "v", "sigma_by_slot"):
                np.testing.assert_array_equal(
                    getattr(r, field), getattr(healthy, field),
                    err_msg=f"{field} with {kwargs}")
            assert r.sweeps == healthy.sweeps, kwargs
            assert r.history == healthy.history, kwargs
            assert r.fault_events == [], kwargs
