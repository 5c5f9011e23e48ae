"""Tests of the execution-layer analysis gate (repro.verify.analyze).

Positive direction: every registered ordering, at every gate size, is
clean under the full execution-layer analysis — compiled-plan
integrity, executor chunking for every kernel x worker count, and
fault-tolerance totality on the perfect tree.  Negative direction:
each execution-layer corruption operator trips exactly the rule it is
engineered for, by rule ID.
"""

import json

import pytest

from repro.cli import main
from repro.machine.topology import make_topology
from repro.orderings import make_ordering, ordering_names
from repro.orderings.plan import compile_schedule
from repro.verify import (
    ANALYZE_WORKERS,
    analyze_ordering,
    analyze_registry,
    analyze_schedule,
    break_fallback_chain,
    check_degraded_totality,
    check_executor_plan,
    check_fallback_chains,
    check_host_map,
    check_plan_cache,
    check_plan_integrity,
    check_stage_plan,
    dead_host_map,
    derive_step_chunking,
    overlap_chunk_writes,
    shuffle_chunk_bounds,
    skew_chunk_bounds,
    split_unsplittable_stage,
    stale_plan_memo,
    tamper_final_layout,
    tamper_plan_pairs,
)

GATE_SIZES = (8, 16, 32)


def _stage_plans(kernel="gram", workers=4, n=32):
    """Stage plans of the first rotating step of a real schedule."""
    plan = compile_schedule(make_ordering("ring_new", n).sweep(0))
    step = next(s for s in plan.steps if s.n_pairs)
    return {p.stage: p for p in derive_step_chunking(step, kernel, workers)}


def _rules(diags):
    return {d.rule for d in diags}


class TestRegistryGate:
    @pytest.mark.parametrize("name", ordering_names())
    @pytest.mark.parametrize("n", GATE_SIZES)
    def test_every_registered_ordering_is_clean(self, name, n):
        report = analyze_ordering(make_ordering(name, n),
                                  make_topology("perfect", n // 2))
        assert report.ok, report.render()
        assert not report.warnings, report.render()

    def test_quick_matrix_covers_all_names(self):
        reports = analyze_registry(quick=True)
        assert len(reports) == len(ordering_names())
        assert all(r.ok for r in reports)

    def test_unconstructible_size_is_skipped_not_failed(self):
        reports = analyze_registry(names=["fat_tree"], sizes=(6,))
        assert len(reports) == 1
        assert reports[0].ok
        assert any(c.startswith("skipped:") for c in reports[0].checks)

    def test_no_topology_records_the_ft_skip(self):
        sched = make_ordering("ring_new", 8).sweep(0)
        report = analyze_schedule(sched, topology=None)
        assert report.ok
        assert any("ft-degraded(skipped" in c for c in report.checks)

    def test_every_kernel_worker_combination_is_checked(self):
        sched = make_ordering("ring_new", 8).sweep(0)
        report = analyze_schedule(sched, make_topology("perfect", 4))
        for kernel in ("reference", "batched", "gram"):
            for w in ANALYZE_WORKERS:
                assert f"exec-plan[{kernel},w={w}]" in report.checks


class TestExecRules:
    """EXEC corruptions fire exactly their engineered rule."""

    def test_pristine_stage_plans_are_clean(self):
        for kernel in ("reference", "batched", "gram"):
            for w in (1, 2, 4):
                for plan in _stage_plans(kernel, w).values():
                    assert check_stage_plan(plan) == []

    def test_overlapping_write_sets_fire_exec001(self):
        plan = overlap_chunk_writes(_stage_plans()["gram-apply"])
        assert _rules(check_stage_plan(plan)) == {"EXEC001"}

    def test_split_gram_solve_fires_exec002(self):
        plan = split_unsplittable_stage(_stage_plans()["gram-solve"])
        assert _rules(check_stage_plan(plan)) == {"EXEC002"}

    def test_reordered_bounds_fire_exec003(self):
        plan = shuffle_chunk_bounds(_stage_plans()["gram-apply"])
        assert _rules(check_stage_plan(plan)) == {"EXEC003"}

    def test_skewed_bounds_warn_exec004(self):
        plan = skew_chunk_bounds(_stage_plans()["gram-apply"])
        diags = check_stage_plan(plan)
        assert _rules(diags) == {"EXEC004"}
        assert all(not d.is_error for d in diags)  # advisory, not a gate fail

    def test_whole_schedule_pass_is_clean(self):
        sched = make_ordering("fat_tree", 16).sweep(0)
        for kernel in ("reference", "batched", "gram"):
            assert check_executor_plan(sched, kernel=kernel, workers=4) == []


class TestPlanRules:
    """PLAN corruptions fire exactly their engineered rule."""

    def test_pristine_plan_is_clean(self):
        sched = make_ordering("hybrid", 16).sweep(0)
        assert check_plan_integrity(sched) == []
        assert check_plan_cache(sched) == []

    def test_tampered_pairs_fire_plan001(self):
        sched = make_ordering("ring_new", 16).sweep(0)
        diags = check_plan_integrity(sched, tamper_plan_pairs(sched))
        assert _rules(diags) == {"PLAN001"}

    def test_tampered_layout_fires_plan002(self):
        sched = make_ordering("ring_new", 16).sweep(0)
        diags = check_plan_integrity(sched, tamper_final_layout(sched))
        assert _rules(diags) == {"PLAN002"}

    def test_stale_memo_fires_plan003(self):
        sched = make_ordering("fat_tree", 16).sweep(0)
        diags = check_plan_cache(stale_plan_memo(sched))
        assert _rules(diags) == {"PLAN003"}

    def test_corruption_preserves_the_original(self):
        sched = make_ordering("ring_new", 8).sweep(0)
        tamper_plan_pairs(sched)
        tamper_final_layout(sched)
        stale_plan_memo(sched)
        assert check_plan_integrity(sched) == []
        assert check_plan_cache(sched) == []


class TestFaultRules:
    """FT corruptions fire exactly their engineered rule."""

    def test_degraded_totality_is_clean_on_perfect_tree(self):
        sched = make_ordering("ring_new", 16).sweep(0)
        assert check_degraded_totality(sched, make_topology("perfect", 8)) == []

    def test_unremapped_dead_leaf_fires_ft001(self):
        diags = check_host_map(*dead_host_map(8))
        assert _rules(diags) == {"FT001"}

    def test_live_fallback_chains_are_clean(self):
        assert check_fallback_chains() == []

    def test_dead_end_chain_fires_ft002(self):
        diags = check_fallback_chains(break_fallback_chain())
        assert _rules(diags) == {"FT002"}


@pytest.mark.lint
class TestAnalyzeCLI:
    def test_quick_gate_is_clean(self, capsys):
        assert main(["analyze", "--quick"]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_single_target(self, capsys):
        assert main(["analyze", "--ordering", "ring_new", "--n", "8",
                     "--workers", "2"]) == 0
        assert "ring_new(n=8): ok" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["analyze", "--ordering", "hybrid", "--n", "16",
                     "--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["reports"][0]["target"] == "hybrid(n=8)"  # quick pins n=8

    def test_topology_none_disables_ft_pass(self, capsys):
        assert main(["analyze", "--ordering", "ring_new", "--n", "8",
                     "--topology", "none", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        checks = data["reports"][0]["checks"]
        assert any("ft-degraded(skipped" in c for c in checks)

    def test_unknown_ordering_is_usage_error(self, capsys):
        assert main(["analyze", "--ordering", "nope"]) == 2

    def test_unknown_topology_is_usage_error(self, capsys):
        assert main(["analyze", "--topology", "nope"]) == 2

    def test_bad_worker_count_is_usage_error(self, capsys):
        assert main(["analyze", "--workers", "0"]) == 2
