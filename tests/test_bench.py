"""Unit tests for the repro.bench timing harness and report machinery."""

import json

import pytest

from repro.bench import (
    SCHEMA,
    build_report,
    compare_reports,
    default_scenarios,
    load_report,
    median,
    render_report,
    run_scenario,
    scenario_names,
    time_callable,
    validate_report,
    write_report,
)


class TestTiming:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert median([7.0]) == 7.0

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_time_callable_counts_runs(self):
        calls = []
        t = time_callable(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert t.repeats == 3 and t.warmup == 2
        assert len(t.times_s) == 3
        assert all(x >= 0.0 for x in t.times_s)
        assert t.best_s <= t.median_s <= max(t.times_s)
        assert t.mean_s == pytest.approx(sum(t.times_s) / 3)

    def test_time_callable_validates_args(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)

    def test_times_are_monotonic_clock_positive(self):
        import time as _time

        t = time_callable(lambda: _time.sleep(0.001), repeats=2, warmup=0)
        assert all(x >= 0.001 for x in t.times_s)


class TestScenarios:
    def test_full_list_has_twenty_nine_quick_has_nineteen(self):
        assert len(default_scenarios(quick=False)) == 29
        assert len(default_scenarios(quick=True)) == 19

    def test_names_unique_and_stable(self):
        full = scenario_names(quick=False)
        assert len(set(full)) == len(full)
        assert "svd/batched/fat_tree/n64" in full
        assert "block/gram/ring_new/n128b8" in full
        assert "block/reference/ring_new/n128b8" in full
        assert "exec/serial/ring_new/n128b8" in full
        assert "exec/threads/ring_new/n128b8" in full
        assert "route/loop/ring_new/n256" in full
        assert "route/vec/ring_new/n256" in full
        assert "sanitize/off/serial/n128b8" in full
        assert "sanitize/on/serial/n128b8" in full
        assert "sanitize/on/threads/n128b8" in full
        assert "parallel/hybrid/cm5/n64b4" in full
        assert "batch/loop/ring_new/n16x1000" in full
        assert "batch/batch/ring_new/n16x1000" in full
        assert "batch/batch/ring_new/n16x10000" in full
        assert "tune/quick/n64" in full
        assert "faults/recovery-overhead/n16" in full
        assert "lint/registry" in full
        assert "analyze/registry" in full

    def test_fast_scenarios_declare_their_baseline(self):
        for s in default_scenarios():
            if s.kind == "svd-kernel" and s.params["kernel"] == "batched":
                assert s.reference == (
                    f"svd/reference/{s.params['ordering']}/n{s.params['n']}"
                )
            elif s.kind == "block-kernel" and s.params["kernel"] != "reference":
                assert s.reference == (
                    f"block/reference/{s.params['ordering']}"
                    f"/n{s.params['n']}b{s.params['block_size']}"
                )
            elif (s.kind == "svd-parallel-exec"
                  and s.params["executor"] != "serial"):
                assert s.reference == (
                    f"exec/serial/{s.params['ordering']}"
                    f"/n{s.params['n']}b{s.params['block_size']}"
                )
            elif s.kind == "sanitize-overhead" and s.params["sanitize"]:
                assert s.reference == (
                    f"sanitize/off/{s.params['executor']}"
                    f"/n{s.params['n']}b{s.params['block_size']}"
                )
            elif s.kind == "svd-batch" and s.params["mode"] == "batch" \
                    and s.params["batch"] <= 1000:
                assert s.reference == (
                    f"batch/loop/{s.params['ordering']}"
                    f"/n{s.params['n']}x{s.params['batch']}"
                )
            elif s.kind == "routing" and s.params["mode"] == "vec":
                assert s.reference == (
                    f"route/loop/{s.params['ordering']}/n{s.params['n']}"
                )
            else:
                assert s.reference is None

    def test_quick_block_pair_shares_the_full_name_structure(self):
        quick = {s.name: s for s in default_scenarios(quick=True)}
        assert "block/gram/ring_new/n32b4" in quick
        assert quick["block/gram/ring_new/n32b4"].reference == \
            "block/reference/ring_new/n32b4"

    @pytest.mark.parametrize(
        "name", ["svd/batched/fat_tree/n16", "block/gram/ring_new/n32b4",
                 "parallel/hybrid/cm5/n8", "lint/registry",
                 "analyze/registry"]
    )
    def test_run_scenario_record_shape(self, name):
        by_name = {s.name: s for s in default_scenarios(quick=True)}
        rec = run_scenario(by_name[name], repeats=1, warmup=0)
        assert rec["name"] == name
        assert rec["wall_time_s"] > 0
        assert rec["times_s"] and len(rec["times_s"]) == 1
        if rec["kind"] in ("lint", "analyze"):
            assert rec["meta"]["clean"] is True
        else:
            assert rec["meta"]["converged"] is True
            assert rec["meta"]["sweeps"] >= 1

    def test_run_sanitize_scenarios_same_computation(self):
        """The sanitizer may cost wall time but must not change the
        run: identical convergence trajectory with and without it."""
        by_name = {s.name: s for s in default_scenarios(quick=True)}
        recs = [run_scenario(by_name[f"sanitize/{sw}/serial/n32b4"],
                             repeats=1, warmup=0)
                for sw in ("off", "on")]
        for rec in recs:
            assert rec["kind"] == "sanitize-overhead"
            assert rec["meta"]["converged"] is True
        assert recs[0]["meta"]["sanitize"] is False
        assert recs[1]["meta"]["sanitize"] is True
        assert recs[0]["meta"]["sweeps"] == recs[1]["meta"]["sweeps"]
        assert recs[0]["meta"]["rotations"] == recs[1]["meta"]["rotations"]

    def test_run_faults_recovery_scenario(self):
        by_name = {s.name: s for s in default_scenarios(quick=True)}
        rec = run_scenario(by_name["faults/recovery-overhead/n8"],
                           repeats=1, warmup=0)
        assert rec["kind"] == "faults-recovery"
        assert rec["wall_time_s"] > 0
        assert rec["meta"]["converged"] is True
        assert rec["meta"]["fault_events"] > 0
        assert rec["meta"]["model_overhead"] > 1.0

    def test_run_exec_scenarios_bit_identical(self):
        """The serial and threads exec scenarios are the same computation:
        identical convergence trajectory, only wall time may differ."""
        by_name = {s.name: s for s in default_scenarios(quick=True)}
        recs = [run_scenario(by_name[f"exec/{e}/ring_new/n32b4"],
                             repeats=1, warmup=0)
                for e in ("serial", "threads")]
        for rec in recs:
            assert rec["kind"] == "svd-parallel-exec"
            assert rec["meta"]["converged"] is True
            assert rec["meta"]["executor"] in ("serial", "threads")
            assert rec["meta"]["sweeps"] == recs[0]["meta"]["sweeps"]
            assert rec["meta"]["rotations"] == recs[0]["meta"]["rotations"]
        assert recs[1]["meta"]["workers"] == 2

    def test_run_route_scenarios_same_phase_totals(self):
        """The loop and vec routing scenarios route the same sweep: same
        phase count, same message total."""
        by_name = {s.name: s for s in default_scenarios(quick=True)}
        recs = [run_scenario(by_name[f"route/{mode}/ring_new/n64"],
                             repeats=1, warmup=0)
                for mode in ("loop", "vec")]
        for rec in recs:
            assert rec["kind"] == "routing"
            assert rec["meta"]["phases"] == recs[0]["meta"]["phases"]
            assert rec["meta"]["messages"] == recs[0]["meta"]["messages"]
        assert recs[1]["reference"] == "route/loop/ring_new/n64"

    def test_run_block_parallel_scenario(self):
        by_name = {s.name: s for s in default_scenarios(quick=False)}
        rec = run_scenario(by_name["parallel/hybrid/cm5/n64b4"],
                           repeats=1, warmup=0)
        assert rec["meta"]["converged"] is True
        assert rec["meta"]["model_time"] > 0

    def test_run_batch_scenarios_same_workload(self):
        """The loop and batch scenarios solve the same seeded stack; the
        batch record carries the throughput aggregates."""
        by_name = {s.name: s for s in default_scenarios(quick=True)}
        recs = [run_scenario(by_name[f"batch/{mode}/ring_new/n16x50"],
                             repeats=1, warmup=0)
                for mode in ("loop", "batch")]
        for rec in recs:
            assert rec["kind"] == "svd-batch"
            assert rec["meta"]["converged"] is True
            assert rec["meta"]["batch"] == 50
        assert recs[1]["meta"]["matrices_per_sec"] > 0
        assert sum(recs[1]["meta"]["sweeps_histogram"].values()) == 50


def _record(name, wall, reference=None):
    return {
        "name": name,
        "kind": "svd-kernel",
        "params": {},
        "reference": reference,
        "wall_time_s": wall,
        "times_s": [wall],
        "meta": {"sweeps": 5},
    }


def _report(**walls):
    records = [_record(name, wall) for name, wall in walls.items()]
    return build_report("t", records, repeats=1, warmup=0)


class TestReport:
    def test_build_stamps_schema_and_environment(self):
        doc = _report(a=1.0)
        assert doc["schema"] == SCHEMA
        assert doc["python"] and doc["numpy"] and doc["platform"]
        assert doc["created_unix"] > 0
        assert doc["cpu_count"] >= 1
        assert doc["blas_threads"] is None  # not pinned by build_report

    def test_build_records_pinned_blas_threads(self):
        doc = build_report("t", [_record("a", 1.0)], repeats=1, warmup=0,
                           blas_threads=1)
        assert doc["blas_threads"] == 1

    def test_build_derives_speedup(self):
        records = [
            _record("ref", 2.0),
            _record("fast", 0.5, reference="ref"),
        ]
        doc = build_report("t", records, repeats=1, warmup=0)
        by = {r["name"]: r for r in doc["scenarios"]}
        assert by["fast"]["speedup_vs_reference"] == pytest.approx(4.0)
        assert "speedup_vs_reference" not in by["ref"]

    def test_validate_accepts_built_reports(self):
        assert validate_report(_report(a=1.0, b=2.0)) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema="other/9"), "schema"),
            (lambda d: d.update(tag=""), "tag"),
            (lambda d: d.update(scenarios=[]), "non-empty"),
            (lambda d: d["scenarios"][0].update(wall_time_s=0.0), "positive"),
            (lambda d: d["scenarios"][0].update(times_s=[]), "times_s"),
            (lambda d: d["scenarios"][0].update(name=""), "name"),
        ],
    )
    def test_validate_rejects_corruption(self, mutate, fragment):
        doc = _report(a=1.0)
        mutate(doc)
        problems = validate_report(doc)
        assert problems and any(fragment in p for p in problems)

    def test_validate_rejects_duplicate_names(self):
        doc = _report(a=1.0)
        doc["scenarios"].append(_record("a", 2.0))
        assert any("duplicated" in p for p in validate_report(doc))

    def test_validate_rejects_non_object(self):
        assert validate_report([1, 2]) == ["report is not a JSON object"]

    def test_compare_flags_only_true_regressions(self):
        old = _report(a=1.0, b=1.0, gone=1.0)
        new = _report(a=1.5, b=1.05)
        regressions, compared = compare_reports(old, new, max_slowdown=0.20)
        assert sorted(compared) == ["a", "b"]
        assert [r["name"] for r in regressions] == ["a"]
        assert regressions[0]["ratio"] == pytest.approx(1.5)

    def test_compare_within_tolerance_is_clean(self):
        old = _report(a=1.0)
        new = _report(a=1.19)
        regressions, _ = compare_reports(old, new, max_slowdown=0.20)
        assert regressions == []

    def test_roundtrip_and_render(self, tmp_path):
        doc = _report(a=0.25)
        path = tmp_path / "BENCH_x.json"
        write_report(doc, str(path))
        loaded = load_report(str(path))
        assert loaded == json.loads(json.dumps(doc))  # JSON-stable
        text = render_report(loaded)
        assert "a" in text and "250.000 ms" in text
