"""Autotuner tests: deterministic pruning, profiles, API fill, CLI.

The runner is exercised exclusively through injected fake timers, so
every assertion about elimination order is exact (no wall-clock in the
loop); the one end-to-end CLI run uses a tiny quick-space shape.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.tune import (Candidate, DEFAULT_CANDIDATE, SCHEMA,
                        candidate_space, load_profile, lookup_entry,
                        profile_options, profile_path, save_profile, tune,
                        validate_profile)


def _fake_timer(costs):
    """Timer charging fixed per-label seconds, scaled down per repeat
    count so re-timed rounds stay distinguishable in the trial log."""
    calls = []

    def timer(candidate, m, n, batch, repeats):
        calls.append((candidate.label(), repeats))
        return costs[candidate.label()]

    timer.calls = calls
    return timer


class TestSpace:
    def test_default_is_first(self):
        space = candidate_space(72, 64)
        assert space[0] == DEFAULT_CANDIDATE
        assert len(space) == len(set(space))

    def test_block_sizes_keep_eight_slots(self):
        for c in candidate_space(600, 512):
            if c.block_size is not None:
                assert 512 % c.block_size == 0
                assert 512 // c.block_size >= 8

    def test_quick_space_is_small(self):
        space = candidate_space(72, 64, quick=True)
        assert DEFAULT_CANDIDATE in space
        assert len(space) <= 5

    def test_scalar_candidate_rejects_block_knobs(self):
        with pytest.raises(ValueError, match="scalar candidates"):
            Candidate(kernel="batched", executor="threads")


class TestRunner:
    def test_pruning_order_is_deterministic(self):
        cands = (DEFAULT_CANDIDATE,
                 Candidate(kernel="batched", ordering="ring_new"),
                 Candidate(kernel="gram", block_size=8, ordering="ring_new"),
                 Candidate(kernel="gram", block_size=4, ordering="ring_new"))
        timer = _fake_timer({"reference/fat_tree": 4.0,
                             "batched/ring_new": 2.0,
                             "gram-b8/ring_new": 1.0,
                             "gram-b4/ring_new": 3.0})
        result = tune(72, 64, candidates=cands, timer=timer,
                      repeats_schedule=(1, 3, 5))
        assert result.winner.label() == "gram-b8/ring_new"
        # round 0: all 4 timed at 1 repeat, slowest half pruned
        r0 = [t for t in result.trials if t.round_index == 0]
        assert [(t.candidate.label(), t.repeats, t.kept) for t in r0] == [
            ("reference/fat_tree", 1, False),
            ("batched/ring_new", 1, True),
            ("gram-b8/ring_new", 1, True),
            ("gram-b4/ring_new", 1, False),
        ]
        # round 1: the two survivors at 3 repeats; round 2: winner at 5
        r1 = [t for t in result.trials if t.round_index == 1]
        assert sorted(t.candidate.label() for t in r1) == \
            ["batched/ring_new", "gram-b8/ring_new"]
        assert all(t.repeats == 3 for t in r1)
        assert result.repeats_final == 5

    def test_default_retimed_at_final_quality_when_pruned(self):
        cands = (DEFAULT_CANDIDATE,
                 Candidate(kernel="batched", ordering="ring_new"))
        timer = _fake_timer({"reference/fat_tree": 9.0,
                             "batched/ring_new": 1.0})
        result = tune(72, 64, candidates=cands, timer=timer,
                      repeats_schedule=(1, 5))
        assert result.default_median_s == 9.0
        assert result.speedup == pytest.approx(9.0)
        # the re-time happened at the final repeat count
        assert ("reference/fat_tree", 5) in timer.calls

    def test_ties_resolve_by_candidate_order(self):
        cands = (DEFAULT_CANDIDATE,
                 Candidate(kernel="batched", ordering="fat_tree"),
                 Candidate(kernel="batched", ordering="ring_new"))
        timer = _fake_timer({"reference/fat_tree": 1.0,
                             "batched/fat_tree": 1.0,
                             "batched/ring_new": 1.0})
        result = tune(72, 64, candidates=cands, timer=timer,
                      repeats_schedule=(1,))
        assert result.winner == DEFAULT_CANDIDATE
        assert result.speedup == 1.0

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError, match="repeats_schedule"):
            tune(72, 64, candidates=(DEFAULT_CANDIDATE,),
                 timer=_fake_timer({"reference/fat_tree": 1.0}),
                 repeats_schedule=())


class TestProfile:
    def _result(self, **kw):
        timer = _fake_timer({"reference/fat_tree": 4.0,
                             "gram-b8/ring_new": 1.0})
        return tune(kw.pop("m", 72), kw.pop("n", 64), kw.pop("batch", None),
                    candidates=(DEFAULT_CANDIDATE,
                                Candidate(kernel="gram", block_size=8,
                                          ordering="ring_new")),
                    timer=timer, repeats_schedule=(1, 3), **kw)

    def test_round_trip(self, tmp_path):
        path = profile_path(tmp_path, "testhost")
        assert path.name == "PROFILE_testhost.json"
        data = save_profile(self._result(), path)
        assert data["schema"] == SCHEMA
        loaded = load_profile(path)
        entry = lookup_entry(loaded, 72, 64)
        assert entry["options"]["kernel"] == "gram"
        assert entry["options"]["block_size"] == 8
        assert entry["speedup"] == pytest.approx(4.0)
        opts = profile_options(path, 72, 64)
        assert opts == {"ordering": "ring_new", "kernel": "gram",
                        "block_size": 8, "executor": None, "workers": None}

    def test_merge_keeps_other_shapes(self, tmp_path):
        path = profile_path(tmp_path, "h")
        save_profile(self._result(), path)
        save_profile(self._result(m=40, n=32), path)
        save_profile(self._result(), path)  # same shape again: replaced
        data = load_profile(path)
        assert [(e["m"], e["n"]) for e in data["entries"]] == \
            [(40, 32), (72, 64)]

    def test_nearest_shape_lookup(self, tmp_path):
        path = profile_path(tmp_path, "h")
        save_profile(self._result(), path)            # 72x64
        save_profile(self._result(m=40, n=32), path)  # 40x32
        assert lookup_entry(path, 70, 60)["n"] == 64
        assert lookup_entry(path, 36, 30)["n"] == 32
        # batch distance participates
        save_profile(self._result(m=40, n=32, batch=100), path)
        assert lookup_entry(path, 40, 32, batch=80)["batch"] == 100
        assert lookup_entry(path, 40, 32)["batch"] is None

    def test_stale_schema_rejected(self, tmp_path):
        path = tmp_path / "PROFILE_old.json"
        path.write_text(json.dumps({"schema": "repro.tune/0", "entries": []}))
        with pytest.raises(ValueError, match="repro.tune/0"):
            load_profile(path)
        # refusing to clobber a stale file keeps its consumers honest
        with pytest.raises(ValueError, match="repro.tune/0"):
            save_profile(self._result(), path)

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_profile(["not", "a", "profile"])
        with pytest.raises(ValueError, match="entries"):
            validate_profile({"schema": SCHEMA})
        with pytest.raises(ValueError, match="unknown knobs"):
            validate_profile({"schema": SCHEMA, "entries": [
                {"m": 8, "n": 8, "batch": None,
                 "options": {"kernel": "gram", "warp_drive": 11}}]})

    def test_inconsistent_scalar_entry_rejected(self):
        data = {"schema": SCHEMA, "entries": [
            {"m": 8, "n": 8, "batch": None,
             "options": {"ordering": "ring_new", "kernel": "batched",
                         "block_size": None, "executor": "threads",
                         "workers": 2}}]}
        validate_profile(data)  # structurally fine ...
        with pytest.raises(ValueError, match="scalar candidates"):
            profile_options(data, 8, 8)  # ... semantically caught on use


class TestApiFill:
    PROFILE = {"schema": SCHEMA, "entries": [
        {"m": 40, "n": 32, "batch": None,
         "options": {"ordering": "ring_new", "kernel": "gram",
                     "block_size": 4, "executor": None, "workers": None}}]}

    def test_profile_fills_unset_options(self):
        from repro import svd

        a = np.random.default_rng(7).standard_normal((40, 32))
        tuned = svd(a, profile=self.PROFILE)
        plain = svd(a, ordering="ring_new", kernel="gram", block_size=4)
        np.testing.assert_array_equal(tuned.sigma, plain.sigma)

    def test_explicit_arguments_beat_profile(self):
        from repro import svd

        a = np.random.default_rng(7).standard_normal((40, 32))
        r = svd(a, ordering="odd_even", kernel="reference",
                profile=self.PROFILE)
        plain = svd(a, ordering="odd_even", kernel="reference")
        np.testing.assert_array_equal(r.sigma, plain.sigma)

    def test_env_profile(self, tmp_path, monkeypatch):
        from repro import svd

        path = tmp_path / "PROFILE_env.json"
        path.write_text(json.dumps(self.PROFILE))
        monkeypatch.setenv("REPRO_PROFILE", str(path))
        a = np.random.default_rng(7).standard_normal((40, 32))
        tuned = svd(a)
        plain = svd(a, ordering="ring_new", kernel="gram", block_size=4)
        np.testing.assert_array_equal(tuned.sigma, plain.sigma)

    def test_batch_fill_matches_loop(self):
        from repro import svd, svd_batch

        stack = np.random.default_rng(9).standard_normal((3, 40, 32))
        br = svd_batch(stack, profile=self.PROFILE)
        for i in range(3):
            ref = svd(stack[i], ordering="ring_new", kernel="gram",
                      block_size=4)
            np.testing.assert_array_equal(br[i].sigma, ref.sigma)


class TestCli:
    def test_dry_run_json(self, capsys):
        assert main(["tune", "--m", "72", "--n", "64", "--dry-run",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["candidates"][0]["kernel"] == "reference"

    def test_quick_tune_writes_profile(self, tmp_path, capsys):
        code = main(["tune", "--m", "16", "--n", "8", "--quick",
                     "--out", str(tmp_path), "--host", "ci", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        data = load_profile(tmp_path / "PROFILE_ci.json")
        assert data["entries"][0]["options"] == doc["winner"]

    def test_usage_errors(self, capsys):
        assert main(["tune", "--m", "4", "--n", "8"]) == 2
        assert main(["tune", "--m", "16", "--n", "8", "--batch", "0"]) == 2
        assert main(["tune", "--m", "16", "--n", "8", "--slack", "0"]) == 2
