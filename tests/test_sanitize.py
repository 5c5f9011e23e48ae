"""Tests of the opt-in runtime sanitizer (repro.verify.sanitize).

Positive direction: sanitized runs of every kernel and backend complete
cleanly and still match LAPACK.  Negative direction: each corrupted
runtime record — stray column touch, wrong dispatch bounds, poisoned or
drifted factors — trips exactly the SAN rule it is engineered for, and
a violation aborts the run via SanitizerError.
"""

import numpy as np
import pytest

from repro.blockjacobi import BlockJacobiOptions, block_jacobi_svd
from repro.cli import main
from repro.verify import (
    RuntimeSanitizer,
    SanitizerError,
    check_numeric_canaries,
    check_write_record,
    drift_factor,
    poison_factor,
    sanitize_enabled,
    stray_column_touch,
)

EXPECTED = [frozenset({0, 1}), frozenset({2, 3}),
            frozenset({4, 5}), frozenset({6, 7})]


def _rules(diags):
    return {d.rule for d in diags}


class TestEnableSwitch:
    def test_explicit_option_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(False) is False
        monkeypatch.delenv("REPRO_SANITIZE")
        assert sanitize_enabled(True) is True

    @pytest.mark.parametrize("value,expect", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("", False), ("off", False), ("no", False),
    ])
    def test_env_parsing(self, monkeypatch, value, expect):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled() is expect

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled() is False


class TestWriteRecord:
    def test_clean_record(self):
        dispatched = [(4, ((0, 2), (2, 4)))]
        touched = [(0, 2, (0, 1, 2, 3)), (2, 4, (4, 5, 6, 7))]
        assert check_write_record(4, EXPECTED, dispatched, touched,
                                  workers=2) == []

    def test_touching_fewer_columns_is_allowed(self):
        # the gram kernel's sort-only early return writes nothing: a
        # touch record is a subset claim, not an equality claim
        assert check_write_record(4, EXPECTED, [], [(0, 4, (0,))]) == []

    def test_stray_column_fires_san001(self):
        diags = check_write_record(4, EXPECTED, [],
                                   stray_column_touch(EXPECTED))
        assert _rules(diags) == {"SAN001"}
        assert "outside its static write-set" in diags[0].message

    def test_wrong_dispatch_bounds_fire_san001(self):
        dispatched = [(4, ((0, 3), (3, 4)))]  # static chunking is (0,2),(2,4)
        diags = check_write_record(4, EXPECTED, dispatched, [], workers=2)
        assert _rules(diags) == {"SAN001"}
        assert "dispatched" in diags[0].message

    def test_out_of_range_claim_fires_san001(self):
        diags = check_write_record(4, EXPECTED, [], [(2, 9, (4,))])
        assert _rules(diags) == {"SAN001"}
        assert "outside the step" in diags[0].message

    def test_overlap_across_disjoint_chunks_fires_san001(self):
        # both items may legally write column 0, but two *disjoint*
        # chunks actually doing so is a write-write race at runtime
        expected = [frozenset({0}), frozenset({0})]
        touched = [(0, 1, (0,)), (1, 2, (0,))]
        diags = check_write_record(2, expected, [], touched)
        assert _rules(diags) == {"SAN001"}
        assert "write-write overlap" in diags[0].message


class TestNumericCanaries:
    def _factors(self, n=8):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, n))
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return X, V

    def test_clean_factors(self):
        X, V = self._factors()
        ref = float(np.linalg.norm(X))
        assert check_numeric_canaries(X, V, ref) == []

    def test_poisoned_factor_fires_san002_only(self):
        X, V = self._factors()
        ref = float(np.linalg.norm(X))
        diags = check_numeric_canaries(poison_factor(X), V, ref)
        assert _rules(diags) == {"SAN002"}  # drift check short-circuits

    def test_poisoned_v_fires_san002(self):
        X, V = self._factors()
        diags = check_numeric_canaries(X, poison_factor(V), None)
        assert _rules(diags) == {"SAN002"}

    def test_drifted_norm_fires_san003(self):
        X, V = self._factors()
        ref = float(np.linalg.norm(X))
        diags = check_numeric_canaries(drift_factor(X), V, ref)
        assert _rules(diags) == {"SAN003"}
        assert "drifted" in diags[0].message

    def test_lost_orthogonality_fires_san003(self):
        X, V = self._factors()
        ref = float(np.linalg.norm(X))
        V2 = V.copy()
        V2[:, 0] += 1e-4 * V2[:, 1]
        diags = check_numeric_canaries(X, V2, ref)
        assert _rules(diags) == {"SAN003"}
        assert "orthogonality" in diags[0].message

    def test_none_or_nonfinite_reference_skips_frobenius(self):
        X, V = self._factors()
        assert check_numeric_canaries(drift_factor(X), V, None) == []
        assert check_numeric_canaries(drift_factor(X), V, float("inf")) == []


class TestRuntimeSanitizer:
    def test_clean_step_protocol(self):
        san = RuntimeSanitizer()
        san.begin_step(4, EXPECTED, workers=2)
        san.note_dispatch(4, [(0, 2), (2, 4)])
        san.record_touch(0, 2, [0, 1, 2, 3])
        san.record_touch(2, 4, [4, 5, 6, 7])
        san.end_step(step=1)
        assert san.clean
        assert san.steps_checked == 1

    def test_violation_raises_with_rule_tag(self):
        san = RuntimeSanitizer()
        san.begin_step(4, EXPECTED, workers=2)
        san.note_dispatch(4, [(0, 3), (3, 4)])
        with pytest.raises(SanitizerError) as exc:
            san.end_step()
        assert exc.value.diagnostic.rule == "SAN001"
        assert not san.clean

    def test_collect_mode_accumulates_instead_of_raising(self):
        san = RuntimeSanitizer(raise_on_violation=False)
        san.begin_step(4, EXPECTED)
        san.record_touch(*stray_column_touch(EXPECTED)[0])
        san.end_step()
        assert _rules(san.diagnostics) == {"SAN001"}

    def test_abort_discards_the_open_record(self):
        san = RuntimeSanitizer()
        san.begin_step(4, EXPECTED)
        san.record_touch(*stray_column_touch(EXPECTED)[0])
        san.abort_step()
        san.end_step()  # no open record: a no-op, nothing checked
        assert san.clean
        assert san.steps_checked == 0

    def test_touches_outside_a_step_are_ignored(self):
        san = RuntimeSanitizer()
        san.record_touch(0, 1, [0])
        san.note_dispatch(1, [(0, 1)])
        san.begin_step(4, EXPECTED, workers=1)
        san.end_step()
        assert san.clean

    def test_sweep_canaries_raise_on_drift(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 6))
        san = RuntimeSanitizer()
        san.arm_reference(X)
        san.check_sweep(X, np.eye(6), sweep=1)
        assert san.sweeps_checked == 1
        with pytest.raises(SanitizerError) as exc:
            san.check_sweep(drift_factor(X), np.eye(6), sweep=2)
        assert exc.value.diagnostic.rule == "SAN003"


class TestSanitizedRuns:
    """End-to-end: sanitized runs stay clean and still match LAPACK."""

    @pytest.mark.parametrize("kernel", ["reference", "gram"])
    @pytest.mark.parametrize("executor,workers", [("serial", None),
                                                  ("threads", 4)])
    def test_block_jacobi_clean_under_sanitizer(self, kernel, executor,
                                                workers):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((24, 16))
        opts = BlockJacobiOptions(block_size=2, kernel=kernel,
                                  executor=executor, workers=workers,
                                  sanitize=True)
        r = block_jacobi_svd(a, options=opts)
        assert r.converged
        np.testing.assert_allclose(r.sigma, np.linalg.svd(a, compute_uv=False),
                                   rtol=1e-10, atol=1e-10)

    def test_env_switch_reaches_the_machine_driver(self, monkeypatch):
        from repro import parallel_svd

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rng = np.random.default_rng(23)
        a = rng.standard_normal((20, 16))
        r, _ = parallel_svd(a, topology="perfect", ordering="ring_new",
                            block_size=2)
        assert r.converged
        np.testing.assert_allclose(r.sigma, np.linalg.svd(a, compute_uv=False),
                                   rtol=1e-10, atol=1e-10)

    def test_cli_sanitize_flag(self, capsys):
        assert main(["svd", "--m", "20", "--n", "16", "--block-size", "2",
                     "--sanitize", "--serial"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_cli_sanitize_requires_block_mode(self, capsys):
        assert main(["svd", "--m", "12", "--n", "8", "--sanitize"]) == 2

    def test_cli_sanitize_rejects_fault_injection(self, capsys):
        assert main(["svd", "--m", "12", "--n", "8", "--block-size", "2",
                     "--sanitize", "--fault", "corrupt"]) == 2
