"""Tests of the opt-in runtime sanitizer (repro.verify.sanitize).

Positive direction: sanitized runs of every kernel and backend complete
cleanly and still match LAPACK.  Negative direction: each corrupted
runtime record — stray column touch, wrong dispatch bounds, poisoned or
drifted factors — trips exactly the SAN rule it is engineered for, and
a violation aborts the run via SanitizerError.
"""

import numpy as np
import pytest

from repro import svd_batch
from repro.blockjacobi import (BlockJacobiOptions, block_jacobi_svd,
                               block_jacobi_svd_batch)
from repro.cli import main
from repro.orderings import make_ordering
from repro.orderings.plan import compile_schedule
from repro.util.errors import ConvergenceWarning
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

#: matrix width of the batch-record tests: a batch step's fused (item,
#: pair) rows key column ``c`` of item ``i`` as ``i * WIDTH + c``
WIDTH = 8


def _keys(item, cols):
    return tuple(item * WIDTH + c for c in cols)


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

    def test_two_items_writing_the_same_column_id_is_no_overlap(self):
        # rows (item 0, pair 0) and (item 1, pair 0): one column id, but
        # two matrices, so two keys and no race
        expected = [frozenset(_keys(0, (0, 1))), frozenset(_keys(1, (0, 1)))]
        touched = [(0, 1, _keys(0, (0, 1))), (1, 2, _keys(1, (0, 1)))]
        assert check_write_record(2, expected, [(2, ((0, 1), (1, 2)))],
                                  touched, workers=2) == []

    def test_one_items_column_in_two_disjoint_chunks_fires_san001(self):
        # rows (item 1, pair 0) and (item 1, pair 1): the second chunk
        # also writes column 0 of item 1, which the first chunk owns
        expected = [frozenset(_keys(1, (0, 1))), frozenset(_keys(1, (2, 3)))]
        touched = [(0, 1, _keys(1, (0, 1))), (1, 2, _keys(1, (2, 3, 0)))]
        diags = check_write_record(2, expected, [], touched)
        assert _rules(diags) == {"SAN001"}
        assert any("write-write overlap" in d.message for d in diags)

    def test_row_touching_another_items_key_fires_san001(self):
        # item 0's row writes column 0 of item 1
        expected = [frozenset(_keys(0, (0, 1))), frozenset(_keys(1, (0, 1)))]
        diags = check_write_record(2, expected, [], [(0, 1, _keys(1, (0,)))])
        assert _rules(diags) == {"SAN001"}
        assert "outside its static write-set" in diags[0].message


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

    def test_scope_is_checked_against_its_own_items(self):
        # a phase over rows 2 and 3 only: its dispatch and claims are
        # checked against those rows, not against the step's four
        san = RuntimeSanitizer()
        san.begin_step(4, EXPECTED, workers=2)
        san.note_dispatch(4, [(0, 2), (2, 4)])
        san.begin_scope(2, EXPECTED[2:])
        san.note_dispatch(2, [(0, 1), (1, 2)])
        san.record_touch(0, 1, [4, 5])
        san.record_touch(1, 2, [6, 7])
        san.end_step()
        assert san.clean
        assert san.steps_checked == 1

    def test_scope_violation_fires_san001(self):
        san = RuntimeSanitizer(raise_on_violation=False)
        san.begin_step(4, EXPECTED)
        san.begin_scope(2, EXPECTED[2:])
        san.record_touch(0, 1, [0])  # the scope's row 0 owns columns 4, 5
        san.end_step()
        assert _rules(san.diagnostics) == {"SAN001"}

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


class CountingSanitizer(RuntimeSanitizer):
    """A sanitizer that counts the phase scopes its run opens."""

    def __init__(self):
        super().__init__()
        self.scopes = 0

    def begin_scope(self, n_items, expected_items):
        self.scopes += 1
        super().begin_scope(n_items, expected_items)


@pytest.fixture
def sanitizers(monkeypatch):
    """The sanitizers the block driver builds, one per run."""
    made = []

    def make(options):
        made.append(CountingSanitizer())
        return made[-1]

    monkeypatch.setattr(BlockJacobiOptions, "make_sanitizer", make)
    return made


def _steps_run(ordering, n_blocks, sweeps):
    """Schedule steps with met pairs in the first ``sweeps`` sweeps: one
    write-set record each."""
    ordering = make_ordering(ordering, n_blocks)
    return sum(1 for s in range(sweeps)
               for cs in compile_schedule(ordering.sweep(s)).steps
               if cs.n_pairs)


def _assert_lapack_sigma(a, r):
    np.testing.assert_allclose(r.sigma, np.linalg.svd(a, compute_uv=False),
                               rtol=1e-10, atol=1e-10)


EXECUTORS = [("serial", None), ("threads", 2), ("threads", 4)]


class TestSanitizedBatches:
    """SAN001 on batches: every step of every sweep is one record over
    the fused (item, pair) rows, with a scope per compacted phase."""

    @pytest.mark.parametrize("executor,workers", EXECUTORS)
    @pytest.mark.parametrize("kernel", ["gram", "reference"])
    def test_mixed_batch_is_checked_every_step(self, sanitizers, kernel,
                                               executor, workers):
        rng = np.random.default_rng(29)
        stack = rng.standard_normal((4, 12, 8))
        # orthogonal columns with ascending norms: the gram kernel's
        # sort-only exit, which moves columns while the others solve
        q = np.linalg.qr(rng.standard_normal((12, 8)))[0]
        stack[2] = q * np.linspace(1.0, 2.0, 8)
        opts = BlockJacobiOptions(block_size=2, kernel=kernel,
                                  executor=executor, workers=workers,
                                  sanitize=True)
        batch = svd_batch(stack, options=opts)
        (san,) = sanitizers
        assert san.clean
        assert san.steps_checked == _steps_run(
            "fat_tree", 4, max(r.sweeps for r in batch))
        assert san.sweeps_checked == sum(r.sweeps for r in batch)
        # the sort-only item and the solving items run in phases of
        # their own; the reference kernel runs every row in one phase
        assert (san.scopes > 0) == (kernel == "gram")
        for a, r in zip(stack, batch):
            assert r.converged
            _assert_lapack_sigma(a, r)

    # worker threads do not inherit the caller's np.errstate
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("executor,workers", EXECUTORS)
    def test_breakdown_rows_are_checked(self, sanitizers, executor, workers):
        # item 1's Gram overflows, so its pairs are re-solved one by one
        # while items 0 and 2 take the stacked application; straight to
        # the driver, because the API's range scaling would avoid the
        # overflow
        stack = np.random.default_rng(31).standard_normal((3, 20, 16))
        stack[1, :, 5] *= 1e200
        opts = BlockJacobiOptions(block_size=2, executor=executor,
                                  workers=workers, sanitize=True)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(ConvergenceWarning, match="not finite"):
            results = block_jacobi_svd_batch(stack, options=opts)
        (san,) = sanitizers
        assert san.clean
        assert san.steps_checked == _steps_run(
            "ring_new", 8, max(r.sweeps for r in results))
        assert san.scopes > 0
        for i in (0, 2):
            _assert_lapack_sigma(stack[i], results[i])
        # the driver has no entry scaling: the 1e200 column's norm
        # overflows, and the result says so
        assert not results[1].converged


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

    def test_cli_sanitize_batch(self, capsys):
        assert main(["svd", "--m", "20", "--n", "16", "--batch", "4",
                     "--block-size", "2", "--sanitize"]) == 0
        assert "batch of 4" in capsys.readouterr().out

    def test_cli_sanitize_requires_block_mode(self, capsys):
        assert main(["svd", "--m", "12", "--n", "8", "--sanitize"]) == 2

    def test_cli_sanitize_rejects_fault_injection(self, capsys):
        assert main(["svd", "--m", "12", "--n", "8", "--block-size", "2",
                     "--sanitize", "--fault", "corrupt"]) == 2
