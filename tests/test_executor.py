"""Step-executor backends: determinism contract and unit behaviour.

The headline property: the ``threads`` backend is **bit-identical** to
``serial`` for any worker count, on every block kernel and ordering —
chunking only ever splits writes that were already disjoint, so no
floating-point operation is reassociated (see
:mod:`repro.parallel.executor`).
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel.executor import (
    EXECUTORS,
    SerialExecutor,
    StepExecutor,
    ThreadStepExecutor,
    default_executor_name,
    default_workers,
    resolve_executor,
    usable_cpu_count,
)


class TestChunkBounds:
    @pytest.mark.parametrize("n_items", [1, 2, 3, 7, 8, 100])
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 4, 16])
    def test_bounds_cover_the_range_contiguously(self, n_items, n_chunks):
        bounds = StepExecutor.chunk_bounds(n_items, n_chunks)
        assert bounds[0][0] == 0 and bounds[-1][1] == n_items
        for (lo1, hi1), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi1 == lo2
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # larger chunks first

    def test_never_more_chunks_than_items(self):
        assert len(StepExecutor.chunk_bounds(3, 8)) == 3

    def test_zero_items_yield_zero_chunks(self):
        # no silent empty chunks: an empty partition is an empty list
        assert StepExecutor.chunk_bounds(0, 1) == []
        assert StepExecutor.chunk_bounds(0, 8) == []

    def test_pure_function_of_arguments(self):
        assert StepExecutor.chunk_bounds(10, 3) == \
            StepExecutor.chunk_bounds(10, 3)

    @pytest.mark.parametrize("n_items", [-1, -100])
    def test_negative_items_rejected(self, n_items):
        with pytest.raises(ValueError, match="n_items must be >= 0"):
            StepExecutor.chunk_bounds(n_items, 2)

    @pytest.mark.parametrize("n_chunks", [0, -1, -8])
    def test_nonpositive_chunks_rejected(self, n_chunks):
        with pytest.raises(ValueError, match="n_chunks must be >= 1"):
            StepExecutor.chunk_bounds(4, n_chunks)

    @pytest.mark.parametrize("bad", [2.5, "3", None, 4.0])
    def test_non_integer_arguments_rejected(self, bad):
        with pytest.raises(TypeError):
            StepExecutor.chunk_bounds(bad, 2)
        with pytest.raises(TypeError):
            StepExecutor.chunk_bounds(8, bad)

    def test_numpy_integers_accepted(self):
        # operator.index() admits integer-likes, not just builtin int
        assert StepExecutor.chunk_bounds(np.intp(6), np.intp(2)) == \
            StepExecutor.chunk_bounds(6, 2)


class TestBackends:
    @pytest.mark.parametrize("make", [
        SerialExecutor,
        lambda: ThreadStepExecutor(1),
        lambda: ThreadStepExecutor(3),
    ])
    def test_results_arrive_in_chunk_order(self, make):
        with make() as ex:
            out = ex.run_chunks(10, lambda lo, hi: (lo, hi))
        assert out == StepExecutor.chunk_bounds(10, ex.workers)

    def test_zero_items_is_a_noop(self):
        with ThreadStepExecutor(2) as ex:
            assert ex.run_chunks(0, lambda lo, hi: 1 / 0) == []

    def test_threads_share_memory(self):
        buf = np.zeros(17)
        with ThreadStepExecutor(4) as ex:
            ex.run_chunks(17, lambda lo, hi: buf.__setitem__(
                slice(lo, hi), np.arange(lo, hi)))
        np.testing.assert_array_equal(buf, np.arange(17.0))

    def test_lowest_chunk_exception_wins(self):
        def boom(lo, hi):
            raise ValueError(f"chunk@{lo}")

        with ThreadStepExecutor(4) as ex:
            with pytest.raises(ValueError, match="chunk@0"):
                ex.run_chunks(8, boom)

    def test_pool_is_reused_and_close_is_idempotent(self):
        ex = ThreadStepExecutor(2)
        ex.run_chunks(4, lambda lo, hi: None)
        pool = ex._pool
        ex.run_chunks(4, lambda lo, hi: None)
        assert ex._pool is pool
        ex.close()
        ex.close()
        assert ex._pool is None


class TestResolution:
    def test_names_resolve_to_backends(self):
        assert resolve_executor("serial").name == "serial"
        ex = resolve_executor("threads", workers=3)
        assert ex.name == "threads" and ex.workers == 3
        ex.close()

    def test_instance_passes_through(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex
        with pytest.raises(ValueError):
            resolve_executor(ex, workers=2)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_env_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_name() == "serial"
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        assert default_executor_name() == "threads"
        ex = resolve_executor()
        assert ex.name == "threads"
        ex.close()
        monkeypatch.setenv("REPRO_EXECUTOR", "warp")
        with pytest.raises(ValueError):
            default_executor_name()

    def test_env_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_registry_is_stable(self):
        assert EXECUTORS == ("serial", "threads")

    def test_processes_is_rejected_with_the_catalogue(self, monkeypatch):
        with pytest.raises(ValueError, match="available: serial, threads"):
            resolve_executor("processes")
        monkeypatch.setenv("REPRO_EXECUTOR", "processes")
        with pytest.raises(ValueError, match="serial, threads"):
            default_executor_name()

    def test_workers_default_to_the_affinity_mask(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        assert usable_cpu_count() == 2
        assert default_workers() == 2

    def test_cpu_count_fallback_without_affinity(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpu_count() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpu_count() == 1


def _run(a, ordering, kernel, executor, workers=None):
    from repro import svd

    return svd(a, ordering=ordering, block_size=4, kernel=kernel,
               executor=executor, workers=workers)


class TestBitIdentity:
    """threads == serial, bit for bit, across the whole matrix of knobs."""

    @pytest.mark.parametrize("ordering", ["fat_tree", "ring_new", "hybrid"])
    @pytest.mark.parametrize("kernel", ["reference", "batched", "gram"])
    def test_threads_match_serial_across_worker_counts(
            self, ordering, kernel):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((48, 32))
        ref = _run(a, ordering, kernel, "serial")
        for workers in (1, 2, 4):
            r = _run(a, ordering, kernel, "threads", workers)
            assert np.array_equal(ref.sigma, r.sigma), (ordering, kernel,
                                                        workers)
            assert np.array_equal(ref.u, r.u)
            assert np.array_equal(ref.v, r.v)
            assert ref.sweeps == r.sweeps
            assert ref.rotations == r.rotations

    def test_machine_path_matches_serial(self):
        from repro import parallel_svd

        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 32))
        r0, _ = parallel_svd(a, topology="cm5", ordering="hybrid",
                             block_size=4, executor="serial")
        r1, _ = parallel_svd(a, topology="cm5", ordering="hybrid",
                             block_size=4, executor="threads", workers=4)
        assert np.array_equal(r0.sigma, r1.sigma)
        assert np.array_equal(r0.u, r1.u)
        assert np.array_equal(r0.v, r1.v)

    def test_executor_instance_can_be_shared_across_runs(self):
        from repro.blockjacobi import BlockJacobiOptions, block_jacobi_svd
        from repro.parallel.executor import resolve_executor

        rng = np.random.default_rng(11)
        a = rng.standard_normal((24, 16))
        ref = block_jacobi_svd(a, options=BlockJacobiOptions(block_size=2))
        with resolve_executor("threads", workers=2):
            # the frozen options carry the backend name; the driver
            # builds (and closes) its own executor per run
            opts = BlockJacobiOptions(block_size=2, executor="threads",
                                      workers=2)
            for _ in range(2):
                r = block_jacobi_svd(a, options=opts)
                assert np.array_equal(ref.sigma, r.sigma)


class TestFaultRecoveryIdentity:
    """Fault injection composes with the executor: a recovered run is
    the same run, whichever backend executed it."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(
            ["drop", "duplicate", "delay", "corrupt", "corrupt_silent",
             "stall", "crash"]),
        ordering=st.sampled_from(["fat_tree", "ring_new", "hybrid"]),
    )
    def test_single_fault_recovers_identically(self, kind, ordering):
        from repro import parallel_svd
        from repro.faults.campaign import CampaignCase, single_fault_plan
        from repro.util.errors import ConvergenceWarning

        n, b = 16, 2
        plan = single_fault_plan(
            CampaignCase(ordering, kind, n, "gram", b))
        rng = np.random.default_rng(99)
        a = rng.standard_normal((24, n))
        results = []
        for executor, workers in (("serial", None), ("threads", 4)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                r, rep = parallel_svd(
                    a, topology="perfect", ordering=ordering,
                    block_size=b, executor=executor, workers=workers,
                    fault_plan=plan)
            results.append((r, rep))
        (r0, rep0), (r1, rep1) = results
        assert r0.converged == r1.converged
        assert np.array_equal(r0.sigma, r1.sigma)
        assert np.array_equal(r0.u, r1.u)
        assert np.array_equal(r0.v, r1.v)
        assert r0.sweeps == r1.sweeps
        assert rep0.rollbacks == rep1.rollbacks
        assert len(r0.fault_events) == len(r1.fault_events)
