"""Property-based tests (hypothesis) on core invariants.

These exercise the library on generated sizes and matrices rather than
hand-picked cases: ordering validity and restoration across the size
range, rotation invariants on arbitrary column data, move composition
algebra and SVD backward-stability on random well-posed inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.orderings import (
    check_all_pairs_once,
    check_local_pairs,
    check_one_directional,
    make_ordering,
)
from repro.orderings.schedule import Move, apply_moves, compose_moves
from repro.svd import jacobi_svd
from repro.svd.rotations import (
    apply_step_rotations,
    apply_step_rotations_batched,
    column_norms_sq,
    rotation_params,
)

# sizes are powers of two within the figure range; ring orderings accept
# any even size
pow2_sizes = st.sampled_from([4, 8, 16, 32])
even_sizes = st.sampled_from([4, 6, 8, 10, 12, 16, 20, 24, 32])


class TestOrderingInvariants:
    @settings(deadline=None, max_examples=20)
    @given(n=even_sizes)
    def test_ring_valid_any_even_size(self, n):
        sched = make_ordering("ring_new", n).sweep(0)
        assert check_all_pairs_once(sched).is_valid
        assert check_local_pairs(sched)
        assert check_one_directional(sched)

    @settings(deadline=None, max_examples=20)
    @given(n=even_sizes)
    def test_round_robin_valid_any_even_size(self, n):
        assert check_all_pairs_once(make_ordering("round_robin", n).sweep(0)).is_valid

    @settings(deadline=None, max_examples=10)
    @given(n=pow2_sizes)
    def test_fat_tree_identity_permutation(self, n):
        o = make_ordering("fat_tree", n)
        sched = o.sweep(0)
        assert check_all_pairs_once(sched).is_valid
        assert sched.final_layout() == list(range(1, n + 1))

    @settings(deadline=None, max_examples=10)
    @given(n=pow2_sizes, start=st.sampled_from([1, 17, 101]))
    def test_validity_independent_of_labelling(self, n, start):
        # relabelling invariance: any initial layout yields a valid sweep
        layout = list(range(start, start + n))
        sched = make_ordering("fat_tree", n).sweep(0)
        assert check_all_pairs_once(sched, layout=layout).is_valid


class TestStaticDynamicAgreement:
    """The static verifier and the dynamic predicates agree on generated
    schedules — healthy and corrupted alike (uses the ``verifier``
    fixture from conftest)."""

    # the verifier fixtures are stateless (they return module functions),
    # so sharing them across hypothesis examples is sound
    _fixture_ok = [HealthCheck.function_scoped_fixture]

    @settings(deadline=None, max_examples=15, suppress_health_check=_fixture_ok)
    @given(n=even_sizes)
    def test_static_gate_agrees_with_dynamic_predicates(self, verifier, n):
        sched = make_ordering("ring_new", n).sweep(0)
        report = verifier(sched)
        dynamic_ok = (check_all_pairs_once(sched).is_valid
                      and check_one_directional(sched))
        assert report.ok == dynamic_ok
        assert report.ok

    @settings(deadline=None, max_examples=10, suppress_health_check=_fixture_ok)
    @given(n=st.sampled_from([8, 16, 32]),
           which=st.sampled_from(["duplicate", "reverse"]))
    def test_corruptions_break_both_static_and_dynamic(self, verifier, n, which):
        # n >= 8 so the ring has >= 4 processors: on a 2-processor ring
        # the orientations coincide and reversal is not a corruption
        from repro.verify import duplicate_pair, reverse_ring_step

        sched = make_ordering("ring_new", n).sweep(0)
        if which == "duplicate":
            broken = duplicate_pair(sched)
            assert not check_all_pairs_once(broken).is_valid
            assert "SWEEP001" in verifier(broken).rules_fired()
        else:
            broken = reverse_ring_step(sched)
            assert not check_one_directional(broken)
            assert "DIR002" in verifier(broken).rules_fired()

    @settings(deadline=None, max_examples=10, suppress_health_check=_fixture_ok)
    @given(n=pow2_sizes)
    def test_ordering_gate_matches_restoration_period(self, ordering_verifier, n):
        for name in ("fat_tree", "ring_new", "round_robin"):
            o = make_ordering(name, n)
            report = ordering_verifier(o)
            assert report.ok
            assert 1 <= o.restoration_period() <= 2


class TestMoveAlgebra:
    @settings(deadline=None, max_examples=50)
    @given(data=st.data(), n=st.integers(4, 12))
    def test_compose_matches_sequential(self, data, n):
        perm1 = data.draw(st.permutations(range(n)))
        perm2 = data.draw(st.permutations(range(n)))
        m1 = tuple(Move(s, d) for s, d in enumerate(perm1) if s != d)
        m2 = tuple(Move(s, d) for s, d in enumerate(perm2) if s != d)
        payload = list(range(100, 100 + n))
        seq = apply_moves(apply_moves(payload, m1), m2)
        assert apply_moves(payload, compose_moves(m1, m2)) == seq

    @settings(deadline=None, max_examples=30)
    @given(data=st.data(), n=st.integers(4, 10))
    def test_compose_with_inverse_is_identity(self, data, n):
        perm = data.draw(st.permutations(range(n)))
        m = tuple(Move(s, d) for s, d in enumerate(perm) if s != d)
        inv = tuple(Move(mv.dst, mv.src) for mv in m)
        assert compose_moves(m, inv) == ()


class TestRotationInvariants:
    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 20),
    )
    def test_rotation_orthogonalises_and_preserves_norms(self, seed, m):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        a, b, g = x @ x, y @ y, x @ y
        c, s = rotation_params(np.array([a]), np.array([b]), np.array([g]))
        xn = c[0] * x - s[0] * y
        yn = s[0] * x + c[0] * y
        scale = max(1.0, abs(g))
        assert abs(xn @ yn) < 1e-9 * scale
        assert xn @ xn + yn @ yn == pytest.approx(a + b, rel=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_step_preserves_frobenius_and_reduces_off(self, seed):
        from repro.svd.convergence import off_norm

        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 8))
        f = np.linalg.norm(X)
        before = off_norm(X)
        apply_step_rotations(
            X, None, np.arange(0, 8, 2), np.arange(1, 8, 2), 0.0, "desc"
        )
        assert np.linalg.norm(X) == pytest.approx(f, rel=1e-12)
        assert off_norm(X) <= before + 1e-9


class TestNormCacheInvariants:
    """The batched kernel's cross-sweep squared-norm cache must track
    freshly computed column norms: within rtol after every kernel call
    and after every full machine sweep, for random orderings, sizes and
    sort modes.  The cancellation guard recomputes entries within
    ``sqrt(eps)`` of full cancellation, so ``1e-8`` relative is the
    contract."""

    CACHE_RTOL = 1e-8

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 8),
        m=st.integers(2, 12),
        sort=st.sampled_from(["desc", "asc", None]),
    )
    def test_kernel_call_updates_cache_to_fresh_norms(self, seed, k, m, sort):
        rng = np.random.default_rng(seed)
        n = 2 * k
        WT = rng.standard_normal((n, m))
        norms = column_norms_sq(WT.T).copy()
        P = rng.permutation(n).reshape(k, 2).astype(np.intp)
        apply_step_rotations_batched(WT, P, 0.0, sort, norms, m)
        fresh = np.einsum("nm,nm->n", WT, WT)
        assert np.allclose(norms, fresh, rtol=self.CACHE_RTOL)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), span=st.integers(0, 12))
    def test_kernel_cache_survives_wide_dynamic_range(self, seed, span):
        # columns spanning up to 10**span in norm exercise the
        # cancellation guard's fresh-recompute path
        rng = np.random.default_rng(seed)
        n, m = 8, 10
        WT = rng.standard_normal((n, m)) * np.logspace(0, -span, n)[:, None]
        norms = column_norms_sq(WT.T).copy()
        P = np.arange(n, dtype=np.intp).reshape(n // 2, 2)
        apply_step_rotations_batched(WT, P, 0.0, "desc", norms, m)
        fresh = np.einsum("nm,nm->n", WT, WT)
        assert np.allclose(norms, fresh, rtol=self.CACHE_RTOL)

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 1_000),
        n=st.sampled_from([4, 8, 16]),
        name=st.sampled_from(["fat_tree", "ring_new", "round_robin"]),
        sort=st.sampled_from(["desc", "asc", None]),
    )
    def test_machine_cache_tracks_norms_after_every_sweep(
        self, seed, n, name, sort
    ):
        # the simulated machine keeps the cache alive across sweeps —
        # exactly the cross-sweep reuse the serial driver performs
        from repro.machine import TreeMachine, make_topology

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n + 4, n))
        machine = TreeMachine(make_topology("perfect", n // 2))
        machine.load(a, kernel="batched")
        ordering = make_ordering(name, n)
        for sweep in range(5):
            machine.run_sweep(ordering.sweep(sweep), tol=1e-12, sort=sort)
            fresh = column_norms_sq(machine.X)
            assert np.allclose(machine.state.norms_sq, fresh,
                               rtol=self.CACHE_RTOL)


class TestSVDBackwardStability:
    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 1_000),
        n=st.sampled_from([4, 8, 16]),
        extra=st.integers(0, 8),
    )
    def test_matches_lapack_on_random_input(self, seed, n, extra):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n + extra, n))
        r = jacobi_svd(a, ordering="fat_tree")
        ref = np.linalg.svd(a, compute_uv=False)
        assert r.converged
        scale = ref[0] if ref[0] > 0 else 1.0
        assert np.max(np.abs(r.sigma - ref)) < 1e-11 * scale

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 1_000))
    def test_scaling_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 8))
        r1 = jacobi_svd(a)
        r2 = jacobi_svd(1000.0 * a)
        assert np.allclose(r2.sigma, 1000.0 * r1.sigma, rtol=1e-10)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 1_000))
    def test_orthogonal_invariance_of_sigma(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 8))
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        r1 = jacobi_svd(a)
        r2 = jacobi_svd(q @ a)
        assert np.allclose(np.sort(r1.sigma), np.sort(r2.sigma), atol=1e-10)
