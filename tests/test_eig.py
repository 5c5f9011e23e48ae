"""Tests of the two-sided Jacobi symmetric eigensolver."""

import numpy as np
import pytest

from repro.eig import (
    EigOptions,
    jacobi_eigh,
    symmetric_off_norm,
)
from repro.eig.jacobi import EIGH_GATE, gram_eigh_grouped

ORDERINGS = ["fat_tree", "round_robin", "ring_new", "odd_even", "hybrid"]


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def kwargs_for(name):
    return {"n_groups": 4} if name == "hybrid" else {}


class TestCorrectness:
    @pytest.mark.parametrize("name", ORDERINGS)
    def test_matches_numpy_eigh(self, rng, name):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a, ordering=name, **kwargs_for(name))
        assert r.converged
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(r.w - ref)) < 1e-11

    def test_eigenvectors_orthogonal(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        assert np.linalg.norm(r.v.T @ r.v - np.eye(16)) < 1e-11

    def test_reconstruction(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        assert np.linalg.norm(r.reconstruct() - a) < 1e-10

    def test_eigen_equation(self, rng):
        a = random_symmetric(8, rng)
        r = jacobi_eigh(a)
        for k in range(8):
            assert np.linalg.norm(a @ r.v[:, k] - r.w[k] * r.v[:, k]) < 1e-10

    def test_negative_eigenvalues_kept(self, rng):
        # indefinite matrix: w contains both signs, still sorted descending
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        assert (r.w > 0).any() and (r.w < 0).any()
        assert np.all(np.diff(r.w) <= 1e-12)

    def test_diagonal_matrix_immediate(self):
        a = np.diag([5.0, 3.0, 2.0, 1.0])
        r = jacobi_eigh(a)
        assert r.sweeps == 1 and r.rotations == 0
        assert np.allclose(r.w, [5.0, 3.0, 2.0, 1.0])

    def test_sort_asc(self, rng):
        a = random_symmetric(8, rng)
        r = jacobi_eigh(a, options=EigOptions(sort="asc"))
        assert np.all(np.diff(r.w) >= -1e-12)

    def test_repeated_eigenvalues(self):
        # multiplicity: I + rank-1 bump
        n = 8
        u = np.ones((n, 1)) / np.sqrt(n)
        a = np.eye(n) + 3.0 * (u @ u.T)
        r = jacobi_eigh(a)
        assert abs(r.w[0] - 4.0) < 1e-12
        assert np.allclose(r.w[1:], 1.0, atol=1e-12)


class TestValidationAndBehaviour:
    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(ValueError):
            jacobi_eigh(rng.standard_normal((8, 8)))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError):
            jacobi_eigh(rng.standard_normal((8, 6)))

    def test_off_norm_decreases(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        offs = r.off_history
        assert offs[-1] < 1e-8 * max(offs)
        assert all(b <= a_ + 1e-9 for a_, b in zip(offs, offs[1:]))

    def test_sweep_budget(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a, options=EigOptions(max_sweeps=1))
        assert r.sweeps == 1 and not r.converged

    def test_zero_sweep_budget_rejected(self):
        # max_sweeps=0 used to return the input diagonal as eigenvalues
        with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
            EigOptions(max_sweeps=0)

    def test_unknown_sort_rejected(self):
        # an unknown sort used to return unsorted w with converged=True
        with pytest.raises(ValueError, match="sort must be one of"):
            EigOptions(sort="up")

    def test_compute_v_false(self, rng):
        a = random_symmetric(8, rng)
        r = jacobi_eigh(a, compute_v=False)
        assert r.v.shape == (8, 0)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(r.w - ref)) < 1e-11

    def test_symmetric_off_norm(self):
        assert symmetric_off_norm(np.eye(3)) == 0.0
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert symmetric_off_norm(a) == pytest.approx(np.sqrt(8.0))

    def test_ordering_object_accepted(self, rng):
        from repro.orderings import FatTreeOrdering

        a = random_symmetric(16, rng)
        r = jacobi_eigh(a, ordering=FatTreeOrdering(16))
        assert r.converged

    def test_equivalent_orderings_converge_alike(self, rng):
        a = random_symmetric(16, rng)
        s_ring = jacobi_eigh(a, ordering="ring_new").sweeps
        s_rr = jacobi_eigh(a, ordering="round_robin").sweeps
        assert abs(s_ring - s_rr) <= 2


def random_gram(k, rng):
    y = rng.standard_normal((k + 4, k))
    return y.T @ y


def scaled_gram(k, rng):
    """A Gram matrix outside the eigh gate: columns scaled by
    ``logspace(0, -6)`` spread its diagonal by about 1e12."""
    y = rng.standard_normal((k + 4, k)) * np.logspace(0, -6, k)
    g = y.T @ y
    d = np.diag(g)
    assert d.max() > EIGH_GATE * d.min()
    return g


def solve_one(g, **kw):
    """``gram_eigh_grouped`` on one group of one matrix (``g`` rotated
    in place); per-group results as scalars."""
    W, rotations, sweeps, converged = gram_eigh_grouped(g[None], **kw)
    return W[0], int(rotations[0]), int(sweeps[0]), bool(converged[0])


def solve_group(gs, **kw):
    """``gram_eigh_grouped`` on one group of ``len(gs)`` matrices (in
    place); per-group results as scalars."""
    W, rotations, sweeps, converged = gram_eigh_grouped(
        gs, group_size=len(gs), **kw)
    return W, int(rotations[0]), int(sweeps[0]), bool(converged[0])


class TestGramEigh:
    """The in-place solver behind the gram block kernel (a random Gram
    takes its LAPACK branch, a ``scaled_gram`` its cyclic loop)."""

    def test_diagonalizes_and_matches_eigh(self, rng):
        g = random_gram(8, rng)
        ref = np.sort(np.linalg.eigvalsh(g))[::-1]
        W, rotations, sweeps, converged = solve_one(g)
        assert converged and rotations > 0 and sweeps >= 1
        # g was overwritten with W^T g W, which must now be diagonal
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-11 * ref[0]
        assert np.max(np.abs(np.sort(np.diag(g))[::-1] - ref)) <= 1e-11 * ref[0]

    def test_w_is_orthogonal(self, rng):
        g = random_gram(8, rng)
        W, *_ = solve_one(g)
        assert np.max(np.abs(W.T @ W - np.eye(8))) <= 1e-13

    def test_diagonal_input_converges_without_rotations(self):
        g = np.diag([4.0, 3.0, 2.0, 1.0])
        W, rotations, sweeps, converged = solve_one(g)
        assert converged and rotations == 0 and sweeps == 1
        assert np.array_equal(W, np.eye(4))

    def test_batched_matches_scalar_per_matrix(self, rng):
        gs = np.stack([random_gram(6, rng) for _ in range(5)])
        singles = [g.copy() for g in gs]
        Ws, rotations, sweeps, converged = solve_group(gs)
        assert converged
        total = 0
        for i, g in enumerate(singles):
            Wi, ri, *_ = solve_one(g)
            total += ri
            assert np.array_equal(Ws[i], Wi)
            assert np.array_equal(gs[i], g)
        # the batch charges exactly the union of the per-matrix rotations
        assert rotations == total

    def test_floor_relaxes_the_convergence_measure(self, rng):
        # the floor enters only the convergence measure, never the
        # (purely relative) rotation threshold: a dominant floor makes
        # the solver settle after a single sweep while still rotating
        g = scaled_gram(12, rng)
        base_sweeps = solve_one(g.copy())[2]
        assert base_sweeps > 1
        _, rotations, sweeps, converged = solve_one(g, floor=1e6)
        assert converged and sweeps == 1 and rotations > 0

    def test_batched_floor_broadcasts_per_matrix(self, rng):
        # a per-matrix floor array must broadcast over the stack; slots
        # with floor 0 keep the strict measure and fully diagonalize
        gs = np.stack([random_gram(4, rng) for _ in range(3)])
        floor = np.array([0.0, 1e6, 0.0])
        _, _, _, converged = solve_group(gs, floor=floor)
        assert converged
        for i in (0, 2):
            off = gs[i] - np.diag(np.diag(gs[i]))
            assert np.max(np.abs(off)) <= 1e-10 * np.max(np.diag(gs[i]))

    def test_sweep_budget_reports_not_converged(self, rng):
        g = scaled_gram(12, rng)
        _, _, sweeps, converged = solve_one(g, max_sweeps=1)
        assert sweeps == 1 and not converged

    def test_grouped_groups_converge_independently(self, rng):
        # a group settled by its floor stops sweeping while its neighbour
        # goes on: each group's bits equal a standalone batched call
        gs = np.stack([scaled_gram(8, rng), scaled_gram(8, rng)])
        floor = np.array([1e6, 0.0])
        solo = [solve_group(gs[i:i + 1].copy(), floor=floor[i:i + 1])
                for i in range(2)]
        W, rotations, sweeps, converged = gram_eigh_grouped(
            gs, floor=floor, group_size=1)
        assert solo[0][2] == 1 < solo[1][2]
        for i, (Wi, ri, si, ci) in enumerate(solo):
            assert np.array_equal(W[i], Wi[0])
            assert (rotations[i], sweeps[i], converged[i]) == (ri, si, ci)


class TestGramEighGate:
    """The LAPACK branch taken by Grams whose diagonal spread is small."""

    def test_solves_in_one_sweep(self, rng):
        g = random_gram(16, rng)
        gmax = np.max(np.diag(g))
        W, rotations, sweeps, converged = solve_one(g)
        assert converged and sweeps == 1 and rotations > 0
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-11 * gmax
        assert np.max(np.abs(W.T @ W - np.eye(16))) <= 1e-13

    def test_near_diagonal_input_gives_near_identity(self, rng):
        # a permuted, well-separated diagonal plus a tiny symmetric
        # perturbation: the rank-match puts each eigenvector in its own
        # diagonal slot and the sign-fix keeps it positive, so W stays
        # within O(offdiag) of I (unmatched or unsigned, it would not)
        k = 12
        eps = 1e-6
        e = rng.standard_normal((k, k))
        g = np.diag(rng.permutation(np.arange(1.0, k + 1.0))) \
            + eps * (e + e.T) / 2.0
        W, *_ = solve_one(g)
        assert np.max(np.abs(W - np.eye(k))) <= 10 * eps

    def test_rotations_count_pairs_above_threshold_on_entry(self):
        g = np.diag(np.arange(1.0, 9.0))
        for p, q, v in ((0, 1, 0.1), (2, 5, 0.3), (3, 4, 1e-14)):
            g[p, q] = g[q, p] = v
        # (3, 4) sits below 1e-12 * sqrt(4 * 5): two pairs count
        _, rotations, sweeps, converged = solve_one(g)
        assert rotations == 2 and sweeps == 1 and converged

    def test_mixed_stack_matches_solo_bitwise(self, rng):
        # one matrix on each side of the gate: each W (and rotated g)
        # equals the one its matrix gets when solved alone
        gs = np.stack([random_gram(12, rng), scaled_gram(12, rng)])
        solo = [solve_one(g.copy()) for g in gs]
        grouped_in = gs.copy()
        Ws, rotations, _, _ = solve_group(gs)
        Wg, rot_g, sweeps_g, conv_g = gram_eigh_grouped(grouped_in,
                                                        group_size=1)
        assert rotations == solo[0][1] + solo[1][1]
        for i, (Wi, ri, si, ci) in enumerate(solo):
            assert np.array_equal(Ws[i], Wi)
            assert np.array_equal(Wg[i], Wi)
            assert (rot_g[i], sweeps_g[i], conv_g[i]) == (ri, si, ci)
        assert np.array_equal(gs, grouped_in)

    def test_lapack_failure_gives_nan_factor(self, rng, monkeypatch):
        # LAPACK refuses a whole stack when one matrix fails; only that
        # matrix may lose its factor, the others keep their solo bits
        import repro.eig.jacobi as jac

        bad = random_gram(8, rng)
        good = random_gram(8, rng)
        lapack = jac._lapack_eigh

        def eigh(a):
            if any(np.array_equal(m, bad) for m in a.reshape(-1, 8, 8)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return lapack(a)

        want, *_ = solve_one(good.copy())
        monkeypatch.setattr(jac, "_lapack_eigh", eigh)
        Ws, *_ = solve_group(np.stack([good, bad]))
        assert np.array_equal(Ws[0], want)
        assert np.isnan(Ws[1]).all()
