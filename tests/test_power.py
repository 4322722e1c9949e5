import numpy as np
import pytest

from satmimo import (ValidationError, make_constraint_set, per_antenna,
                     per_sat_total, residuals)
from satmimo.power import scale_to_caps
from tests.conftest import crandn


class TestConstruction:
    def test_per_sat_total_shapes(self):
        cons = per_sat_total([1.0, 2.0], 4)
        assert cons.num_sats == 2
        assert cons.num_constraints(0) == 1
        np.testing.assert_array_equal(cons.weights[0][0], np.eye(4))
        assert cons.caps[1][0] == 2.0
        assert all(cons.identity)

    def test_per_antenna_shapes(self):
        cons = per_antenna([[0.5, 0.25]])
        assert cons.num_constraints(0) == 2
        np.testing.assert_array_equal(cons.weights[0][0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(cons.weights[0][1], np.diag([0.0, 1.0]))
        assert not cons.identity[0]

    def test_rejects_non_hermitian(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]], complex)
        with pytest.raises(ValidationError, match="Hermitian"):
            make_constraint_set([[(A, 1.0)]])

    def test_rejects_mixed_sizes(self):
        # a satellite's weight matrices form one (X, N, N) stack
        with pytest.raises(ValidationError, match="size"):
            make_constraint_set([[(np.eye(2), 1.0), (np.eye(3), 1.0)]])

    def test_rejects_indefinite(self):
        A = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(ValidationError, match="semidefinite"):
            make_constraint_set([[(A, 1.0)]])

    @pytest.mark.parametrize("diagonal, message", [
        ([1.0, -0.5], "semidefinite"), ([1.0, 0.5j], "Hermitian")],
        ids=["negative-entry", "non-real-entry"])
    def test_diagonal_outside_shortcut_rejected(self, diagonal, message):
        # a diagonal is checked like any other weight matrix
        with pytest.raises(ValidationError, match=message):
            make_constraint_set([[(np.diag(diagonal).astype(complex), 1.0)]])

    def test_diagonal_families_skip_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(A):
            calls.append(A.shape)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        per_antenna(np.full((2, 4), 0.25))
        per_sat_total([1.0, 2.0], 4)
        assert calls == []
        # a custom family is validated in full, a diagonal one included
        make_constraint_set([[(np.diag([2.0, 0.0, 1.0]), 1.0)]])
        make_constraint_set([[(np.ones((3, 3)), 1.0)]])
        assert calls == [(3, 3), (3, 3)]

    def test_accepts_near_psd(self):
        # eigenvalue floor is relative: tiny negative rounding is tolerated
        A = np.eye(3, dtype=complex)
        A[0, 0] = 1.0 - 1e-16
        v = np.linalg.qr(crandn(np.random.default_rng(0), 3, 3))[0]
        make_constraint_set([[(v @ A @ v.conj().T, 1.0)]])

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValidationError, match="rho"):
            per_sat_total([0.0], 2)

    def test_scaled(self):
        cons = per_sat_total([1.0, 2.0], 3).scaled(2.5)
        assert cons.caps[0][0] == 2.5
        assert cons.caps[1][0] == 5.0

    @pytest.mark.parametrize("rho", [[0.0, 1.0], [1.0, np.nan], [-2.0]])
    def test_rejects_nonpositive_cap_by_satellite(self, rho):
        bad = next(l for l, r in enumerate(rho) if not r > 0)
        with pytest.raises(ValidationError,
                           match=f"satellite {bad} constraint 0: rho must be positive"):
            per_sat_total(rho, 3)

    def test_per_sat_total_matches_generic_set(self, rng):
        # built directly, it equals the validated generic set of the same
        # pairs, and residuals, scale_to_caps and scaled() read the same
        rho = [0.7, 2.0, 1.3]
        fast = per_sat_total(rho, 5)
        generic = make_constraint_set([[(np.eye(5), r)] for r in rho])
        assert fast.identity == generic.identity == (True,) * 3
        for a, b in zip(fast.weights + fast.caps, generic.weights + generic.caps):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert all(w is fast.weights[0] for w in fast.weights)
        assert not fast.weights[0].flags.writeable
        W = crandn(rng, 3, 2, 5, 2)
        for l in range(3):
            np.testing.assert_array_equal(residuals(W[l], fast, l),
                                          residuals(W[l], generic, l))
        np.testing.assert_array_equal(scale_to_caps(W.copy(), fast, 1e-5),
                                      scale_to_caps(W.copy(), generic, 1e-5))
        for a, b in zip(fast.scaled(2.5).caps, generic.scaled(2.5).caps):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("N", [1, 4])
    def test_per_antenna_matches_generic_set(self, N, rng):
        # built directly, it equals the validated generic set of the same
        # single-entry pairs, and residuals, scale_to_caps and scaled() read
        # the same
        caps = rng.uniform(0.1, 2.0, (3, N))
        fast = per_antenna(caps)
        generic = make_constraint_set([[(np.diag(e), rho)
                                        for e, rho in zip(np.eye(N), c)]
                                       for c in caps])
        assert fast.identity == generic.identity == (N == 1,) * 3
        for a, b in zip(fast.weights + fast.caps, generic.weights + generic.caps):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert all(w is fast.weights[0] for w in fast.weights)
        assert not fast.weights[0].flags.writeable
        W = crandn(rng, 3, 2, N, 2)
        for l in range(3):
            np.testing.assert_array_equal(residuals(W[l], fast, l),
                                          residuals(W[l], generic, l))
        np.testing.assert_array_equal(scale_to_caps(W.copy(), fast, 1e-5),
                                      scale_to_caps(W.copy(), generic, 1e-5))
        for a, b in zip(fast.scaled(2.5).caps, generic.scaled(2.5).caps):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_per_antenna_rejects_nonpositive_cap_by_antenna(self, bad):
        caps = np.full((3, 4), 0.5)
        caps[2, 1] = bad
        with pytest.raises(ValidationError,
                           match="satellite 2 constraint 1: rho must be positive"):
            per_antenna(caps)

    @pytest.mark.parametrize("caps, sat", [([[0.5, 0.5], [0.5]], 1),
                                           ([[], []], 0)],
                             ids=["lengths-differ", "no-antenna"])
    def test_per_antenna_rejects_unequal_or_empty_cap_vectors(self, caps, sat):
        with pytest.raises(ValidationError, match=f"satellite {sat}: "):
            per_antenna(caps)


class TestResiduals:
    def test_zero_precoders_give_minus_rho(self):
        cons = per_sat_total([1.5], 4)
        g = residuals(np.zeros((2, 4, 2), complex), cons, 0)
        np.testing.assert_allclose(g, [-1.5])

    def test_total_power_at_cap_is_zero(self, rng):
        W = crandn(rng, 2, 4, 2)
        W *= np.sqrt(3.0 / np.sum(np.abs(W) ** 2))
        cons = per_sat_total([3.0], 4)
        assert abs(residuals(W, cons, 0)[0]) < 1e-12

    def test_per_antenna_matches_row_norms(self, rng):
        W = crandn(rng, 3, 4, 2)
        caps = np.array([0.4, 0.3, 0.2, 0.1])
        cons = per_antenna([caps])
        g = residuals(W, cons, 0)
        rows = np.sum(np.abs(W) ** 2, axis=(0, 2))
        np.testing.assert_allclose(g, rows - caps, rtol=1e-12)

    def test_per_antenna_sums_to_total(self, rng):
        W = crandn(rng, 2, 5, 3)
        caps = np.full(5, 0.2)
        total = per_sat_total([1.0], 5)
        per_ant = per_antenna([caps])
        assert residuals(W, per_ant, 0).sum() == pytest.approx(
            residuals(W, total, 0)[0], rel=1e-12)

    def test_quadratic_scaling(self, rng):
        W = crandn(rng, 2, 4, 2)
        cons = per_sat_total([1.0], 4)
        base = residuals(np.zeros_like(W), cons, 0)
        g1 = residuals(W, cons, 0) - base
        g3 = residuals(3.0 * W, cons, 0) - base
        np.testing.assert_allclose(g3, 9.0 * g1, rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        cons = per_sat_total([1.0], 4)
        with pytest.raises(ValidationError, match="shape"):
            residuals(crandn(rng, 2, 3, 2), cons, 0)
