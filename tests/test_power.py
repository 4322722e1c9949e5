import numpy as np
import pytest

from satmimo import (NumericsError, ValidationError, make_constraint_set,
                     per_antenna, per_sat_total, residuals)
from satmimo.power import assert_feasible, scale_to_caps
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
        np.testing.assert_array_equal(residuals(W, fast), residuals(W, generic))
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
        np.testing.assert_array_equal(residuals(W, fast), residuals(W, generic))
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


def _mixed_set(rng, N=4):
    """Three satellites of three families: the identity, per-antenna-style
    single-entry diagonals, and two dense custom weights; all of size N."""
    B = crandn(rng, N, N)
    C = crandn(rng, N, 2)
    return make_constraint_set([
        [(np.eye(N), 2.0)],
        [(np.diag(e), rho) for e, rho in zip(np.eye(N), np.linspace(0.3, 0.6, N))],
        [(B @ B.conj().T, 1.5), (C @ C.conj().T, 0.7)]])


def _oracle(W, cons):
    """sum_k Tr(W_k^H A_x W_k) - rho_x per constraint, satellite by
    satellite, one einsum per weight matrix."""
    return np.array([np.einsum("kns,nm,kms->", W[l].conj(), A, W[l]).real - rho
                     for l in range(cons.num_sats)
                     for A, rho in zip(cons.weights[l], cons.caps[l])])


class TestResiduals:
    def test_zero_precoders_give_minus_rho(self):
        cons = per_sat_total([1.5], 4)
        g = residuals(np.zeros((1, 2, 4, 2), complex), cons)
        np.testing.assert_allclose(g, [-1.5])

    def test_total_power_at_cap_is_zero(self, rng):
        W = crandn(rng, 1, 2, 4, 2)
        W *= np.sqrt(3.0 / np.sum(np.abs(W) ** 2))
        cons = per_sat_total([3.0], 4)
        assert abs(residuals(W, cons)[0]) < 1e-12

    def test_per_antenna_matches_row_norms(self, rng):
        W = crandn(rng, 1, 3, 4, 2)
        caps = np.array([0.4, 0.3, 0.2, 0.1])
        cons = per_antenna([caps])
        g = residuals(W, cons)
        rows = np.sum(np.abs(W[0]) ** 2, axis=(0, 2))
        np.testing.assert_allclose(g, rows - caps, rtol=1e-12)

    def test_per_antenna_sums_to_total(self, rng):
        W = crandn(rng, 1, 2, 5, 3)
        caps = np.full(5, 0.2)
        total = per_sat_total([1.0], 5)
        per_ant = per_antenna([caps])
        assert residuals(W, per_ant).sum() == pytest.approx(
            residuals(W, total)[0], rel=1e-12)

    def test_quadratic_scaling(self, rng):
        W = crandn(rng, 1, 2, 4, 2)
        cons = per_sat_total([1.0], 4)
        base = residuals(np.zeros_like(W), cons)
        g1 = residuals(W, cons) - base
        g3 = residuals(3.0 * W, cons) - base
        np.testing.assert_allclose(g3, 9.0 * g1, rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        cons = per_sat_total([1.0], 4)
        with pytest.raises(ValidationError, match="shape"):
            residuals(crandn(rng, 1, 2, 3, 2), cons)

    @pytest.mark.parametrize("shape", [(2, 4, 2), (2, 2, 4, 2), (3, 2, 5, 2),
                                       (1, 3, 2, 4, 2)],
                             ids=["one-satellite", "too-few-satellites",
                                  "wrong-N", "five-axes"])
    def test_rejects_shapes_other_than_L_K_N_S(self, shape, rng):
        with pytest.raises(ValidationError, match=r"shape \(3, K, N, S\)"):
            residuals(crandn(rng, *shape), _mixed_set(rng))

    def test_mixed_families_match_einsum_oracle(self, rng):
        # one flat array in np.concatenate(caps) order: 1 + 4 + 2 entries
        cons = _mixed_set(rng)
        assert cons.identity == (True, False, False)
        W = crandn(rng, 3, 2, 4, 3)
        g = residuals(W, cons)
        assert g.shape == (7,)
        np.testing.assert_allclose(g, _oracle(W, cons), rtol=1e-12, atol=1e-12)

    def test_identity_satellites_read_the_batched_sum(self, rng):
        # the identity family's residual is the satellite's sum of |W|^2,
        # whatever families the other satellites have
        cons = make_constraint_set([[(np.eye(3), 1.0)], [(2 * np.eye(3), 1.0)],
                                    [(np.eye(3), 0.5)]])
        W = crandn(rng, 3, 2, 3, 2)
        g = residuals(W, cons)
        power = np.sum(np.abs(W) ** 2, axis=(1, 2, 3))
        np.testing.assert_allclose(g[[0, 2]], power[[0, 2]] - [1.0, 0.5], rtol=1e-13)
        np.testing.assert_allclose(g[1], 2 * power[1] - 1.0, rtol=1e-13)


class TestOverCapRule:
    # scale_to_caps and assert_feasible share one rule: a residual above
    # tol_rel of its own cap plus 1e-12 W is over its cap

    @staticmethod
    def _at_ratios(rng, cons, ratios):
        """Precoders whose satellite l has worst ratio p_x / rho_x equal to
        ratios[l]."""
        W = crandn(rng, cons.num_sats, 2, 4, 2)
        starts = np.cumsum([0] + [len(c) for c in cons.caps])
        g = residuals(W, cons) / np.concatenate(cons.caps) + 1.0
        for l, ratio in enumerate(ratios):
            W[l] *= np.sqrt(ratio / g[starts[l]:starts[l + 1]].max())
        return W

    def test_scales_exactly_the_over_cap_satellites(self, rng):
        cons = _mixed_set(rng)
        tol = 1e-5
        # satellite 0 below its cap, 1 over it, 2 within the tolerance
        W = self._at_ratios(rng, cons, [0.5, 1.7, 1.0 + 0.5 * tol])
        before = W.copy()
        assert scale_to_caps(W, cons, tol) is W
        for l in (0, 2):
            assert W[l].tobytes() == before[l].tobytes()
        g = residuals(W, cons)
        assert (g / np.concatenate(cons.caps))[1:5].max() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(W[1], before[1] / np.sqrt(1.7), rtol=1e-12)
        assert_feasible(g, cons, tol)

    def test_rule_boundary_is_shared(self, rng):
        # just within the limit: neither scaled nor refused; just over it:
        # scaled, and refused before the scaling
        cons = per_sat_total([1.0, 1.0], 4)
        tol = 1e-5
        within = self._at_ratios(rng, cons, [1.0 + 0.99 * tol, 0.5])
        over = self._at_ratios(rng, cons, [0.5, 1.0 + 1.01 * tol])
        assert_feasible(residuals(within, cons), cons, tol)
        assert scale_to_caps(within.copy(), cons, tol).tobytes() == within.tobytes()
        with pytest.raises(NumericsError, match="satellite 1: "):
            assert_feasible(residuals(over, cons), cons, tol)
        assert scale_to_caps(over.copy(), cons, tol)[1].tobytes() != over[1].tobytes()

    def test_certificate_names_first_satellite_and_its_worst_constraint(self, rng):
        cons = _mixed_set(rng)
        W = self._at_ratios(rng, cons, [0.5, 0.5, 0.5])
        g = residuals(W, cons)
        caps = np.concatenate(cons.caps)
        # satellite 1: antennas 1 and 3 over, antenna 3 by more over its
        # limit; satellite 2 over as well, by far more
        g[2] = 3e-3 * caps[2]
        g[4] = 4e-3 * caps[4]
        g[6] = 10.0
        limit = 1e-5 * caps[4] + 1e-12
        with pytest.raises(NumericsError, match=(
                rf"^satellite 1: output violates power constraint 3 \(residual "
                rf"{g[4]:.3e} > {limit:.3e}\)$")):
            assert_feasible(g, cons, 1e-5)
        g[2] = g[4] = -1.0
        with pytest.raises(NumericsError, match="^satellite 2: .* constraint 1 "):
            assert_feasible(g, cons, 1e-5)
