from dataclasses import replace

import numpy as np
import pytest

from satmimo import (NumericsError, approx_se, make_constraint_set,
                     per_antenna, per_sat_total)
from satmimo import joint_wmmse
from satmimo.channel import EffectiveChannel
from satmimo.joint_wmmse import (SolverParams, _mse_at_optimum, _mse_matrices,
                                 _PrecoderStep, _receiver_grams, _Spectrum,
                                 init_precoders, solve, update_weights,
                                 wmmse_objective)
from satmimo.power import residuals
from tests.conftest import (assert_precoder_kkt, bisect_multiplier, crandn,
                            dense_links, dense_subproblem, one_wmmse_iteration,
                            synthetic_effective)

LN2 = np.log(2.0)


class TestMseMatrix:
    # _mse_matrices at arbitrary combiners, on the grams of _receiver_grams

    def test_zero_combiner_gives_identity(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        W = crandn(rng, 3, 2, 5, 2)
        J, G = _receiver_grams(W, eff, 0.7)
        E = _mse_matrices(np.zeros((4, 6), complex), J[0], G[0])
        np.testing.assert_allclose(E, np.eye(6), atol=1e-14)

    def test_zero_precoders_leave_noise_term(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        W = np.zeros((2, 2, 4, 2), complex)
        U = crandn(rng, 3, 4)
        J, G = _receiver_grams(W, eff, 0.9)
        E = _mse_matrices(U, J[1], G[1])
        np.testing.assert_allclose(E, 0.9 * U.conj().T @ U + np.eye(4), atol=1e-12)

    def test_matches_bruteforce_covariance_expansion(self, rng):
        # expectation of (xhat - x)(xhat - x)^H over the per-(satellite,
        # stream) signal model, expanded term by term with unit-power
        # independent streams and white noise
        L, K, M, N, S = 2, 2, 3, 4, 2
        eff = synthetic_effective(rng, L=L, K=K, M=M, N=N)
        W = crandn(rng, L, K, N, S)
        U = crandn(rng, M, L * S)
        noise = 0.6
        k = 0
        hbar = dense_links(eff)
        # quadratic term: every user's per-link stream columns contribute
        quad = noise * np.eye(M, dtype=complex)
        for i in range(K):
            for l in range(L):
                G = hbar[l, k] @ W[l, i]
                quad += G @ G.conj().T
        # desired blocks Hb_{l,k} W_{l,k} side by side, satellite major
        Gk = np.concatenate([hbar[l, k] @ W[l, k] for l in range(L)], axis=1)
        E = U.conj().T @ quad @ U - U.conj().T @ Gk - Gk.conj().T @ U + np.eye(L * S)
        J, G = _receiver_grams(W, eff, noise)
        np.testing.assert_allclose(J[k], quad, atol=1e-12)
        np.testing.assert_allclose(G[k], Gk, atol=1e-12)
        np.testing.assert_allclose(_mse_matrices(U, J[k], G[k]), E, atol=1e-12)


class TestCombiners:
    # the MMSE combiners U = J^{-1} G that solve forms from _receiver_grams

    def test_zero_precoders_zero_combiners(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        J, G = _receiver_grams(np.zeros((2, 2, 4, 2), complex), eff, 1.0)
        assert np.all(np.linalg.solve(J, G) == 0)

    def test_minimizes_mse_trace(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=4, N=5)
        W = crandn(rng, 2, 2, 5, 2)
        J, G = _receiver_grams(W, eff, 0.8)
        U = np.linalg.solve(J, G)
        base = np.trace(_mse_matrices(U[0], J[0], G[0])).real
        for _ in range(100):
            pert = U[0] + 0.01 * crandn(rng, 4, 4)
            assert np.trace(_mse_matrices(pert, J[0], G[0])).real >= base - 1e-12

    def test_zero_forcing_limit_single_satellite(self, rng):
        # K = L = S = 1: as noise goes to zero the combined product
        # U^H (Hb W) approaches the identity. (A single rank-one link cannot
        # support an invertible Gram for S > 1, so the scalar-stream case is
        # the meaningful zero-forcing limit.)
        eff = synthetic_effective(rng, L=1, K=1, M=3, N=6)
        W = crandn(rng, 1, 1, 6, 1)
        U = np.linalg.solve(*_receiver_grams(W, eff, 1e-12))
        prod = U[0].conj().T @ (dense_links(eff)[0, 0] @ W[0, 0])
        np.testing.assert_allclose(prod, np.eye(1), atol=1e-5)
        # with as many satellites as receive antennas the stacked signal has
        # full column rank and every virtual stream is recovered
        eff4 = synthetic_effective(rng, L=3, K=1, M=3, N=6)
        W4 = crandn(rng, 3, 1, 6, 1)
        J4, G4 = _receiver_grams(W4, eff4, 1e-12)
        U4 = np.linalg.solve(J4, G4)
        np.testing.assert_allclose(U4[0].conj().T @ G4[0], np.eye(3), atol=1e-5)

    def test_mse_at_optimum_matches_full_formula(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=4, N=5)
        W = crandn(rng, 2, 2, 5, 2)
        J, G = _receiver_grams(W, eff, 0.5)
        U = np.linalg.solve(J, G)
        np.testing.assert_allclose(_mse_at_optimum(U, G), _mse_matrices(U, J, G),
                                   atol=1e-11)


class TestWeights:
    def test_identity_mse(self):
        C = update_weights(np.eye(3, dtype=complex)[None])
        np.testing.assert_allclose(C[0], np.eye(3) / LN2, atol=1e-14)

    def test_diagonal_inverse(self):
        E = np.diag([0.5, 0.25]).astype(complex)
        C = update_weights(E[None])[0]
        np.testing.assert_allclose(C, np.diag([2.0, 4.0]) / LN2, atol=1e-13)

    def test_random_pd_inverse_identity(self, rng):
        X = crandn(rng, 4, 4)
        E = X @ X.conj().T + 0.3 * np.eye(4)
        C = update_weights(E[None])[0]
        np.testing.assert_allclose(C @ E, np.eye(4) / LN2, atol=1e-10)

    def test_indefinite_rejected(self):
        from satmimo import NumericsError
        E = np.diag([1.0, -0.1]).astype(complex)
        with pytest.raises(NumericsError):
            update_weights(E[None])


class TestPrecoderGivenMu:
    # the closed form of one satellite's total-power subproblem at a given
    # multiplier (_Spectrum.precoders) against the dense subproblem

    def test_zero_combiners_give_zero_precoders(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        U = np.zeros((2, 3, 4), complex)
        C = np.stack([np.eye(4, dtype=complex)] * 2)
        W = _Spectrum(_PrecoderStep(eff, U, C, 2), [0]).precoders(np.zeros(1))
        assert np.all(W == 0)

    def test_identity_path_matches_dense_solve(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=5)
        W0 = crandn(rng, 2, 2, 5, 2)
        J, G = _receiver_grams(W0, eff, 0.5)
        U = np.linalg.solve(J, G)
        step = _PrecoderStep(eff, U, update_weights(_mse_at_optimum(U, G)), 2)
        mu = 0.37
        fast = _Spectrum(step, [0]).precoders(np.array([mu]))[0]
        T, B, _ = dense_subproblem(step, 0)
        dense = np.linalg.solve(T + mu * np.eye(5),
                                B.transpose(1, 0, 2).reshape(5, 4)).reshape(5, 2, 2)
        np.testing.assert_allclose(fast, dense.transpose(1, 0, 2), atol=1e-10)

    def test_rank_one_closed_form(self, rng):
        # K = 1, S = 1: solving (c a* a^T + mu I) w = z with z parallel to a*
        # has the Sherman-Morrison solution w = z / (c ||a||^2 + mu)
        eff = synthetic_effective(rng, L=1, K=1, M=3, N=4)
        W0 = crandn(rng, 1, 1, 4, 1)
        J, G = _receiver_grams(W0, eff, 0.5)
        U = np.linalg.solve(J, G)
        step = _PrecoderStep(eff, U, update_weights(_mse_at_optimum(U, G)), 1)
        mu = 0.8
        got = _Spectrum(step, [0]).precoders(np.array([mu]))[0, 0]
        a_conj = eff.a[0, 0].conj()
        coef = step.factor[0][:, 0] / a_conj  # sqrt(c) elementwise, constant vector
        c = float(np.abs(coef[0]) ** 2)
        z = dense_subproblem(step, 0)[1][0]
        expect = z / (c * np.linalg.norm(a_conj) ** 2 + mu)
        np.testing.assert_allclose(got, expect, rtol=1e-9)

    def test_lagrangian_stationarity_finite_difference(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        W0 = crandn(rng, 2, 2, 4, 2)
        J, G = _receiver_grams(W0, eff, 0.5)
        U = np.linalg.solve(J, G)
        step = _PrecoderStep(eff, U, update_weights(_mse_at_optimum(U, G)), 2)
        mu = 0.45
        l = 1
        W = _Spectrum(step, [l]).precoders(np.array([mu]))[0]
        objective = dense_subproblem(step, l)[2]

        def lagrangian(Wl):
            val = objective(Wl)
            return val + mu * float(np.sum(np.abs(Wl) ** 2))

        base = lagrangian(W)
        h = 1e-6
        worst = 0.0
        for _ in range(30):
            d = crandn(rng, 2, 4, 2)
            d /= np.linalg.norm(d)
            grad = (lagrangian(W + h * d) - lagrangian(W - h * d)) / (2 * h)
            worst = max(worst, abs(grad))
        assert worst <= 1e-8 * max(1.0, abs(base)) + 1e-8


class TestInitPrecoders:
    def test_single_user_takes_whole_share(self, rng):
        eff = synthetic_effective(rng, L=2, K=1, M=3, N=4)
        cons = per_sat_total([2.0, 3.0], 4)
        W = init_precoders(eff, cons, 2)
        assert np.sum(np.abs(W[0]) ** 2) == pytest.approx(2.0, rel=1e-10)
        assert np.sum(np.abs(W[1]) ** 2) == pytest.approx(3.0, rel=1e-10)

    def test_power_shares_sum_to_cap(self, default_effective, default_config):
        cons = per_sat_total(np.full(4, 5.0), 64)
        W = init_precoders(default_effective, cons, default_config.S)
        for l in range(4):
            assert np.sum(np.abs(W[l]) ** 2) == pytest.approx(5.0, rel=1e-10)
        shares = np.sum(np.abs(W) ** 2, axis=(2, 3))
        expect = 5.0 * np.sqrt(default_effective.beta) / np.sqrt(
            default_effective.beta).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(shares, expect, rtol=1e-10)

    def test_per_link_basis_only_first_column_live(self, rng):
        # the per-link stream basis of a rank-one link is its left vector
        # and exact zeros: columns beyond the first carry no power at all
        eff = synthetic_effective(rng, L=2, K=2, M=4, N=5)
        cons = per_sat_total([1.0, 1.0], 5)
        W = init_precoders(eff, cons, 3)
        assert np.all(W[..., 1:] == 0)
        assert np.all(np.abs(W[..., 0]) > 0)

    def test_aggregated_basis_same_approx_se(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=6)
        cons = per_sat_total([1.0, 2.0, 0.5], 6)
        W1 = init_precoders(eff, cons, 2)
        W2 = init_precoders(eff, cons, 2, stream_basis="aggregated")
        a1 = approx_se(W1, eff).sum_se
        a2 = approx_se(W2, eff).sum_se
        assert a1 == pytest.approx(a2, rel=1e-10)

    def test_per_antenna_init_feasible(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        caps = [np.full(4, 0.25), np.full(4, 0.5)]
        cons = per_antenna(caps)
        W = init_precoders(eff, cons, 2)
        from satmimo.power import residuals
        assert max(residuals(W[l], cons, l).max() for l in range(2)) <= 1e-12


def _rank_one_channel(b, a, beta, noise=0.5):
    """EffectiveChannel with one satellite and the given per-user rank-one
    links: b (K, M), a (K, N), beta (K,)."""
    b = np.asarray(b, complex)[None]
    a = np.asarray(a, complex)[None]
    beta = np.asarray(beta, float)[None]
    return EffectiveChannel(b=b, a=a, beta=beta, kappa=np.full(beta.shape, 15.8),
                            noise_power_w=noise)


class TestShareRuleBlocks:
    def test_repeated_user_counts_per_block(self, rng):
        # user 0 appears twice: the share denominator counts it twice, and
        # each block spends exactly its share of the cap
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        bases = joint_wmmse.link_bases(eff, 1, 2)
        blocks = [(0, bases[0]), (1, bases[1]), (0, bases[0][:, :1])]
        out = joint_wmmse.share_rule_blocks(eff, 1, 2.5, blocks, 0.5)
        root = np.sqrt(eff.beta[1])
        expect = 2.5 * root[[0, 1, 0]] / (2 * root[0] + root[1])
        assert [w.shape for w in out] == [(4, 2), (4, 2), (4, 1)]
        powers = [np.sum(np.abs(w) ** 2) for w in out]
        np.testing.assert_allclose(powers, expect, rtol=1e-12)
        assert sum(powers) == pytest.approx(2.5, rel=1e-12)

    def test_direction_is_regularized_inverse(self, rng):
        eff = synthetic_effective(rng, L=1, K=2, M=3, N=4)
        q = joint_wmmse.link_bases(eff, 0, 1)[1]
        w = joint_wmmse.share_rule_blocks(eff, 0, 1.0, [(1, q)], 0.7)[0]
        hb = dense_links(eff)[0]
        gram = 0.7 * np.eye(4) + sum(h.conj().T @ h for h in hb)
        raw = np.linalg.solve(gram, hb[1].conj().T @ q)
        np.testing.assert_allclose(w, raw / np.linalg.norm(raw), rtol=1e-12)

    @pytest.mark.parametrize("b, q", [
        ([1, 1], [[1], [-1]]),
        ([1, 1, 0], [[1, 0], [-1, 0], [0, np.sqrt(2)]]),
    ], ids=["M2-one-column", "M3-two-columns"])
    def test_invisible_basis_falls_back_to_matched_filter(self, b, q):
        # the basis is exactly orthogonal to b, so Hb^H Q = 0 (entries of
        # a and sqrt(beta) are chosen so that every product is exact): the
        # block is sqrt(share) conj(a)/||a|| in column 0 and zero elsewhere
        a = np.array([1, 2j, -1])
        other_b = np.eye(len(b))[0]
        eff = _rank_one_channel([b, other_b], [a, a[::-1]], [1.0, 4.0])
        q = np.asarray(q, complex) / np.sqrt(2)
        np.testing.assert_array_equal(dense_links(eff)[0, 0].conj().T @ q, 0)
        out = joint_wmmse.share_rule_blocks(eff, 0, 3.0, [(0, q), (1, q[:, :1])],
                                            0.5)
        share = 3.0 * 1.0 / (1.0 + 2.0)
        np.testing.assert_allclose(
            out[0][:, 0], np.sqrt(share) * a.conj() / np.linalg.norm(a),
            rtol=1e-14)
        assert np.all(out[0][:, 1:] == 0)
        # the visible user keeps its own direction and its share
        assert np.sum(np.abs(out[1]) ** 2) == pytest.approx(3.0 - share,
                                                             rel=1e-12)


class TestSolve:
    def test_objective_monotone_and_feasible(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=6)
        cons = per_sat_total([1.0, 2.0, 1.5], 6)
        W, trace = solve(eff, cons, SolverParams(max_iters=30, tol=1e-8),
                         num_streams=2)
        diffs = np.diff(trace.objective)
        assert np.all(diffs <= 1e-9)
        assert trace.max_residual[-1] <= 1e-5

    def test_deterministic(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=5)
        cons = per_sat_total([1.0, 1.0], 5)
        W1, t1 = solve(eff, cons, num_streams=2)
        W2, t2 = solve(eff, cons, num_streams=2)
        np.testing.assert_array_equal(W1, W2)
        assert t1.objective == t2.objective

    def test_reference_scale_converges(self, default_effective, default_config):
        cons = per_sat_total(np.full(4, 100.0), 64)
        W, trace = solve(default_effective, cons,
                         SolverParams.from_config(default_config), num_streams=2)
        assert trace.converged
        assert trace.iterations <= 40
        assert np.all(np.diff(trace.objective) <= 1e-9)

    def test_rate_identity_at_post_combiner_point(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=6)
        cons = per_sat_total([1.0, 1.0, 1.0], 6)
        W, _ = solve(eff, cons, SolverParams(max_iters=10, tol=1e-12),
                     num_streams=2)
        J, G = _receiver_grams(W, eff, eff.noise_power_w)
        E = _mse_at_optimum(np.linalg.solve(J, G), G)
        ident = -sum(np.linalg.slogdet(Ek)[1] for Ek in E) / LN2
        se = approx_se(W, eff).sum_se
        assert ident == pytest.approx(se, rel=1e-8)

    def test_improves_on_initialization(self, rng):
        # K = 2: the start leaves inter-user interference for the solver to
        # trade off (19.50 -> 19.68 bits); at K = 1 every design spending
        # each cap along conj(a) ties and rounding would decide
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=5)
        cons = per_sat_total([5.0, 5.0], 5)
        W0 = init_precoders(eff, cons, 2)
        W, _ = solve(eff, cons, num_streams=2)
        gain = approx_se(W, eff).sum_se
        base = approx_se(W0, eff).sum_se
        assert gain > base

    def test_phase_rotation_equivariance(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        cons = per_sat_total([1.0, 1.0], 4)
        W1, _ = solve(eff, cons, num_streams=2)
        b2 = eff.b.copy()
        b2[1, 0] *= np.exp(1j * 0.71)
        eff2 = replace(eff, b=b2)
        W2, _ = solve(eff2, cons, num_streams=2)
        se1 = approx_se(W1, eff).sum_se
        se2 = approx_se(W2, eff2).sum_se
        assert se1 == pytest.approx(se2, rel=1e-8)
        # gram matrices of the solutions match: solutions differ by phases only
        np.testing.assert_allclose(np.abs(W1), np.abs(W2), atol=1e-6)

    def test_per_antenna_constraints_respected(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        caps = [np.full(4, 0.3), np.full(4, 0.2)]
        cons = per_antenna(caps)
        W, trace = solve(eff, cons, SolverParams(max_iters=15, tol=1e-8),
                         num_streams=2)
        from satmimo.power import residuals
        assert max(residuals(W[l], cons, l).max() for l in range(2)) <= 1e-5 * 0.3
        base = approx_se(init_precoders(eff, cons, 2), eff).sum_se
        assert approx_se(W, eff).sum_se >= base - 1e-9

    def test_objective_value_matches_definition(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        W = crandn(rng, 2, 2, 4, 2) * 0.4
        J, G = _receiver_grams(W, eff, 0.5)
        E = _mse_matrices(np.linalg.solve(J, G), J, G)
        C, logdet = update_weights(E, logdet=True)
        np.testing.assert_allclose(logdet, np.linalg.slogdet(C)[1], rtol=1e-13)
        val = wmmse_objective(E, C, logdet)
        expect = sum(np.trace(C[k] @ E[k]).real
                     - np.linalg.slogdet(C[k])[1] / LN2 for k in range(2))
        assert val == pytest.approx(expect, rel=1e-12)



def _pinv_rule(step, l):
    """Satellite l's pseudoinverse rule, computed on its own: QR of the
    factor, the K x K eigenproblem, the range kept above 1e-12 of the
    largest eigenvalue, and a null-space part of an active user's direction
    above 1e-14 of its squared norm."""
    q, r = np.linalg.qr(step.factor[l])
    lam, z = np.linalg.eigh(r @ r.conj().T)
    basis = q @ z[:, lam > 1e-12 * max(lam.max(), 1e-300)]
    rhs = step.rhs_dir[l].T
    perp_sq = np.sum(np.abs(rhs - basis @ (basis.conj().T @ rhs)) ** 2, axis=0)
    dir_sq = np.sum(np.abs(rhs) ** 2, axis=0)
    active = np.sum(np.abs(step.rhs_row[l]) ** 2, axis=1) > 0
    return bool(np.any(perp_sq[active] > 1e-14 * np.maximum(dir_sq[active], 1e-300)))


class TestBatchedPrecoderStep:
    # every satellite of one batched precoder step, as solve runs it, against
    # the closed-form KKT conditions of its subproblem

    def test_joint_state(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=5)
        W0 = crandn(rng, 3, 2, 5, 2) * 0.5
        cons = per_sat_total([0.05, 1e6, 0.3], 5)
        W1, mus, _, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        assert mus[0] > 0 and mus[2] > 0
        assert mus[1] == 0.0                 # the cap is slack at mu = 0
        for l in range(3):
            assert_precoder_kkt(eff, cons, U, C, W1, mus, l)

    def test_rank_deficient_coupling(self, rng):
        # user 1 starts silent: its combiner and coupling coefficient are
        # exactly zero on every satellite, so T_l has rank one
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=5)
        W0 = crandn(rng, 3, 2, 5, 2) * 0.5
        W0[:, 1] = 0
        cons = per_sat_total([0.05, 0.1, 1e6], 5)
        W1, mus, _, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        assert np.all(U[1] == 0)
        step = _PrecoderStep(eff, U, C, 2)
        for l in range(3):
            assert np.all(step.factor[l][:, 1] == 0)
            assert np.linalg.matrix_rank(dense_subproblem(step, l)[0]) == 1
            assert_precoder_kkt(eff, cons, U, C, W1, mus, l)
        assert np.all(W1[:, 1] == 0)
        assert mus[0] > 0 and mus[2] == 0.0

    @pytest.mark.parametrize("tiny, caps, fallbacks", [
        (1.0, [1e6, 1e6], 0),      # full-rank coupling: no fallback
        (1e-9, [1e6, 1e6], 2),     # user 1's eigenvalue dropped, mu = 0
        (1e-9, [1e-3, 1e-3], 0),   # same state, but the caps bind: mu > 0
    ])
    def test_pinv_fallbacks_counted_by_rule(self, rng, tiny, caps, fallbacks):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        W0 = crandn(rng, 2, 2, 4, 2) * 0.5
        W0[:, 1] *= tiny
        cons = per_sat_total(caps, 4)
        W1, mus, trace, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        expect = 0
        step = _PrecoderStep(eff, U, C, 2)
        for l in range(2):
            used = bool(_Spectrum(step, [l]).pinv[0])
            assert used == _pinv_rule(step, l) == (tiny < 1)
            expect += int(mus[l] == 0.0 and used)
            if mus[l] > 0:
                # the null-space part of the right-hand side enters as
                # perp / mu
                assert_precoder_kkt(eff, cons, U, C, W1, mus, l)
        assert trace.pinv_fallbacks == expect == fallbacks

    def test_general_family_kkt(self, rng):
        # per-antenna caps go through dual_newton_multipliers: every
        # satellite's precoders minimise its Lagrangian at the returned
        # multipliers (T W_k + sum_x mu_x A_x W_k = B_k, built densely),
        # meet every cap and certify the duality gap |mu^T r| <= 1e-6 |g|
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        W0 = crandn(rng, 2, 2, 4, 2) * 0.5
        cons = per_antenna([np.full(4, 0.01), np.full(4, 0.02)])
        W1, _, trace, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        step = _PrecoderStep(eff, U, C, 2)
        for l in range(2):
            mu = trace.multipliers[0][l]
            assert mu.shape == (4,) and np.all(mu > 0)
            T, B, objective = dense_subproblem(step, l)
            M = T + np.tensordot(mu, cons.weights[l], 1)
            resid = np.einsum("nm,kms->kns", M, W1[l]) - B
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(B)
            r = residuals(W1[l], cons, l)
            assert np.all(r <= 1e-5 * cons.caps[l])
            assert abs(mu @ r) <= 1e-6 * abs(objective(W1[l]) + mu @ r)


class TestTransmitBasis:
    # the total-power step in the coordinates of the solve's QR of each
    # satellite's array responses, against the dense references of
    # tests/conftest.py where that basis degenerates

    @pytest.mark.parametrize("caps", [[1e6, 1e6], [1e-3, 1e-3]])
    def test_same_angle_users(self, rng, caps):
        # users 0 and 1 see satellite 0 at one angle: A_0 has rank one, so
        # R_0 is singular and one eigenvalue of its coupling is masked
        eff = synthetic_effective(rng, L=2, K=3, M=3, N=5)
        eff.a[0, 1] = eff.a[0, 0]
        W0 = crandn(rng, 2, 3, 5, 2) * 0.5
        cons = per_sat_total(caps, 5)
        W1, mus, trace, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        step = _PrecoderStep(eff, U, C, 2)
        assert np.linalg.matrix_rank(dense_subproblem(step, 0)[0]) == 2
        assert not _Spectrum(step, [0]).keep.all()
        for l in range(2):
            assert_precoder_kkt(eff, cons, U, C, W1, mus, l)
        assert trace.pinv_fallbacks == sum(
            mus[l] == 0.0 and _pinv_rule(step, l) for l in range(2))

    @pytest.mark.parametrize("tiny", [0.0, 1e-9])
    def test_silent_user_masks_an_eigenvalue(self, rng, tiny):
        # user 2 silent (exactly, or to 1e-9): c_{l,2} vanishes on every
        # satellite and its eigenvalue is masked; the fallback count follows
        # the dense rule, and each satellite still meets its KKT conditions
        eff = synthetic_effective(rng, L=2, K=3, M=3, N=5)
        W0 = crandn(rng, 2, 3, 5, 2) * 0.5
        W0[:, 2] *= tiny
        cons = per_sat_total([1e6, 1e-2], 5)
        W1, mus, trace, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        step = _PrecoderStep(eff, U, C, 2)
        expect = 0
        for l in range(2):
            spectrum = _Spectrum(step, [l])
            assert not spectrum.keep.all()
            assert bool(spectrum.pinv[0]) == _pinv_rule(step, l) == (tiny > 0)
            expect += int(mus[l] == 0.0 and _pinv_rule(step, l))
            if mus[l] > 0 or tiny == 0:
                assert_precoder_kkt(eff, cons, U, C, W1, mus, l)
        assert mus[0] == 0.0 and mus[1] > 0
        assert trace.pinv_fallbacks == expect == int(tiny > 0)

    def test_fewer_antennas_than_users(self, rng):
        # N = 2 < K = 4: Q_l is N x N and R_l is N x K
        eff = synthetic_effective(rng, L=2, K=4, M=3, N=2)
        W0 = crandn(rng, 2, 4, 2, 2) * 0.5
        cons = per_sat_total([1e6, 0.05], 2)
        W1, mus, _, U, C = one_wmmse_iteration(eff, cons, W0, 2)
        step = _PrecoderStep(eff, U, C, 2)
        assert step.basis.q.shape == (2, 2, 2) and step.basis.r.shape == (2, 2, 4)
        for l in range(2):
            assert_precoder_kkt(eff, cons, U, C, W1, mus, l)
        T, B, _ = dense_subproblem(step, 1)
        dense = np.linalg.solve(T + 0.3 * np.eye(2),
                                B.transpose(1, 0, 2).reshape(2, 8)).reshape(2, 4, 2)
        fast = _Spectrum(step, [1]).precoders(np.array([0.3]))[0]
        np.testing.assert_allclose(fast, dense.transpose(1, 0, 2), atol=1e-12)

    @pytest.mark.parametrize("family", ["total", "per-antenna"])
    def test_one_qr_per_solve(self, rng, monkeypatch, family):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        cons = (per_sat_total([0.05, 0.1], 4) if family == "total"
                else per_antenna(np.full((2, 4), 0.02)))
        calls = []
        qr = np.linalg.qr

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        for iters in (1, 6):
            calls.clear()
            _, trace = solve(eff, cons, SolverParams(max_iters=iters, tol=1e-12),
                             num_streams=2)
            assert trace.iterations == iters
            assert calls == [(2, 4, 2)]


def _random_curve(rng, with_d):
    """Secular curve (c, lam, d) with eigenvalues spread over 1e-10...1e6."""
    rank = int(rng.integers(1, 7))
    lam = 10.0 ** rng.uniform(-10, 6, rank)
    c = 10.0 ** rng.uniform(-4, 4, rank)
    d = float(10.0 ** rng.uniform(-4, 4)) if with_d else 0.0
    return c.tolist(), lam.tolist(), d


class TestSecularMultiplier:
    # safeguarded Newton on the secular equation against the independent
    # bisection oracle of tests/conftest.py on the same closed-form curve

    @pytest.mark.parametrize("with_d", [False, True])
    def test_matches_bisection_with_certificate(self, with_d):
        rng = np.random.default_rng(2024 + with_d)
        evals, agreed = [], 0
        for _ in range(300):
            curve = _random_curve(rng, with_d)
            root = 10.0 ** rng.uniform(-10, 6)
            rho = joint_wmmse._secular(curve, root)[0]
            power = lambda m: joint_wmmse._secular(curve, m)[0]
            mu, n = joint_wmmse.secular_multiplier(curve, rho)
            evals.append(n)
            mu_b = bisect_multiplier(lambda m: power(m) - rho, 1e-10 * rho)
            if mu_b == 0.0:
                # the cap is met by the mu = 0 (pseudoinverse) solution
                assert mu == 0.0 and power(0.0) <= rho
                continue
            assert abs(power(mu) - rho) <= 1e-10 * rho
            assert power(mu * (1 - 1e-9)) > rho
            # a root where the curve is flat to rounding (relative slope
            # |p'| mu / p below 1e-3) is fixed only to eps over that slope,
            # by either search; agreement is required where it is defined
            p, q = joint_wmmse._secular(curve, mu)
            if 2.0 * q * mu / p >= 1e-3:
                assert mu == pytest.approx(mu_b, rel=1e-11, abs=0.0)
                agreed += 1
        assert agreed >= 200
        assert np.mean(evals) <= 12

    def test_feasible_at_zero(self):
        curve = ([1.0, 4.0], [2.0, 1.0], 0.0)          # p(0) = 0.25 + 4
        assert joint_wmmse.secular_multiplier(curve, 5.0) == (0.0, 1)

    @pytest.mark.parametrize("curve", [
        ([float("nan"), 1.0], [1.0, 2.0], 0.0),        # NaN at mu = 0
        ([1.0, 1.0], [1.0, 2.0], float("nan")),        # NaN for mu > 0
    ])
    def test_nan_curve_raises(self, curve):
        # an `if`, not an assert: also raises under python -O
        with pytest.raises(NumericsError):
            joint_wmmse.secular_multiplier(curve, 0.1)

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(joint_wmmse, "_MAX_CURVE_EVALS", 2)
        curve = ([1.0, 3.0], [1e-6, 2.0], 0.5)
        with pytest.raises(NumericsError):
            joint_wmmse.secular_multiplier(curve, 0.1)

    def test_solve_counts_searches_and_evaluations(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=5)
        cons = per_sat_total([0.05, 0.1, 0.2], 5)
        W, trace = solve(eff, cons, SolverParams(max_iters=6, tol=1e-12),
                         num_streams=2)
        assert trace.multiplier_searches == 3 * trace.iterations
        assert trace.multiplier_searches <= trace.multiplier_evals
        assert trace.multiplier_evals <= 12 * trace.multiplier_searches

    def test_solve_counts_dual_searches(self, rng):
        # per-antenna caps: one dual search per live satellite and iteration,
        # each with at least one dual evaluation. Satellite 2 starts silent
        # and stays so, unsearched
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=4)
        W0 = crandn(rng, 3, 2, 4, 2) * 0.3
        W0[2] = 0
        cons = per_antenna(np.full((3, 4), 0.05))
        W, trace = solve(eff, cons, SolverParams(max_iters=5, tol=1e-12),
                         initial=W0, num_streams=2)
        assert trace.iterations == 5
        assert np.all(W[2] == 0)
        assert trace.multiplier_searches == 2 * trace.iterations
        assert trace.multiplier_evals >= trace.multiplier_searches


class TestAssertFeasible:
    def test_each_constraint_against_its_own_cap(self):
        # caps (1, 100): 5e-4 over the cap of 1 is within 1e-5 of the
        # largest cap but 50 times the tolerance of its own
        A1 = np.diag([1.0, 0.0]).astype(complex)
        A2 = np.diag([0.0, 1.0]).astype(complex)
        cons = make_constraint_set([[(A1, 1.0), (A2, 100.0)]])
        W = np.zeros((1, 1, 2, 1), complex)
        W[0, 0, :, 0] = [np.sqrt(1.0 + 5e-4), 1.0]
        np.testing.assert_allclose(residuals(W[0], cons, 0), [5e-4, -99.0])
        with pytest.raises(NumericsError, match="constraint 0"):
            joint_wmmse._assert_feasible(residuals(W[0], cons, 0), cons, 1e-5)
        W[0, 0, 0, 0] = np.sqrt(1.0 + 5e-6)
        joint_wmmse._assert_feasible(residuals(W[0], cons, 0), cons, 1e-5)
