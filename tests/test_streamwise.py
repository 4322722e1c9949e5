import numpy as np
import pytest

from satmimo import (InfeasibleError, NumericsError, ScenarioConfig,
                     ValidationError, approx_se, associate,
                     brute_force_assignment, effective_channels,
                     participation_factors, per_antenna, per_sat_total,
                     sample_geometry, solve_streamwise)
from satmimo import cli, joint_wmmse
from satmimo.channel import link_matrix
from satmimo.joint_wmmse import (SolverParams, _mse_at_optimum, _mse_matrices,
                                 _receiver_grams, _secular, _Spectrum)
from satmimo.power import residuals
from satmimo.streamwise import StreamAssignment, init_streamwise
from tests.conftest import (assert_precoder_kkt, bisect_multiplier, crandn,
                            dense_aggregate, dense_eigenmodes, dense_links,
                            dense_subproblem, one_wmmse_iteration,
                            precoder_step, synthetic_effective)

ORTHOGONAL = (-0.9, -0.4, 0.1, 0.6)
NON_ORTHOGONAL = (-0.340, -0.119, 0.119, 0.340)


def _masked(rng, eff, pi, scale=0.4):
    """Joint-form precoders with random columns on the support of pi (column
    s of W[l, k] live only when pi_k(s) = l), and the joint receiver state
    at them: (assignment, W, U, C, J, G)."""
    L, K, M, N = eff.shape
    assoc = StreamAssignment.from_pi(np.array(pi), L)
    S = assoc.pi.shape[1]
    W = np.zeros((L, K, N, S), complex)
    for k in range(K):
        for s in range(S):
            W[assoc.pi[k, s], k, :, s] = crandn(rng, N) * scale
    J, G = _receiver_grams(W, eff, eff.noise_power_w)
    U = np.linalg.solve(J, G)
    C = joint_wmmse.update_weights(_mse_at_optimum(U, G))[0]
    return assoc, W, U, C, J, G


def _off_support(assoc, L):
    """Boolean mask (L, K, S): True where satellite l does not carry (k, s)."""
    K, S = assoc.pi.shape
    mask = np.ones((L, K, S), bool)
    for k in range(K):
        mask[assoc.pi[k], k, np.arange(S)] = False
    return mask


def _root_certificate(power, mu, rho):
    """mu is the smallest multiplier meeting the cap: p(mu) = rho to 1e-10
    relative, and 1e-9 less would overshoot it."""
    assert mu > 0
    assert abs(power(mu) - rho) <= 1e-10 * rho
    assert power(mu * (1 - 1e-9)) > rho


def _fixed_scenario(sines, seed=3, S=2):
    cfg = ScenarioConfig(L=4, M=4, S=S, ue_sin_theta=sines)
    links = sample_geometry(cfg, np.random.default_rng(seed))
    return cfg, links, effective_channels(links, cfg)


class TestParticipationFactors:
    def test_rows_sum_to_one(self, default_effective):
        eta, directions = participation_factors(default_effective)
        np.testing.assert_allclose(eta.sum(axis=0), 1.0, atol=1e-12)
        gram = directions.conj().swapaxes(1, 2) @ directions
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape),
                                   atol=1e-12)

    def test_single_satellite_all_energy(self, rng):
        eff = synthetic_effective(rng, L=1, K=2, M=3, N=5)
        eta, _ = participation_factors(eff)
        np.testing.assert_allclose(eta, 1.0, atol=1e-12)

    def test_orthogonal_toy_concentrates(self):
        # orthogonal UE-side responses: each eigenmode is carried almost
        # entirely by a single satellite
        _, _, eff = _fixed_scenario(ORTHOGONAL)
        eta, _ = participation_factors(eff)
        for k in range(eff.shape[1]):
            assert np.all(eta[:, k, :].max(axis=0) > 0.99)

    def test_non_orthogonal_toy_spreads(self):
        _, _, eff = _fixed_scenario(NON_ORTHOGONAL)
        eta, _ = participation_factors(eff)
        for k in range(eff.shape[1]):
            shared = np.sum(eta[:, k, :] > 0.05, axis=0)
            assert np.all(shared >= 2)


class TestAssociate:
    def test_orthogonal_matches_brute_force(self):
        _, _, eff = _fixed_scenario(ORTHOGONAL)
        eta, _ = participation_factors(eff)
        assoc = associate(eta, 2)
        for k in range(eff.shape[1]):
            w = eta[:, k, :2].T
            got = w[np.arange(2), assoc.pi[k]].sum()
            best = w[np.arange(2), brute_force_assignment(w)].sum()
            assert got == pytest.approx(best, rel=1e-12)
            assert got >= 0.99 * 2

    def test_single_stream_takes_argmax(self, rng):
        eff = synthetic_effective(rng, L=5, K=2, M=3, N=4)
        eta, _ = participation_factors(eff)
        assoc = associate(eta, 1)
        for k in range(2):
            assert assoc.pi[k, 0] == int(np.argmax(eta[:, k, 0]))

    def test_contested_satellite_resolved_optimally(self):
        # one satellite dominating two modes: the matching still returns
        # distinct satellites at the brute-force optimum
        eta = np.zeros((2, 1, 2))
        eta[:, 0, 0] = [0.9, 0.1]
        eta[:, 0, 1] = [0.8, 0.2]
        assoc = associate(eta, 2)
        assert sorted(assoc.pi[0]) == [0, 1]
        w = eta[:, 0, :2].T
        assert w[np.arange(2), assoc.pi[0]].sum() == pytest.approx(
            w[np.arange(2), brute_force_assignment(w)].sum(), rel=1e-12)

    def test_injective_and_covering(self, default_effective):
        eta, _ = participation_factors(default_effective)
        assoc = associate(eta, 2)
        K, S = assoc.pi.shape
        for k in range(K):
            assert len(set(assoc.pi[k])) == S
        # every (user, stream) pair rides exactly one satellite
        np.testing.assert_array_equal(assoc.support.sum(axis=0), np.ones((K, S)))

    def test_too_many_streams_rejected(self, rng):
        eff = synthetic_effective(rng, L=2, K=1, M=4, N=4)
        eta, _ = participation_factors(eff)
        with pytest.raises(InfeasibleError):
            associate(eta, 3)


class TestStreamAssignment:
    @pytest.mark.parametrize("pi", [[[-1, 0], [1, 0]], [[0, 4], [1, 0]],
                                    [[0, 1], [7, 2]]],
                             ids=["negative", "equal-to-L", "above-L"])
    def test_rejects_satellite_out_of_range(self, pi):
        # a negative entry would wrap to the last satellite, and one >= L
        # would index past the satellite list
        with pytest.raises(ValidationError, match="satellites in"):
            StreamAssignment.from_pi(np.array(pi), 4)


class TestDenseReference:
    # participation factors and stream directions from the M x L link
    # matrices against the economy SVD of the dense (M, L*N) aggregates

    @pytest.mark.parametrize("shape", [(3, 2, 4, 5), (5, 2, 3, 4), (2, 3, 4, 3)],
                             ids=["L3-M4", "L5-M3", "L2-M4"])
    def test_eta_and_directions_match_dense_svd(self, rng, shape):
        L, K, M, N = shape
        eff = synthetic_effective(rng, L=L, K=K, M=M, N=N)
        eta, directions = participation_factors(eff)
        ref_eta, ref_left = dense_eigenmodes(eff)
        r = min(M, L)
        assert eta.shape == (L, K, r) and directions.shape == (K, M, r)
        np.testing.assert_allclose(eta, ref_eta[:, :, :r], rtol=0, atol=1e-12)
        for k in range(K):
            for m in range(r):
                phase = np.vdot(ref_left[k, :, m], directions[k, :, m])
                assert abs(phase) == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(directions[k, :, m],
                                           phase * ref_left[k, :, m], atol=1e-12)

    def test_association_geometries_same_maps(self):
        # every geometry of the association preset at its default seed:
        # the factored eta matches the dense one and gives the same map
        jobs = cli.PRESETS["association"](ScenarioConfig())
        configs = {(j.scenario_id, j.config.rng_seed): j.config for j in jobs}
        assert len(configs) == 20
        for cfg in configs.values():
            links = sample_geometry(cfg, np.random.default_rng(cfg.rng_seed))
            eff = effective_channels(links, cfg)
            eta, _ = participation_factors(eff)
            ref_eta, _ = dense_eigenmodes(eff)
            np.testing.assert_allclose(eta, ref_eta, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(associate(eta, cfg.S).pi,
                                          associate(ref_eta, cfg.S).pi)


class TestCombinersAndWeights:
    # the streamwise receiver update is the joint one on the embedded set

    def test_zero_precoders(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=4, noise=0.5)
        W = np.zeros((3, 2, 4, 2), complex)
        J, G = _receiver_grams(W, eff, 0.5)
        U = np.linalg.solve(J, G)
        assert np.all(U == 0)
        E = _mse_matrices(U[0], J[0], G[0])
        np.testing.assert_allclose(E, np.eye(6), atol=1e-14)
        C = joint_wmmse.update_weights(E[None])[0]
        np.testing.assert_allclose(C[0], np.eye(6) / np.log(2), atol=1e-13)

    def test_embedding_matches_joint_combiners(self, rng):
        # joint combiners of the embedded set against a per-stream reference
        # U[:, (l, s)] = J_k^{-1} Hb_{l,k} w_{l,k,s}, J_k summed over the
        # active streams only; every column off the support is exactly zero
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5, noise=0.6)
        assoc, W, U, C, _, G = _masked(rng, eff, [[0, 2], [1, 0]])
        S = 2
        off = _off_support(assoc, 3)
        E = _mse_at_optimum(U, G)
        hbar = dense_links(eff)
        for k in range(2):
            J = 0.6 * np.eye(4, dtype=complex)
            for i in range(2):
                for s in range(S):
                    g = hbar[assoc.pi[i, s], k] @ W[assoc.pi[i, s], i, :, s]
                    J += np.outer(g, g.conj())
            for l in range(3):
                for s in range(S):
                    col = U[k][:, l * S + s]
                    if off[l, k, s]:
                        assert np.all(col == 0)
                        row = E[k, l * S + s]
                        assert row[l * S + s] == 1.0
                        assert np.count_nonzero(row) == 1
                    else:
                        g = hbar[l, k] @ W[l, k, :, s]
                        np.testing.assert_allclose(col, np.linalg.solve(J, g),
                                                   atol=1e-10)

    def test_combiner_minimizes_mse(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5, noise=0.5)
        assoc, W, U, C, J, G = _masked(rng, eff, [[0, 1], [1, 2]], scale=0.3)
        base = np.trace(_mse_matrices(U[1], J[1], G[1])).real
        for _ in range(100):
            pert = U[1] + 0.01 * crandn(rng, 4, 6)
            val = np.trace(_mse_matrices(pert, J[1], G[1])).real
            assert val >= base - 1e-12


class TestPrecoderAndBisection:
    # per-satellite closed form and multiplier search of the masked joint
    # solve

    def test_zero_coupling_zero_vectors(self, rng):
        eff = synthetic_effective(rng, L=3, K=1, M=3, N=4)
        U = np.zeros((1, 3, 6), complex)
        C = np.eye(6, dtype=complex)[None]
        step = precoder_step(eff, U, C, 2)
        assert np.all(_Spectrum(step, [0]).precoders(np.zeros(1)) == 0)
        # a real masked state: the satellite carrying no stream and every
        # off-support column get exactly zero, at any multiplier
        assoc, W, U, C, *_ = _masked(rng, eff, [[0, 1]])
        off = _off_support(assoc, 3)
        spectrum = _Spectrum(precoder_step(eff, U, C, 2), np.arange(3))
        for mu in (0.0, 0.3):
            Wl = spectrum.precoders(np.full(3, mu))
            assert np.all(Wl.transpose(0, 1, 3, 2)[off] == 0)
            assert np.all(Wl[2] == 0)

    def test_norm_decreasing_in_mu(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        assoc, W, U, C, *_ = _masked(rng, eff, [[0, 1], [1, 0]])
        spectrum = _Spectrum(precoder_step(eff, U, C, 2), [0])
        prev = np.inf
        for mu in (0.01, 0.1, 1.0, 10.0):
            total = np.sum(np.abs(spectrum.precoders(np.array([mu]))) ** 2)
            assert total < prev
            assert _secular(spectrum.curves[0], mu)[0] == pytest.approx(
                total, rel=1e-12)
            prev = total

    def test_stationarity_finite_difference(self, rng):
        # every direction, off-support columns included
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        assoc, W, U, C, *_ = _masked(rng, eff, [[0, 1], [1, 0]])
        l, mu = 0, 0.3
        step = precoder_step(eff, U, C, 2)
        Wl = _Spectrum(step, [l]).precoders(np.array([mu]))[0]
        objective = dense_subproblem(step, l)[2]

        def lagrangian(x):
            return objective(x) + mu * float(np.sum(np.abs(x) ** 2))

        base = lagrangian(Wl)
        h = 1e-6
        for _ in range(20):
            d = crandn(rng, 2, 4, 2)
            d /= np.linalg.norm(d)
            grad = (lagrangian(Wl + h * d) - lagrangian(Wl - h * d)) / (2 * h)
            assert abs(grad) <= 1e-8 * max(1.0, abs(base)) + 1e-8

    def test_bisection_inactive_at_zero(self):
        assert bisect_multiplier(lambda m: -1.0, 1e-12) == 0.0

    def test_bisection_power_tolerance(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        assoc, W, U, C, *_ = _masked(rng, eff, [[0, 1], [1, 0]], scale=1.0)
        curve = _Spectrum(precoder_step(eff, U, C, 2), [0]).curves[0]
        power = lambda m: _secular(curve, m)[0]
        rho = 0.05
        mu = bisect_multiplier(lambda m: power(m) - rho, 1e-10 * rho)
        _root_certificate(power, mu, rho)

    def test_bisection_agrees_with_secular_search(self, rng):
        # the bisection oracle and the solver's secular search find the
        # same certified root on a masked subproblem
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        assoc, W, U, C, *_ = _masked(rng, eff, [[0, 1], [1, 0]], scale=1.0)
        curve = _Spectrum(precoder_step(eff, U, C, 2), [0]).curves[0]
        power = lambda m: _secular(curve, m)[0]
        rho = 0.05
        mu_b = bisect_multiplier(lambda m: power(m) - rho, 1e-12 * rho)
        mu_s, _ = joint_wmmse.secular_multiplier(curve, rho)
        assert mu_s == pytest.approx(mu_b, rel=1e-11)
        _root_certificate(power, mu_b, rho)
        _root_certificate(power, mu_s, rho)

    def test_bracket_budget_exhausted(self):
        with pytest.raises(InfeasibleError):
            bisect_multiplier(lambda m: 1.0, 1e-12, max_doublings=5)


class TestBatchedPrecoderStep:
    # one batched precoder step of the masked joint solve, every satellite
    # against the closed-form KKT conditions of its subproblem

    def test_masked_state(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=4)
        assoc, W, *_ = _masked(rng, eff, [[0, 1], [1, 0]], scale=1.0)
        cons = per_sat_total([0.05, 1e6, 1.0], 4)
        W1, mus, trace, U, C = one_wmmse_iteration(eff, cons, W, 2)
        off = _off_support(assoc, 3)
        assert np.all(W1.transpose(0, 1, 3, 2)[off] == 0)
        # satellite 2 carries no stream: it stays silent and is not searched
        assert np.all(W1[2] == 0) and mus[2] == 0.0
        assert trace.multiplier_searches == 2
        assert mus[0] > 0 and mus[1] == 0.0
        for l in (0, 1):
            assert_precoder_kkt(eff, cons, U, C, W1, mus, l)

def _caps(rho, N):
    return per_sat_total(np.asarray(rho, float), N)


class TestSolveStreamwise:
    def test_monotone_feasible_deterministic(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        rho = np.array([1.0, 2.0, 1.5])
        W1, assoc1, t1 = solve_streamwise(eff, _caps(rho, 5), num_streams=2)
        W2, assoc2, t2 = solve_streamwise(eff, _caps(rho, 5), num_streams=2)
        assert W1.shape == (3, 2, 5, 2)
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(assoc1.pi, assoc2.pi)
        assert np.all(np.diff(t1.objective) <= 1e-9)
        for l in range(3):
            assert np.sum(np.abs(W1[l]) ** 2) <= rho[l] * (1 + 1e-5) + 1e-12

    @pytest.mark.parametrize("pi, num_sats", [([[0, 1], [2, 3]], 5),
                                              ([[0], [2]], 4)],
                             ids=["satellites", "streams"])
    def test_assignment_of_another_shape_rejected(self, rng, pi, num_sats):
        # the support must be (L, K, S): a map built for five satellites
        # does not fit a four-satellite channel, even with every stream on
        # one of the four
        eff = synthetic_effective(rng, L=4, K=2, M=3, N=5)
        assoc = StreamAssignment.from_pi(np.array(pi), num_sats)
        with pytest.raises(ValidationError, match="does not match"):
            solve_streamwise(eff, _caps(np.ones(4), 5), num_streams=2,
                             assignment=assoc)

    def test_single_satellite_with_fewer_antennas_than_the_user(self):
        # L*N < M is a valid scenario: the association SVD is of the M x L
        # link matrix, and with one satellite and one stream the streamwise
        # map is the joint support, so both designs agree
        cfg = ScenarioConfig(L=1, N=2, M=4, S=1)
        eff = effective_channels(sample_geometry(cfg, np.random.default_rng(0)),
                                 cfg)
        cons = _caps(np.full(1, 10.0), cfg.N)
        W, _ = joint_wmmse.solve(eff, cons, num_streams=1)
        Ws, _, _ = solve_streamwise(eff, cons, num_streams=1)
        se = approx_se(W, eff).sum_se
        assert se > 0
        assert approx_se(Ws, eff).sum_se == pytest.approx(se, rel=1e-12)

    def test_reference_scale_converges(self, default_effective, default_config):
        W, assoc, trace = solve_streamwise(
            default_effective, _caps(np.full(4, 100.0), 64),
            SolverParams.from_config(default_config), num_streams=2)
        assert trace.converged and trace.iterations <= 40

    def test_rate_identity_streamwise(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        W, assoc, _ = solve_streamwise(eff, _caps(np.ones(3), 5), num_streams=2)
        J, G = _receiver_grams(W, eff, eff.noise_power_w)
        E = _mse_at_optimum(np.linalg.solve(J, G), G)
        ident = -sum(np.linalg.slogdet(Ek)[1] for Ek in E) / np.log(2)
        se = approx_se(W, eff).sum_se
        assert ident == pytest.approx(se, rel=1e-8)

    def test_orthogonal_parity_with_joint(self):
        cfg, links, eff = _fixed_scenario(ORTHOGONAL, S=4)
        for rho in (1.0, 100.0):
            cons = per_sat_total(np.full(4, rho), cfg.N)
            W, _, _ = solve_streamwise(eff, cons, num_streams=4)
            se_sw = approx_se(W, eff).sum_se
            Wj, _ = joint_wmmse.solve(eff, cons, num_streams=4)
            se_j = approx_se(Wj, eff).sum_se
            assert se_sw >= 0.95 * se_j

    def test_joint_from_embedded_start_dominates(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        cons = _caps(np.ones(3), 5)
        W0, assoc, _ = solve_streamwise(eff, cons, num_streams=2)
        se_sw = approx_se(W0, eff).sum_se
        Wj, _ = joint_wmmse.solve(eff, cons, initial=W0, num_streams=2)
        se_j = approx_se(Wj, eff).sum_se
        assert se_j >= se_sw - 1e-6

    def test_given_assignment_respected(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=4)
        assoc = StreamAssignment.from_pi(np.array([[2, 0], [0, 1]]), 3)
        W, out_assoc, _ = solve_streamwise(eff, _caps(np.ones(3), 4),
                                           num_streams=2, assignment=assoc)
        np.testing.assert_array_equal(out_assoc.pi, assoc.pi)
        for k in range(2):
            for s in range(2):
                for l in range(3):
                    if l != assoc.pi[k, s]:
                        assert np.all(W[l, k, :, s] == 0)

    def test_support_certificate(self, rng, monkeypatch):
        # off-support entries come back exactly zero; one that is not makes
        # solve_streamwise raise instead of returning a leaked precoder
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        cons = _caps(np.ones(3), 5)
        W, assoc, _ = solve_streamwise(eff, cons, num_streams=2)
        off = _off_support(assoc, 3)
        w = W.transpose(0, 1, 3, 2)
        assert np.all(w[off] == 0)
        assert np.all(np.abs(w[~off]).sum(axis=-1) > 0)

        solve = joint_wmmse.solve

        def leaky(*args, **kwargs):
            W, trace = solve(*args, **kwargs)
            l, k, s = np.argwhere(off)[0]
            W[l, k, 0, s] = 1e-300
            return W, trace

        monkeypatch.setattr(joint_wmmse, "solve", leaky)
        with pytest.raises(NumericsError):
            solve_streamwise(eff, cons, num_streams=2)

    def test_per_antenna_caps_honoured(self, default_effective):
        # the constraint set reaches the solver: every antenna meets its
        # cap, the support certificate holds, and the design differs from
        # the one under the per-satellite total of the same power
        rho = 10.0
        total = per_sat_total(np.full(4, rho), 64)
        antennas = per_antenna(np.full((4, 64), rho / 64))
        W_tot, assoc, _ = solve_streamwise(default_effective, total, num_streams=2)
        W_ant, assoc_ant, _ = solve_streamwise(default_effective, antennas,
                                               num_streams=2)
        np.testing.assert_array_equal(assoc.pi, assoc_ant.pi)
        assert np.all(residuals(W_ant, antennas)
                      <= 1e-5 * np.concatenate(antennas.caps))
        assert np.all(W_ant.transpose(0, 1, 3, 2)[_off_support(assoc, 4)] == 0)
        assert not np.allclose(W_ant, W_tot)
        # the total-power design overloads some antenna, so it would not do
        assert residuals(W_tot, antennas).max() > 0

    def test_se_parity_with_direct_evaluator(self, rng):
        # independent streamwise evaluator: build the received covariances
        # stream by stream from the assignment table
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        W, assoc, _ = solve_streamwise(eff, _caps(np.ones(3), 5), num_streams=2)
        noise = eff.noise_power_w
        via_joint = approx_se(W, eff)
        hbar = dense_links(eff)

        total = 0.0
        for k in range(2):
            sig = np.zeros((4, 4), complex)
            interf = noise * np.eye(4, dtype=complex)
            for i in range(2):
                for s in range(2):
                    l = assoc.pi[i, s]
                    g = hbar[l, k] @ W[l, i, :, s]
                    mat = np.outer(g, g.conj())
                    if i == k:
                        sig += mat
                    else:
                        interf += mat
            val = (np.linalg.slogdet(sig + interf)[1]
                   - np.linalg.slogdet(interf)[1]) / np.log(2)
            total += val
        assert via_joint.sum_se == pytest.approx(total, rel=1e-10)


class TestInitStreamwise:
    def _start(self, rng):
        eff = synthetic_effective(rng, L=4, K=3, M=3, N=5)
        # satellite 0 carries three users' streams, satellite 3 none
        assoc = StreamAssignment.from_pi(np.array([[0, 1], [0, 2], [1, 0]]), 4)
        _, directions = participation_factors(eff)
        rho = np.array([1.0, 2.0, 0.5, 3.0])
        return eff, assoc, rho, init_streamwise(eff, _caps(rho, 5), assoc,
                                                directions)

    def test_spends_each_cap_with_sqrt_beta_shares(self, rng):
        eff, assoc, rho, W = self._start(rng)
        assert W.shape == (4, 3, 5, 2)
        assert np.all(W[3] == 0)
        assert np.all(W.transpose(0, 1, 3, 2)[_off_support(assoc, 4)] == 0)
        power = np.sum(np.abs(W) ** 2, axis=2)                 # (L, K, S)
        for l in range(3):
            streams = list(zip(*np.nonzero(assoc.support[l])))
            root = np.sqrt(eff.beta[l, [k for k, _ in streams]])
            np.testing.assert_allclose([power[l, k, s] for k, s in streams],
                                       rho[l] * root / root.sum(), rtol=1e-12)
            assert power[l].sum() == pytest.approx(rho[l], rel=1e-12)

    def test_spends_smallest_cap_of_a_family(self, rng):
        # under per-antenna caps each satellite spends min_x rho_{l,x}, as
        # init_precoders does, so the start is feasible
        eff = synthetic_effective(rng, L=3, K=2, M=3, N=5)
        eta, directions = participation_factors(eff)
        assoc = associate(eta, 2)
        caps = rng.uniform(0.2, 1.0, (3, 5))
        W = init_streamwise(eff, per_antenna(caps), assoc, directions)
        for l in range(3):
            if assoc.support[l].any():
                assert np.sum(np.abs(W[l]) ** 2) == pytest.approx(caps[l].min(),
                                                                  rel=1e-12)

    def test_columns_follow_regularized_inverse(self, rng):
        eff, assoc, rho, W = self._start(rng)
        # the stream directions are the dense aggregate's left vectors
        agg = dense_aggregate(eff)
        for l in range(4):
            hb = dense_links(eff)[l]
            gram = eff.noise_power_w * np.eye(5) + sum(h.conj().T @ h for h in hb)
            for k, s in zip(*np.nonzero(assoc.support[l])):
                u = np.linalg.svd(agg[k])[0][:, s]
                raw = np.linalg.solve(gram, hb[k].conj().T @ u)
                col = W[l, k, :, s]
                # equal up to the singular vector's phase
                phase = np.vdot(raw, col) / abs(np.vdot(raw, col))
                np.testing.assert_allclose(
                    col, phase * np.linalg.norm(col) * raw / np.linalg.norm(raw),
                    rtol=1e-9, atol=1e-12)

    def test_is_share_rule_on_masked_aggregated_basis(self, rng):
        # the participation directions are the aggregated basis of the joint
        # start, so the streamwise start is that basis masked by the support
        eff, assoc, rho, W = self._start(rng)
        bases = np.linalg.svd(link_matrix(eff))[0][..., :2]
        masked = np.where(assoc.support[:, :, None, :], bases, 0.0)
        np.testing.assert_array_equal(
            W, joint_wmmse.share_rule(eff, rho, masked, eff.noise_power_w))

    def test_solver_starts_from_it(self, rng, monkeypatch):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        cons = _caps(np.ones(3), 5)
        seen = {}
        solve = joint_wmmse.solve

        def spy(*args, **kwargs):
            seen["initial"] = kwargs["initial"].copy()
            return solve(*args, **kwargs)

        monkeypatch.setattr(joint_wmmse, "solve", spy)
        _, assoc, _ = solve_streamwise(eff, cons, num_streams=2)
        _, directions = participation_factors(eff)
        np.testing.assert_array_equal(seen["initial"],
                                      init_streamwise(eff, cons, assoc, directions))
