from dataclasses import replace

import numpy as np
import pytest

from satmimo import (InfeasibleError, ValidationError, approx_se, exact_se_mc, mc_rng,
                     mmse_baseline, per_sat_total, random_association,
                     solve_streamwise, tdma_mrt_baseline, zf_baseline)
from satmimo.joint_wmmse import init_precoders, solve
from satmimo.power import residuals
from satmimo.streamwise import associate, init_streamwise, participation_factors
from tests.conftest import dense_exact_se, dense_links, synthetic_effective


class TestMmseBaseline:
    def test_equals_initializer(self, default_effective, default_config):
        rho = np.full(4, 7.0)
        W = mmse_baseline(default_effective, rho, default_config.S)
        cons = per_sat_total(rho, default_config.N)
        np.testing.assert_array_equal(W, init_precoders(default_effective, cons,
                                                        default_config.S))

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_rejects_nonpositive_cap(self, default_effective, rho):
        with pytest.raises(ValidationError):
            mmse_baseline(default_effective, rho, 2)

    def test_exhausts_power(self, default_effective):
        W = mmse_baseline(default_effective, np.full(4, 3.0), 2)
        for l in range(4):
            assert np.sum(np.abs(W[l]) ** 2) == pytest.approx(3.0, rel=1e-10)

    def test_phase_is_minus_regularized_inverse(self, default_effective):
        # the phase the exact SE rests on is explicit: user k's column 0 is
        # -sqrt(share) G^{-1} conj(a_{l,k}) / ||.||, G from the dense links
        eff = default_effective
        rho = np.full(4, 7.0)
        W = mmse_baseline(eff, rho, 2)
        hb = dense_links(eff)
        for l in range(4):
            gram = eff.noise_power_w * np.eye(64) + sum(
                h.conj().T @ h for h in hb[l])
            root = np.sqrt(eff.beta[l])
            for k in range(2):
                d = np.linalg.solve(gram, eff.a[l, k].conj())
                share = rho[l] * root[k] / root.sum()
                np.testing.assert_allclose(
                    W[l, k, :, 0], -np.sqrt(share) * d / np.linalg.norm(d),
                    rtol=1e-12)

    def test_dominated_by_solver(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=5)
        rho = np.full(2, 2.0)
        W_b = mmse_baseline(eff, rho, 2)
        W_s, _ = solve(eff, per_sat_total(rho, 5), num_streams=2)
        assert approx_se(W_s, eff).sum_se >= approx_se(W_b, eff).sum_se


class TestZfBaseline:
    def test_feasible(self, default_effective):
        W = zf_baseline(default_effective, np.full(4, 2.0), 2)
        cons = per_sat_total(np.full(4, 2.0), 64)
        assert residuals(W, cons).max() <= 1e-10 * 2.0

    def test_cross_user_leakage_nulled(self, default_effective):
        W = zf_baseline(default_effective, np.full(4, 2.0), 2)
        L, K, M, N = default_effective.shape
        sig = 0.0
        leak = 0.0
        hbar = dense_links(default_effective)
        for l in range(L):
            for k in range(K):
                for i in range(K):
                    g = np.linalg.norm(hbar[l, k] @ W[l, i])
                    if i == k:
                        sig += g
                    else:
                        leak += g
        assert leak < 1e-8 * sig

    def test_single_user_matches_direction(self, rng):
        # with K = 1 there is nothing to null: the zero-forcing direction is
        # the matched (regularization-free MMSE) one
        eff = synthetic_effective(rng, L=1, K=1, M=3, N=5)
        W = zf_baseline(eff, np.array([1.5]), 1)
        a = eff.a[0, 0].conj()
        corr = abs(np.vdot(W[0, 0, :, 0], a)) / (
            np.linalg.norm(W[0, 0, :, 0]) * np.linalg.norm(a))
        assert corr == pytest.approx(1.0, abs=1e-10)

    def test_more_users_than_antennas_warns_and_spends_cap(self, rng):
        # K > N: the user rows cannot be nulled, so the ridge path runs; the
        # share rule still spends every cap exactly
        eff = synthetic_effective(rng, L=2, K=3, M=3, N=2)
        rho = np.array([1.5, 0.7])
        with pytest.warns(UserWarning, match="ridge-regularized"):
            W = zf_baseline(eff, rho, 2)
        assert np.all(np.isfinite(W))
        power = np.sum(np.abs(W) ** 2, axis=(2, 3))
        np.testing.assert_allclose(power.sum(axis=1), rho, rtol=1e-12)
        root = np.sqrt(eff.beta)
        np.testing.assert_allclose(
            power, rho[:, None] * root / root.sum(axis=1, keepdims=True),
            rtol=1e-12)

    def test_shared_direction_warns_and_spends_cap(self, rng):
        # K <= N, but both users see satellite 0 along one a: its K x K Gram
        # is singular, so that satellite alone takes the ridge path, and the
        # share rule still spends every cap exactly
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4)
        a = eff.a.copy()
        a[0, 1] = a[0, 0]
        eff = replace(eff, a=a)
        rho = np.array([1.5, 0.7])
        with pytest.warns(UserWarning, match="ridge-regularized") as caught:
            W = zf_baseline(eff, rho, 2)
        assert [str(w.message).split(":")[0] for w in caught] == ["satellite 0"]
        assert np.all(np.isfinite(W))
        power = np.sum(np.abs(W) ** 2, axis=(2, 3))
        np.testing.assert_allclose(power.sum(axis=1), rho, rtol=1e-12)


class TestClosedFormStructure:
    def test_no_linalg_call_sees_an_antenna_dimension(self, monkeypatch):
        # every closed form works on K x K or M x L matrices only: no dense
        # factorization or solve is handed an array with an N = 64 axis
        from satmimo import ScenarioConfig, effective_channels, sample_geometry
        cfg = replace(ScenarioConfig(), L=8)
        eff = effective_channels(
            sample_geometry(cfg, np.random.default_rng(0)), cfg)
        rho = np.full(8, 10.0)
        cons = per_sat_total(rho, cfg.N)
        eta, directions = participation_factors(eff)
        assignment = associate(eta, cfg.S)
        seen = []
        for name in ("solve", "inv", "pinv", "svd", "eigvalsh", "eigh"):
            def spy(*args, _name=name, _call=getattr(np.linalg, name), **kw):
                seen.append((_name, max(max(np.shape(x), default=0)
                                        for x in args + tuple(kw.values()))))
                return _call(*args, **kw)
            monkeypatch.setattr(np.linalg, name, spy)
        mmse_baseline(eff, rho, cfg.S)
        zf_baseline(eff, rho, cfg.S)
        init_precoders(eff, cons, cfg.S, stream_basis="aggregated")
        init_streamwise(eff, cons, assignment, directions)
        assert {name for name, _ in seen} >= {"inv", "eigvalsh", "svd"}
        assert max(dim for _, dim in seen) < cfg.N, seen


class TestTdmaMrt:
    def test_single_user_no_penalty(self, rng):
        # one user, one slot: the full-time evaluation on the same draw
        eff = synthetic_effective(rng, L=2, K=1, M=3, N=4)
        rho = np.full(2, 1.0)
        rep = tdma_mrt_baseline(eff, rho, per_sat_total(rho, 4), 1e-5, 200,
                                np.random.default_rng(3))
        from satmimo.baselines import tdma_mrt_precoders
        _, W = tdma_mrt_precoders(eff, np.full(2, 1.0))[0]
        solo = exact_se_mc(W, eff, 200, np.random.default_rng(3)).sum_se
        assert rep.sum_se == pytest.approx(solo, rel=1e-12)

    def test_two_users_half_of_scheduled(self, default_effective):
        # each slot's user alone, on the slot's own draw, times 1/K
        rho = np.full(4, 10.0)
        rep = tdma_mrt_baseline(default_effective, rho, per_sat_total(rho, 64),
                                1e-5, 200, np.random.default_rng(3))
        from satmimo.baselines import tdma_mrt_precoders
        ref_rng = np.random.default_rng(3)
        for k, (_, W) in enumerate(tdma_mrt_precoders(default_effective, rho)):
            solo = exact_se_mc(W, default_effective, 200,
                               ref_rng).per_user_se[k]
            assert rep.per_user_se[k] == pytest.approx(solo / 2, rel=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 6])
    def test_exact_matches_full_evaluation(self, K):
        # the scheduled user alone against the dense evaluation of all K
        # users on the same per-slot draw, keeping user k
        rng = np.random.default_rng(4)
        eff = synthetic_effective(rng, L=3, K=K, M=2, N=5)
        from satmimo.baselines import tdma_mrt_precoders
        rho = np.full(3, 2.0)
        rep = tdma_mrt_baseline(eff, rho, per_sat_total(rho, 5), 1e-5, 50,
                                np.random.default_rng(8))
        ref_rng = np.random.default_rng(8)
        ref = [dense_exact_se(W, eff, 50, ref_rng)[k].mean() / K
               for k, (_, W) in enumerate(tdma_mrt_precoders(eff, rho))]
        np.testing.assert_allclose(rep.per_user_se, ref, rtol=1e-12, atol=0)
        assert rep.trials_used == 50

    def test_slot_synthesises_only_its_link(self, monkeypatch):
        # each slot reads one link out of L*K: its streamed draw over more
        # than one trial chunk keeps only the serving satellite's gains of
        # the scheduled user, and the SE still matches the dense evaluation
        from satmimo import se_eval
        from satmimo.baselines import tdma_mrt_precoders
        L, K = 3, 4
        eff = synthetic_effective(np.random.default_rng(4), L=L, K=K, M=2, N=5)
        rho = np.full(L, 2.0)
        trials = se_eval._TRIAL_CHUNK + 1
        seen = []
        sample_pair_gains = se_eval.sample_pair_gains

        def record(beta, kappa, rng, num_trials, pairs):
            seen.append(([divmod(int(p), K)[::-1] for p in pairs], num_trials))
            return sample_pair_gains(beta, kappa, rng, num_trials, pairs)

        monkeypatch.setattr(se_eval, "sample_pair_gains", record)
        rep = tdma_mrt_baseline(eff, rho, per_sat_total(rho, 5), 1e-5, trials,
                                np.random.default_rng(8))
        sets = tdma_mrt_precoders(eff, rho)
        assert seen == [([(k, l)], trials) for k, (l, _) in enumerate(sets)]
        ref_rng = np.random.default_rng(8)
        ref = [dense_exact_se(W, eff, trials, ref_rng)[k].mean() / K
               for k, (_, W) in enumerate(sets)]
        np.testing.assert_allclose(rep.per_user_se, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trials,noise_scale", [(0, 1.0), (10, 0.0)],
                             ids=["no-trials", "no-noise"])
    def test_estimator_validated(self, default_effective, trials, noise_scale):
        eff = replace(default_effective,
                      noise_power_w=noise_scale * default_effective.noise_power_w)
        rho = np.full(4, 1.0)
        with pytest.raises(ValueError):
            tdma_mrt_baseline(eff, rho, per_sat_total(rho, 64), 1e-5, trials,
                              np.random.default_rng(0))

    def test_serves_from_strongest_gain(self, default_effective, default_links):
        from satmimo.baselines import tdma_mrt_precoders
        sets = tdma_mrt_precoders(default_effective, np.full(4, 1.0))
        for k, (l, W) in enumerate(sets):
            assert l == int(np.argmax(default_links.beta[:, k]))
            active = np.sum(np.abs(W) ** 2, axis=(1, 2, 3))
            assert active[l] > 0
            assert np.sum(active) == pytest.approx(active[l])

    def test_well_below_solver(self, default_effective):
        rho = np.full(4, 100.0)
        rep = tdma_mrt_baseline(default_effective, rho, per_sat_total(rho, 64),
                                1e-5, 500, mc_rng(0, 0))
        W, _ = solve(default_effective, per_sat_total(rho, 64), num_streams=2)
        se = approx_se(W, default_effective).sum_se
        assert rep.sum_se < 0.5 * se


class TestRandomAssociation:
    def test_single_option(self):
        assoc = random_association(np.random.default_rng(0), 1, 1, 2)
        np.testing.assert_array_equal(assoc.pi, [[0], [0]])

    def test_more_streams_than_satellites_infeasible(self):
        # the same error as associate, so a sweep turns it into an error row
        with pytest.raises(InfeasibleError):
            random_association(np.random.default_rng(0), 3, 2, 1)

    def test_uniform_over_injections(self):
        # S = 2 of L = 3 satellites: 6 equally likely ordered injections
        rng = np.random.default_rng(42)
        counts = {}
        n = 10_000
        for _ in range(n):
            pi = tuple(random_association(rng, 2, 3, 1).pi[0])
            counts[pi] = counts.get(pi, 0) + 1
        assert len(counts) == 6
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 5 degrees of freedom: the 1% critical value is 15.09
        assert chi2 < 15.09

    def test_proposed_beats_random_on_average(self):
        # users with distinct geometry: the matched association wins
        from satmimo import ScenarioConfig, effective_channels, sample_geometry
        cfg = replace(ScenarioConfig(), L=8, N=16, azimuth_drift_deg=60.0,
                      elevation_drift_deg=20.0)
        wins = 0.0
        seeds = 50
        for seed in range(seeds):
            geo = sample_geometry(cfg, np.random.default_rng(seed))
            eff = effective_channels(geo, cfg)
            caps = per_sat_total(np.full(8, 100.0), cfg.N)
            assoc = random_association(
                np.random.default_rng(np.random.SeedSequence([seed, 1])),
                cfg.S, cfg.L, cfg.K)
            sw_p, _, _ = solve_streamwise(eff, caps, num_streams=cfg.S)
            sw_r, _, _ = solve_streamwise(eff, caps, num_streams=cfg.S,
                                          assignment=assoc)
            wins += (approx_se(sw_p, eff).sum_se
                     - approx_se(sw_r, eff).sum_se)
        assert wins / seeds > 0
