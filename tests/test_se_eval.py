import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from satmimo import (NumericsError, ScenarioConfig, approx_se,
                     effective_channels, exact_se_mc, mc_rng, per_sat_total,
                     sample_geometry, solve_streamwise, tdma_mrt_baseline)
from satmimo.baselines import mmse_baseline, tdma_mrt_precoders
from satmimo.channel import sample_gamma, sample_pair_gains
from satmimo.joint_wmmse import init_precoders
from satmimo import se_eval
from satmimo.se_eval import (_MAX_MINOR_COLUMNS, _TRIAL_CHUNK, _ldl_pivots,
                             exact_se_trials)
from tests.conftest import (crandn, dense_approx_se, dense_exact_se,
                            mp_rician_errors, mp_user_se, synthetic_effective)


def _links_for(config, seed=0):
    return sample_geometry(config, np.random.default_rng(seed))


# (M, S) with S in {1, 2, M}, S <= M
_SHAPES = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)]


class TestZeroAndErrors:
    def test_zero_precoders_zero_se(self, default_config, default_effective):
        W = np.zeros((default_config.L, default_config.K, default_config.N,
                      default_config.S), complex)
        assert approx_se(W, default_effective).sum_se == 0.0
        rep = exact_se_mc(W, default_effective, 10, np.random.default_rng(0))
        assert rep.sum_se == 0.0
        assert rep.trials_used == 10

    def test_nonpositive_noise_rejected(self, default_effective):
        W = np.zeros((4, 2, 64, 2), complex)
        with pytest.raises(ValueError):
            approx_se(W, replace(default_effective, noise_power_w=0.0))
        with pytest.raises(ValueError):
            exact_se_mc(W, replace(default_effective, noise_power_w=-1.0), 5,
                        np.random.default_rng(0))

    def test_trials_validated(self, default_effective):
        W = np.zeros((4, 2, 64, 2), complex)
        with pytest.raises(ValueError):
            exact_se_mc(W, default_effective, 0, np.random.default_rng(0))


class TestSingleLinkClosedForm:
    def test_pure_los_matched_filter(self):
        # K = L = S = 1 with a huge Rician factor: the per-trial SE collapses
        # to log2(1 + beta*N*M*rho/noise) for a matched-filter precoder
        cfg = ScenarioConfig(L=1, K=1, N=8, M=4, S=1, rician_factor_db=150.0)
        links = _links_for(cfg, seed=1)
        eff = effective_channels(links, cfg)
        rho = 3.0
        w = np.sqrt(rho) * eff.a[0, 0].conj()[:, None] / np.linalg.norm(eff.a[0, 0])
        W = w[None, None, :, :]
        noise = links.noise_power_w
        expect = np.log2(1 + links.beta[0, 0] * cfg.N * cfg.M * rho / noise)
        got = exact_se_mc(W, eff, 200, np.random.default_rng(2))
        assert got.sum_se == pytest.approx(expect, rel=1e-6)
        # and the deterministic estimator agrees in this degenerate case
        assert approx_se(W, eff).sum_se == pytest.approx(expect, rel=1e-12)


class TestApproxProperties:
    def test_per_link_phase_invariance(self, rng):
        eff = synthetic_effective(rng, L=3, K=2, M=4, N=5)
        W = crandn(rng, 3, 2, 5, 2)
        eff = replace(eff, noise_power_w=0.7)
        base = approx_se(W, eff)
        W2 = W.copy()
        W2[1, 0] *= np.exp(1j * 0.83)
        W2[2, 1] *= np.exp(-1j * 1.2)
        rotated = approx_se(W2, eff)
        assert rotated.sum_se == pytest.approx(base.sum_se, rel=1e-10)
        np.testing.assert_allclose(rotated.per_user_se, base.per_user_se, rtol=1e-10)

    @pytest.mark.parametrize("angle", [np.pi / 2, np.pi])
    def test_exact_se_not_phase_invariant(self, angle, default_config,
                                          default_effective):
        # user k gets every user's streams from satellite l through one gain
        # gamma_{l,k}, so the exact SE sees the phase of satellite l's
        # precoder to one user relative to the others, which the
        # approximation (W W^H per link) cannot: the mmse baseline's exact
        # SE rests on the phase convention of its link bases
        W = mmse_baseline(default_effective, np.full(default_config.L, 1000.0),
                          default_config.S)
        W2 = W.copy()
        W2[0, 1] *= np.exp(1j * angle)
        assert approx_se(W2, default_effective).sum_se == pytest.approx(
            approx_se(W, default_effective).sum_se, rel=1e-10)
        base = exact_se_mc(W, default_effective, 2000, mc_rng(0, 0))
        rotated = exact_se_mc(W2, default_effective, 2000, mc_rng(0, 0))
        stderr = np.hypot(base.sum_se_stderr, rotated.sum_se_stderr)
        assert abs(rotated.sum_se - base.sum_se) > 10 * stderr

    def test_report_fields(self, rng):
        eff = synthetic_effective(rng, noise=1.0)
        W = crandn(rng, 3, 2, 6, 2)
        rep = approx_se(W, eff)
        assert rep.estimator_kind == "approx"
        assert rep.sum_se == pytest.approx(rep.per_user_se.sum())
        assert np.all(rep.per_user_se >= 0)


class TestExactMcProperties:
    def test_deterministic_given_generator(self, rng):
        eff = synthetic_effective(rng, L=2, K=2, M=3, N=4, noise=1.0)
        W = crandn(rng, 2, 2, 4, 2)
        a = exact_se_mc(W, eff, 500, np.random.default_rng(3)).sum_se
        b = exact_se_mc(W, eff, 500, np.random.default_rng(3)).sum_se
        assert a == b

    def test_monotone_in_snr(self, default_config, default_effective):
        W = mmse_baseline(default_effective, np.full(default_config.L, 10.0),
                          default_config.S)
        quiet = replace(default_effective,
                        noise_power_w=default_effective.noise_power_w / 4)
        # common random numbers: identical gamma draws for both noise levels
        lo = exact_se_mc(W, default_effective, 400, mc_rng(0, 0)).sum_se
        hi = exact_se_mc(W, quiet, 400, mc_rng(0, 0)).sum_se
        assert hi > lo

    def test_standard_error_shrinks_with_trials(self, default_config,
                                                default_effective):
        W = mmse_baseline(default_effective, np.full(default_config.L, 100.0),
                          default_config.S)

        def batch_std(trials, reps):
            vals = [exact_se_mc(W, default_effective, trials,
                                np.random.default_rng(100 + r)).sum_se
                    for r in range(reps)]
            return np.std(vals)

        s_small = batch_std(50, 12)
        s_big = batch_std(800, 12)
        # 16x the trials should shrink the std about 4x; allow a loose band
        assert s_big < s_small / 1.8


class TestAgainstDenseOracle:
    """The structured evaluator against the dense per-trial einsum and
    Cholesky evaluator kept in conftest, on identical gain draws."""

    @staticmethod
    def _instance(K, M, S, seed=0):
        rng = np.random.default_rng(seed)
        eff = synthetic_effective(rng, L=3, K=K, M=M, N=5)
        W = crandn(rng, 3, K, 5, S)
        if K > 1:
            W[:, 0] = 0.0               # a user with all-zero precoders
        if S > 1:
            W[:, K - 1, :, S - 1] = 0.0  # and a silent stream
        return eff, W

    @pytest.mark.parametrize("K", [1, 2, 6])
    @pytest.mark.parametrize("M,S", _SHAPES)
    def test_exact_matches_dense(self, K, M, S):
        eff, W = self._instance(K, M, S)
        rep = exact_se_mc(W, eff, 64, np.random.default_rng(5))
        ref = dense_exact_se(W, eff, 64, np.random.default_rng(5))
        np.testing.assert_allclose(rep.per_user_se, ref.mean(axis=1),
                                   rtol=1e-12, atol=0)
        assert rep.sum_se == pytest.approx(ref.mean(axis=1).sum(), rel=1e-12)
        if K > 1:
            assert rep.per_user_se[0] == 0.0

    @pytest.mark.parametrize("K", [1, 2, 6])
    @pytest.mark.parametrize("M,S", _SHAPES)
    def test_approx_matches_dense(self, K, M, S):
        eff, W = self._instance(K, M, S, seed=1)
        rep = approx_se(W, eff)
        np.testing.assert_allclose(rep.per_user_se,
                                   dense_approx_se(W, eff),
                                   rtol=1e-12, atol=0)

    def test_generator_advances_by_one_draw(self):
        eff, W = self._instance(2, 4, 2)
        rng = np.random.default_rng(9)
        exact_se_mc(W, eff, 37, rng)
        ref = np.random.default_rng(9)
        sample_gamma(eff.beta, eff.kappa, ref, trials=37)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_tdma_advances_by_one_draw_per_user(self):
        eff, _ = self._instance(6, 2, 2)
        rng = np.random.default_rng(9)
        rho = np.full(3, 2.0)
        tdma_mrt_baseline(eff, rho, per_sat_total(rho, 5), 1e-5, 37, rng)
        ref = np.random.default_rng(9)
        for _ in range(6):
            sample_gamma(eff.beta, eff.kappa, ref, trials=37)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestHighPrecisionOracle:
    """Both estimators against a 50-digit log det (conftest.mp_user_se) on
    the approximation study's designs: aggregated MMSE with S = M streams
    per user on the default geometry, so every user receives J = K M > M
    columns. The float oracles above lose accuracy with the SNR, so they
    cannot check this."""

    @staticmethod
    def _design(config, effective, dbw):
        rho = np.full(config.L, 10 ** (dbw / 10))
        return init_precoders(effective, per_sat_total(rho, config.N),
                              config.M, stream_basis="aggregated")

    def test_approx(self, default_config, default_effective):
        for dbw in default_config.power_cap_dbw_grid:
            W = self._design(default_config, default_effective, dbw)
            got = approx_se(W, default_effective).per_user_se
            ref = [mp_user_se(W, default_effective, k)
                   for k in range(default_config.K)]
            np.testing.assert_allclose(got, ref, rtol=5e-14, atol=0)

    def test_trials_of_antenna_space_users(self, default_config,
                                           default_effective):
        K, T = default_config.K, 6
        gamma = sample_gamma(default_effective.beta, default_effective.kappa,
                             np.random.default_rng(0), trials=T)
        for dbw in (-10.0, 30.0):
            W = self._design(default_config, default_effective, dbw)
            got = exact_se_trials(W, default_effective, T,
                                  np.random.default_rng(0), range(K))
            ref = [[mp_user_se(W, default_effective, k, gamma[t, :, k])
                    for t in range(T)] for k in range(K)]
            np.testing.assert_allclose(got, ref, rtol=5e-14, atol=0)


class TestLiveLinkSynthesis:
    """Gains synthesised only on the links a user reads, and evaluation in
    trial chunks, against sample_gamma and the dense oracle."""

    def test_gains_bitwise_equal_sample_gamma(self):
        # the streamed pass keeps bitwise the sample_gamma entries of the
        # requested pairs, in the order asked (a repeat included), over a
        # partial last chunk
        L, K, T = 5, 3, 2 * _TRIAL_CHUNK + 5
        eff = synthetic_effective(np.random.default_rng(0), L=L, K=K)
        live = np.array([0, 2, 3])
        gamma = sample_gamma(eff.beta, eff.kappa, np.random.default_rng(6),
                             trials=T)
        for k in range(K):
            assert np.array_equal(
                sample_pair_gains(eff.beta, eff.kappa,
                                  np.random.default_rng(6), T, live * K + k),
                gamma[:, live, k])
        pairs = [7, 0, 14, 7]
        assert np.array_equal(
            sample_pair_gains(eff.beta, eff.kappa,
                              np.random.default_rng(6), T, pairs),
            gamma.reshape(T, L * K)[:, pairs])

    @staticmethod
    def _check_against_dense(W, eff, trials, users=None):
        K = eff.shape[1]
        users = range(K) if users is None else users
        got = exact_se_trials(W, eff, trials, np.random.default_rng(3), users)
        ref = dense_exact_se(W, eff, trials, np.random.default_rng(3))[list(users)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        return got

    def test_silent_satellite(self):
        rng = np.random.default_rng(1)
        eff = synthetic_effective(rng, L=4, K=3, M=2, N=5)
        W = crandn(rng, 4, 3, 5, 2)
        W[2] = 0.0
        self._check_against_dense(W, eff, 300)

    def test_user_with_every_link_dead(self):
        # user 1 sees antenna 0 only and no satellite radiates from it: no
        # stream reaches user 1, so its gains are never synthesised
        rng = np.random.default_rng(2)
        eff = synthetic_effective(rng, L=3, K=3, M=2, N=4)
        a = eff.a.copy()
        a[:, 1] = 0.0
        a[:, 1, 0] = 1.0
        eff = replace(eff, a=a)
        W = crandn(rng, 3, 3, 4, 2)
        W[:, :, 0] = 0.0
        got = self._check_against_dense(W, eff, 300)
        assert np.all(got[1] == 0.0)
        assert np.all(got[[0, 2]] > 0)

    def test_tdma_single_link_slot(self):
        eff = synthetic_effective(np.random.default_rng(3), L=3, K=4, M=2, N=5)
        for k, (_, W) in enumerate(tdma_mrt_precoders(eff, np.full(3, 2.0))):
            self._check_against_dense(W, eff, 300, users=[k])

    @pytest.mark.parametrize("trials", [1, _TRIAL_CHUNK - 1, _TRIAL_CHUNK,
                                        _TRIAL_CHUNK + 1, 2 * _TRIAL_CHUNK + 3])
    def test_trial_chunks(self, trials):
        rng = np.random.default_rng(4)
        eff = synthetic_effective(rng, L=3, K=2, M=2, N=4)
        W = crandn(rng, 3, 2, 4, 2)
        self._check_against_dense(W, eff, trials)

    @staticmethod
    def _peak_growth(W, eff, users):
        """Growth of the traced peak memory from 20 000 to 40 000 trials,
        after one untraced call of each size has filled numpy's one-time
        caches."""
        def run(trials):
            exact_se_trials(W, eff, trials, np.random.default_rng(0), users)

        def peak(trials):
            tracemalloc.start()
            try:
                run(trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(20_000)
        run(40_000)
        return peak(40_000) - peak(20_000)

    def test_memory_bounded_by_draws_and_gains(self):
        # at L = 8, K = 6 with every link live, doubling T may add only the
        # kept gains (16 bytes per trial, link and user) and the output
        # (8 bytes per trial and user, 1 byte per trial, link and user at
        # L = 8): the
        # draw is streamed through one chunk buffer and the evaluation
        # temporaries must not grow with T
        L, K, M, N, S = 8, 6, 4, 6, 2
        rng = np.random.default_rng(5)
        eff = synthetic_effective(rng, L=L, K=K, M=M, N=N)
        W = crandn(rng, L, K, N, S)
        growth = self._peak_growth(W, eff, range(K))
        assert growth <= 18 * 20_000 * L * K

    def test_memory_bounded_by_live_pairs(self):
        # only satellites 0 and 1 carry a stream, so 2 K of the L K pairs are
        # live: doubling T may add 16 bytes per live (trial, pair) and
        # 8 bytes per (trial, user) of output, nothing per dead pair
        L, K, M, N, S = 8, 6, 4, 6, 2
        rng = np.random.default_rng(5)
        eff = synthetic_effective(rng, L=L, K=K, M=M, N=N)
        W = crandn(rng, L, K, N, S)
        W[2:] = 0.0
        growth = self._peak_growth(W, eff, range(K))
        assert growth <= (16 * 2 * K + 8 * K) * 20_000


def _same_state(a, b):
    """Bit-generator states equal entry by entry (MT19937 keeps an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key])
                                            for key in a)
    return np.array_equal(a, b)


_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.SFC64,
                   np.random.Philox]


class TestStreamedDraw:
    """sample_pair_gains against the Rician formula applied to an explicit
    full draw from the same generator state: every phase, then every real
    normal, then every imaginary normal."""

    L, K = 3, 4

    @staticmethod
    def _full_draw(beta, kappa, rng, trials):
        shape = (trials,) + beta.shape
        psi = rng.uniform(0.0, 2 * np.pi, size=shape)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        los = np.sqrt(beta * kappa / (kappa + 1.0))
        nlos = np.sqrt(beta / (2.0 * (kappa + 1.0)))
        gamma = np.empty(shape, complex)
        gamma.real = los * np.cos(psi) + nlos * x
        gamma.imag = los * np.sin(psi) + nlos * y
        return gamma.reshape(trials, -1)

    def _channel(self):
        eff = synthetic_effective(np.random.default_rng(1), L=self.L,
                                  K=self.K, M=2, N=3)
        return eff

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    @pytest.mark.parametrize("trials", [1, _TRIAL_CHUNK - 1, _TRIAL_CHUNK,
                                        _TRIAL_CHUNK + 1, 2 * _TRIAL_CHUNK + 3])
    def test_matches_full_draw(self, bit_generator, trials):
        # the walk consumes the full draw's variates: the generator ends
        # where the full draw leaves it; a pair's gain is bitwise the same
        # whichever other pairs, in whatever order, the walk keeps; and each
        # gain is within 4 eps (los + nlos (|x| + |y|)) of the Rician
        # formula on its variates at 50 digits, a bound that the formula
        # with libm's cos and sin of 2 pi u (_full_draw) meets too
        eff = self._channel()
        ref_rng = np.random.Generator(bit_generator(21))
        libm = self._full_draw(eff.beta, eff.kappa, ref_rng, trials)
        var_rng = np.random.Generator(bit_generator(21))
        shape = (trials, self.L * self.K)
        u, x, y = (var_rng.random(shape), var_rng.standard_normal(shape),
                   var_rng.standard_normal(shape))
        assert _same_state(var_rng.bit_generator.state,
                           ref_rng.bit_generator.state)
        every = None
        for pairs in (range(self.L * self.K), [5, 0, 11, 5], []):
            rng = np.random.Generator(bit_generator(21))
            got = sample_pair_gains(eff.beta, eff.kappa, rng, trials, pairs)
            every = got if every is None else every
            assert got.shape == (trials, len(pairs))
            assert np.array_equal(got, every[:, list(pairs)])
            assert _same_state(rng.bit_generator.state,
                               ref_rng.bit_generator.state)
        # the 50-digit check on every trial next to a chunk edge and on a
        # stride of the rest
        edges = np.arange(0, trials + 1, _TRIAL_CHUNK)
        rows = np.unique(np.concatenate(
            [edges - 1, edges, edges + 1, np.arange(0, trials, 97),
             [trials - 1]]).clip(0, trials - 1))
        beta, kappa = eff.beta.ravel(), eff.kappa.ravel()
        los = np.sqrt(beta * kappa / (kappa + 1.0))
        nlos = np.sqrt(beta / (2.0 * (kappa + 1.0)))
        bound = 4 * np.finfo(float).eps * (
            los + nlos * (np.abs(x[rows]) + np.abs(y[rows])))
        for err in mp_rician_errors(beta, kappa, u[rows], x[rows], y[rows],
                                    every[rows], libm[rows]):
            assert np.all(err <= bound)

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
    def test_no_live_pair_advances_one_full_draw(self, bit_generator):
        # no user listed, or every precoder zero: nothing is kept, and the
        # generator still ends after one full (T, L, K) draw
        eff = self._channel()
        trials = _TRIAL_CHUNK + 1
        ref_rng = np.random.Generator(bit_generator(3))
        self._full_draw(eff.beta, eff.kappa, ref_rng, trials)
        W = np.zeros((self.L, self.K, 3, 2), complex)
        for users in ([], range(self.K)):
            rng = np.random.Generator(bit_generator(3))
            got = exact_se_trials(W, eff, trials, rng, users)
            assert got.shape == (len(users), trials)
            assert np.all(got == 0.0)
            assert _same_state(rng.bit_generator.state,
                               ref_rng.bit_generator.state)

    def test_pair_out_of_range(self):
        eff = self._channel()
        with pytest.raises(ValueError):
            sample_pair_gains(eff.beta, eff.kappa,
                              np.random.default_rng(0), 5, [self.L * self.K])


class TestStandardError:
    def test_tracks_spread_over_seeds(self, default_config, default_effective):
        # the reported standard error against the spread of sum_se over
        # independent generators (40 seeds: about 11% sampling error)
        rho = np.full(default_config.L, 100.0)
        W = mmse_baseline(default_effective, rho, default_config.S)
        for evaluate in (
                lambda rng: exact_se_mc(W, default_effective, 100, rng),
                lambda rng: tdma_mrt_baseline(
                    default_effective, rho, per_sat_total(rho, default_config.N),
                    1e-5, 100, rng)):
            reps = [evaluate(np.random.default_rng(500 + s)) for s in range(40)]
            spread = np.std([r.sum_se for r in reps], ddof=1)
            stderr = np.mean([r.sum_se_stderr for r in reps])
            assert 0.6 < stderr / spread < 1.6

    def test_deterministic_and_single_trial(self, default_effective):
        W = mmse_baseline(default_effective, np.full(4, 10.0), 2)
        assert approx_se(W, default_effective).sum_se_stderr == 0.0
        one = exact_se_mc(W, default_effective, 1, np.random.default_rng(0))
        assert np.isnan(one.sum_se_stderr)


class TestLogDetChecks:
    def test_nan_precoders_raise(self, default_effective):
        W = mmse_baseline(default_effective, np.full(4, 10.0), 2)
        W[1, 0, 3, 0] = np.nan
        with pytest.raises(NumericsError):
            exact_se_mc(W, default_effective, 20, np.random.default_rng(0))
        with pytest.raises(NumericsError):
            approx_se(W, default_effective)

    def test_indefinite_gram_raises(self):
        # [[1, 2], [2, 1]] has eigenvalues 3 and -1: the second pivot is -3
        gram = np.zeros((2, 2, 3), complex)
        gram[0, 0] = gram[1, 1] = 1.0
        gram[1, 0] = 2.0
        with pytest.raises(NumericsError, match="pivot 1"):
            _ldl_pivots(gram)

    def test_matches_dense_logdet(self, rng):
        a = crandn(rng, 7, 4, 6)
        mats = a @ a.conj().transpose(0, 2, 1) + 0.1 * np.eye(4)
        lower = np.tril(mats).transpose(1, 2, 0)
        np.testing.assert_allclose(np.log(_ldl_pivots(lower)).sum(axis=0),
                                   np.linalg.slogdet(mats)[1], rtol=1e-13)


class TestKernelSpaces:
    """_se_bits factors the J x J stream-space Gram once when a user
    receives J <= M live columns and the two M x M antenna-space Grams when
    J > M; both against the dense oracle."""

    M = 4

    @staticmethod
    def _instance(streams, seed=7):
        rng = np.random.default_rng(seed)
        eff = synthetic_effective(rng, L=3, K=2, M=TestKernelSpaces.M, N=5)
        return eff, crandn(rng, 3, 2, 5, streams)

    @staticmethod
    def _spy(monkeypatch):
        # _stream_gram builds both spaces' Grams: stream-space input is
        # (M, J, T), the user's antennas first; antenna-space input is the
        # transposed (J', M, T) part, here with J' < M columns
        spaces = []
        gram = se_eval._stream_gram

        def record(cols, noise):
            spaces.append("stream" if cols.shape[0] == TestKernelSpaces.M
                          else "antenna")
            return gram(cols, noise)

        monkeypatch.setattr(se_eval, "_stream_gram", record)
        return spaces

    @pytest.mark.parametrize("J", [M - 1, M, M + 1])
    def test_columns_around_antenna_count(self, monkeypatch, J):
        # user 1 keeps 2 of its 3 streams and user 0 keeps J - 2: user 1
        # receives J live columns, J_other = J - 2 of them interference
        eff, W = self._instance(3)
        W[:, 1, :, 2] = 0.0
        W[:, 0, :, J - 2:] = 0.0
        spaces = self._spy(monkeypatch)
        trials = _TRIAL_CHUNK + 5
        got = exact_se_trials(W, eff, trials, np.random.default_rng(3), [1])
        ref = dense_exact_se(W, eff, trials, np.random.default_rng(3))[[1]]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert set(spaces) == {"stream" if J <= self.M else "antenna"}

    @pytest.mark.parametrize("streams", [1, 4])
    def test_no_interference(self, monkeypatch, streams):
        # user 0 silent: user 1 hears only its own streams (J_other = 0) and
        # user 0 hears interference only, so its SE is exactly 0
        eff, W = self._instance(streams)
        W[:, 0] = 0.0
        spaces = self._spy(monkeypatch)
        got = exact_se_trials(W, eff, 300, np.random.default_rng(3), [0, 1])
        ref = dense_exact_se(W, eff, 300, np.random.default_rng(3))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert np.all(got[0] == 0.0)
        assert set(spaces) == {"stream"}
        rep = approx_se(W, eff)
        np.testing.assert_allclose(
            rep.per_user_se, dense_approx_se(W, eff),
            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("streams,space", [(2, "stream"), (3, "antenna")])
    def test_nan_raises_in_each_space(self, monkeypatch, streams, space):
        # M = 4 and two users: 4 live columns take the stream space, 6 the
        # antenna space; a NaN precoder entry reaches a pivot in either
        eff, W = self._instance(streams)
        W[1, 0, 2, 0] = np.nan
        spaces = self._spy(monkeypatch)
        with pytest.raises(NumericsError, match="pivot"):
            exact_se_trials(W, eff, 20, np.random.default_rng(0), [1])
        assert set(spaces) == {space}


class TestSingleLinkGram:
    """Users whose every column rides one link (each stream sent by one
    satellite) and who receive J <= _MAX_MINOR_COLUMNS columns are evaluated
    from the principal minors of Gamma = V^H V, a polynomial in the link
    powers |h_j|^2 / noise; any other user by the GEMM path."""

    M = 4

    @staticmethod
    def _streamwise(sats, L=4, N=5, seed=7):
        """Precoders sending user k's stream s from satellite sats[k][s]
        only (None: a silent stream), on a synthetic channel."""
        K, S = len(sats), len(sats[0])
        rng = np.random.default_rng(seed)
        eff = synthetic_effective(rng, L=L, K=K, M=TestSingleLinkGram.M, N=N)
        W = np.zeros((L, K, N, S), complex)
        for k, row in enumerate(sats):
            for s, l in enumerate(row):
                if l is not None:
                    W[l, k, :, s] = crandn(rng, N)
        return eff, W

    @staticmethod
    def _check(W, eff, users, single):
        plans = se_eval.plan_users(W, eff, users)
        assert [p.minors is not None for p in plans] == [single] * len(users)
        trials = _TRIAL_CHUNK + 5
        got = exact_se_trials(W, eff, trials, np.random.default_rng(3), users)
        ref = dense_exact_se(W, eff, trials, np.random.default_rng(3))[list(users)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        return got

    @pytest.mark.parametrize("sats", [
        [[0, 1], [1, 2]],            # S = 2: J = 4 <= M, satellite 1 shared
        [[0, 1, 2], [3, 0, 1]],      # S = 3: J = 6 > M
        [[0, 1], [1, 0]],            # satellites 2 and 3 silent
        [[0, None], [None, None]],   # J = 1: user 1 hears interference only
        [[0, None], [1, None]],      # J = 2
        [[0, 1, None], [2, None, None]],     # J = 3
        [[0, 1, 2], [3, 0, None]],   # J = 5 > M
        [[0, 0, None], [1, None, None]],     # two streams on one link
        [[0, 1, 2, 3], [3, 2, 1, None]]],    # J = 7, the bound
        ids=["S2", "S3-more-columns-than-antennas", "silent-satellites",
             "J1", "J2", "J3", "J5", "two-streams-one-link", "J7"])
    def test_matches_dense(self, sats, monkeypatch):
        eff, W = self._streamwise(sats)
        assert se_eval.plan_users(W, eff, [0])[0].J <= _MAX_MINOR_COLUMNS
        grams = []
        stream_gram = se_eval._stream_gram
        monkeypatch.setattr(se_eval, "_stream_gram",
                            lambda *a: grams.append(1) or stream_gram(*a))
        got = self._check(W, eff, [0, 1], single=True)
        assert np.all(got[0] > 0)
        assert grams == []           # no GEMM-path Gram was built

    @pytest.mark.parametrize("sats", [[[0, 1, 2], [3, 0, 1]],
                                      [[0, 0, None], [1, None, None]]],
                             ids=["J6", "two-streams-one-link"])
    def test_minors_vanish_exactly_beyond_the_rank(self, sats):
        # V_S has rank <= min(M, links in S): those minors are exact zeros,
        # not rounding, and every other one is positive (generic factors)
        eff, W = self._streamwise(sats)
        plan, = se_eval.plan_users(W, eff, [0])
        # column links of user 0: the other user's streams first
        link = np.array([l for k in (1, 0) for l in sats[k] if l is not None])
        for S, minor in enumerate(plan.minors):
            cols = [j for j in range(plan.J) if S >> (plan.J - 1 - j) & 1]
            rank = min(self.M, len(set(link[cols])))
            assert (minor == 0.0) == (len(cols) > rank)
            assert minor >= 0.0

    def test_more_columns_than_the_bound_take_the_gemm_path(self):
        # S = 4: every user receives J = 8 > _MAX_MINOR_COLUMNS columns
        eff, W = self._streamwise([[0, 1, 2, 3], [3, 2, 1, 0]])
        assert se_eval.plan_users(W, eff, [0])[0].J > se_eval._MAX_MINOR_COLUMNS
        self._check(W, eff, [0, 1], single=False)

    def test_zero_gain_link_and_trials(self):
        # beta = 0 on link 1 of user 0: its gains are 0 in every trial
        eff, W = self._streamwise([[0, 1], [1, 2]])
        beta = eff.beta.copy()
        beta[1, 0] = 0.0
        eff = replace(eff, beta=beta)
        self._check(W, eff, [0, 1], single=True)
        # a trial whose gains are all 0 receives nothing: P_tot = P_int = 1
        plans = se_eval.plan_users(W, eff, [0, 1])
        gains, column = se_eval.sample_plan_gains(
            eff, 50, np.random.default_rng(0), plans)
        gains[::3] = 0.0
        got = se_eval.evaluate_users(plans, gains, column)
        assert np.all(got[:, ::3] == 0.0)
        assert np.all(got[0, 1::3] > 0)

    def test_tdma_slot_single_column(self):
        eff = synthetic_effective(np.random.default_rng(3), L=3, K=4, M=2, N=5)
        for k, (_, W) in enumerate(tdma_mrt_precoders(eff, np.full(3, 2.0))):
            plan, = se_eval.plan_users(W, eff, [k])
            assert plan.J == 1
            self._check(W, eff, [k], single=True)

    def test_one_multi_link_column_takes_the_gemm_path(self):
        # user 0's stream 0 also sent from satellite 3: every user receives
        # that column over two links
        eff, W = self._streamwise([[0, 1], [1, 2]])
        W[3, 0, :, 0] = crandn(np.random.default_rng(9), W.shape[2])
        self._check(W, eff, [0, 1], single=False)

    def test_nan_precoder_raises(self):
        eff, W = self._streamwise([[0, 1], [1, 2]])
        assert se_eval.plan_users(W, eff, [1])[0].minors is not None
        W[1, 1, 2, 0] = np.nan
        with pytest.raises(NumericsError, match="finite"):
            exact_se_trials(W, eff, 20, np.random.default_rng(0), [1])

    def test_nan_precoder_raises_above_the_bound(self):
        eff, W = self._streamwise([[0, 1, 2, 3], [3, 2, 1, 0]])
        assert se_eval.plan_users(W, eff, [1])[0].minors is None
        W[1, 1, 2, 0] = np.nan
        with pytest.raises(NumericsError, match="finite"):
            exact_se_trials(W, eff, 20, np.random.default_rng(0), [1])

    @pytest.mark.parametrize("bound", [_MAX_MINOR_COLUMNS, 0],
                             ids=["minors", "gemm"])
    def test_se_free_of_gain_and_precoder_phases(self, bound, monkeypatch,
                                                 default_config,
                                                 default_effective):
        # each column rides one link, so C C^H = sum_j |h_j|^2 v_j v_j^H:
        # unit phasors on the walk's gains, or a phase on each W[l, k] of a
        # streamwise design, leave every per-trial SE unchanged on either
        # path (the companion of test_exact_se_not_phase_invariant)
        monkeypatch.setattr(se_eval, "_MAX_MINOR_COLUMNS", bound)
        eff, K = default_effective, default_config.K
        cons = per_sat_total(np.full(default_config.L, 1000.0), default_config.N)
        W, _, _ = solve_streamwise(eff, cons, num_streams=default_config.S)
        plans = se_eval.plan_users(W, eff, range(K))
        assert all((p.minors is not None) == (bound > 0) for p in plans)
        gains, column = se_eval.sample_plan_gains(eff, 500, mc_rng(0, 0), plans)
        base = se_eval.evaluate_users(plans, gains, column)
        assert np.all(base > 0)
        phasors = np.exp(2j * np.pi * np.random.default_rng(1).random(gains.shape))
        np.testing.assert_allclose(
            se_eval.evaluate_users(plans, gains * phasors, column), base,
            rtol=1e-12, atol=0)
        W2 = W * np.exp(2j * np.pi * np.random.default_rng(2).random(
            W.shape[:2]))[:, :, None, None]
        np.testing.assert_allclose(
            exact_se_trials(W2, eff, 500, mc_rng(0, 0), range(K)), base,
            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("preset, single", [
        ("association", {"streamwise": True, "streamwise-random": True}),
        ("baselines", {"joint": False, "mmse": False, "zf": False}),
        ("user-loading", {"joint": False, "tdma-mrt": True})])
    def test_modes_that_take_it(self, preset, single, monkeypatch):
        import json
        from satmimo import cli, load_scenario
        cfg = load_scenario(json.dumps({
            "L": 4, "K": 2, "N": 8, "M": 4, "S": 2, "mc_trials": 20,
            "power_cap_dbw_grid": [10.0], "max_iters": 5,
            "association_seeds": 1}))
        seen = {}
        plan_users = cli.plan_users

        def spy(W, effective, users):
            plans = plan_users(W, effective, users)
            seen.setdefault(len(seen), []).extend(p.minors is not None
                                                  for p in plans)
            return plans

        monkeypatch.setattr(cli, "plan_users", spy)
        jobs = cli.PRESETS[preset](cfg)
        cli.run_point(jobs[:len(jobs[0].modes)])
        assert {mode: set(seen[i]) for i, mode in enumerate(jobs[0].modes)} \
            == {mode: {flag} for mode, flag in single.items()}


class TestRepeatedUsers:
    def test_repeated_and_reversed_users_match_single_rows(self):
        eff, W = TestKernelSpaces._instance(2, seed=8)
        trials = _TRIAL_CHUNK + 7

        def rows(users):
            return exact_se_trials(W, eff, trials, np.random.default_rng(11), users)

        single = [rows([k])[0] for k in range(2)]
        for k in range(2):
            twice = rows([k, k])
            assert np.array_equal(twice[0], single[k])
            assert np.array_equal(twice[1], single[k])
        reversed_rows = rows([1, 0])
        assert np.array_equal(reversed_rows[0], single[1])
        assert np.array_equal(reversed_rows[1], single[0])


class TestGap:
    # the approximation gap: approx_se minus exact_se_mc on the same precoders

    def test_zero_precoders_zero_gap(self, default_config, default_effective):
        W = np.zeros((4, 2, 64, 2), complex)
        approx = approx_se(W, default_effective)
        exact = exact_se_mc(W, default_effective, 10, np.random.default_rng(0))
        assert approx.sum_se == exact.sum_se == 0.0

    def test_low_power_small_relative_gap(self, default_config, default_effective):
        rho = np.full(default_config.L, 0.1)
        W = mmse_baseline(default_effective, rho, default_config.S)
        approx = approx_se(W, default_effective)
        exact = exact_se_mc(W, default_effective, 4000, mc_rng(0, 0))
        assert abs(approx.sum_se - exact.sum_se) / exact.sum_se < 0.05
