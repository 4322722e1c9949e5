import numpy as np
import pytest

from satmimo import (ScenarioConfig, effective_channels, sample_geometry,
                     ula_response)
from satmimo.channel import (_PHASOR_BITS, _PHASOR_TABLE, _TRIAL_CHUNK,
                             _los_phasors, link_matrix, sample_gamma,
                             sample_pair_gains)
from tests.conftest import dense_aggregate, dense_links, synthetic_effective


class TestUlaResponse:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(ula_response(0.0, 4), np.ones(4))

    def test_half_sine_spacing_orthogonal(self):
        # for M antennas, responses are orthogonal when the sine gap is a
        # nonzero multiple of 2/M; for M = 4 that includes 0.5
        ti = np.arcsin(0.1)
        tj = np.arcsin(0.6)
        b1 = ula_response(ti, 4)
        b2 = ula_response(tj, 4)
        assert abs(np.vdot(b1, b2)) < 1e-12 * 4

    def test_orthogonality_multiples(self):
        m = 8
        base = ula_response(np.arcsin(-0.5), m)
        for mult in range(1, 4):
            other = ula_response(np.arcsin(-0.5 + mult * 2.0 / m), m)
            assert abs(np.vdot(base, other)) < 1e-10
        near = ula_response(np.arcsin(-0.5 + 0.7 * 2.0 / m), m)
        assert abs(np.vdot(base, near)) > 1e-3

    def test_unit_modulus_norm(self, rng):
        for theta in rng.uniform(-np.pi / 2, np.pi / 2, size=5):
            v = ula_response(theta, 7)
            assert np.linalg.norm(v) ** 2 == pytest.approx(7.0, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            ula_response(0.1, 0)
        with pytest.raises(ValueError):
            ula_response(float("inf"), 4)


class TestEffectiveChannels:
    def test_rank_one_singular_values(self, default_effective, default_links):
        L, K, M, N = default_effective.shape
        for l in range(L):
            for k in range(K):
                s = np.linalg.svd(dense_links(default_effective)[l, k],
                                  compute_uv=False)
                expect = np.sqrt(default_links.beta[l, k] * M * N)
                assert s[0] == pytest.approx(expect, rel=1e-12)
                assert np.all(s[1:] < 1e-12 * s[0])

    def test_scalar_degenerate_case(self):
        cfg = ScenarioConfig(L=1, K=1, N=1, M=1, S=1, ue_sin_theta=(0.0,),
                             sat_sin_phi=(0.0,), elevation_deg=(90.0,))
        links = sample_geometry(cfg, np.random.default_rng(0))
        eff = effective_channels(links, cfg)
        assert dense_links(eff)[0, 0, 0, 0] == pytest.approx(np.sqrt(links.beta[0, 0]))

    def test_frobenius_norm(self, default_effective, default_links):
        L, K, M, N = default_effective.shape
        norms = np.linalg.norm(dense_links(default_effective), axis=(2, 3))
        np.testing.assert_allclose(norms, np.sqrt(default_links.beta * M * N),
                                   rtol=1e-12)

    def test_carries_link_statistics(self, default_effective, default_links):
        # the estimators read beta, kappa and the noise power from here
        for name in ("beta", "kappa"):
            got = getattr(default_effective, name)
            np.testing.assert_array_equal(got, getattr(default_links, name))
            assert not np.shares_memory(got, getattr(default_links, name))
        assert default_effective.noise_power_w == default_links.noise_power_w


class TestSampleRealization:
    # the Rician gain draw, sample_gamma

    def test_pure_los_limit(self, default_links, default_effective):
        kappa = np.full_like(default_links.beta, 1e12)
        gamma = sample_gamma(default_links.beta, kappa, np.random.default_rng(2))
        np.testing.assert_allclose(np.abs(gamma), np.sqrt(default_links.beta),
                                   rtol=1e-5)

    def test_second_moment_matches_beta(self):
        beta = np.array([[2.5]])
        kappa = np.array([[10 ** 1.2]])
        gamma = sample_gamma(beta, kappa, np.random.default_rng(11), trials=100_000)
        assert np.mean(np.abs(gamma) ** 2) / 2.5 == pytest.approx(1.0, abs=0.02)

    def test_matches_reference_draw_order(self, default_links):
        # the Rician formula on uniform, then real and imaginary normal
        # draws taken in that order from the same generator state
        beta = default_links.beta
        kappa = np.full_like(beta, 10 ** 1.2)
        gamma = sample_gamma(beta, kappa, np.random.default_rng(4), trials=50)
        ref_rng = np.random.default_rng(4)
        shape = (50,) + beta.shape
        psi = ref_rng.uniform(0.0, 2 * np.pi, size=shape)
        z = (ref_rng.standard_normal(shape)
             + 1j * ref_rng.standard_normal(shape)) / np.sqrt(2)
        ref = np.sqrt(beta) * (np.sqrt(kappa / (kappa + 1)) * np.exp(1j * psi)
                               + np.sqrt(1 / (kappa + 1)) * z)
        np.testing.assert_allclose(gamma, ref, rtol=1e-14, atol=0)

    def test_deterministic(self, default_links):
        kappa = default_links.kappa
        g1 = sample_gamma(default_links.beta, kappa, np.random.default_rng(9))
        g2 = sample_gamma(default_links.beta, kappa, np.random.default_rng(9))
        np.testing.assert_array_equal(g1, g2)


class TestLosPhasor:
    """The table-driven LoS phasor e^{2 pi i u} of sample_pair_gains."""

    def test_within_4_eps_of_exact(self):
        # every table node k / n and the float just below it, the quarter
        # points, the largest u below 1 and 10^5 random draws, against the
        # phasor at 50 digits
        import mpmath as mp
        nodes = np.arange(1 << _PHASOR_BITS) / (1 << _PHASOR_BITS)
        u = np.concatenate([[0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)], nodes,
                            np.nextafter(nodes[1:], 0.0),
                            np.random.default_rng(7).random(100_000)])
        out = np.empty((u.size, 1), complex)
        _los_phasors(u[:, None], np.ones(1), out)
        with mp.workdps(50):
            err = max(abs(mp.mpc(complex(z)) - mp.expjpi(2 * mp.mpf(float(x))))
                      for x, z in zip(u, out[:, 0]))
        assert err <= 4 * np.finfo(float).eps

    def test_table_is_read_only(self):
        assert not _PHASOR_TABLE.flags.writeable
        with pytest.raises(ValueError):
            _PHASOR_TABLE[0, 0] = 0.0

    @pytest.mark.parametrize("trials", [1, _TRIAL_CHUNK - 1, _TRIAL_CHUNK,
                                        _TRIAL_CHUNK + 1, 2 * _TRIAL_CHUNK + 3])
    def test_walk_is_a_prefix_of_a_longer_walk(self, trials):
        # the phases come first in a walk, so a walk's uniforms are the first
        # rows of a longer walk's, and its gains must be that walk's prefix
        # bitwise wherever the chunk and kernel-block edges fall. At
        # kappa = 1e300 the scattered amplitude (about 1e-150) is below half
        # an ulp of every LoS term, so each gain is its LoS term alone.
        eff = synthetic_effective(np.random.default_rng(8), L=3, K=4)
        kappa = np.full_like(eff.beta, 1e300)
        for pairs in (range(12), [7], [3, 9, 3, 0, 11]):
            longer = sample_pair_gains(eff.beta, kappa, np.random.default_rng(9),
                                       3 * _TRIAL_CHUNK, pairs)
            got = sample_pair_gains(eff.beta, kappa, np.random.default_rng(9),
                                    trials, pairs)
            assert np.array_equal(got, longer[:trials])


def _row_space(effective, k):
    """(L, L*N) with row l = a_{l,k}^T / ||a_{l,k}|| in block l: orthonormal
    rows, and dense_aggregate(effective)[k] = C_k @ this."""
    L, K, M, N = effective.shape
    rows = np.zeros((L, L * N), complex)
    for l in range(L):
        a = effective.a[l, k]
        rows[l, l * N:(l + 1) * N] = a / np.linalg.norm(a)
    return rows


class TestAggregate:
    # the M x L link matrix carries the aggregated channel: the dense
    # aggregate is C_k times a matrix with orthonormal rows

    def test_single_satellite_is_identity_embedding(self, rng):
        eff = synthetic_effective(rng, L=1, K=2, M=3, N=5)
        np.testing.assert_array_equal(dense_aggregate(eff)[1], dense_links(eff)[0, 1])
        np.testing.assert_allclose(link_matrix(eff)[1] @ _row_space(eff, 1),
                                   dense_links(eff)[0, 1], rtol=1e-13, atol=1e-14)

    def test_shape_and_blocks(self, default_effective):
        L, K, M, N = default_effective.shape
        assert link_matrix(default_effective).shape == (K, M, L)
        agg = dense_aggregate(default_effective)[0]
        assert agg.shape == (M, L * N)
        rebuilt = link_matrix(default_effective)[0] @ _row_space(default_effective, 0)
        scale = np.abs(agg).max()
        for l in range(L):
            np.testing.assert_array_equal(agg[:, l * N:(l + 1) * N],
                                          dense_links(default_effective)[l, 0])
            np.testing.assert_allclose(rebuilt[:, l * N:(l + 1) * N],
                                       agg[:, l * N:(l + 1) * N],
                                       rtol=0, atol=1e-12 * scale)

    def test_aggregate_all_stacks_users(self, default_effective):
        # every user's link matrix has the dense aggregate's singular values
        allagg = dense_aggregate(default_effective)
        L, K, M, N = default_effective.shape
        assert allagg.shape == (K, M, L * N)
        np.testing.assert_allclose(
            np.linalg.svd(link_matrix(default_effective), compute_uv=False),
            np.linalg.svd(allagg, compute_uv=False)[:, :min(M, L)], rtol=1e-12)
