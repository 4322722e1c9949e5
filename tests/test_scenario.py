import dataclasses
import json
import math

import numpy as np
import pytest

from satmimo import (ConfigError, ScenarioConfig, ValidationError,
                     load_scenario, path_gain, sample_geometry, slant_range)

# Frozen oracle values, computed independently with mpmath at 50 digits:
#   d(20 deg, 560 km) = -R sin(v) + sqrt((R+h)^2 - (R cos(v))^2), R = 6371 km
#   beta(560 km, 20 GHz, 8 dBi, 20 dBi) = Gu*Gs*(c/(4 pi f d))^2
SLANT_20DEG_560KM = 1313439.52791113
BETA_560KM_REF = 2.86672963536345e-15


def slant_oracle(elev_deg, h_m):
    import mpmath as mp
    mp.mp.dps = 50
    r = mp.mpf(6371e3)
    v = mp.radians(elev_deg)
    return float(-r * mp.sin(v) + mp.sqrt((r + h_m) ** 2 - (r * mp.cos(v)) ** 2))


class TestLoadScenario:
    def test_minimal_text_gets_defaults(self):
        cfg = load_scenario('{"L": 4, "K": 2}')
        assert cfg.L == 4 and cfg.K == 2
        assert cfg.N == 64 and cfg.M == 4 and cfg.S == 2
        assert cfg.altitude_m == 560e3
        assert cfg.carrier_hz == 20e9

    def test_stream_count_exceeding_antennas_rejected(self):
        with pytest.raises(ValidationError, match="S"):
            load_scenario('{"S": 5, "M": 4}')

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError, match="mc_trials"):
            load_scenario('{"mc_trials": 0}')

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="num_satellites"):
            load_scenario('{"num_satellites": 4}')

    def test_retired_ellipsoid_keys_ignored(self):
        # configs written for the retired ellipsoid search still load, its
        # tolerance under the name power_tol_rel
        cfg = load_scenario('{"ellipsoid_alpha": 3.0, "ellipsoid_max_iters": 50, '
                            '"ellipsoid_tol_rel": 1e-6}')
        assert cfg.power_tol_rel == 1e-6
        assert not hasattr(cfg, "ellipsoid_tol_rel")
        assert not hasattr(cfg, "ellipsoid_alpha")
        assert not hasattr(cfg, "ellipsoid_max_iters")

    def test_power_tol_rel_reaches_the_solver(self):
        from satmimo.joint_wmmse import SolverParams
        cfg = load_scenario('{"power_tol_rel": 1e-6}')
        assert SolverParams.from_config(cfg).power_tol_rel == 1e-6

    def test_solver_defaults_are_the_config_defaults(self):
        from satmimo.joint_wmmse import SolverParams
        assert SolverParams() == SolverParams.from_config(ScenarioConfig())

    def test_old_and_new_tolerance_names_together_rejected(self):
        with pytest.raises(ConfigError, match="^ellipsoid_tol_rel: .*power_tol_rel"):
            load_scenario('{"ellipsoid_tol_rel": 1e-6, "power_tol_rel": 1e-6}')

    def test_bad_syntax(self):
        with pytest.raises(ConfigError):
            load_scenario("L = 4")

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match="L"):
            load_scenario('{"L": "four"}')

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(
        ScenarioConfig) if f.type == "int"])
    @pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "boolean"])
    def test_int_keys_reject_non_integers(self, key, value):
        # every field annotated int, whatever its range checks would allow
        with pytest.raises(ConfigError, match=f"^{key}: expected an integer"):
            load_scenario(json.dumps({key: value}))

    def test_fixed_list_requires_sines(self):
        with pytest.raises(ValidationError, match="ue_sin_theta"):
            load_scenario('{"angle_mode": "fixed-list"}')

    def test_fixed_list_length_checked(self):
        with pytest.raises(ValidationError, match="ue_sin_theta"):
            load_scenario('{"angle_mode": "fixed-list", "ue_sin_theta": [0.1, 0.2], "L": 4}')

    def test_retired_angle_mode_loads_where_it_agrees(self):
        # angle_mode is no longer a field: a list pins its angle when set
        pinned = load_scenario('{"ue_sin_theta": [0.1, 0.2, 0.3, 0.4]}')
        assert not hasattr(pinned, "angle_mode")
        assert "angle_mode" not in pinned.as_dict()
        assert load_scenario('{"angle_mode": "fixed-list", '
                             '"ue_sin_theta": [0.1, 0.2, 0.3, 0.4]}') == pinned
        assert load_scenario('{"angle_mode": "random"}') == ScenarioConfig()
        assert load_scenario('{"angle_mode": "random", "ue_sin_theta": null}') \
            == ScenarioConfig()

    @pytest.mark.parametrize("text, error, key", [
        ('{"angle_mode": "random", "ue_sin_theta": [0.1, 0.2, 0.3, 0.4]}',
         ValidationError, "angle_mode"),
        ('{"angle_mode": "fixed"}', ValidationError, "angle_mode"),
        ('{"angle_mode": 1}', ConfigError, "angle_mode"),
    ], ids=["random-with-list", "unknown-value", "not-a-string"])
    def test_retired_angle_mode_disagreement_rejected(self, text, error, key):
        with pytest.raises(error, match=key):
            load_scenario(text)

    def test_linear_accessors(self):
        cfg = load_scenario("{}")
        assert cfg.rician_factor_linear() == pytest.approx(10 ** 1.2)
        # thermal noise over 400 MHz with 1.2 dB noise figure
        assert cfg.noise_power_w() == pytest.approx(2.099229841e-12, rel=1e-9)

    def test_roundtrip_dict(self):
        cfg = load_scenario('{"L": 6, "rng_seed": 9}')
        again = load_scenario(json.dumps({k: v for k, v in cfg.as_dict().items()
                                          if v is not None}))
        assert again == cfg


class TestSlantRange:
    def test_zenith_collapses_to_altitude(self):
        assert slant_range(math.pi / 2, 560e3) == pytest.approx(560e3, rel=1e-9)

    def test_low_elevation_against_oracle(self):
        got = slant_range(math.radians(20), 560e3)
        assert got == pytest.approx(SLANT_20DEG_560KM, rel=1e-10)
        assert got == pytest.approx(slant_oracle(20, 560e3), rel=1e-10)

    def test_monotone_decreasing_in_elevation(self):
        d30 = slant_range(math.radians(30), 560e3)
        d60 = slant_range(math.radians(60), 560e3)
        assert d30 > d60

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            slant_range(float("nan"), 560e3)
        with pytest.raises(ValueError):
            slant_range(math.radians(45), -1.0)
        with pytest.raises(ValueError):
            slant_range(0.0, 560e3)


class TestPathGain:
    def test_reference_point_against_oracle(self):
        got = path_gain(560e3, 20e9, 8.0, 20.0)
        assert got == pytest.approx(BETA_560KM_REF, rel=1e-10)

    def test_inverse_square_law(self):
        b1 = path_gain(700e3, 20e9, 8.0, 20.0)
        b2 = path_gain(1400e3, 20e9, 8.0, 20.0)
        assert b2 / b1 == pytest.approx(0.25, rel=1e-12)

    def test_unit_gains_leave_free_space_term(self):
        d, f = 560e3, 20e9
        expect = (3e8 / (4 * math.pi * f * d)) ** 2
        assert path_gain(d, f, 0.0, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_gain(0.0, 20e9, 8.0, 20.0)


class TestSampleGeometry:
    def test_deterministic_for_fixed_seed(self, default_config):
        a = sample_geometry(default_config, np.random.default_rng(7))
        b = sample_geometry(default_config, np.random.default_rng(7))
        for name in ("theta", "phi", "elevation", "distance_m", "beta", "kappa"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_drift_bound(self):
        cfg = ScenarioConfig(K=4)
        links = sample_geometry(cfg, np.random.default_rng(3))
        drift = np.abs(links.theta[:, 1:] - links.theta[:, :1])
        # clipping can only shrink the offset, so 1 degree bounds it
        assert np.all(drift <= math.radians(1.0) + 1e-12)

    def test_elevations_in_range(self):
        cfg = ScenarioConfig(K=3)
        for seed in range(5):
            links = sample_geometry(cfg, np.random.default_rng(seed))
            assert np.all(links.elevation >= math.radians(20) - 1e-12)
            assert np.all(links.elevation <= math.radians(90) + 1e-12)

    def test_distances_consistent_with_slant_range(self, default_links, default_config):
        expect = slant_range(default_links.elevation, default_config.altitude_m)
        np.testing.assert_allclose(default_links.distance_m, expect, rtol=1e-12)
        assert np.all(default_links.distance_m >= default_config.altitude_m - 1e-6)

    def test_beta_consistent_with_path_gain(self, default_links, default_config):
        expect = path_gain(default_links.distance_m, default_config.carrier_hz,
                           default_config.gain_user_dbi, default_config.gain_sat_dbi)
        np.testing.assert_allclose(default_links.beta, expect, rtol=1e-12)

    def test_fixed_list_pins_ue_azimuths(self):
        sines = (-0.9, -0.4, 0.1, 0.6)
        cfg = ScenarioConfig(ue_sin_theta=sines)
        links = sample_geometry(cfg, np.random.default_rng(1))
        for k in range(cfg.K):
            np.testing.assert_allclose(np.sin(links.theta[:, k]), sines, atol=1e-12)

    def test_fixed_list_can_pin_everything(self):
        cfg = ScenarioConfig(L=2, ue_sin_theta=(0.1, -0.2),
                             sat_sin_phi=(0.3, 0.4), elevation_deg=(45.0, 60.0))
        links = sample_geometry(cfg, np.random.default_rng(1))
        np.testing.assert_allclose(np.sin(links.phi[:, 0]), (0.3, 0.4), atol=1e-12)
        np.testing.assert_allclose(links.elevation[:, 1],
                                   np.radians((45.0, 60.0)), atol=1e-12)
