"""Symmetry certificates of the designs: relabelling satellites and users,
and scaling every beta and the noise power by one factor, leave each
design's approximate SE and its iteration count unchanged. Every SINR is
invariant under both maps, so a design that moved would depend on the
labels or on the unit of the gains."""

from dataclasses import replace

import numpy as np
import pytest

from satmimo import approx_se, streamwise
from satmimo.cli import _DESIGNS
from satmimo.joint_wmmse import SolverParams
from satmimo.power import per_sat_total, scale_to_caps

# the relative move of the approximate SE that a certificate tolerates
RTOL = 1e-12
SAT_PERM = [2, 0, 3, 1]
USER_PERM = [1, 0]
POWERS_DBW = [0.0, 30.0]
MODES = ["joint", "streamwise", "mmse", "zf"]


def _design(mode, eff, cfg, power_dbw):
    """(approx sum SE, iterations, stream map or None) of one mode, built
    as a sweep point builds it: a closed form is fitted to the caps."""
    rho = np.full(cfg.L, 10 ** (power_dbw / 10))
    cons = per_sat_total(rho, cfg.N)
    params = SolverParams.from_config(cfg)
    if mode == "streamwise":
        W, assignment, trace = streamwise.solve_streamwise(
            eff, cons, params, num_streams=cfg.S)
        return approx_se(W, eff).sum_se, trace.iterations, assignment.pi
    W, trace = _DESIGNS[mode](eff, cons, rho, cfg, params)
    if trace is None:
        scale_to_caps(W, cons, params.power_tol_rel)
        return approx_se(W, eff).sum_se, None, None
    return approx_se(W, eff).sum_se, trace.iterations, None


def _relabelled(eff, sats, users):
    """The channel with satellite sats[i] as satellite i and user users[j]
    as user j."""
    def pick(x):
        return x[sats][:, users]
    return replace(eff, b=pick(eff.b), a=pick(eff.a), beta=pick(eff.beta),
                   kappa=pick(eff.kappa))


@pytest.mark.parametrize("power_dbw", POWERS_DBW)
@pytest.mark.parametrize("mode", MODES)
def test_satellite_and_user_relabelling(mode, power_dbw, default_config,
                                        default_effective):
    cfg = default_config
    se, iters, pi = _design(mode, default_effective, cfg, power_dbw)
    se_p, iters_p, pi_p = _design(
        mode, _relabelled(default_effective, SAT_PERM, USER_PERM), cfg,
        power_dbw)
    assert se_p == pytest.approx(se, rel=RTOL, abs=0)
    assert iters_p == iters
    if pi is not None:
        # the map moves with the labels: new user j is old user USER_PERM[j],
        # old satellite l is new satellite SAT_PERM.index(l)
        assert np.array_equal(pi_p, np.argsort(SAT_PERM)[pi[USER_PERM]])


@pytest.mark.parametrize("factor", [1e-6, 1e6])
@pytest.mark.parametrize("power_dbw", POWERS_DBW)
@pytest.mark.parametrize("mode", MODES)
def test_gain_and_noise_scaling(mode, power_dbw, factor, default_config,
                                default_effective):
    cfg = default_config
    se, iters, pi = _design(mode, default_effective, cfg, power_dbw)
    scaled = replace(default_effective, beta=factor * default_effective.beta,
                     noise_power_w=factor * default_effective.noise_power_w)
    se_s, iters_s, pi_s = _design(mode, scaled, cfg, power_dbw)
    assert se_s == pytest.approx(se, rel=RTOL, abs=0)
    assert iters_s == iters
    if pi is not None:
        assert np.array_equal(pi_s, pi)
