"""The general-constraint multiplier search, `joint_wmmse.dual_newton_multipliers`
(Newton on the concave dual of one satellite's precoder subproblem), against
offline oracles. Subproblems come from `joint_wmmse._PrecoderStep`, and the
search gets the (N, K) right-hand side `solve` gives it; the oracles use
the dense T and B of `tests.conftest.dense_subproblem`. The file keeps the
name of the central-cut ellipsoid search that the Newton search replaced,
so that the ids of the carried-over tests stay stable."""

import numpy as np
import pytest

from satmimo import (InfeasibleError, NumericsError, ScenarioConfig,
                     effective_channels, joint_wmmse, per_antenna,
                     sample_geometry)
from satmimo.joint_wmmse import (_mse_at_optimum, _receiver_grams, _secular,
                                 _Spectrum, dual_newton_multipliers,
                                 update_weights)
from satmimo.power import make_constraint_set
from tests.conftest import (bisect_multiplier, crandn, dense_subproblem,
                            precoder_step, synthetic_effective)


def _step(eff, W0, S):
    """The precoder step solve builds at the MMSE receiver of W0."""
    J, G = _receiver_grams(W0, eff, eff.noise_power_w)
    U = np.linalg.solve(J, G)
    return precoder_step(eff, U, update_weights(_mse_at_optimum(U, G))[0], S)


def _subproblem(rng, L=1, K=2, M=2, N=4, S=2, noise=0.5, scale=0.3):
    eff = synthetic_effective(rng, L=L, K=K, M=M, N=N, noise=noise)
    return _step(eff, crandn(rng, L, K, N, S) * scale, S)


def _scenario_subproblem(N, dbw, seed):
    """The first per-antenna precoder step of the reference drop: caps
    rho/N, receivers at the solver's default start."""
    cfg = ScenarioConfig(N=N, rng_seed=seed)
    eff = effective_channels(sample_geometry(cfg, np.random.default_rng(seed)), cfg)
    cons = per_antenna(np.full((cfg.L, N), 10 ** (dbw / 10) / N))
    W0 = joint_wmmse.init_precoders(eff, cons, cfg.S, stream_basis="aggregated")
    return _step(eff, W0, cfg.S), cons


def _rhs(step, l):
    """The (N, K) right-hand side solve gives the search for satellite l:
    B's rank-one directions scaled by its row norms."""
    return step.rhs_dir[l].T * np.linalg.norm(step.rhs_row[l], axis=1)


def _search(step, l, cons, tol_rel):
    """(mu, v, dual evaluations) of the search on satellite l's subproblem."""
    return dual_newton_multipliers(step.factor[l], _rhs(step, l),
                                   cons.weights[l], cons.caps[l], tol_rel)


def _dense_rhs(step, l):
    """T and the (N, K*S) right-hand side B of satellite l, densely."""
    T, B, _ = dense_subproblem(step, l)
    K, N, S = B.shape
    return T, B.transpose(1, 0, 2).reshape(N, K * S)


def _lbfgs_dual_optimum(T, B, weights, caps):
    """Offline oracle for a general-constraint subproblem: the maximum of its
    concave dual g(mu) = -Tr(B^H (T + sum_x mu_x A_x)^+ B) - mu^T caps found
    by L-BFGS-B in mu = s y^2 (unconstrained in y), s scaling every
    multiplier so that mu^T caps weighs like g(0). Returns the best dual
    value reached, a lower bound on the subproblem's optimum whatever the
    stopping status (where the supremum lies at mu -> 0 the line search may
    end ABNORMAL on the flat dual); agreement with a feasible objective
    therefore certifies that objective."""
    from scipy.optimize import minimize
    g0 = np.real(np.vdot(B, np.linalg.pinv(T, hermitian=True) @ B))
    s = g0 / caps / caps.size

    def neg_dual(y):
        mu = s * y * y
        X = np.linalg.solve(T + np.tensordot(mu, weights, 1), B)
        power = np.einsum("nj,xnm,mj->x", X.conj(), weights, X).real
        return (float(np.real(np.vdot(B, X))) + mu @ caps,
                (caps - power) * 2.0 * s * y)

    res = minimize(neg_dual, np.ones(caps.size), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000,
                            "maxcor": 30, "maxls": 50})
    return -res.fun


def _certify(step, l, cons, mu, v, tol_rel):
    """Every residual <= tol_rel * cap and |mu^T r| <= 1e-6 |g|, with g the
    Lagrangian at its minimiser v; returns the subproblem objective at v,
    Tr(v^H T v) - 2 Re Tr(rhs^H v), which is that of the precoders
    W_k = v_k (unit row k)^T solve builds from it."""
    caps = cons.caps[l]
    Fv = step.factor[l].conj().T @ v
    val = np.vdot(Fv, Fv).real - 2.0 * np.vdot(_rhs(step, l), v).real
    r = np.einsum("nk,xnm,mk->x", v.conj(), cons.weights[l], v).real - caps
    assert np.all(r <= tol_rel * caps)
    assert np.all(mu >= 0)
    assert abs(mu @ r) <= 1e-6 * abs(val + mu @ r)
    return val


class TestEarlyExit:
    def test_feasible_at_zero_returns_zero(self):
        step = _subproblem(np.random.default_rng(4))
        cons = per_antenna([np.full(4, 1e6)])
        mu, v, evals = _search(step, 0, cons, 1e-8)
        np.testing.assert_array_equal(mu, np.zeros(4))
        assert evals == 1
        # the pseudoinverse solution of the unconstrained subproblem
        T = dense_subproblem(step, 0)[0]
        np.testing.assert_allclose(
            v, np.linalg.pinv(T, rtol=1e-12, hermitian=True) @ _rhs(step, 0),
            atol=1e-12)


class TestScalarAgainstOracle:
    def test_matches_bisection_oracle(self):
        # a single weighted cap Tr(W^H A W) <= rho goes through the general
        # search; its multiplier is the root of the power curve. The cap is
        # set below the power the curve tends to as mu -> 0+, so that the
        # root is positive and unique
        for trial in range(10):
            rng = np.random.default_rng(trial)
            step = _subproblem(rng, N=5)
            G = crandn(rng, 5, 5)
            A = G @ G.conj().T / 5 + 0.1 * np.eye(5)
            T, B = _dense_rhs(step, 0)

            def power(m):
                X = np.linalg.solve(T + m * A, B)
                return np.vdot(X, A @ X).real

            rho = 0.3 * power(1e-9)
            cons = make_constraint_set([[(A, rho)]])
            mu, v, _ = _search(step, 0, cons, 1e-10)
            _certify(step, 0, cons, mu, v, 1e-10)
            oracle = bisect_multiplier(lambda m: power(m) - rho, 1e-10 * rho)
            assert mu[0] == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("oracle", ["drifting", "nan-below-one"])
    def test_residual_above_tolerance_raises(self, oracle, monkeypatch):
        # a dual evaluation that does not reproduce its own values (the
        # powers rise on every call) or turns NaN below mu = 1 leaves the
        # search without a certificate; it must say so, also under python -O
        step = _subproblem(np.random.default_rng(5))
        cons = per_antenna([np.full(4, 1e-3)])
        evaluate = joint_wmmse._dual_point
        calls = []

        def broken(factor, rhs, weights, caps, mu):
            power, *rest = evaluate(factor, rhs, weights, caps, mu)
            calls.append(mu)
            if oracle == "drifting":
                return (power + 1e-3 * len(calls) * caps, *rest)
            return (power if np.all(mu >= 1.0) else np.full_like(power, np.nan),
                    *rest)

        monkeypatch.setattr(joint_wmmse, "_dual_point", broken)
        with pytest.raises(NumericsError):
            _search(step, 0, cons, 1e-5)

    def test_nan_subproblem_raises(self):
        step = _subproblem(np.random.default_rng(5))
        cons = per_antenna([np.full(4, 1e-3)])
        factor = step.factor[0].copy()
        factor[0, 0] = np.nan
        with pytest.raises(NumericsError):
            dual_newton_multipliers(factor, step.rhs_dir[0].T, cons.weights[0],
                                    cons.caps[0], 1e-5)

    def test_residual_monotone_in_multiplier(self, rng):
        curve = _Spectrum(_subproblem(rng), [0]).curves[0]
        mus = np.linspace(0.01, 5.0, 40)
        powers = [_secular(curve, m)[0] for m in mus]
        assert np.all(np.diff(powers) < 0)


class TestGeneralConstraints:
    @pytest.mark.parametrize("N", [4, 16, 64])
    @pytest.mark.parametrize("dbw", [20.0, 30.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_antenna_matches_lbfgs_dual_oracle(self, N, dbw, seed):
        # offline oracle: L-BFGS-B on the concave dual; by strong duality the
        # certified precoders' objective equals its optimum
        step, cons = _scenario_subproblem(N, dbw, seed)
        for l in (0, 1):
            mu, v, _ = _search(step, l, cons, 1e-5)
            val = _certify(step, l, cons, mu, v, 1e-5)
            best = _lbfgs_dual_optimum(*_dense_rhs(step, l), cons.weights[l],
                                       cons.caps[l])
            assert val == pytest.approx(best, abs=1e-6 * (1 + abs(best)))

    def test_near_rank_one_matches_oracle(self):
        # one user's coupling is 1e-10 of the other's: T is rank one to
        # within 1e-10 and the multipliers are tiny
        step, cons = _scenario_subproblem(16, 30.0, 5)
        step.factor = step.factor.copy()
        factor = step.factor[1]
        factor[:, np.argmin(np.linalg.norm(factor, axis=0))] *= 1e-5
        lam = np.linalg.eigvalsh(factor.conj().T @ factor)
        assert lam[0] <= 1e-10 * lam[-1]
        mu, v, _ = _search(step, 1, cons, 1e-5)
        val = _certify(step, 1, cons, mu, v, 1e-5)
        best = _lbfgs_dual_optimum(*_dense_rhs(step, 1), cons.weights[1],
                                   cons.caps[1])
        assert val == pytest.approx(best, abs=1e-6 * (1 + abs(best)))

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_per_antenna_matches_dual_oracle(self, seed):
        # offline oracle: the concave dual of the per-antenna subproblem,
        # g(mu) = -Tr(B^H (T + diag mu)^{-1} B) - mu^T caps over mu >= 0,
        # maximised by L-BFGS-B with bounds; its gradient is the residual
        from scipy.optimize import minimize
        rng = np.random.default_rng(seed)
        N, S, K = 4, 2, 2
        step = _subproblem(rng, N=N, S=S, K=K)
        caps = rng.uniform(0.3, 1.0, N)
        cons = per_antenna([caps])
        mu, v, _ = _search(step, 0, cons, 1e-7)
        val = _certify(step, 0, cons, mu, v, 1e-7)
        T, B = _dense_rhs(step, 0)

        def neg_dual(m):
            X = np.linalg.solve(T + np.diag(m), B)
            value = float(np.real(np.vdot(B, X))) + m @ caps
            return value, caps - np.sum(np.abs(X) ** 2, axis=1)

        res = minimize(neg_dual, np.ones(N), jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * N,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
        assert res.success
        assert val == pytest.approx(-res.fun, abs=1e-6 * (1 + abs(val)))

    def test_mixed_subspace_constraints_feasible(self):
        rng = np.random.default_rng(3)
        N, S = 4, 2
        step = _subproblem(rng, N=N, S=S)
        A1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        A2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        cons = make_constraint_set([[(A1, 0.4), (A2, 0.2)]])
        mu, v, _ = _search(step, 0, cons, 1e-6)
        _certify(step, 0, cons, mu, v, 1e-6)
        assert np.all(mu >= 0)


class TestExpansion:
    def test_unpenalised_direction_raises(self):
        # T acts on the first two antennas, the family caps only the first
        # three, and the right-hand side excites the fourth: the subproblem
        # is unbounded, and the search says so (within its budget)
        rng = np.random.default_rng(6)
        factor = np.zeros((4, 2), complex)
        factor[:2] = crandn(rng, 2, 2)
        rhs = crandn(rng, 4, 2)
        cons = make_constraint_set([[(np.diag([1.0, 1.0, 1.0, 0.0]), 1.0)]])
        with pytest.raises(InfeasibleError):
            dual_newton_multipliers(factor, rhs, cons.weights[0], cons.caps[0], 1e-5)
