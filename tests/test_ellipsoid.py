import numpy as np
import pytest

from satmimo import (EllipsoidParams, InfeasibleError, NumericsError,
                     solve_multipliers)
from satmimo.ellipsoid import bisect_multiplier
from satmimo import joint_wmmse, per_antenna, per_sat_total
from satmimo.power import make_constraint_set, residuals
from tests.conftest import crandn, synthetic_effective


def _subproblem(rng, L=1, K=2, M=2, N=4, S=2, noise=0.5, scale=0.3):
    eff = synthetic_effective(rng, L=L, K=K, M=M, N=N, noise=noise)
    W0 = crandn(rng, L, K, N, S) * scale
    U = joint_wmmse.update_combiners(W0, eff, noise)
    C = joint_wmmse.update_weights(joint_wmmse.mse_at_optimum(U, W0, eff))
    return joint_wmmse._SatSubproblem(eff, U, C, 0, S)


def _bisect_oracle(residual_fn, hi=None):
    """Independent scalar bisection, written directly against the residual."""
    if residual_fn(0.0) <= 0:
        return 0.0
    hi = hi if hi is not None else 1.0
    while residual_fn(hi) > 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual_fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


class TestEarlyExit:
    def test_feasible_at_zero_returns_zero(self):
        params = EllipsoidParams(tol=1e-8)
        mu = solve_multipliers(lambda m: None, lambda m: np.array([-1.0, -2.0]),
                               2, params)
        np.testing.assert_array_equal(mu, [0.0, 0.0])


class TestScalarAgainstOracle:
    def test_matches_bisection_oracle(self, rng):
        for trial in range(10):
            sub = _subproblem(np.random.default_rng(trial), N=5)
            rho = 0.5
            residual = lambda m: sub.power_identity(m) - rho
            if residual(0.0) <= 0:
                continue
            params = EllipsoidParams(tol=1e-10 * rho)
            mu = solve_multipliers(
                lambda m: sub.precoders_identity(float(m[0])),
                lambda m: np.array([residual(float(m[0]))]), 1, params)
            oracle = _bisect_oracle(residual)
            assert mu[0] == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("oracle", ["drifting", "nan-below-one"])
    def test_residual_above_tolerance_raises(self, oracle):
        # an oracle that does not reproduce its own values (the curve rises
        # on every call) or turns NaN below the bracket leaves the returned
        # multiplier above the tolerance; the search must say so, also
        # under python -O
        calls = []

        def residual(mu):
            calls.append(mu)
            if oracle == "drifting":
                return 1.0 / (1.0 + mu) - 0.25 + 1e-3 * len(calls)
            return 1.0 / (1.0 + mu) - 0.75 if mu >= 1.0 else np.nan

        with pytest.raises(NumericsError):
            bisect_multiplier(residual, 1e-8)

    def test_residual_monotone_in_multiplier(self, rng):
        sub = _subproblem(rng)
        mus = np.linspace(0.01, 5.0, 40)
        powers = [sub.power_identity(m) for m in mus]
        assert np.all(np.diff(powers) < 0)


class TestGeneralConstraints:
    def test_per_antenna_matches_convex_oracle(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(7)
        N, S, K = 4, 2, 2
        sub = _subproblem(rng, N=N, S=S, K=K)
        caps = rng.uniform(0.3, 1.0, N)
        cons = per_antenna([caps])
        params = EllipsoidParams(tol=1e-7 * caps.max(), max_iters=3000)
        mu = solve_multipliers(
            lambda m: sub.precoders_general(m, cons),
            lambda m: residuals(sub.precoders_general(m, cons), cons, 0),
            N, params)
        W = sub.precoders_general(mu, cons)
        g = residuals(W, cons, 0)
        assert g.max() <= params.tol

        T = sub.coupling_matrix()
        lam, V = np.linalg.eigh(T)
        sqrtT = V @ np.diag(np.sqrt(np.clip(lam, 0, None))) @ V.conj().T
        Ws = [cp.Variable((N, S), complex=True) for _ in range(K)]
        obj = 0
        for k in range(K):
            B = sub.rhs_matrix(k)
            obj += cp.sum_squares(sqrtT @ Ws[k]) - 2 * cp.real(
                cp.trace(B.conj().T @ Ws[k]))
        constraints = [sum(cp.sum_squares(Ws[k][n, :]) for k in range(K)) <= caps[n]
                       for n in range(N)]
        prob = cp.Problem(cp.Minimize(obj), constraints)
        prob.solve()
        assert sub.objective(W) == pytest.approx(prob.value, abs=1e-3 * (1 + abs(prob.value)))

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_per_antenna_matches_dual_oracle(self, seed):
        # offline oracle: the concave dual of the per-antenna subproblem,
        # g(mu) = -Tr(B^H (T + diag mu)^{-1} B) - mu^T caps over mu >= 0,
        # maximised by L-BFGS-B; its gradient is the residual vector
        from scipy.optimize import minimize
        rng = np.random.default_rng(seed)
        N, S, K = 4, 2, 2
        sub = _subproblem(rng, N=N, S=S, K=K)
        caps = rng.uniform(0.3, 1.0, N)
        cons = per_antenna([caps])
        params = EllipsoidParams(tol=1e-7 * caps.max(), max_iters=3000)
        mu = solve_multipliers(
            lambda m: sub.precoders_general(m, cons),
            lambda m: residuals(sub.precoders_general(m, cons), cons, 0),
            N, params)
        W = sub.precoders_general(mu, cons)
        assert residuals(W, cons, 0).max() <= params.tol

        T = sub.coupling_matrix()
        B = np.concatenate([sub.rhs_matrix(k) for k in range(K)], axis=1)

        def neg_dual(m):
            X = np.linalg.solve(T + np.diag(m), B)
            value = float(np.real(np.vdot(B, X))) + m @ caps
            return value, caps - np.sum(np.abs(X) ** 2, axis=1)

        res = minimize(neg_dual, np.ones(N), jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * N,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
        assert res.success
        # strong duality: the ellipsoid's objective equals the dual optimum,
        # far below the 1e-3 of the cvxpy check
        val = sub.objective(W)
        assert val == pytest.approx(-res.fun, abs=1e-6 * (1 + abs(val)))

    def test_mixed_subspace_constraints_feasible(self):
        rng = np.random.default_rng(3)
        N, S = 4, 2
        sub = _subproblem(rng, N=N, S=S)
        A1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        A2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        cons = make_constraint_set([[(A1, 0.4), (A2, 0.2)]])
        params = EllipsoidParams(tol=1e-6 * 0.4, max_iters=2000)
        mu = solve_multipliers(
            lambda m: sub.precoders_general(m, cons),
            lambda m: residuals(sub.precoders_general(m, cons), cons, 0),
            2, params)
        g = residuals(sub.precoders_general(mu, cons), cons, 0)
        assert g.max() <= params.tol
        assert np.all(mu >= 0)


class TestEllipsoidGeometry:
    def test_volume_shrinks_by_fixed_factor(self):
        # one central cut multiplies det(P) by (d^2/(d^2-1))^d (d-1)/(d+1)
        d = 3
        shape = np.diag([2.0, 1.0, 0.5])
        s = np.array([0.3, -1.0, 0.7])
        step = shape @ s / np.sqrt(s @ shape @ s)
        new = (d * d / (d * d - 1.0)) * (shape - (2.0 / (d + 1.0)) * np.outer(step, step))
        expect = (d * d / (d * d - 1.0)) ** d * (d - 1.0) / (d + 1.0)
        assert np.linalg.det(new) / np.linalg.det(shape) == pytest.approx(expect, rel=1e-12)
        assert np.linalg.det(new) < np.linalg.det(shape)

    def test_initial_ellipsoid_contains_box(self):
        # corners of [0, mu_bar] lie on/inside the starting ellipsoid
        mu_bar = np.array([1.0, 3.0, 0.2])
        d = 3
        center = mu_bar / 2
        shape = (d / 4.0) * np.diag(mu_bar * mu_bar)
        inv = np.linalg.inv(shape)
        for bits in range(8):
            corner = np.array([mu_bar[i] if (bits >> i) & 1 else 0.0 for i in range(3)])
            val = (corner - center) @ inv @ (corner - center)
            assert val <= 1.0 + 1e-12


class TestExpansion:
    def test_infeasible_oracle_raises(self):
        params = EllipsoidParams(tol=1e-8, max_doublings=10)
        with pytest.raises(InfeasibleError):
            solve_multipliers(lambda m: None, lambda m: np.array([1.0]), 1, params)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            solve_multipliers(lambda m: None, lambda m: np.array([1.0]), 1,
                              EllipsoidParams(alpha=1.0))
