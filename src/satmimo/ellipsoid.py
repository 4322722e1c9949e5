"""Central-cut ellipsoid search for nonnegative Lagrange multipliers.

Given oracles mapping a multiplier vector to the closed-form precoders and
to the power-constraint residuals, finds mu >= 0 making the precoders
feasible: mu = 0 when already feasible, otherwise a geometric expansion
brackets a feasible upper bound and the ellipsoid shrinks around the
boundary. The one-dimensional case degenerates in the central-cut formulas
(d^2 - 1 = 0) and is handed to `bisect_multiplier`, a bisection on the
residual oracle. (A satellite whose only constraint is the total-power cap
A = I never comes here: its multiplier is the root of a closed-form secular
curve, `joint_wmmse.secular_multiplier`.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericsError


@dataclass
class EllipsoidParams:
    alpha: float = 2.0          # geometric expansion factor (> 1)
    tol: float = 1e-8           # residual tolerance and ellipsoid-size stop
    max_iters: int = 300
    max_doublings: int = 60


@dataclass
class EllipsoidState:
    center: np.ndarray
    shape: np.ndarray
    iteration: int


def solve_multipliers(precoder_oracle, residual_oracle, dim: int,
                      params: EllipsoidParams) -> np.ndarray:
    """Multiplier vector with residual_oracle(mu) <= params.tol elementwise.

    precoder_oracle(mu) yields the closed-form precoders for a candidate mu;
    callers evaluate it at the returned mu* to materialize the solution.
    residual_oracle(mu) returns the length-dim residual vector, negative
    entries meaning slack. Residuals must tend to negative values as mu
    grows (guaranteed for power constraints, where large mu shrinks the
    precoders toward zero).
    """
    if params.alpha <= 1:
        raise ValueError("ellipsoid expansion factor must exceed 1")
    g0 = np.asarray(residual_oracle(np.zeros(dim)), float)
    if g0.shape != (dim,):
        raise ValueError(f"residual oracle must return {dim} entries")
    if np.all(g0 <= 0):
        return np.zeros(dim)
    if dim == 1:
        return np.array([bisect_multiplier(
            lambda mu: float(residual_oracle(np.array([mu]))[0]), params.tol,
            params.alpha, params.max_doublings)])

    mu_bar = _expand_feasible(residual_oracle, dim, params)
    return _ellipsoid_search(residual_oracle, mu_bar, params)


def bisect_multiplier(residual_fn, tol: float, alpha: float = 2.0,
                      max_doublings: int = 60) -> float:
    """Smallest mu >= 0 with residual_fn(mu) <= 0, to 1e-15 relative.

    residual_fn maps a scalar multiplier to (power - cap) and must decrease
    in mu. mu = 0 when already feasible; otherwise mu = 1 is scaled by alpha
    until feasible and [0, mu] is bisected. Raises InfeasibleError when no
    feasible mu is found within max_doublings, and NumericsError when the
    residual at the returned mu is not within tol (absolute, in the
    residual's units), e.g. because the oracle is not reproducible or
    returns NaN.
    """
    if alpha <= 1:
        raise ValueError("multiplier expansion factor must exceed 1")
    if residual_fn(0.0) <= 0:
        return 0.0
    hi = 1.0
    for _ in range(max_doublings + 1):
        if residual_fn(hi) <= 0:
            break
        hi *= alpha
    else:
        raise InfeasibleError(
            "geometric expansion found no feasible multiplier; constraint set "
            "appears ill-posed")
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if residual_fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    residual = residual_fn(hi)
    if not residual <= tol:
        raise NumericsError(
            f"multiplier search ended at residual {residual:.3e} above the "
            f"tolerance {tol:.3e}")
    return hi


def _expand_feasible(residual_oracle, dim, params) -> np.ndarray:
    """Scale an all-ones vector by alpha until every residual is met."""
    mu = np.ones(dim)
    for _ in range(params.max_doublings + 1):
        if np.all(np.asarray(residual_oracle(mu)) <= 0):
            return mu
        mu = params.alpha * mu
    raise InfeasibleError(
        "geometric expansion found no feasible multiplier; constraint set "
        "appears ill-posed")


def _ellipsoid_search(residual_oracle, mu_bar, params) -> np.ndarray:
    d = mu_bar.size
    # starting ellipsoid contains the box [0, mu_bar]
    state = EllipsoidState(center=mu_bar / 2.0,
                           shape=(d / 4.0) * np.diag(mu_bar * mu_bar),
                           iteration=0)
    best = mu_bar.copy()                          # feasible by construction
    best_max = float(np.max(residual_oracle(mu_bar)))

    while state.iteration < params.max_iters:
        state.iteration += 1
        g = np.asarray(residual_oracle(state.center), float)
        gmax = float(g.max())
        if gmax <= params.tol:
            # prefer feasible centers near the boundary (least over-damped)
            if gmax > best_max:
                best, best_max = state.center.copy(), gmax
            # the diagonal can round slightly negative once the ellipsoid
            # degenerates; treat that as fully collapsed
            size = np.sqrt(np.clip(np.diag(state.shape), 0.0, None)).max()
            if size <= params.tol:
                return state.center
        # The residual vector is a supergradient of the concave dual, so the
        # kept halfspace is {mu: g^T (mu - c) >= 0}: cut normal -g. (At an
        # infeasible center this raises the multipliers of the violated
        # constraints; at a feasible one it lowers the slack ones.)
        cut = -g
        denom = cut @ state.shape @ cut
        if denom <= 0:  # ellipsoid numerically collapsed
            break
        step = (state.shape @ cut) / np.sqrt(denom)
        state.center = np.maximum(state.center - step / (d + 1.0), 0.0)
        shape = (d * d / (d * d - 1.0)) * (
            state.shape - (2.0 / (d + 1.0)) * np.outer(step, step))
        state.shape = 0.5 * (shape + shape.T)

    if float(np.max(residual_oracle(state.center))) <= params.tol:
        return state.center
    return best
