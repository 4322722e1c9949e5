"""General convex per-satellite power constraints.

Each satellite carries a list of (weight matrix A, cap rho) pairs bounding
sum_k Tr(W^H A W) <= rho over its precoders. Per-satellite-total and
per-antenna limits are the two standard special cases. The solver finds the
multiplier of a single total-power cap (A = I) as the root of a secular
curve and those of every other family by a certified Newton search on the
dual (`joint_wmmse.dual_newton_multipliers`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError

PSD_TOL = 1e-10  # relative floor on the smallest eigenvalue of a weight matrix


@dataclass(frozen=True)
class PowerConstraintSet:
    """Immutable family of convex power constraints.

    weights[l] is the (X_l, N, N) stack of satellite l's Hermitian PSD
    weight matrices, caps[l][x] the cap in watts, which construction checks
    to be positive. identity[l] is True when satellite l has the single
    constraint A = I (enables the closed-form multiplier search).
    """

    weights: tuple
    caps: tuple
    identity: tuple

    def __post_init__(self):
        for l, caps in enumerate(self.caps):
            bad = np.flatnonzero(~(caps > 0))
            if bad.size:
                raise ValidationError(
                    f"satellite {l} constraint {bad[0]}: rho must be positive")

    @property
    def num_sats(self) -> int:
        return len(self.weights)

    def num_constraints(self, l: int) -> int:
        return len(self.weights[l])

    def scaled(self, factor: float) -> "PowerConstraintSet":
        """Same subspace weights with every cap multiplied by factor."""
        caps = tuple(c * factor for c in self.caps)
        return PowerConstraintSet(self.weights, caps, self.identity)


def make_constraint_set(per_sat_pairs) -> PowerConstraintSet:
    """Validate and freeze a list (over satellites) of [(A, rho), ...]."""
    weights, caps, ident = [], [], []
    for l, pairs in enumerate(per_sat_pairs):
        if len(pairs) == 0:
            raise ValidationError(f"satellite {l}: needs at least one constraint")
        mats, rhos = [], []
        for x, (A, rho) in enumerate(pairs):
            A = np.asarray(A, complex)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValidationError(f"satellite {l} constraint {x}: A must be square")
            if mats and A.shape != mats[0].shape:
                raise ValidationError(
                    f"satellite {l} constraint {x}: A must match the size of constraint 0")
            if not np.allclose(A, A.conj().T,
                               atol=1e-12 * max(1.0, np.abs(A).max())):
                raise ValidationError(
                    f"satellite {l} constraint {x}: A must be Hermitian")
            eigs = np.linalg.eigvalsh(A)
            norm = max(eigs.max(), -eigs.min(), 1e-300)
            if eigs.min() < -PSD_TOL * norm:
                raise ValidationError(
                    f"satellite {l} constraint {x}: A must be positive semidefinite")
            mats.append(A)
            rhos.append(float(rho))
        weights.append(np.stack(mats))
        caps.append(np.asarray(rhos))
        n = mats[0].shape[0]
        ident.append(len(mats) == 1 and np.array_equal(mats[0], np.eye(n)))
    return PowerConstraintSet(tuple(weights), tuple(caps), tuple(ident))


def per_sat_total(rho_per_sat, num_antennas: int) -> PowerConstraintSet:
    """One total-power constraint per satellite: A = I_N, cap rho_l. Every
    satellite shares one read-only (1, N, N) identity stack."""
    rho_per_sat = np.atleast_1d(np.array(rho_per_sat, float))
    eye = np.eye(num_antennas, dtype=complex)[None]
    eye.flags.writeable = False
    return PowerConstraintSet((eye,) * len(rho_per_sat),
                              tuple(rho_per_sat[:, None]), (True,) * len(rho_per_sat))


def per_antenna(rho_per_antenna) -> PowerConstraintSet:
    """N single-entry diagonal constraints per satellite: A_i = e_i e_i^T,
    cap rho_{l,i}. Every satellite shares one read-only (N, N, N) stack of
    those selectors.

    rho_per_antenna: array (L, N) or list of per-satellite cap vectors,
    all of one length N >= 1.
    """
    caps = [np.array(c, float) for c in rho_per_antenna]
    n = caps[0].size if caps else 0
    for l, rhos in enumerate(caps):
        if not rhos.size == n > 0:
            raise ValidationError(
                f"satellite {l}: {rhos.size} per-antenna caps, satellite 0 "
                f"has {n}; every satellite needs the same N >= 1")
    selectors = np.zeros((n, n, n), complex)
    selectors[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    selectors.flags.writeable = False
    return PowerConstraintSet((selectors,) * len(caps), tuple(caps),
                              (n == 1,) * len(caps))


def residuals(precoders: np.ndarray, constraints: PowerConstraintSet) -> np.ndarray:
    """Every constraint residual g_{l,x} = sum_k Tr(W_{l,k}^H A_x W_{l,k}) -
    rho_{l,x}, flat in the order of np.concatenate(constraints.caps);
    feasible iff all entries <= 0.

    precoders: (L, K, N, S). The satellites with the identity family take
    one batched sum of |W|^2 per satellite, every other satellite the dense
    formula over its (X, N, N) weight stack.
    """
    W = np.asarray(precoders)
    L = constraints.num_sats
    if W.ndim != 4 or W.shape[0] != L or any(
            A.shape[1] != W.shape[2] for A in constraints.weights):
        raise ValidationError(f"precoders must have shape ({L}, K, N, S) with "
                              f"N the constraints' size, got {W.shape}")
    flat = W.reshape(L, -1)
    power = np.einsum("ij,ij->i", flat.conj(), flat).real
    if not all(constraints.identity):
        power = np.concatenate([power[l:l + 1] if constraints.identity[l]
                                else _weighted_power(W[l], A)
                                for l, A in enumerate(constraints.weights)])
    return power - np.concatenate(constraints.caps)


def _weighted_power(W: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k Tr(W_k^H A_x W_k) for every A_x of an (X, N, N) stack, W (K, N, S)."""
    n = weights.shape[1]
    cols = W.transpose(1, 0, 2).reshape(n, -1)                # (N, K*S)
    weighted = (weights.reshape(-1, n) @ cols).reshape(len(weights), n, -1)
    return np.einsum("nj,xnj->x", cols.conj(), weighted).real


def _over_caps(resid: np.ndarray, constraints: PowerConstraintSet,
               tol_rel: float):
    """The one over-cap rule, of `scale_to_caps` and `assert_feasible`: a
    residual is over its cap where it exceeds tol_rel of that cap plus
    1e-12 W. Returns those limits and the index of each satellite's first
    residual, both in the flat order of `residuals`, and per satellite
    whether any of its residuals is over."""
    limit = tol_rel * np.concatenate(constraints.caps) + 1e-12
    starts = np.cumsum([0] + [len(c) for c in constraints.caps[:-1]])
    return limit, starts, np.logical_or.reduceat(resid > limit, starts)


def scale_to_caps(precoders: np.ndarray, constraints: PowerConstraintSet,
                  tol_rel: float) -> np.ndarray:
    """Scale down in place every satellite with a residual over its cap
    (`_over_caps`) by 1/sqrt(r), r = max_x p_x / rho_x its worst ratio:
    powers are quadratic in W, so that constraint lands on its cap and the
    others keep their slack. The other satellites are left as they are.
    Returns precoders."""
    resid = residuals(precoders, constraints)
    _, starts, over = _over_caps(resid, constraints, tol_rel)
    ratio = 1.0 + np.maximum.reduceat(resid / np.concatenate(constraints.caps), starts)
    precoders[over] /= np.sqrt(ratio[over])[:, None, None, None]
    return precoders


def assert_feasible(resid: np.ndarray, constraints: PowerConstraintSet,
                    tol_rel: float) -> None:
    """The feasibility certificate on the flat residuals of `residuals`:
    raises NumericsError naming the first satellite with a residual over
    its cap (`_over_caps`) and that satellite's worst constraint, the one
    furthest above its limit."""
    limit, starts, over = _over_caps(resid, constraints, tol_rel)
    if over.any():
        l = int(np.argmax(over))
        own = slice(starts[l], starts[l] + len(constraints.caps[l]))
        x = np.argmax(resid[own] - limit[own])
        raise NumericsError(
            f"satellite {l}: output violates power constraint {x} (residual "
            f"{resid[own][x]:.3e} > {limit[own][x]:.3e})")
