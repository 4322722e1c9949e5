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

from .errors import ValidationError

PSD_TOL = 1e-10  # relative floor on the smallest eigenvalue of a weight matrix


@dataclass(frozen=True)
class PowerConstraintSet:
    """Immutable family of convex power constraints.

    weights[l] is the (X_l, N, N) stack of satellite l's Hermitian PSD
    weight matrices, caps[l][x] the positive cap in watts. identity[l] is
    True when satellite l has the single constraint A = I (enables the
    closed-form multiplier search).
    """

    weights: tuple
    caps: tuple
    identity: tuple

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
            if not rho > 0:
                raise ValidationError(f"satellite {l} constraint {x}: rho must be positive")
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
    for l, rho in enumerate(rho_per_sat):
        if not rho > 0:
            raise ValidationError(f"satellite {l} constraint 0: rho must be positive")
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
        for i, rho in enumerate(rhos):
            if not rho > 0:
                raise ValidationError(
                    f"satellite {l} constraint {i}: rho must be positive")
    selectors = np.zeros((n, n, n), complex)
    selectors[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    selectors.flags.writeable = False
    return PowerConstraintSet((selectors,) * len(caps), tuple(caps),
                              (n == 1,) * len(caps))


def residuals(precoders_for_sat: np.ndarray, constraints: PowerConstraintSet,
              l: int) -> np.ndarray:
    """Constraint residuals g_{l,x} = sum_k Tr(W^H A_x W) - rho_x for one
    satellite; feasible iff all entries <= 0.

    precoders_for_sat: (K, N, S) precoders of satellite l.
    """
    W = np.asarray(precoders_for_sat)
    A = constraints.weights[l]
    n = A.shape[1]
    if W.ndim != 3 or W.shape[1] != n:
        raise ValidationError(
            f"satellite {l}: precoders must have shape (K, {n}, S), got {W.shape}")
    if constraints.identity[l]:
        return np.array([np.vdot(W, W).real]) - constraints.caps[l]
    cols = W.transpose(1, 0, 2).reshape(n, -1)            # (N, K*S)
    weighted = (A.reshape(-1, n) @ cols).reshape(len(A), n, -1)
    return np.einsum("nj,xnj->x", cols.conj(), weighted).real - constraints.caps[l]


def scale_to_caps(precoders: np.ndarray, constraints: PowerConstraintSet,
                  tol_rel: float) -> np.ndarray:
    """Scale down in place every satellite whose worst constraint ratio
    r = max_x p_x / rho_x exceeds 1 + tol_rel, by 1/sqrt(r): powers are
    quadratic in W, so that constraint lands on its cap and the others keep
    their slack. Returns precoders."""
    for l in range(constraints.num_sats):
        ratio = 1.0 + np.max(residuals(precoders[l], constraints, l)
                             / constraints.caps[l])
        if ratio > 1.0 + tol_rel:
            precoders[l] /= np.sqrt(ratio)
    return precoders
