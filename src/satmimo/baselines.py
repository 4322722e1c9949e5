"""Reference precoders: MMSE, ZF, orthogonal TDMA-MRT and random association.

Each baseline is defined per satellite on the effective channels. MMSE is
the WMMSE initializer itself, and ZF is built by the initializer's own
per-satellite builder (`joint_wmmse.share_rule_blocks`) with the
regularizer set to zero, so both use literally the same
sqrt(beta)-proportional per-user power sharing and comparisons isolate the
precoding strategy rather than the power policy. Both spend per-satellite
total caps; the CLI scales a satellite down to any other constraint family
of its row (power.scale_to_caps). TDMA-MRT is evaluated by Monte Carlo
only, on the same EffectiveChannel it is designed on.
"""

from __future__ import annotations

import warnings

import numpy as np

from .channel import EffectiveChannel
from .errors import InfeasibleError
from .joint_wmmse import init_precoders, link_bases, share_rule_blocks
from .power import per_sat_total
from .se_eval import SEReport, exact_se_trials
from .streamwise import StreamAssignment

_RIDGE = 1e-8


def mmse_baseline(effective: EffectiveChannel, rho,
                  num_streams: int | None = None) -> np.ndarray:
    """Regularized-MMSE precoders; identical to the WMMSE initialization."""
    L, K, M, N = effective.shape
    rho = np.broadcast_to(np.asarray(rho, float), (L,))
    return init_precoders(effective, per_sat_total(rho, N), num_streams)


def zf_baseline(effective: EffectiveChannel, rho,
                num_streams: int | None = None) -> np.ndarray:
    """Zero-forcing: per satellite, directions that null the other users'
    effective rows, mapped to the dominant user directions and power-shared
    like the initializer (`share_rule_blocks` on the unregularized Gram,
    inverted on its row space). Rank-deficient user geometries fall back to
    a small ridge."""
    L, K, M, N = effective.shape
    S = M if num_streams is None else num_streams
    rho = np.broadcast_to(np.asarray(rho, float), (L,))
    out = np.empty((L, K, N, S), complex)
    for l in range(L):
        out[l] = share_rule_blocks(effective, l, float(rho[l]),
                                   enumerate(link_bases(effective, l, S)), 0.0,
                                   inverse=lambda gram: _zf_inverse(gram, l, K))
    return out


def _zf_inverse(gram: np.ndarray, l: int, num_users: int) -> np.ndarray:
    # gram has rank K; invert it on its row space only
    N = gram.shape[0]
    eigval = np.linalg.eigvalsh(gram)
    if num_users <= N and eigval[-num_users] > 1e-10 * eigval[-1]:
        return np.linalg.pinv(gram, hermitian=True, rcond=1e-10)
    warnings.warn(f"satellite {l}: user directions nearly collinear, "
                  "using ridge-regularized zero forcing")
    return np.linalg.inv(gram + _RIDGE * (np.trace(gram).real / N) * np.eye(N))


def tdma_mrt_precoders(effective: EffectiveChannel, rho) -> list:
    """One single-user precoder set per user: only the strongest-gain
    satellite transmits, matched-filter direction, full power."""
    L, K, M, N = effective.shape
    rho = np.broadcast_to(np.asarray(rho, float), (L,))
    sets = []
    for k in range(K):
        l = int(np.argmax(effective.beta[:, k]))
        W = np.zeros((L, K, N, 1), complex)
        # matched filter to the rank-one link: Hb^H (dominant left vector)
        # is proportional to the conjugate satellite-side response
        direction = effective.a[l, k].conj()
        W[l, k, :, 0] = np.sqrt(rho[l]) * direction / np.linalg.norm(direction)
        sets.append((l, W))
    return sets


def tdma_mrt_baseline(effective: EffectiveChannel, rho, trials: int,
                      rng: np.random.Generator) -> SEReport:
    """Orthogonal scheduling: each user is served alone by its nearest
    satellite with MRT, and the time sharing divides each SE by K.

    Each user's slot takes its own full Monte-Carlo gain draw and evaluates
    only the scheduled user; the slots' draws are independent, so their
    variances add in the standard error."""
    K = effective.shape[1]
    per_user = np.empty(K)
    variance = 0.0
    for k, (_, W) in enumerate(tdma_mrt_precoders(effective, rho)):
        se_t = exact_se_trials(W, effective, trials, rng, [k])[0]
        per_user[k] = se_t.mean() / K
        variance += (np.var(se_t, ddof=1) / (trials * K * K)
                     if trials > 1 else np.nan)
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=trials, estimator_kind="exact-mc",
                    sum_se_stderr=float(np.sqrt(variance)))


def random_association(rng: np.random.Generator, num_streams: int,
                       num_sats: int, num_users: int) -> StreamAssignment:
    """Uniformly random injective stream -> satellite map per user; raises
    InfeasibleError, as `associate` does, when S > L."""
    if num_streams > num_sats:
        raise InfeasibleError(
            f"{num_streams} streams need {num_streams} distinct satellites, "
            f"have {num_sats}")
    pi = np.stack([rng.permutation(num_sats)[:num_streams]
                   for _ in range(num_users)])
    return StreamAssignment.from_pi(pi, num_sats)
