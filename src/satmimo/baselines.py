"""Reference precoders: MMSE, ZF, orthogonal TDMA-MRT and random association.

Each baseline is defined per satellite on the effective channels. MMSE
and ZF are one call each of the builder every closed form uses
(`joint_wmmse.share_rule`, one K x K solve per satellite; MMSE through
`init_precoders`) on the per-link stream bases -b/||b||
(`joint_wmmse.link_bases`), so both put power on
the first stream of each link only, with that explicit phase, and both use
literally the same sqrt(beta)-proportional per-user power sharing as the
WMMSE start: comparisons isolate the precoding strategy rather than the
power policy. MMSE regularizes with the noise power; it is the per-link
variant of the start, whereas `solve` starts from the aggregated basis.
ZF regularizes with zero, or with a small ridge for nearly collinear
users. Both spend per-satellite total caps; the CLI scales a satellite
down to any other constraint family of its row (power.scale_to_caps).
TDMA-MRT fits each of its slots to the row's constraint set the same way,
and is evaluated by Monte Carlo only, on the same EffectiveChannel it is
designed on, one full gain draw per slot: alone (tdma_mrt_baseline), or in
a sweep point, where slot k rides the point's walk k (cli.run_point),
which gives the same gains.
"""

from __future__ import annotations

import warnings

import numpy as np

from .channel import EffectiveChannel
from .errors import InfeasibleError, ValidationError
from .joint_wmmse import init_precoders, link_bases, share_rule
from .power import PowerConstraintSet, per_sat_total, scale_to_caps
from .se_eval import SEReport, exact_se_trials
from .streamwise import StreamAssignment

_RIDGE = 1e-8


def mmse_baseline(effective: EffectiveChannel, rho,
                  num_streams: int | None = None) -> np.ndarray:
    """Regularized-MMSE precoders: `init_precoders`' default (per-link)
    variant under per-satellite total caps rho, which must be positive."""
    L, K, M, N = effective.shape
    rho = np.broadcast_to(np.asarray(rho, float), (L,))
    return init_precoders(effective, per_sat_total(rho, N), num_streams)


def zf_baseline(effective: EffectiveChannel, rho,
                num_streams: int | None = None) -> np.ndarray:
    """Zero-forcing: per satellite, directions that null the other users'
    effective rows, mapped to the dominant user directions and power-shared
    like MMSE (`share_rule` on the per-link bases, without the noise term).

    Its regularizer comes from the K x K Gram D^(1/2) A A^H D^(1/2) (A and
    D as in `share_rule`), whose eigenvalues are the nonzero ones of the
    N x N Gram G = A^H D A, one batched eigvalsh for every satellite: it is
    0, which makes the K x K solve exact zero forcing, when K <= N and the
    smallest eigenvalue exceeds 1e-10 of the largest; otherwise
    (rank-deficient or nearly collinear users) it is the ridge
    1e-8 tr(G)/N, with a warning. The caps rho must be positive and
    finite, else ValidationError."""
    L, K, M, N = effective.shape
    S = M if num_streams is None else num_streams
    rho = np.broadcast_to(np.asarray(rho, float), (L,))
    bad = np.flatnonzero(~(np.isfinite(rho) & (rho > 0)))
    if bad.size:
        raise ValidationError(f"satellite {bad[0]}: rho must be positive and "
                              f"finite, got {rho[bad[0]]}")
    a = effective.a
    root = np.sqrt(effective.beta) * np.linalg.norm(effective.b, axis=-1)
    gram = root[:, :, None] * (a @ a.conj().swapaxes(1, 2)) * root[:, None, :]
    eigval = np.linalg.eigvalsh(gram)
    ridge = ~((K <= N) & (eigval[:, 0] > 1e-10 * eigval[:, -1]))
    for l in np.flatnonzero(ridge):
        warnings.warn(f"satellite {l}: user directions nearly collinear, "
                      "using ridge-regularized zero forcing")
    reg = np.where(ridge, _RIDGE * np.trace(gram, axis1=1, axis2=2).real / N, 0.0)
    return share_rule(effective, rho, link_bases(effective, S), reg)


def tdma_mrt_precoders(effective: EffectiveChannel, rho) -> list:
    """One single-user precoder set per user, with its satellite: only the
    strongest-gain satellite transmits, matched-filter direction, full
    power. MRT's constant modulus meets a total cap rho and per-antenna
    caps rho/N to rounding, so power.scale_to_caps scales neither."""
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


def tdma_mrt_report(slot_trials) -> SEReport:
    """Report of the K slots' per-trial SE of their scheduled users (K
    arrays of T trials): the time sharing divides each SE by K. The slots'
    draws are independent, so their variances add in the standard error."""
    K = len(slot_trials)
    trials = len(slot_trials[0])
    per_user = np.array([se_t.mean() / K for se_t in slot_trials])
    variance = sum(np.var(se_t, ddof=1) / (trials * K * K) if trials > 1
                   else np.nan for se_t in slot_trials)
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=trials, estimator_kind="exact-mc",
                    sum_se_stderr=float(np.sqrt(variance)))


def tdma_mrt_baseline(effective: EffectiveChannel, rho,
                      constraints: PowerConstraintSet, tol_rel: float,
                      trials: int, rng: np.random.Generator) -> SEReport:
    """Orthogonal scheduling: each user is served alone by its nearest
    satellite with MRT (tdma_mrt_precoders), in a slot fitted to the
    constraint set (power.scale_to_caps with tolerance tol_rel), and the
    time sharing divides each SE by K (tdma_mrt_report). Each user's slot
    takes its own full Monte-Carlo gain draw from rng, in user order, and
    evaluates only the scheduled user."""
    return tdma_mrt_report([
        exact_se_trials(scale_to_caps(W, constraints, tol_rel), effective,
                        trials, rng, [k])[0]
        for k, (_, W) in enumerate(tdma_mrt_precoders(effective, rho))])


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
