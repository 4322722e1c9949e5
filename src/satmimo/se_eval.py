"""Spectral-efficiency estimators.

Two estimators for a joint-form precoder set {W[l,k]}: the exact ergodic SE
averaged over Monte-Carlo fading draws, and the deterministic approximation
that replaces the signal and interference Grams by their expectations.

Both use the rank-one links. User k receives stream s of user i as
D_i[:, s] = sum_l gamma_{l,k} b_{l,k} (a_{l,k}^T W_{l,i})_s, so every
received column is a fixed M x L factor matrix applied to the vector of
user k's L link gains. Links whose factors are all zero (a satellite
that sends user k nothing it receives) are dropped, and their gains are
never synthesised. A trial's responses come from one GEMM per chunk of
trials, and its Grams from the M(M+1)/2 pairwise products of the columns.
The log-dets logdet(signal + interference + noise) -
logdet(interference + noise) come from an unpivoted LDL^H factorization
vectorised over trials, so no explicit inverse is formed; a pivot that is
not positive and finite raises NumericsError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (EffectiveChannel, draw_rician, rician_amplitudes,
                      rician_gains)
from .errors import NumericsError
from .scenario import LinkStatistics

_LN2 = np.log(2.0)
# trials per evaluation chunk: bounds the GEMM and Gram temporaries
_TRIAL_CHUNK = 2048


@dataclass(frozen=True)
class SEReport:
    per_user_se: np.ndarray     # bits/s/Hz per user
    sum_se: float
    trials_used: int
    estimator_kind: str         # "exact-mc" | "approx"
    # Monte-Carlo standard error of sum_se: sample std of the per-trial sum
    # SE over sqrt(trials); 0.0 for the deterministic approximation, nan
    # from a single trial
    sum_se_stderr: float = 0.0


def _stream_factors(precoders, effective, k):
    """Per-link factors of every stream as received by user k.

    Returns (M, K, S, L) with entry [m, i, s, l] = b_{l,k}[m] (a_{l,k}^T
    W_{l,i})_s; summing over l with weights gamma_{l,k} gives the received
    response D_i[m, s].
    """
    rows = np.einsum("ln,lins->isl", effective.a[:, k], precoders)  # a^T W
    return effective.b[:, k].T[:, None, None, :] * rows[None]


def _split_streams(factors, k):
    """(other users' columns, user k's columns) of (M, K, S, X) factors, as
    (M, J, X) arrays; all-zero columns carry nothing and are dropped."""
    live = np.any(factors != 0, axis=(0, 3))                 # (K, S)
    own = np.zeros_like(live)
    own[k] = live[k]
    return factors[:, live & ~own], factors[:, own]


def _gram(cols, M, T):
    """Lower triangle of sum_j c_j c_j^H for columns (M, J, T), per trial,
    as (M, M, T); entries above the diagonal are left zero."""
    gram = np.zeros((M, M, T), complex)
    conj = cols.conj()
    for m in range(M):
        for n in range(m + 1):
            gram[m, n] = np.einsum("jt,jt->t", cols[m], conj[n])
    return gram


def _logdet(gram):
    """log det of Hermitian positive-definite matrices given by their lower
    triangle (M, M, T), by an unpivoted LDL^H factorization over trials."""
    M, _, T = gram.shape
    d = np.empty((M, T))
    low = np.empty((M, M, T), complex)      # strictly lower unit factor
    for j in range(M):
        dj = gram[j, j].real.copy()
        for p in range(j):
            dj -= d[p] * (low[j, p].real ** 2 + low[j, p].imag ** 2)
        if not np.all((dj > 0) & (dj < np.inf)):
            raise NumericsError(f"SE Gram pivot {j} of {M} is not positive "
                                "and finite (matrix not positive definite)")
        d[j] = dj
        if j + 1 < M:
            col = gram[j + 1:, j].copy()
            for p in range(j):
                col -= low[j + 1:, p] * (d[p] * low[j, p].conj())
            low[j + 1:, j] = col / dj
    return np.log(d).sum(axis=0)


def _se_bits(other, own, noise):
    """Per-trial SE in bits from received responses (M, J, T): the other
    users' streams form the interference, user k's own streams the signal."""
    M, _, T = own.shape
    interf = _gram(other, M, T)
    idx = np.arange(M)
    interf[idx, idx] += noise
    total = interf + _gram(own, M, T)
    return (_logdet(total) - _logdet(interf)) / _LN2


def _live_gains(raw, los, nlos, k, live):
    """Gains of user k on the links `live`, trial-last (len(live), T), from
    the raw (T, L, K) draws of draw_rician; bitwise the sample_gamma entries
    of the same draw. Scales user k's columns of the raw normals in place."""
    psi, x, y = raw
    gains = np.empty((live.size, psi.shape[0]), complex)
    for j, l in enumerate(live):
        rician_gains(psi[:, l, k], x[:, l, k], y[:, l, k], los[l, k],
                     nlos[l, k], gains[j])
    return gains


def exact_se_trials(precoders: np.ndarray, link_stats: LinkStatistics,
                    effective: EffectiveChannel, noise: float, trials: int,
                    rng: np.random.Generator, users) -> np.ndarray:
    """Per-trial SE in bits/s/Hz of the listed (distinct) users, shape
    (len(users), T).

    Draws the raw variates of one full (T, L, K) set of Rician gains, so the
    generator advances exactly as in exact_se_mc whichever users are
    evaluated, but synthesises a user's gains only on the links that carry
    one of its received streams. The raw draws are released before the
    evaluation, which runs in chunks of _TRIAL_CHUNK trials, so its
    temporaries do not grow with T.
    """
    if noise <= 0:
        raise ValueError("Monte-Carlo SE: noise power must be positive")
    if trials < 1:
        raise ValueError("Monte-Carlo SE: need at least one trial")
    raw = draw_rician(rng, (trials,) + link_stats.beta.shape)
    los, nlos = rician_amplitudes(link_stats.beta, link_stats.kappa)
    work = []
    for k in users:
        other, own = _split_streams(_stream_factors(precoders, effective, k), k)
        cols = np.concatenate([other, own], axis=1)          # (M, J, L)
        live = np.flatnonzero(np.any(cols != 0, axis=(0, 1)))
        work.append((cols[:, :, live], other.shape[1],
                     _live_gains(raw, los, nlos, k, live)))
    del raw
    out = np.empty((len(users), trials))
    for u, (cols, split, gains) in enumerate(work):
        M, J, L = cols.shape
        mat = cols.reshape(M * J, L)
        for start in range(0, trials, _TRIAL_CHUNK):
            chunk = gains[:, start:start + _TRIAL_CHUNK]
            resp = (mat @ chunk).reshape(M, J, chunk.shape[1])
            out[u, start:start + chunk.shape[1]] = _se_bits(
                resp[:, :split], resp[:, split:], noise)
    return out


def exact_se_mc(precoders: np.ndarray, link_stats: LinkStatistics,
                effective: EffectiveChannel, noise: float, trials: int,
                rng: np.random.Generator) -> SEReport:
    """Ergodic SE by Monte-Carlo averaging over Rician channel draws.

    Each trial draws the L*K complex gains; the per-trial rate is
    log2 det(I + D_k D_k^H (sum_{i!=k} D_i D_i^H + noise I)^{-1}) with
    D_i = sum_l H_{l,k} W_{l,i}. Deterministic for a fixed generator state
    (ordered reduction over trials).
    """
    K = effective.shape[1]
    se_t = exact_se_trials(precoders, link_stats, effective, noise, trials,
                           rng, range(K))
    per_user = se_t.mean(axis=1)
    stderr = (float(np.std(se_t.sum(axis=0), ddof=1) / np.sqrt(trials))
              if trials > 1 else float("nan"))
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=trials, estimator_kind="exact-mc",
                    sum_se_stderr=stderr)


def approx_se(precoders: np.ndarray, effective: EffectiveChannel,
              noise: float) -> SEReport:
    """Deterministic SE approximation built from per-link precoder Grams.

    The exact evaluator's Grams with E[gamma gamma^H] = diag(beta): every
    (stream, link) pair is one column scaled by sqrt(beta_{l,k}). Depends on
    the precoders only through W W^H, hence invariant to any per-link
    unit-modulus phase rotation.
    """
    if noise <= 0:
        raise ValueError("approx_se: noise power must be positive")
    L, K, M, N = effective.shape
    S = precoders.shape[3]
    per_user = np.empty(K)
    for k in range(K):
        factors = _stream_factors(precoders, effective, k)
        factors = factors * np.sqrt(effective.beta[:, k])
        other, own = _split_streams(factors.reshape(M, K, S * L, 1), k)
        per_user[k] = _se_bits(other, own, noise)[0]
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=0, estimator_kind="approx")


def approx_vs_exact_gap(precoders: np.ndarray, link_stats: LinkStatistics,
                        effective: EffectiveChannel, noise: float, trials: int,
                        rng: np.random.Generator):
    """Evaluate both estimators on the same precoders; gap = approx - exact."""
    approx = approx_se(precoders, effective, noise)
    exact = exact_se_mc(precoders, link_stats, effective, noise, trials, rng)
    return approx, exact, approx.sum_se - exact.sum_se


def mc_rng(scenario_seed: int, point_index: int) -> np.random.Generator:
    """Generator for one sweep point; identical across precoder variants so
    Monte-Carlo comparisons use common random numbers."""
    return np.random.default_rng(np.random.SeedSequence([scenario_seed, point_index]))
