"""Spectral-efficiency estimators.

Two estimators for a joint-form precoder set {W[l,k]}: the exact ergodic SE
averaged over Monte-Carlo fading draws, and the deterministic approximation
that replaces the signal and interference Grams by their expectations. Both
take the statistical CSI (beta, the Rician factor kappa and the noise
power) from the EffectiveChannel the precoders were designed on.

Both use the rank-one links. User k receives stream s of user i as
D_i[:, s] = sum_l gamma_{l,k} b_{l,k} (a_{l,k}^T W_{l,i})_s, so every
received column is a fixed M x L factor matrix applied to the vector of
user k's L link gains. All-zero columns are dropped, and so are links whose
factors are all zero (a satellite that sends user k nothing it receives):
their gains are never stored. The Monte-Carlo estimator streams one full
draw through channel.sample_pair_gains, which keeps only the live
(link, user) pairs of the evaluated users, 16 bytes per trial and pair; it
then runs in chunks of trials, and per chunk and user one GEMM on the
user's columns of the kept gains gives the trials' received responses.

_se_bits turns the J live columns, the other users' first, into the SE
log det(signal + interference + noise) - log det(interference + noise).
When J <= M it factors the J x J stream-space Gram noise I + C^H C once
(Sylvester's determinant identity; the leading pivots factor the
interference); when J > M it factors the M x M interference-plus-noise and
total Grams, built by the same Gram kernel on the transposed columns (the
conjugate Grams, which have the same pivots). Each factorization is an
unpivoted LDL^H vectorised over trials, so no explicit inverse is formed; a
pivot that is not positive and finite raises NumericsError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _TRIAL_CHUNK, EffectiveChannel, sample_pair_gains
from .errors import NumericsError

_LN2 = np.log(2.0)


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


def _stream_columns(factors, k):
    """User k's received columns of (M, K, S, X) factors as (M, J, X), the
    other users' streams first and user k's own last, with the number of
    other users' columns. All-zero columns carry nothing and are dropped."""
    live = np.any(factors != 0, axis=(0, 3))                 # (K, S)
    own = np.zeros_like(live)
    own[k] = live[k]
    other = live & ~own
    cols = np.concatenate([factors[:, other], factors[:, own]], axis=1)
    return cols, int(np.count_nonzero(other))


def _stream_gram(cols, noise):
    """Lower triangle of noise I + C^H C for columns C (M, J, T), per trial,
    as (J, J, T); entries above the diagonal are zero."""
    _, J, T = cols.shape
    gram = np.zeros((J, J, T), complex)
    for i in range(J):
        conj = cols[:, i].conj()
        for j in range(i + 1):
            np.sum(conj * cols[:, j], axis=0, out=gram[i, j])
        gram[i, i] += noise
    return gram


def _ldl_pivots(gram):
    """Pivots (n, T) of the unpivoted LDL^H factorization of Hermitian
    matrices given by their lower triangle (n, n, T), vectorised over
    trials. The strictly lower triangle is overwritten with the unit lower
    factor. A pivot that is not positive and finite raises NumericsError."""
    n, _, T = gram.shape
    d = np.empty((n, T))
    for j in range(n):
        row = gram[j, :j]                   # factor entries of row j
        dj = gram[j, j].real.copy()
        for p in range(j):
            dj -= d[p] * (row[p].real ** 2 + row[p].imag ** 2)
        if not (dj.min() > 0 and dj.max() < np.inf):   # NaN fails both
            raise NumericsError(f"SE Gram pivot {j} of {n} is not positive "
                                "and finite (matrix not positive definite)")
        d[j] = dj
        if j + 1 < n:
            col = gram[j + 1:, j]
            for p in range(j):
                col -= gram[j + 1:, p] * (d[p] * row[p].conj())
            col /= dj
    return d


def _se_bits(cols, split, noise):
    """Per-trial SE in bits from received responses (M, J, T): the first
    `split` columns (other users' streams) are the interference, the rest
    user k's own streams the signal.

    With J <= M columns, one LDL^H of the J x J Gram noise I + C^H C: by
    Sylvester's identity log det(noise I_M + C C^H) is
    (M - J) log(noise) + log det(noise I_J + C^H C) for any J columns, and
    the first `split` pivots factor the interference's Gram, so the SE is
    the sum of the own pivots' log(d_j / noise). With J > M, the log-dets
    of the M x M interference-plus-noise and total Grams, from the stream
    Gram kernel on the (J, M) transposed columns: conj(C C^H), whose LDL^H
    pivots are those of C C^H.
    """
    M, J, _ = cols.shape
    if J <= M:
        d = _ldl_pivots(_stream_gram(cols, noise))
        return np.log(d[split:] / noise).sum(axis=0) / _LN2
    rows = cols.swapaxes(0, 1)
    interf = _stream_gram(rows[:split], noise)
    total = interf + _stream_gram(rows[split:], 0.0)
    return (np.log(_ldl_pivots(total)).sum(axis=0)
            - np.log(_ldl_pivots(interf)).sum(axis=0)) / _LN2


def exact_se_trials(precoders: np.ndarray, effective: EffectiveChannel,
                    trials: int, rng: np.random.Generator,
                    users) -> np.ndarray:
    """Per-trial SE in bits/s/Hz of the listed users, shape (len(users), T).

    One streamed pass over a full (T, L, K) draw of Rician gains
    (channel.sample_pair_gains) keeps the gains of the union of the users'
    live (link, user) pairs, the links that carry one of a user's received
    streams, so the generator advances exactly as in exact_se_mc whichever
    users are evaluated. The evaluation then runs in chunks of _TRIAL_CHUNK
    trials, so its temporaries do not grow with T: per chunk, a user's
    responses come from one GEMM on its columns of the kept gains, and its
    SE from _se_bits. A user listed twice gets the same row twice.
    """
    noise = effective.noise_power_w
    if noise <= 0:
        raise ValueError("Monte-Carlo SE: noise power must be positive")
    if trials < 1:
        raise ValueError("Monte-Carlo SE: need at least one trial")
    L, K, M, N = effective.shape
    # per distinct user: response matrix, column split and its columns of
    # the kept gains
    plans, pairs = {}, []
    for k in dict.fromkeys(users):
        cols, split = _stream_columns(
            _stream_factors(precoders, effective, k), k)      # (M, J, L)
        live = np.flatnonzero(np.any(cols != 0, axis=(0, 1)))
        mat = cols[:, :, live].reshape(M * cols.shape[1], live.size)
        plans[k] = mat, split, slice(len(pairs), len(pairs) + live.size)
        pairs.extend(live * K + k)
    gains = sample_pair_gains(effective.beta, effective.kappa, rng, trials,
                              pairs)
    out = np.empty((len(users), trials))
    for u, k in enumerate(users):
        mat, split, span = plans[k]
        for start in range(0, trials, _TRIAL_CHUNK):
            rows = slice(start, min(start + _TRIAL_CHUNK, trials))
            chunk = gains[rows, span]
            resp = (mat @ chunk.T).reshape(M, -1, chunk.shape[0])
            out[u, rows] = _se_bits(resp, split, noise)
    return out


def exact_se_mc(precoders: np.ndarray, effective: EffectiveChannel,
                trials: int, rng: np.random.Generator) -> SEReport:
    """Ergodic SE by Monte-Carlo averaging over Rician channel draws.

    Each trial draws the L*K complex gains; the per-trial rate is
    log2 det(I + D_k D_k^H (sum_{i!=k} D_i D_i^H + noise I)^{-1}) with
    D_i = sum_l H_{l,k} W_{l,i} and the noise power of `effective`.
    Deterministic for a fixed generator state
    (ordered reduction over trials).
    """
    K = effective.shape[1]
    se_t = exact_se_trials(precoders, effective, trials, rng, range(K))
    per_user = se_t.mean(axis=1)
    stderr = (float(np.std(se_t.sum(axis=0), ddof=1) / np.sqrt(trials))
              if trials > 1 else float("nan"))
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=trials, estimator_kind="exact-mc",
                    sum_se_stderr=stderr)


def approx_se(precoders: np.ndarray, effective: EffectiveChannel) -> SEReport:
    """Deterministic SE approximation built from per-link precoder Grams.

    The exact evaluator's Grams with E[gamma gamma^H] = diag(beta): every
    (stream, link) pair is one column scaled by sqrt(beta_{l,k}). Depends on
    the precoders only through W W^H, hence invariant to any per-link
    unit-modulus phase rotation.
    """
    noise = effective.noise_power_w
    if noise <= 0:
        raise ValueError("approx_se: noise power must be positive")
    L, K, M, N = effective.shape
    S = precoders.shape[3]
    per_user = np.empty(K)
    for k in range(K):
        factors = _stream_factors(precoders, effective, k)
        factors = factors * np.sqrt(effective.beta[:, k])
        cols, split = _stream_columns(factors.reshape(M, K, S * L, 1), k)
        per_user[k] = _se_bits(cols, split, noise)[0]
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=0, estimator_kind="approx")


def mc_rng(scenario_seed: int, point_index: int) -> np.random.Generator:
    """Generator for one sweep point; identical across precoder variants so
    Monte-Carlo comparisons use common random numbers."""
    return np.random.default_rng(np.random.SeedSequence([scenario_seed, point_index]))
