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
their gains are never stored.

The Monte-Carlo estimator is one evaluator in three steps, which a caller
comparing several precoder sets on common random numbers can share:
plan_users fixes each user's columns once per precoder set and channel;
sample_plan_gains streams one full draw through channel.sample_pair_gains
and keeps the gains of the union of the plans' live (link, user) pairs, 16
bytes per trial and pair; evaluate_users runs every plan on that walk in
chunks of trials.

A user whose every column rides exactly one link (each stream sent by one
satellite: the streamwise modes and every TDMA slot) receives C = V diag(h),
V (M x J) fixed per precoder set and h the gains of its columns' links, so
C C^H = sum_j |h_j|^2 v_j v_j^H: its per-trial SE depends on the link
powers w_j = |h_j|^2 only, never on the gains' phases (nor on a phase
per precoder W[l, k]). By the principal-minor expansion,
det(I + diag(h)^H (Gamma / noise) diag(h)) with Gamma = V^H V is the
polynomial sum_S det(Gamma_S / noise) prod_{j in S} w_j, whose
coefficients are >= 0. The plan keeps those 2^J minors (_principal_minors:
one batched det; a minor over more columns than min(M, distinct links) is
exactly 0, as the columns on one link are parallel) and each chunk
evaluates the polynomial in w (_contract), with no Gram and no
factorization; the interference's polynomial is the part without the
user's own columns. This costs about 2^J multiply-adds per trial, so only
users with J <= _MAX_MINOR_COLUMNS take it; any other user gets its
received responses per chunk from one GEMM on its columns of the kept
gains, and _se_bits.

_se_bits takes the SE as log det(signal + interference + noise) -
log det(interference + noise), from the J live columns, the other users'
first. The J x J stream-space Gram noise I + C^H C gives it for any J
(Sylvester's determinant identity; the leading pivots factor the
interference, and the noise keeps the Gram positive definite); _se_bits
uses it when J <= M; when J > M it factors the M x M
interference-plus-noise and total Grams, built by the same Gram kernel on
the transposed columns (the conjugate Grams, which have the same pivots).
Each factorization is an unpivoted LDL^H vectorised over trials, so no
explicit inverse is formed; a pivot that is not positive and finite, or a
single-link Gram that is not finite, raises NumericsError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _TRIAL_CHUNK, EffectiveChannel, sample_pair_gains
from .errors import NumericsError

_LN2 = np.log(2.0)
# single-link users with more columns take the GEMM path: the minor
# polynomial's cost doubles with each column, the product's hardly grows.
# At M = 4, one BLAS thread, per user-trial: J = 7 about 0.35 us against
# 0.53-0.66 us on the GEMM path, J = 8 0.57 us against 0.53-0.56 us
_MAX_MINOR_COLUMNS = 7


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
    the leading pivots factor the interference's Gram, so the SE is the sum
    of the own pivots' log(d_j / noise). With J > M, the log-dets of the
    M x M interference-plus-noise and total Grams, from the stream Gram
    kernel on the (J, M) transposed columns: conj(C C^H), whose LDL^H
    pivots are those of C C^H.
    """
    M, J, _ = cols.shape
    if J <= M:
        pivots = _ldl_pivots(_stream_gram(cols, noise))
        return np.log(pivots[split:] / noise).sum(axis=0) / _LN2
    rows = cols.swapaxes(0, 1)
    interf = _stream_gram(rows[:split], noise)
    total = interf + _stream_gram(rows[split:], 0.0)
    return (np.log(_ldl_pivots(total)).sum(axis=0)
            - np.log(_ldl_pivots(interf)).sum(axis=0)) / _LN2


def _principal_minors(v, live, noise):
    """The 2^J principal minors det(Gamma_S) of Gamma = V^H V / noise for
    single-link columns V (M, J), column j riding the one link l with
    live[j, l] (J, L), flattened from a (2,)*J tensor whose axis j is 1
    when column j is in S (the empty minor is 1). One batched det, of Gamma
    with the rows and columns outside S replaced by the identity's. The
    columns on one link are all parallel to its b, so a minor of more
    columns than min(M, links in S) is exactly 0 and is set so; the others
    are >= 0, and the clamp absorbs rounding. A Gram that is not finite
    raises NumericsError."""
    M, J = v.shape
    gamma = v.conj().T @ v / noise
    if not np.all(np.isfinite(gamma)):
        raise NumericsError("SE: single-link stream Gram is not finite")
    inside = (np.arange(2 ** J)[:, None] >> np.arange(J - 1, -1, -1)) & 1 == 1
    mats = np.where(inside[:, :, None] & inside[:, None, :], gamma, np.eye(J))
    minors = np.maximum(np.linalg.det(mats).real, 0.0)
    links = (inside @ live).sum(axis=1)
    minors[inside.sum(axis=1) > np.minimum(links, M)] = 0.0
    return minors


def _contract(coef, w):
    """Sum a multilinear polynomial over its first j variables, set to the
    rows of w (j, n), one trial per column. coef (2^m, x) is the flattened
    (2,)*m coefficient tensor (x = 1) or a partial sum of one (x = n);
    returns the (2^(m-j), n) coefficients left on the other m - j
    variables, sum_T coef[T, S] prod_{i in T} w_i for each subset S of them.
    Two numpy calls per variable, about 2^m n multiply-adds in all."""
    for wj in w:
        lo, hi = coef.reshape(2, -1, coef.shape[-1])
        coef = hi * wj
        coef += lo
    return coef


class _UserPlan:
    """One user's received columns, fixed per precoder set and channel:
    the pairs (l K + k) its evaluation reads from a gain walk, the number
    `split` of other users' columns (first), the noise power and either

    - minors: the principal minors (_principal_minors) of
      Gamma = V^H V / noise, V the columns' single-link factors, when every
      live column rides exactly one live link (column j reads pair j) and
      J <= _MAX_MINOR_COLUMNS; or
    - mat: the (M J, P) factor matrix of its P live links (column p reads
      pair p), whose product with the gains gives the received columns.
    """

    def __init__(self, precoders, effective, k):
        L, K, M, N = effective.shape
        self.noise = effective.noise_power_w
        cols, self.split = _stream_columns(
            _stream_factors(precoders, effective, k), k)      # (M, J, L)
        live = np.any(cols != 0, axis=0)                      # (J, L)
        self.J = cols.shape[1]
        if self.J <= _MAX_MINOR_COLUMNS and np.all(live.sum(axis=1) == 1):
            link = live.argmax(axis=1)
            self.minors = _principal_minors(
                cols[:, np.arange(self.J), link], live, self.noise)
            self.mat = None
            self.pairs = link * K + k
        else:
            links = np.flatnonzero(live.any(axis=0))
            self.minors = None
            self.mat = cols[:, :, links].reshape(M * self.J, links.size)
            self.pairs = links * K + k


def plan_users(precoders: np.ndarray, effective: EffectiveChannel,
               users) -> list:
    """One plan per listed user (a repeated user shares its plan) for
    sample_plan_gains and evaluate_users. The plans carry the noise power
    of `effective`, which must be positive."""
    if effective.noise_power_w <= 0:
        raise ValueError("Monte-Carlo SE: noise power must be positive")
    plans = {k: _UserPlan(precoders, effective, k) for k in dict.fromkeys(users)}
    return [plans[k] for k in users]


def sample_plan_gains(effective: EffectiveChannel, trials: int,
                      rng: np.random.Generator, plans):
    """One full (trials, L, K) Rician draw (channel.sample_pair_gains) that
    keeps the union of the plans' pairs, in order of first appearance.
    Returns (gains (trials, P), column), column[l K + k] being the column of
    gains that holds pair (l, k). The generator advances by one full draw
    whatever the plans, so plans of several precoder sets can share one
    walk and each gain is bitwise the one a walk of its own plan gives."""
    if trials < 1:
        raise ValueError("Monte-Carlo SE: need at least one trial")
    pairs = list(dict.fromkeys(p for plan in plans for p in plan.pairs))
    column = np.full(effective.beta.size, -1, np.intp)
    column[pairs] = np.arange(len(pairs))
    gains = sample_pair_gains(effective.beta, effective.kappa, rng, trials,
                              pairs)
    return gains, column


def evaluate_users(plans, gains: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Per-trial SE in bits/s/Hz of every plan on a walk from
    sample_plan_gains, shape (len(plans), T), in chunks of _TRIAL_CHUNK
    trials so the temporaries do not grow with T.

    A minor plan reads only the link powers w_j = |h_j|^2 of its columns'
    gains h: by the principal-minor expansion,
    det(I + diag(h)^H (Gamma / noise) diag(h)) is the polynomial
    P(w) = sum_S det(Gamma_S / noise) prod_{j in S} w_j, and the SE is
    log2 P(w) / P_int(w), P_int the same sum over subsets of the other
    users' columns. Summing over those (leading) columns first leaves a
    partial sum whose entry for no own column is P_int; summing over the
    own columns then gives P. A GEMM plan gets its received columns from
    one product on its pairs' gains and its SE from _se_bits."""
    trials = gains.shape[0]
    out = np.empty((len(plans), trials))
    for u, plan in enumerate(plans):
        idx = column[plan.pairs]
        if plan.minors is None and np.array_equal(
                idx, np.arange(idx[0], idx[0] + idx.size)):
            idx = slice(idx[0], idx[0] + idx.size)   # side by side: a view
        for start in range(0, trials, _TRIAL_CHUNK):
            rows = slice(start, min(start + _TRIAL_CHUNK, trials))
            if plan.minors is None:
                chunk = gains[rows, idx]                      # (n, P)
                resp = (plan.mat @ chunk.T).reshape(-1, plan.J, chunk.shape[0])
                out[u, rows] = _se_bits(resp, plan.split, plan.noise)
                continue
            h = gains[rows].T[idx]                            # (J, n)
            w = h.real ** 2 + h.imag ** 2
            part = _contract(plan.minors[:, None], w[:plan.split])
            out[u, rows] = np.log2(_contract(part, w[plan.split:])[0]
                                   / part[0])
    return out


def exact_se_trials(precoders: np.ndarray, effective: EffectiveChannel,
                    trials: int, rng: np.random.Generator,
                    users) -> np.ndarray:
    """Per-trial SE in bits/s/Hz of the listed users, shape (len(users), T):
    plan_users, one walk (sample_plan_gains) over the union of the users'
    live (link, user) pairs, and evaluate_users. The generator advances
    exactly as in exact_se_mc whichever users are evaluated. A user listed
    twice gets the same row twice."""
    plans = plan_users(precoders, effective, users)
    gains, column = sample_plan_gains(effective, trials, rng, plans)
    return evaluate_users(plans, gains, column)


def mc_report(se_trials: np.ndarray) -> SEReport:
    """Report of per-trial SE (K, T) of every user: the per-user means, and
    the standard error of their sum over the trials (nan from one trial)."""
    trials = se_trials.shape[1]
    per_user = se_trials.mean(axis=1)
    stderr = (float(np.std(se_trials.sum(axis=0), ddof=1) / np.sqrt(trials))
              if trials > 1 else float("nan"))
    return SEReport(per_user_se=per_user, sum_se=float(per_user.sum()),
                    trials_used=trials, estimator_kind="exact-mc",
                    sum_se_stderr=stderr)


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
    return mc_report(exact_se_trials(precoders, effective, trials, rng,
                                     range(K)))


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
