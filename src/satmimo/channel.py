"""Array responses, deterministic effective channels and Rician gain draws.

Every satellite-user link is a far-field LoS channel: a rank-one outer
product of the user-side and satellite-side ULA responses, scaled by a
complex gain whose phase fluctuates much faster than the geometry. The
transmitter designs precoders from the deterministic effective matrices;
Monte-Carlo evaluation draws the random gains. EffectiveChannel carries the
whole statistical CSI of a drop that both need: the ULA factors, beta, the
Rician factor kappa and the noise power. Each link is stored once, as its
factors; no dense M x N block is kept.

User k's aggregated channel [Hb_{1,k} ... Hb_{L,k}] (M x L*N) is the M x L
link matrix C_k, column l = sqrt(beta_{l,k}) ||a_{l,k}|| b_{l,k} (for a ULA
||a||^2 = N), times a matrix with orthonormal rows (row l holds
a_{l,k}^T / ||a_{l,k}|| in block l). So the two share their singular values
and left singular vectors, and block l of the aggregated right vector m is
V_k[l, m] conj(a_{l,k}) / ||a_{l,k}||.

sample_pair_gains is the one Rician synthesis: it streams a full
(trials, L, K) draw through a chunk buffer in a fixed order (phases, then
real, then imaginary normals) and stores the gains of the requested
(link, user) pairs only. sample_gamma is the same pass over every pair.
The LoS phasor e^{2 pi i u} of a unit uniform u comes from a read-only
table of 2^_PHASOR_BITS roots of unity, rotated by a short polynomial in
the remainder (the table-driven scheme of Tang, ACM TOMS 15(2), 1989):
within 1.5 eps of the exact phasor where libm's cos(2 pi u) and
sin(2 pi u) reach 3.3 eps, at a third of their cost. Every step is an
elementwise IEEE operation, so a gain depends on its own variates only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import LinkStatistics, ScenarioConfig

# trials per chunk of the gain synthesis and of the Monte-Carlo evaluation:
# bounds their per-chunk buffers and temporaries
_TRIAL_CHUNK = 2048
# LoS phasor: table entries 2^_PHASOR_BITS, and elements per kernel block,
# which bounds the kernel's scratch to 7 arrays of _PHASOR_BLOCK words
_PHASOR_BITS = 12
_PHASOR_BLOCK = 8192


def _phasor_table() -> np.ndarray:
    """(2, n) read-only cos and sin of 2 pi k / n, n = 2^_PHASOR_BITS: libm
    on the first octant, where its argument is smallest, and the rest by
    the exact symmetries of the circle (within 0.51 eps of the exact
    values)."""
    n = 1 << _PHASOR_BITS
    angle = np.arange(n // 8 + 1) * (2 * np.pi / n)
    cos, sin = np.cos(angle), np.sin(angle)
    table = np.empty((2, n))
    table[:, :n // 8] = cos[:-1], sin[:-1]
    table[:, n // 8:n // 4] = sin[:0:-1], cos[:0:-1]
    table[:, n // 4:n // 2] = -table[1, :n // 4], table[0, :n // 4]
    table[:, n // 2:] = -table[:, :n // 2]
    table.flags.writeable = False
    return table


_PHASOR_TABLE = _phasor_table()


@dataclass(frozen=True)
class EffectiveChannel:
    """Deterministic per-link rank-one channels Hb_{l,k} = sqrt(beta) b a^T,
    stored as their factors.

    b and a are the unit-modulus ULA response factors of shape (L, K, M) and
    (L, K, N). beta, the linear Rician factor kappa (both (L, K)) and the
    noise power are carried along for the precoder designers and the SE
    estimators.
    """

    b: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    noise_power_w: float

    @property
    def shape(self):
        return self.b.shape + self.a.shape[-1:]  # (L, K, M, N)


def ula_response(angle_rad: float, num_antennas: int) -> np.ndarray:
    """Half-wavelength ULA response, entry n = exp(j*pi*n*sin(angle))."""
    if num_antennas < 1:
        raise ValueError("ula_response: need at least one antenna")
    angle_rad = np.asarray(angle_rad, float)
    if not np.all(np.isfinite(angle_rad)):
        raise ValueError("ula_response: angle must be finite")
    n = np.arange(num_antennas)
    return np.exp(1j * np.pi * np.sin(angle_rad)[..., None] * n)


def effective_channels(link_stats: LinkStatistics, config: ScenarioConfig) -> EffectiveChannel:
    """Build all L*K deterministic effective channels from link statistics."""
    b = ula_response(link_stats.theta, config.M)            # (L, K, M)
    a = ula_response(link_stats.phi, config.N)              # (L, K, N)
    return EffectiveChannel(b=b, a=a, beta=link_stats.beta.copy(),
                            kappa=link_stats.kappa.copy(),
                            noise_power_w=link_stats.noise_power_w)


def sample_pair_gains(beta: np.ndarray, kappa: np.ndarray,
                      rng: np.random.Generator, trials: int,
                      pairs) -> np.ndarray:
    """Rician gains (trials, len(pairs)) on the flat (link, user) indices
    `pairs` (l K + k, in any order) out of one full (trials, L, K) draw.

    The generator walks the full draw's order: every unit uniform u of the
    LoS phase psi = 2 pi u, then every real part x, then every imaginary
    part y of the standard normal scattered component. It fills one reused
    (_TRIAL_CHUNK, L K) buffer a chunk of trials at a time, and only the
    requested pairs are kept: their LoS terms los e^{2 pi i u} are written
    by _los_phasors, and nlos x and nlos y are added in place. The unkept
    variates are generated, because a normal variate takes a variable
    number of generator words, but never stored. So the variates are those
    of the full draw and the generator ends where the full draw leaves it;
    each gain is within 4 eps (los + nlos (|x| + |y|)) of the Rician
    formula on its variates, and bitwise the same whichever other pairs, in
    whatever order, are kept.
    """
    pairs = np.asarray(pairs, np.intp)
    if pairs.size and not 0 <= pairs.min() <= pairs.max() < beta.size:
        raise ValueError("sample_pair_gains: pair index out of range")
    los = np.sqrt(beta * kappa / (kappa + 1.0)).ravel()[pairs]
    nlos = np.sqrt(beta / (2.0 * (kappa + 1.0))).ravel()[pairs]
    gains = np.empty((trials, pairs.size), complex)
    buf = np.empty((min(trials, _TRIAL_CHUNK), beta.size))
    kept = np.empty((buf.shape[0], pairs.size))

    def chunks(fill):
        """(rows, kept variates) per chunk, filled in draw order."""
        for start in range(0, trials, _TRIAL_CHUNK):
            rows = slice(start, min(start + _TRIAL_CHUNK, trials))
            n = rows.stop - start
            fill(out=buf[:n])
            yield rows, np.take(buf[:n], pairs, axis=1, out=kept[:n],
                                mode="clip")

    for rows, u in chunks(rng.random):
        _los_phasors(u, los, gains[rows])
    for part in (gains.real, gains.imag):
        for rows, z in chunks(rng.standard_normal):
            acc = part[rows]
            acc += np.multiply(z, nlos, out=z)
    return gains


def _los_phasors(u: np.ndarray, los: np.ndarray, out: np.ndarray) -> None:
    """out = los e^{2 pi i u} elementwise, for unit uniforms u (n, P) in
    [0, 1), amplitudes los (P,) and a C-contiguous complex out (n, P).

    With n_t = 2^_PHASOR_BITS, t = n_t u splits exactly into k = floor(t)
    and f = t - k in [0, 1), and e^{2 pi i u} = T_k e^{i delta} with the
    table entry T_k = e^{2 pi i k / n_t} and delta = 2 pi f / n_t < 1.6e-3,
    where cos delta = 1 - delta^2/2 + delta^4/24 and sin delta =
    delta - delta^3/6 hold to 0.32 eps. The work runs in blocks of at most
    _PHASOR_BLOCK elements (rows by columns of u) through scratch allocated
    here, so it stays the same size whatever n and P are.
    """
    cos_k, sin_k = _PHASOR_TABLE
    n_t = cos_k.size
    step = 2 * np.pi / n_t
    c2, c4, s3 = step ** 2 / 2, step ** 4 / 24, step ** 3 / 6
    cols = max(1, min(u.shape[1], _PHASOR_BLOCK))
    rows = min(_PHASOR_BLOCK // cols, max(1, u.shape[0]))
    scratch = [np.empty(rows * cols) for _ in range(5)]
    los_tile = np.empty(rows * cols)
    k_buf = np.empty(rows * cols, np.intp)
    for j in range(0, u.shape[1], cols):
        amp = los[j:j + cols]
        los_tile[:rows * amp.size].reshape(rows, amp.size)[:] = amp
        for i in range(0, u.shape[0], rows):
            block = np.s_[i:i + rows, j:j + cols]
            ub, ob = u[block].reshape(-1), out[block].reshape(-1)
            m = ub.size
            f, f2, cd, sd, sk = (a[:m] for a in scratch)
            k, scale = k_buf[:m], los_tile[:m]
            np.multiply(ub, n_t, out=f)
            np.floor(f, out=f2)
            np.copyto(k, f2, casting="unsafe")
            f -= f2
            np.multiply(f, f, out=f2)
            # los cos delta and los sin delta, as polynomials in f
            np.multiply(f2, c4, out=cd)
            np.subtract(c2, cd, out=cd)
            cd *= f2
            np.subtract(1.0, cd, out=cd)
            cd *= scale
            np.multiply(f2, s3, out=sd)
            np.subtract(step, sd, out=sd)
            sd *= f
            sd *= scale
            # rotate by T_k; k < n_t as u < 1, so "clip" never clips
            ck = np.take(cos_k, k, out=f, mode="clip")
            np.take(sin_k, k, out=sk, mode="clip")
            re, im = ob.real, ob.imag
            np.multiply(ck, cd, out=re)
            np.multiply(sk, cd, out=im)
            re -= np.multiply(sk, sd, out=cd)
            im += np.multiply(ck, sd, out=cd)


def sample_gamma(beta: np.ndarray, kappa: np.ndarray, rng: np.random.Generator,
                 trials: int | None = None) -> np.ndarray:
    """Draw Rician link gains with uniformly random LoS phase.

    gamma = sqrt(beta) * (sqrt(kappa/(kappa+1)) e^{j psi} + sqrt(1/(kappa+1)) z)
    with psi ~ U[0, 2pi) and z ~ CN(0, 1), independent across links and
    trials. Returns shape beta.shape, or (trials,) + beta.shape.
    """
    shape = beta.shape if trials is None else (trials,) + beta.shape
    gains = sample_pair_gains(beta, kappa, rng,
                              1 if trials is None else trials,
                              np.arange(beta.size))
    return gains.reshape(shape)


def link_matrix(effective: EffectiveChannel) -> np.ndarray:
    """Every user's link matrix C_k, shape (K, M, L): column l is
    sqrt(beta_{l,k}) ||a_{l,k}|| b_{l,k}. It has the singular values and
    left singular vectors of the user's aggregated channel."""
    scale = np.sqrt(effective.beta) * np.linalg.norm(effective.a, axis=-1)
    return (scale[..., None] * effective.b).transpose(1, 2, 0)
