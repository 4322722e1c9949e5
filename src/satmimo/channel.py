"""Array responses, deterministic effective channels and Rician gain draws.

Every satellite-user link is a far-field LoS channel: a rank-one outer
product of the user-side and satellite-side ULA responses, scaled by a
complex gain whose phase fluctuates much faster than the geometry. The
transmitter designs precoders from the deterministic effective matrices;
Monte-Carlo evaluation draws the random gains. EffectiveChannel carries the
whole statistical CSI of a drop that both need: the ULA factors, beta, the
Rician factor kappa and the noise power.

sample_pair_gains is the one Rician synthesis: it streams a full
(trials, L, K) draw through a chunk buffer in a fixed order (phases, then
real, then imaginary normals) and stores the gains of the requested
(link, user) pairs only. sample_gamma is the same pass over every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import LinkStatistics, ScenarioConfig

# trials per chunk of the gain synthesis and of the Monte-Carlo evaluation:
# bounds their per-chunk buffers and temporaries
_TRIAL_CHUNK = 2048


@dataclass(frozen=True)
class EffectiveChannel:
    """Deterministic per-link rank-one channels hbar = sqrt(beta) * b a^T.

    hbar has shape (L, K, M, N); b and a are the unit-modulus ULA response
    factors of shape (L, K, M) and (L, K, N). beta, the linear Rician factor
    kappa (both (L, K)) and the noise power are carried along for the
    precoder designers and the SE estimators.
    """

    hbar: np.ndarray
    b: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    noise_power_w: float

    @property
    def shape(self):
        return self.hbar.shape  # (L, K, M, N)


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
    hbar = np.sqrt(link_stats.beta)[..., None, None] * np.einsum(
        "lkm,lkn->lkmn", b, a)
    return EffectiveChannel(hbar=hbar, b=b, a=a, beta=link_stats.beta.copy(),
                            kappa=link_stats.kappa.copy(),
                            noise_power_w=link_stats.noise_power_w)


def sample_pair_gains(beta: np.ndarray, kappa: np.ndarray,
                      rng: np.random.Generator, trials: int,
                      pairs) -> np.ndarray:
    """Rician gains (trials, len(pairs)) on the flat (link, user) indices
    `pairs` (l K + k, in any order) out of one full (trials, L, K) draw.

    The generator walks the full draw's order: every LoS phase
    psi ~ U[0, 2pi), then every real part x, then every imaginary part y of
    the standard normal scattered component. It fills one reused
    (_TRIAL_CHUNK, L K) buffer a chunk of trials at a time, and only the
    requested pairs are kept and accumulated in place as los cos psi + nlos x
    and los sin psi + nlos y. The unkept variates are generated, because a
    normal variate takes a variable number of generator words, but never
    stored. Each gain is bitwise the entry of the full draw, and the
    generator ends where the full draw leaves it.
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

    # U[0, 2pi) as 2pi times a unit uniform: the same variates and bits
    for rows, psi in chunks(rng.random):
        psi *= 2 * np.pi
        re, im = gains[rows].real, gains[rows].imag
        np.cos(psi, out=re)
        re *= los
        np.sin(psi, out=im)
        im *= los
    for part in (gains.real, gains.imag):
        for rows, z in chunks(rng.standard_normal):
            acc = part[rows]
            acc += np.multiply(z, nlos, out=z)
    return gains


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


def aggregate_all(effective: EffectiveChannel) -> np.ndarray:
    """Aggregated channels for every user, shape (K, M, L*N): user k's L
    per-satellite blocks side by side."""
    L, K, M, N = effective.shape
    return effective.hbar.transpose(1, 2, 0, 3).reshape(K, M, L * N)
