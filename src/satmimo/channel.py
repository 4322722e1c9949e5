"""Array responses, deterministic effective channels and Rician realizations.

Every satellite-user link is a far-field LoS channel: a rank-one outer
product of the user-side and satellite-side ULA responses, scaled by a
complex gain whose phase fluctuates much faster than the geometry. The
transmitter designs precoders from the deterministic effective matrices;
Monte-Carlo evaluation draws the random gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import LinkStatistics, ScenarioConfig


@dataclass(frozen=True)
class EffectiveChannel:
    """Deterministic per-link rank-one channels hbar = sqrt(beta) * b a^T.

    hbar has shape (L, K, M, N); b and a are the unit-modulus ULA response
    factors of shape (L, K, M) and (L, K, N). beta and the noise power are
    carried along for the precoder designers.
    """

    hbar: np.ndarray
    b: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    noise_power_w: float

    @property
    def shape(self):
        return self.hbar.shape  # (L, K, M, N)


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw: h[l,k] = gamma[l,k] * b a^T, shape (L, K, M, N)."""

    h: np.ndarray
    gamma: np.ndarray


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
                            noise_power_w=link_stats.noise_power_w)


def rician_amplitudes(beta: np.ndarray, kappa: np.ndarray):
    """LoS and scattered amplitudes (sqrt(beta kappa/(kappa+1)),
    sqrt(beta/(2(kappa+1)))) of the Rician gains."""
    return (np.sqrt(beta * kappa / (kappa + 1.0)),
            np.sqrt(beta / (2.0 * (kappa + 1.0))))


def draw_rician(rng: np.random.Generator, shape):
    """Raw variates of Rician gains in draw order: the LoS phases
    psi ~ U[0, 2pi), then the standard normal real parts x and imaginary
    parts y of the scattered component."""
    psi = rng.uniform(0.0, 2 * np.pi, size=shape)
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    return psi, x, y


def rician_gains(psi, x, y, los, nlos, out: np.ndarray) -> np.ndarray:
    """Write los e^{j psi} + nlos (x + j y) into the complex array out, as
    los cos psi + nlos x and los sin psi + nlos y.

    Elementwise, so any view of the raw variates gives bitwise the entries
    of the full draw. x and y are overwritten with nlos x and nlos y.
    """
    re, im = out.real, out.imag
    np.cos(psi, out=re)
    re *= los
    re += np.multiply(x, nlos, out=x)
    np.sin(psi, out=im)
    im *= los
    im += np.multiply(y, nlos, out=y)
    return out


def sample_gamma(beta: np.ndarray, kappa: np.ndarray, rng: np.random.Generator,
                 trials: int | None = None) -> np.ndarray:
    """Draw Rician link gains with uniformly random LoS phase.

    gamma = sqrt(beta) * (sqrt(kappa/(kappa+1)) e^{j psi} + sqrt(1/(kappa+1)) z)
    with psi ~ U[0, 2pi) and z ~ CN(0, 1), independent across links and
    trials. Returns shape beta.shape, or (trials,) + beta.shape.
    """
    shape = beta.shape if trials is None else (trials,) + beta.shape
    psi, x, y = draw_rician(rng, shape)
    los, nlos = rician_amplitudes(beta, kappa)
    return rician_gains(psi, x, y, los, nlos, np.empty(shape, complex))


def sample_realization(effective: EffectiveChannel, link_stats: LinkStatistics,
                       rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization; h is a complex scaling of hbar per link."""
    gamma = sample_gamma(link_stats.beta, link_stats.kappa, rng)
    scale = gamma / np.sqrt(link_stats.beta)
    return ChannelRealization(h=scale[..., None, None] * effective.hbar, gamma=gamma)


def aggregate(effective: EffectiveChannel, k: int) -> np.ndarray:
    """Aggregated channel of user k: the L per-satellite blocks side by side,
    shape (M, L*N)."""
    L, K, M, N = effective.shape
    return effective.hbar[:, k].transpose(1, 0, 2).reshape(M, L * N)


def aggregate_all(effective: EffectiveChannel) -> np.ndarray:
    """Aggregated channels for every user, shape (K, M, L*N)."""
    K = effective.shape[1]
    return np.stack([aggregate(effective, k) for k in range(K)])
