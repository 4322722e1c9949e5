"""Experiment configuration and stochastic link geometry.

Synthesizes the large-scale statistics of a LEO downlink drop: azimuth and
elevation angles, slant ranges, free-space path gains and Rician factors for
every satellite-user link. Angles are stored in radians internally; the
config file accepts degrees.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError

EARTH_RADIUS_M = 6371e3
SPEED_OF_LIGHT = 3e8


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved experiment configuration.

    Defaults reproduce the reference LEO constellation drop: 4 satellites
    with 64-antenna panels at 560 km serving 2 users with 4 antennas each,
    2 streams per user, 20 GHz carrier with 400 MHz bandwidth.
    """

    L: int = 4                      # satellites
    K: int = 2                      # users
    N: int = 64                     # antennas per satellite
    M: int = 4                      # antennas per user
    S: int = 2                      # streams per user (S <= M)
    altitude_m: float = 560e3
    carrier_hz: float = 20e9
    bandwidth_hz: float = 400e6
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 1.2
    gain_user_dbi: float = 8.0
    gain_sat_dbi: float = 20.0
    rician_factor_db: float = 12.0
    power_cap_dbw_grid: tuple = (-10.0, 0.0, 10.0, 20.0, 30.0)
    constraint_kind: str = "per-sat-total"   # per-sat-total | per-antenna | custom
    ue_sin_theta: tuple | None = None        # if set: per-satellite UE-side sin(azimuth)
    sat_sin_phi: tuple | None = None         # if set: per-satellite SAT-side sin(azimuth)
    elevation_deg: tuple | None = None       # if set: per-satellite elevation
    azimuth_drift_deg: float = 1.0
    elevation_drift_deg: float = 0.5
    mc_trials: int = 10000
    rng_seed: int = 0
    max_iters: int = 40
    tol: float = 1e-4
    ellipsoid_tol_rel: float = 1e-5          # feasibility tolerance / cap
    custom_constraints: tuple | None = None  # per satellite: tuple of (A, rho) pairs
    association_seeds: int = 10

    def __post_init__(self):
        _check(self.L >= 1, "L", "must be >= 1")
        _check(self.K >= 1, "K", "must be >= 1")
        _check(self.N >= 1, "N", "must be >= 1")
        _check(self.M >= 1, "M", "must be >= 1")
        _check(1 <= self.S <= self.M, "S", "must satisfy 1 <= S <= M")
        _check(self.L * self.N >= self.M, "N",
               "must satisfy L*N >= M for the aggregated-channel SVD")
        _check(self.altitude_m > 0, "altitude_m", "must be positive")
        _check(self.carrier_hz > 0, "carrier_hz", "must be positive")
        _check(self.bandwidth_hz > 0, "bandwidth_hz", "must be positive")
        _check(self.mc_trials >= 1, "mc_trials", "must be >= 1")
        _check(self.rng_seed >= 0, "rng_seed", "must be >= 0")
        _check(self.association_seeds >= 1, "association_seeds", "must be >= 1")
        _check(self.max_iters >= 1, "max_iters", "must be >= 1")
        _check(self.tol > 0, "tol", "must be positive")
        _check(self.ellipsoid_tol_rel > 0, "ellipsoid_tol_rel", "must be positive")
        _check(len(self.power_cap_dbw_grid) >= 1, "power_cap_dbw_grid",
               "must contain at least one point")
        _check(self.constraint_kind in ("per-sat-total", "per-antenna", "custom"),
               "constraint_kind", "must be per-sat-total, per-antenna or custom")
        for name in ("ue_sin_theta", "sat_sin_phi", "elevation_deg"):
            val = getattr(self, name)
            if val is not None:
                _check(len(val) == self.L, name, f"must have length L={self.L}")
        if self.ue_sin_theta is not None:
            _check(all(-1.0 <= s <= 1.0 for s in self.ue_sin_theta),
                   "ue_sin_theta", "entries must lie in [-1, 1]")
        if self.sat_sin_phi is not None:
            _check(all(-1.0 <= s <= 1.0 for s in self.sat_sin_phi),
                   "sat_sin_phi", "entries must lie in [-1, 1]")
        if self.elevation_deg is not None:
            _check(all(0.0 < e <= 90.0 for e in self.elevation_deg),
                   "elevation_deg", "entries must lie in (0, 90]")

    # dB fields converted to linear on demand
    def noise_power_w(self) -> float:
        psd_w_hz = 10 ** ((self.noise_psd_dbm_hz + self.noise_figure_db) / 10) * 1e-3
        return psd_w_hz * self.bandwidth_hz

    def rician_factor_linear(self) -> float:
        return 10 ** (self.rician_factor_db / 10)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class LinkStatistics:
    """Per-(satellite, user) statistical CSI known at the transmitter.

    All angle/gain arrays have shape (L, K); angles are radians.
    """

    theta: np.ndarray        # UE-side azimuth
    phi: np.ndarray          # SAT-side azimuth
    elevation: np.ndarray
    distance_m: np.ndarray
    beta: np.ndarray         # linear large-scale gain
    kappa: np.ndarray        # linear Rician factor
    noise_power_w: float


def _check(cond: bool, key: str, msg: str) -> None:
    if not cond:
        raise ValidationError(f"{key}: {msg}")


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
_TUPLE_KEYS = {"power_cap_dbw_grid", "ue_sin_theta", "sat_sin_phi",
               "elevation_deg", "custom_constraints"}
_INT_KEYS = {"L", "K", "N", "M", "S", "mc_trials", "rng_seed", "max_iters",
             "association_seeds"}
# keys of the retired ellipsoid multiplier search: accepted and ignored
_RETIRED_KEYS = {"ellipsoid_alpha", "ellipsoid_max_iters"}


def load_scenario(config_text: str) -> ScenarioConfig:
    """Parse JSON configuration text into a validated ScenarioConfig.

    Absent keys take the reference-scenario defaults; the retired keys
    ellipsoid_alpha and ellipsoid_max_iters are ignored. The retired key
    angle_mode is accepted where it agrees with ue_sin_theta ("fixed-list"
    with the list set, "random" without it) and dropped. Raises ConfigError
    for syntax/typing problems (naming the offending key) and
    ValidationError when an invariant is violated.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")

    kwargs = {}
    for key, value in raw.items():
        if key in _RETIRED_KEYS:
            continue
        if key == "angle_mode":
            _check_angle_mode(value, raw.get("ue_sin_theta") is not None)
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key!r}")
        if key in _TUPLE_KEYS:
            if value is not None:
                if not isinstance(value, list):
                    raise ConfigError(f"{key}: expected a list")
                value = _to_tuple(key, value)
        elif key in _INT_KEYS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key}: expected an integer")
        elif isinstance(ScenarioConfig.__dataclass_fields__[key].default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{key}: expected a string")
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{key}: expected a number")
        kwargs[key] = value
    return ScenarioConfig(**kwargs)


def _check_angle_mode(value, pinned: bool) -> None:
    if not isinstance(value, str):
        raise ConfigError("angle_mode: expected a string")
    _check(value in ("random", "fixed-list"), "angle_mode",
           "must be random or fixed-list")
    _check(value == "random" or pinned, "ue_sin_theta",
           "required when angle_mode is fixed-list")
    _check(value == "fixed-list" or not pinned, "angle_mode",
           "random contradicts ue_sin_theta, which pins the UE angles")


def _to_tuple(key, value):
    if key == "custom_constraints":
        # per satellite: list of {"A": matrix or {"re":..., "im":...}, "rho": float}
        out = []
        for li, entries in enumerate(value):
            if not isinstance(entries, list):
                raise ConfigError(f"{key}[{li}]: expected a list of constraints")
            sat = []
            for xi, ent in enumerate(entries):
                if not isinstance(ent, dict) or "A" not in ent or "rho" not in ent:
                    raise ConfigError(
                        f"{key}[{li}][{xi}]: expected an object with 'A' and 'rho'")
                sat.append((_parse_matrix(key, ent["A"]), float(ent["rho"])))
            out.append(tuple(sat))
        return tuple(out)
    return tuple(float(v) for v in value)


def _parse_matrix(key, entry) -> np.ndarray:
    if isinstance(entry, dict):
        try:
            return np.asarray(entry["re"], float) + 1j * np.asarray(entry["im"], float)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{key}: matrix must be a list of rows or "
                              "{'re': rows, 'im': rows}") from None
    try:
        return np.asarray(entry, float).astype(complex)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: matrix must be a list of rows") from None


def slant_range(elevation_rad: float, altitude_m: float):
    """Satellite-user distance for a given elevation angle and orbit altitude.

    Positive root of the spherical-Earth geometry; collapses to the altitude
    at zenith and decreases monotonically with elevation.
    """
    elevation_rad = np.asarray(elevation_rad, float)
    if not np.all(np.isfinite(elevation_rad)) or not np.isfinite(altitude_m):
        raise ValueError("slant_range: inputs must be finite")
    if altitude_m <= 0:
        raise ValueError("slant_range: altitude must be positive")
    if np.any(elevation_rad <= 0) or np.any(elevation_rad > math.pi / 2 + 1e-12):
        raise ValueError("slant_range: elevation must lie in (0, 90] degrees")
    r = EARTH_RADIUS_M
    d = -r * np.sin(elevation_rad) + np.sqrt(
        (r + altitude_m) ** 2 - (r * np.cos(elevation_rad)) ** 2)
    return d if d.ndim else float(d)


def path_gain(distance_m, carrier_hz: float, gain_user_dbi: float,
              gain_sat_dbi: float):
    """Free-space large-scale gain including both antenna gains (linear)."""
    distance_m = np.asarray(distance_m, float)
    if np.any(distance_m <= 0) or carrier_hz <= 0:
        raise ValueError("path_gain: distance and carrier frequency must be positive")
    g = 10 ** ((gain_user_dbi + gain_sat_dbi) / 10)
    beta = g * (SPEED_OF_LIGHT / (4 * math.pi * carrier_hz * distance_m)) ** 2
    return beta if beta.ndim else float(beta)


def sample_geometry(config: ScenarioConfig, rng: np.random.Generator) -> LinkStatistics:
    """Draw one geometry drop: angles, ranges and path gains for all links.

    User 1 provides the reference angles; the remaining users perturb them
    with a small uniform drift, clipped back to the valid range. Each of
    ue_sin_theta, sat_sin_phi and elevation_deg that is set pins its angle
    for every user; the rest follow the random procedure. Pure function of
    (config, rng state).
    """
    L, K = config.L, config.K
    half = math.pi / 2
    az_drift = math.radians(config.azimuth_drift_deg)
    el_drift = math.radians(config.elevation_drift_deg)
    el_lo, el_hi = math.radians(20.0), half

    def with_drift(ref, drift, lo, hi):
        vals = np.empty((L, K))
        vals[:, 0] = ref
        if K > 1:
            delta = rng.uniform(-drift, drift, size=(L, K - 1))
            vals[:, 1:] = np.clip(ref[:, None] + delta, lo, hi)
        return vals

    def pinned(values_rad):
        return np.tile(np.asarray(values_rad, float)[:, None], (1, K))

    if config.ue_sin_theta is not None:
        theta = pinned(np.arcsin(np.asarray(config.ue_sin_theta, float)))
    else:
        theta = with_drift(rng.uniform(-half, half, size=L), az_drift, -half, half)

    if config.sat_sin_phi is not None:
        phi = pinned(np.arcsin(np.asarray(config.sat_sin_phi, float)))
    else:
        phi = with_drift(rng.uniform(-half, half, size=L), az_drift, -half, half)

    if config.elevation_deg is not None:
        elevation = pinned(np.radians(np.asarray(config.elevation_deg, float)))
    else:
        elevation = with_drift(rng.uniform(el_lo, el_hi, size=L), el_drift,
                               el_lo, el_hi)

    distance = slant_range(elevation, config.altitude_m)
    beta = path_gain(distance, config.carrier_hz, config.gain_user_dbi,
                     config.gain_sat_dbi)
    kappa = np.full((L, K), config.rician_factor_linear())
    return LinkStatistics(theta=theta, phi=phi, elevation=elevation,
                          distance_m=distance, beta=beta, kappa=kappa,
                          noise_power_w=config.noise_power_w())
