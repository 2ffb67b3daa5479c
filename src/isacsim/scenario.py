"""Scene geometry, physics and configuration for the multi-static ISAC network.

One transmitter (TR) illuminates a moving target; K receivers (REs) catch the
reflection for localization and the direct path for communication.  Everything
here is deterministic: positions, bearings, path losses, steering vectors,
true delays/Doppler shifts and cooperation prices.  All angles are bearings
measured from the +x axis in (-pi, pi]; the target velocity points along +x.

Angle convention: ``theta`` is the bearing from the TR toward the target and
``phi[k]`` the bearing from RE k toward the target.  This is the convention
under which the position reconstruction  x0 = x_k + d*cos(phi_k)  holds
literally; the alternative (target->RE) reading would flip the sign of the
Doppler expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
MIN_DISTANCE = 1e-6  # m; sensing-path distances below this are degenerate

PULSES = ("cosine", "sinc")


class DegenerateGeometryError(ValueError):
    """A sensing-path distance underflowed the configured minimum."""


class ConfigError(ValueError):
    """A configuration field violates its invariant."""

    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"config field '{key}': {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and algorithmic constants of one scenario.

    Powers are in watts, frequencies in Hz, distances in meters.  The sample
    duration ``delta_t`` is not stored: the closed-form Fisher-information
    constants are only meaningful under the tie ``delta_t = 1/(2B)``, so it
    is derived from B.
    """

    K: int
    N_t: int
    N_r: int
    L: int
    P_T: float
    B: float
    f0: float
    M: int
    epsilon: float
    rho: float
    rician_alpha: tuple[float, ...]
    beta: tuple[float, ...]
    sigma2: float
    sigma_c2: float
    sigma_z2: float
    v: float
    R_th: float
    Omega_th: float
    pulse: str = "cosine"
    seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):  # NaN would pass every comparison below
            value = getattr(self, field.name)
            if "float" not in field.type or field.name == "Omega_th" and value == math.inf:
                continue  # an Omega_th of +inf sets no cost cap
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ConfigError(field.name, f"not finite: {value!r}")
        if self.K < 1:
            raise ConfigError("K", "need at least one receiver")
        if self.N_t < 1 or self.N_r < 1:
            raise ConfigError("N_t/N_r", "antenna counts must be >= 1")
        if not (1 <= self.L <= min(self.N_t, self.N_r)):
            raise ConfigError("L", f"need 1 <= L <= min(N_t, N_r) = {min(self.N_t, self.N_r)}")
        if self.P_T <= 0:
            raise ConfigError("P_T", "transmit power must be > 0 W")
        if self.B <= 0:
            raise ConfigError("B", "bandwidth must be > 0 Hz")
        if self.f0 <= 0:
            raise ConfigError("f0", "carrier frequency must be > 0 Hz")
        if self.M < 1:
            raise ConfigError("M", "need at least one sample per block")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError("rho", "distance-weight factor must lie in [0, 1]")
        if len(self.rician_alpha) != self.K:
            raise ConfigError("rician_alpha", f"need exactly K={self.K} entries")
        if len(self.beta) != self.K:
            raise ConfigError("beta", f"need exactly K={self.K} entries")
        if any(a < 0 for a in self.rician_alpha):
            raise ConfigError("rician_alpha", "Rician factors must be >= 0")
        for key in ("sigma2", "sigma_c2", "sigma_z2"):
            if getattr(self, key) <= 0:
                raise ConfigError(key, "noise power must be > 0 W")
        if self.v < 0:
            raise ConfigError("v", "target speed must be >= 0")
        if self.v >= 1e-3 * SPEED_OF_LIGHT:
            raise ConfigError("v", "target speed must satisfy v < 1e-3 * c")
        if self.R_th < 0:
            raise ConfigError("R_th", "rate threshold must be >= 0")
        if self.pulse not in PULSES:
            raise ConfigError("pulse", f"unknown pulse {self.pulse!r}; choose from {PULSES}")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength c/f0 in meters (the config key ``lambda``)."""
        return SPEED_OF_LIGHT / self.f0

    @property
    def delta_t(self) -> float:
        """Sample duration 1/(2B) in seconds (the config key ``delta_t``)."""
        return 1.0 / (2.0 * self.B)

    @property
    def spacing(self) -> float:
        """Antenna element spacing; half-wavelength uniform linear arrays."""
        return 0.5 * self.wavelength


@dataclass(frozen=True)
class Layout:
    """2-D positions of the TR, the target, and the K receivers."""

    p_b: np.ndarray  # (2,) TR position
    p_0: np.ndarray  # (2,) target position
    p: np.ndarray    # (K, 2) receiver positions

    def __post_init__(self) -> None:
        p_b = np.asarray(self.p_b, dtype=float).reshape(2)
        p_0 = np.asarray(self.p_0, dtype=float).reshape(2)
        p = np.atleast_2d(np.asarray(self.p, dtype=float))
        if p.shape[1] != 2:
            raise ValueError("receiver positions must be (K, 2)")
        for arr, name in ((p_b, "p_b"), (p_0, "p_0"), (p, "p")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite coordinates")
        object.__setattr__(self, "p_b", p_b)
        object.__setattr__(self, "p_0", p_0)
        object.__setattr__(self, "p", p)
        if np.linalg.norm(p_0 - p_b) < MIN_DISTANCE:
            raise DegenerateGeometryError("target coincides with the TR")
        if np.any(np.linalg.norm(p - p_0[None, :], axis=1) < MIN_DISTANCE):
            raise DegenerateGeometryError("a receiver coincides with the target")

    @property
    def K(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class GeometrySummary:
    """Distances, bearings and path losses derived from a Layout."""

    d_b0: float          # TR -> target
    d_0k: np.ndarray     # (K,) target -> RE k
    d_bk: np.ndarray     # (K,) TR -> RE k
    d_b0k: np.ndarray    # (K,) composite sensing path d_b0 + d_0k
    theta: float         # bearing TR -> target
    phi: np.ndarray      # (K,) bearing RE k -> target
    vartheta: np.ndarray  # (K,) bearing TR -> RE k
    eta: np.ndarray      # (K,) sensing path loss d_b0k**(-epsilon)


def wrap_angle(angle):
    """Wrap radians into (-pi, pi]."""
    wrapped = (np.asarray(angle) + np.pi) % (2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if np.ndim(angle) == 0 else wrapped


def geometry_summary(layout: Layout, cfg: ScenarioConfig) -> GeometrySummary:
    """Distances, bearings and path losses for one scene.

    Pure: identical inputs give bit-identical outputs.  Raises
    DegenerateGeometryError when a sensing-path distance (TR->target or
    target->RE) underflows MIN_DISTANCE.  TR->RE distances may be zero;
    they only feed the communication channel and cooperation prices, whose
    constructors guard themselves (a receiver co-located with the TR is the
    mono-static proxy).
    """
    rel_t = layout.p_0 - layout.p_b
    d_b0 = float(np.linalg.norm(rel_t))
    rel_k = layout.p_0[None, :] - layout.p       # RE -> target
    d_0k = np.linalg.norm(rel_k, axis=1)
    rel_b = layout.p - layout.p_b[None, :]       # TR -> RE
    d_bk = np.linalg.norm(rel_b, axis=1)
    if d_b0 < MIN_DISTANCE or np.any(d_0k < MIN_DISTANCE):
        raise DegenerateGeometryError("sensing-path distance underflows the minimum")
    d_b0k = d_b0 + d_0k
    theta = wrap_angle(math.atan2(rel_t[1], rel_t[0]))
    phi = wrap_angle(np.arctan2(rel_k[:, 1], rel_k[:, 0]))
    vartheta = wrap_angle(np.arctan2(rel_b[:, 1], rel_b[:, 0]))
    eta = d_b0k ** (-cfg.epsilon)
    return GeometrySummary(d_b0=d_b0, d_0k=d_0k, d_bk=d_bk, d_b0k=d_b0k,
                           theta=theta, phi=phi, vartheta=vartheta, eta=eta)


def steering(angle, n: int, spacing: float, wavelength: float) -> np.ndarray:
    """Uniform-linear-array steering vector, element 0 = 1.

    Element i carries phase 2*pi*i*spacing/wavelength*sin(angle).  An array
    of angles gives one vector per angle along a new last axis.
    """
    if n < 1:
        raise ValueError("steering vector needs n >= 1 elements")
    if spacing <= 0 or wavelength <= 0:
        raise ValueError("spacing and wavelength must be > 0")
    idx = np.arange(n)
    return np.exp(2j * np.pi * idx * (spacing / wavelength) * np.sin(angle)[..., None])


def true_doppler(theta: float, phi_k: float, v: float, f0: float,
                 mode: str = "exact") -> float:
    """Doppler shift of the TR -> target -> RE link in Hz.

    The target moves along +x.  The shift is the cascade of two relativistic
    steps (TR to moving target, moving target to RE):

        exact : f_k = -zeta * f0 * (cos(theta) + cos(phi_k)) / (1 + zeta*cos(phi_k))
        approx: f_k = -(2 f0 / c) * v * cos((theta+phi_k)/2) * cos((theta-phi_k)/2)

    with zeta = v/c.  The two agree to O(zeta^2 * f0).
    """
    if v < 0 or f0 <= 0:
        raise ValueError("need v >= 0 and f0 > 0")
    zeta = v / SPEED_OF_LIGHT
    if mode == "exact":
        return -zeta * f0 * (math.cos(theta) + math.cos(phi_k)) / (1.0 + zeta * math.cos(phi_k))
    if mode == "approx":
        return -2.0 * f0 * v / SPEED_OF_LIGHT * math.cos(0.5 * (theta + phi_k)) * math.cos(0.5 * (theta - phi_k))
    raise ValueError(f"unknown Doppler mode {mode!r}")


def true_delay(d_b0: float, d_0k: float) -> float:
    """Propagation delay (d_b0 + d_0k)/c of the sensing path, in seconds."""
    if d_b0 <= 0 or d_0k <= 0:
        raise ValueError("sensing-path distances must be > 0")
    return (d_b0 + d_0k) / SPEED_OF_LIGHT


def cooperation_price(layout: Layout, group, rho: float) -> dict[int, float]:
    """Cooperation price of every member of a candidate group.

    The price of member k is the weighted sum of its distance to the target
    and its average distance to the other group members:

        upsilon_k = rho * d_0k + (1-rho) * mean_{k' in G, k' != k} d(p_k, p_k')

    For a singleton group the neighbour term is defined as 0 (the average
    over an empty set).  Group-dependent by construction: the same receiver
    gets different prices in different groups.
    """
    members = sorted(set(int(k) for k in group))
    if not members:
        raise ValueError("cooperation price needs a nonempty group")
    if any(k < 0 or k >= layout.K for k in members):
        raise ValueError("group contains an invalid receiver index")
    prices: dict[int, float] = {}
    pts = layout.p[members]
    d_target = np.linalg.norm(pts - layout.p_0[None, :], axis=1)
    for i, k in enumerate(members):
        if len(members) == 1:
            neighbour = 0.0
        else:
            others = np.delete(pts, i, axis=0)
            neighbour = float(np.mean(np.linalg.norm(others - pts[i][None, :], axis=1)))
        prices[k] = rho * float(d_target[i]) + (1.0 - rho) * neighbour
    return prices


def annulus_layout(cfg: ScenarioConfig, p_b, p_0, rng: np.random.Generator) -> Layout:
    """Random scene with K receivers uniform in a 1..100 m annulus around the TR."""
    radii = rng.uniform(1.0, 100.0, size=cfg.K)
    angles = rng.uniform(-np.pi, np.pi, size=cfg.K)
    p = np.asarray(p_b, dtype=float)[None, :] + np.stack(
        [radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return Layout(p_b=np.asarray(p_b, float), p_0=np.asarray(p_0, float), p=p)
