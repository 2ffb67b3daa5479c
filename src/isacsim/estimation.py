"""Signal synthesis, matched-filter delay/Doppler search, and localization.

The sampled receive model at RE k is

    y_k[m] = H_sens[k] e^{j 2 pi f_tilde m} x[m - tau_tilde] + clutter + noise

with x the pulse-shaped superposition of all transmit streams, sampled once
per pulse at the pulse centre (delays are integer sample counts; fractional
delays are a non-goal, so the matched filter searches an integer delay grid).
The matched filter correlates against delayed, Doppler-shifted copies of the
known probe stream and takes the grid argmax of the Frobenius energy; the
interference-plus-noise energy in the denominator of the test statistic does
not depend on the hypothesis under this model and is omitted.

Localization inverts two receivers' Doppler shifts for the departure bearing
theta and each delay for the target distance.  The Doppler ratio constrains
only cos(theta), so theta's sign is unidentifiable from one receiver pair in
isolation; ``invert_doa`` returns the root in [0, pi] and ``localize``
resolves the sign by cross-receiver position consistency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft

from . import rng as rngmod
from .channel import ChannelSet
from .metrics import pulse_waveform
from .scenario import SPEED_OF_LIGHT, Layout, ScenarioConfig


class DegenerateInputError(ValueError):
    """The matched filter received an all-zero block."""


class DegenerateAnglesError(ValueError):
    """The two receivers' bearings coincide; the ratio equation is singular."""


class DegenerateTriangleError(ValueError):
    """The delay/bearing combination does not close a proper triangle."""


class NoRootError(RuntimeError):
    """The Doppler ratio equation has no bearing root in [0, pi]."""


@dataclass(frozen=True)
class SampledBlock:
    """One block of received samples at every receiver plus the known probe."""

    y: np.ndarray        # (K, N_r, M)
    s0: np.ndarray       # (L, M) probe symbols (known at the REs)
    tau_tilde: np.ndarray  # (K,) integer normalized delays used in synthesis
    f_tilde: np.ndarray    # (K,) normalized Doppler used in synthesis
    pulse_gain: float      # g(delta_t/2), the per-sample pulse amplitude


@dataclass(frozen=True)
class DelayDopplerEstimate:
    tau_hat: int
    f_hat: float
    score: float


@dataclass(frozen=True)
class DelayDopplerGrid:
    """Search grid: integer delays and a symmetric Doppler raster.

    Defaults: 129 Doppler points over |f_tilde| <= 0.05; the default delay
    window of a scenario is [0, M/4] (``for_config``).  Both are knobs.
    """

    tau_max: int
    f_max: float = 0.05
    n_f: int = 129
    tau_min: int = 0

    @classmethod
    def for_config(cls, cfg, **overrides) -> "DelayDopplerGrid":
        return cls(tau_max=overrides.pop("tau_max", cfg.M // 4), **overrides)

    def taus(self) -> np.ndarray:
        return np.arange(self.tau_min, self.tau_max + 1)

    def freqs(self) -> np.ndarray:
        return np.linspace(-self.f_max, self.f_max, self.n_f)


def synthesize_block(cfg: ScenarioConfig, channels: ChannelSet, W,
                     truths, seed: int, trial: int = 0,
                     noise: bool = True, clutter: bool = True) -> SampledBlock:
    """Generate one sampled receive block for every receiver.

    ``truths`` is a sequence of (tau_tilde, f_tilde) pairs per receiver;
    delays must be integers in [0, M/4] and |f_tilde| < 0.5.  All randomness
    (symbols, clutter, noise) comes from substreams of ``seed``.
    """
    arr = np.asarray(getattr(W, "W", W))
    K, M = cfg.K, cfg.M
    taus = np.array([t[0] for t in truths])
    freqs = np.array([t[1] for t in truths])
    if taus.shape != (K,) or freqs.shape != (K,):
        raise ValueError("need one (tau_tilde, f_tilde) pair per receiver")
    if np.any(taus != np.round(taus)) or np.any(taus < 0) or np.any(taus > M // 4):
        raise ValueError("tau_tilde must be an integer in [0, M/4]")
    if np.any(np.abs(freqs) >= 0.5):
        raise ValueError("|f_tilde| must be < 0.5")
    taus = taus.astype(int)

    g, _ = pulse_waveform(cfg.pulse, cfg.delta_t)
    gain = float(g(cfg.delta_t / 2.0))
    gen_sym = rngmod.substream(seed, rngmod.DOMAIN_SYMBOLS, trial)
    n_streams = arr.shape[0]
    symbols = (gen_sym.standard_normal((n_streams, cfg.L, M))
               + 1j * gen_sym.standard_normal((n_streams, cfg.L, M))) / np.sqrt(2.0)
    # x[:, m] = gain * sum_i W_i s_i[:, m]
    x = gain * np.einsum("inl,ilm->nm", arr, symbols)

    m_idx = np.arange(M)
    y = np.zeros((K, cfg.N_r, M), dtype=complex)
    for k in range(K):
        shifted = np.zeros_like(x)
        if taus[k] < M:
            shifted[:, taus[k]:] = x[:, :M - taus[k]]
        ramp = np.exp(2j * np.pi * freqs[k] * m_idx)
        y[k] = (channels.H_sens[k] @ shifted) * ramp[None, :]
        if clutter:
            gen_c = rngmod.substream(seed, rngmod.DOMAIN_CLUTTER, trial, k)
            y[k] += math.sqrt(cfg.sigma_c2 / 2.0) * (
                gen_c.standard_normal((cfg.N_r, M)) + 1j * gen_c.standard_normal((cfg.N_r, M)))
        if noise:
            gen_z = rngmod.substream(seed, rngmod.DOMAIN_NOISE, trial, k)
            y[k] += math.sqrt(cfg.sigma_z2 / 2.0) * (
                gen_z.standard_normal((cfg.N_r, M)) + 1j * gen_z.standard_normal((cfg.N_r, M)))
    return SampledBlock(y=y, s0=gain * symbols[0], tau_tilde=taus, f_tilde=freqs,
                        pulse_gain=gain)


@functools.lru_cache(maxsize=8)
def _doppler_ramps(M: int, f_max: float, n_f: int) -> np.ndarray:
    """e^{-j 2 pi f m}: one row per grid Doppler f, one column per sample m."""
    ramps = np.exp(-2j * np.pi * np.outer(np.linspace(-f_max, f_max, n_f), np.arange(M)))
    ramps.flags.writeable = False   # shared by every caller through the cache
    return ramps


def matched_filter(block: SampledBlock, grid: DelayDopplerGrid,
                   k: int = 0) -> DelayDopplerEstimate:
    """Grid argmax of || sum_m y[m] s0^H[m - tau] e^{-j 2 pi f m} ||_F^2.

    For each Doppler bin the lag axis is one exact FFT correlation: the
    transform length N >= M + tau is free of wrap-around, and lags tau >= M,
    which overlap no sample, score exactly 0.  Ties among bit-equal scores
    break lexicographically (smallest tau, then smallest f).  Scaling the
    block by any nonzero complex constant leaves the argmax unchanged.
    """
    y = block.y[k]
    s0 = block.s0
    if not np.any(y):
        raise DegenerateInputError("matched filter received an all-zero block")
    taus = grid.taus()
    freqs = grid.freqs()
    if taus.size == 0 or freqs.size == 0:
        raise ValueError("empty search grid")
    if grid.tau_min < 0:
        raise ValueError(f"tau_min must be >= 0, got {grid.tau_min}")
    M = y.shape[1]
    scores = np.zeros((taus.size, freqs.size))
    hi = min(grid.tau_max, M - 1)
    n_fft = fft.next_fast_len(M + hi)
    s0_conj = np.conj(fft.fft(s0, n_fft))                       # (L, N)
    ramps = _doppler_ramps(M, grid.f_max, grid.n_f)
    # Doppler bins per chunk: about 1 MB of complex temporaries
    step = max(1, (1 << 16) // (y.shape[0] * s0.shape[0] * n_fft))
    for j in range(0, freqs.size, step):
        u = fft.fft(y * ramps[j:j + step, None, :], n_fft)      # (f, N_r, N)
        c = fft.ifft(u[:, :, None, :] * s0_conj, overwrite_x=True)
        c = c[..., grid.tau_min:hi + 1]                         # (f, N_r, L, tau)
        scores[:c.shape[-1], j:j + step] = np.sum(c.real ** 2 + c.imag ** 2, axis=(1, 2)).T
    i_tau, i_f = divmod(int(np.argmax(scores)), freqs.size)
    return DelayDopplerEstimate(tau_hat=int(taus[i_tau]), f_hat=float(freqs[i_f]),
                                score=float(scores[i_tau, i_f]))


def matched_filter_error(block: SampledBlock, grid: DelayDopplerGrid, b) -> float:
    """Squared delay + Doppler error of the matched filter, summed over the
    selected receivers (samples^2 + cycles-per-sample^2, the CRB's units)."""
    err = 0.0
    for k in np.flatnonzero(b):
        est = matched_filter(block, grid, k=int(k))
        err += float((est.tau_hat - block.tau_tilde[k]) ** 2)
        err += float((est.f_hat - block.f_tilde[k]) ** 2)
    return err


# ---------------------------------------------------------------------------
# localization inversion
# ---------------------------------------------------------------------------

def invert_doa(f_k: float, f_kp: float, phi_k: float, phi_kp: float) -> float:
    """Departure bearing theta from two receivers' Doppler shifts.

    The Doppler ratio equation f_k (cos theta + cos phi_kp) = f_kp (cos
    theta + cos phi_k) is linear in cos theta; its root in [0, pi] is

        theta = acos((f_kp cos phi_k - f_k cos phi_kp) / (f_k - f_kp))

    and NoRootError is raised when that argument's magnitude exceeds 1.
    The mirrored root -theta is equally consistent (only cos(theta) is
    observable), see ``localize``.  When the two shifts coincide the ratio
    carries no bearing information and 0 is returned by convention (the
    symmetric-geometry case).
    """
    if f_kp == 0.0:
        raise ValueError("the reference Doppler shift must be nonzero")
    if abs(math.sin(0.5 * (phi_k - phi_kp))) < 1e-10:
        raise DegenerateAnglesError("receiver bearings coincide (mod 2 pi)")
    scale = max(abs(f_k), abs(f_kp))
    if abs(f_k - f_kp) <= 1e-12 * scale:
        return 0.0
    # the argument from the equation's residuals at cos theta = 1 and -1:
    # of opposite signs they give a magnitude of at most 1 after rounding,
    # and an exact root at theta = 0 or pi (f_k = cos theta + cos phi_k, as
    # noiseless shifts are) leaves one of them exactly 0
    r_0 = f_k * (1.0 + math.cos(phi_kp)) - f_kp * (1.0 + math.cos(phi_k))
    r_pi = f_k * (math.cos(phi_kp) - 1.0) - f_kp * (math.cos(phi_k) - 1.0)
    cos_theta = (r_0 + r_pi) / (r_pi - r_0)
    if abs(cos_theta) > 1.0:
        raise NoRootError("Doppler ratio equation has no bearing root in [0, pi]")
    return math.acos(cos_theta)


def doa_candidates(f_k: float, f_kp: float, phi_k: float, phi_kp: float) -> tuple[float, ...]:
    """Both bearings consistent with the Doppler ratio (theta and -theta)."""
    theta = invert_doa(f_k, f_kp, phi_k, phi_kp)
    if theta in (0.0, math.pi):
        return (theta,)
    return (theta, -theta)


def invert_distance(theta: float, tau_k: float, layout: Layout,
                    k: int) -> tuple[float, float]:
    """Target->RE distance from the bearing and the path delay, and its
    conditioning |denominator| / (c tau).

    Law-of-cosines inversion in the TR / target / RE triangle:

        d = (c^2 tau^2 + d_bk^2 - 2 c tau d_bk cos(theta - vartheta_k))
            / (2 c tau - 2 d_bk cos(theta - vartheta_k))

    with vartheta_k the TR->RE bearing.  A receiver co-located with the TR
    reduces to the mono-static d = c tau / 2.  Rounding in the numerator
    reaches d amplified by about c tau / |denominator|.
    """
    if tau_k <= 0:
        raise ValueError("delay must be > 0")
    ct = SPEED_OF_LIGHT * tau_k
    rel = layout.p[k] - layout.p_b
    d_bk = float(np.linalg.norm(rel))
    vartheta = math.atan2(rel[1], rel[0]) if d_bk > 0 else 0.0
    cos_term = math.cos(theta - vartheta)
    denom = 2.0 * ct - 2.0 * d_bk * cos_term
    if abs(denom) <= 1e-9 * ct:
        raise DegenerateTriangleError("near-zero denominator in the distance inversion")
    d = (ct * ct + d_bk * d_bk - 2.0 * ct * d_bk * cos_term) / denom
    if d <= 0:
        raise DegenerateTriangleError(f"non-positive reconstructed distance {d}")
    return d, abs(denom) / ct


def estimate_position(k: int, d_hat: float, phi_k: float, layout: Layout) -> tuple[float, float]:
    """Target position from receiver k's distance and bearing estimates."""
    if d_hat <= 0:
        raise ValueError("distance estimate must be > 0")
    x = float(layout.p[k][0] + d_hat * math.cos(phi_k))
    y = float(layout.p[k][1] + d_hat * math.sin(phi_k))
    return (x, y)


@dataclass(frozen=True)
class PositionEstimate:
    theta_hat: float
    d_hat: float            # distance estimate at receiver k
    xy_hat: tuple[float, float]
    consistency: float      # distance between the two receivers' fixes (see localize)


def localize(layout: Layout, k: int, kp: int, f_k: float, f_kp: float,
             tau_k: float, tau_kp: float, phi_k: float, phi_kp: float) -> PositionEstimate:
    """Full two-receiver inversion with sign disambiguation.

    Evaluates both bearing candidates (+theta, -theta), reconstructs each
    receiver's distance and position fix, and keeps the candidate whose two
    fixes agree best.  Uses only quantities the receivers possess: their own
    bearings, the exchanged delays/Dopplers, and the known node positions.
    The estimate is the midpoint of the two fixes, unless one receiver sits
    nearly on the line through the TR and the target: its distance inversion
    then amplifies rounding error (|denominator| / (c tau) < 1e-6), and the
    other receiver's fix is used alone.  If one inversion fails outright (on
    that line the delay fixes no distance), the other fix is scored by its
    distance from the failed receiver's bearing line.  A pair with no
    candidate fix raises DegenerateTriangleError, a Doppler ratio with no
    bearing root (NoRootError) included.
    """
    phis = {k: phi_k, kp: phi_kp}
    best: PositionEstimate | None = None
    last_err: Exception | None = None
    try:
        thetas = doa_candidates(f_k, f_kp, phi_k, phi_kp)
    except NoRootError as exc:
        thetas, last_err = (), exc
    for theta in thetas:
        fixes = {}
        for r, tau in ((kp, tau_kp), (k, tau_k)):   # k last: both failing reports k's error
            try:
                d, cond = invert_distance(theta, tau, layout, r)
                fixes[r] = (d, cond, estimate_position(r, d, phis[r], layout))
            except (DegenerateTriangleError, ValueError) as exc:
                last_err = exc
        if len(fixes) == 2:
            (d_k, cond_k, pos_k), (_, cond_kp, pos_kp) = fixes[k], fixes[kp]
            gap = math.hypot(pos_k[0] - pos_kp[0], pos_k[1] - pos_kp[1])
            if min(cond_k, cond_kp) < 1e-6:
                xy = pos_k if cond_k >= cond_kp else pos_kp
            else:
                xy = (0.5 * (pos_k[0] + pos_kp[0]), 0.5 * (pos_k[1] + pos_kp[1]))
        elif fixes:
            ((r, (_, _, xy)),) = fixes.items()
            o = kp if r == k else k
            dx, dy = xy[0] - layout.p[o][0], xy[1] - layout.p[o][1]
            gap = abs(math.cos(phis[o]) * dy - math.sin(phis[o]) * dx)
            d_k = math.hypot(xy[0] - layout.p[k][0], xy[1] - layout.p[k][1])
        else:
            continue
        cand = PositionEstimate(theta_hat=theta, d_hat=d_k, xy_hat=xy, consistency=gap)
        if best is None or cand.consistency < best.consistency:
            best = cand
    if best is None:
        raise DegenerateTriangleError(
            f"no bearing candidate produced a consistent fix: {last_err}")
    return best
