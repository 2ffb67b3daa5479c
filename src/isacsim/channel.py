"""Block-Rician channel synthesis for the sensing and communication paths.

Each TR->target->RE sensing channel is

    H_sens[k] = sqrt(eta_k * alpha_k / (1 + alpha_k)) * H_los
              + sqrt(eta_k / (1 + alpha_k)) * H_nlos

with H_los = beta_k * a_rx(phi_k) a_tx(theta)^T (plain transpose, not
conjugate) and H_nlos i.i.d. unit-variance circular complex Gaussian.  The
direct TR->RE communication channel uses the same Rician form with LoS
steering along the TR->RE bearing, path loss d_bk**(-epsilon) and unit
reflection coefficient; the model never pins it down further, so one code
path serves both.

``los_sens`` stores the *unscaled* H_los (Frobenius norm |beta_k| *
sqrt(N_r*N_t)): the closed-form Fisher information consumes exactly that
normalisation, with eta_k and alpha_k entering through its scalar constants
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .scenario import (MIN_DISTANCE, GeometrySummary, Layout, ScenarioConfig,
                       geometry_summary, steering, wrap_angle)


@dataclass(frozen=True)
class ChannelSet:
    """One block-fading realisation of all sensing and comm channels."""

    H_sens: np.ndarray    # (K, N_r, N_t)
    H_comm: np.ndarray    # (K, N_r, N_t); row k is zero if comm was skipped
    los_sens: np.ndarray  # (K, N_r, N_t) unscaled LoS components
    geom: GeometrySummary

    @property
    def K(self) -> int:
        return self.H_sens.shape[0]


def los_component(beta_k, a_rx: np.ndarray, a_tx: np.ndarray) -> np.ndarray:
    """Rank-1 LoS matrix beta_k * a_rx a_tx^T (plain transpose); broadcasts
    over a leading axis: beta_k (K,), a_rx (K, N_r), a_tx (N_t,) -> (K, N_r, N_t).
    """
    a_rx = np.asarray(a_rx)
    a_tx = np.asarray(a_tx)
    if not np.all(np.any(a_rx, axis=-1)) or not np.all(np.any(a_tx, axis=-1)):
        raise ValueError("steering vectors must be nonzero")
    return np.asarray(beta_k)[..., None, None] * (a_rx[..., :, None] * a_tx[..., None, :])


def sample_rician(eta, alpha, los: np.ndarray, rng) -> np.ndarray:
    """One Rician block-fading draw around the given LoS matrix.  For a (K, N_r,
    N_t) stack, eta and alpha are (K,) and matrix k draws from ``rng[k]``."""
    los = np.asarray(los)
    if isinstance(rng, np.random.Generator) and eta > 0 and alpha >= 0:
        # one matrix: the plain formula (bad values go on to the checks below)
        nlos = (rng.standard_normal(los.shape)
                + 1j * rng.standard_normal(los.shape)) / np.sqrt(2.0)
        return np.sqrt(eta * alpha / (1.0 + alpha)) * los + np.sqrt(eta / (1.0 + alpha)) * nlos
    eta = np.asarray(eta)[..., None, None]
    alpha = np.asarray(alpha)[..., None, None]
    if not np.all(eta > 0):
        raise ValueError("path loss eta must be > 0")
    if not np.all(alpha >= 0):
        raise ValueError("Rician factor must be >= 0")
    shape = los.shape[1:]
    nlos = np.stack([g.standard_normal(shape) + 1j * g.standard_normal(shape)
                     for g in rng]) / np.sqrt(2.0)
    return np.sqrt(eta * alpha / (1.0 + alpha)) * los + np.sqrt(eta / (1.0 + alpha)) * nlos


def build_channels(cfg: ScenarioConfig, layout: Layout, seed: int,
                   trial: int = 0, comm: bool = True) -> ChannelSet:
    """Synthesize the full ChannelSet for one block.

    Randomness comes from per-receiver substreams keyed on
    (seed, domain, trial, k), so receiver order and trial order never
    change the realisations.  ``comm=False`` skips the communication
    channels (needed for the mono-static proxy, where a virtual receiver
    sits on top of the TR and the direct path is degenerate).
    """
    geom = geometry_summary(layout, cfg)
    K, N_r, N_t = cfg.K, cfg.N_r, cfg.N_t
    if comm:
        close = np.flatnonzero(geom.d_bk < MIN_DISTANCE)
        if close.size:
            raise ValueError(
                f"receiver {close[0]} is co-located with the TR; build its sensing "
                "channel with comm=False")

    def substreams(domain):
        return [rngmod.substream(seed, domain, trial, k) for k in range(K)]

    a_tx_target = steering(geom.theta, N_t, cfg.spacing, cfg.wavelength)
    a_rx = steering(geom.phi, N_r, cfg.spacing, cfg.wavelength)
    los_sens = los_component(cfg.beta, a_rx, a_tx_target)
    H_sens = sample_rician(geom.eta, cfg.rician_alpha, los_sens,
                           substreams(rngmod.DOMAIN_CHANNEL_SENS))
    H_comm = np.zeros((K, N_r, N_t), dtype=complex)
    if comm:
        # scalar pow: NumPy's vectorized power may differ from libm's in the last bit
        eta_c = np.array([d ** (-cfg.epsilon) for d in geom.d_bk])
        a_dep = steering(geom.vartheta, N_t, cfg.spacing, cfg.wavelength)
        a_arr = steering(wrap_angle(geom.vartheta + np.pi), N_r, cfg.spacing, cfg.wavelength)
        H_comm = sample_rician(eta_c, cfg.rician_alpha, los_component(1.0, a_arr, a_dep),
                               substreams(rngmod.DOMAIN_CHANNEL_COMM))
    return ChannelSet(H_sens=H_sens, H_comm=H_comm, los_sens=los_sens, geom=geom)
