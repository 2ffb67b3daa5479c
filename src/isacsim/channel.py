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


def los_component(beta_k: complex, a_rx: np.ndarray, a_tx: np.ndarray) -> np.ndarray:
    """Rank-1 LoS matrix beta_k * a_rx a_tx^T (plain transpose)."""
    a_rx = np.asarray(a_rx)
    a_tx = np.asarray(a_tx)
    if not np.any(a_rx) or not np.any(a_tx):
        raise ValueError("steering vectors must be nonzero")
    return beta_k * np.outer(a_rx, a_tx)


def sample_rician(eta: float, alpha: float, los: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One Rician block-fading draw around the given LoS matrix."""
    if eta <= 0:
        raise ValueError("path loss eta must be > 0")
    if alpha < 0:
        raise ValueError("Rician factor must be >= 0")
    shape = np.asarray(los).shape
    nlos = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
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
    H_sens = np.zeros((K, N_r, N_t), dtype=complex)
    H_comm = np.zeros((K, N_r, N_t), dtype=complex)
    los_sens = np.zeros((K, N_r, N_t), dtype=complex)
    a_tx_target = steering(geom.theta, N_t, cfg.spacing, cfg.wavelength)
    for k in range(K):
        a_rx = steering(geom.phi[k], N_r, cfg.spacing, cfg.wavelength)
        los = los_component(cfg.beta[k], a_rx, a_tx_target)
        los_sens[k] = los
        gen = rngmod.substream(seed, rngmod.DOMAIN_CHANNEL_SENS, trial, k)
        H_sens[k] = sample_rician(geom.eta[k], cfg.rician_alpha[k], los, gen)
        if comm:
            if geom.d_bk[k] < MIN_DISTANCE:
                raise ValueError(
                    f"receiver {k} is co-located with the TR; build its sensing "
                    "channel with comm=False")
            eta_c = geom.d_bk[k] ** (-cfg.epsilon)
            a_dep = steering(geom.vartheta[k], N_t, cfg.spacing, cfg.wavelength)
            a_arr = steering(wrap_angle(geom.vartheta[k] + np.pi), N_r, cfg.spacing, cfg.wavelength)
            los_c = los_component(1.0, a_arr, a_dep)
            gen_c = rngmod.substream(seed, rngmod.DOMAIN_CHANNEL_COMM, trial, k)
            H_comm[k] = sample_rician(eta_c, cfg.rician_alpha[k], los_c, gen_c)
    return ChannelSet(H_sens=H_sens, H_comm=H_comm, los_sens=los_sens, geom=geom)
