"""Closed-form Fisher information, CRB, rates, costs, and a numerical oracle.

The per-receiver Fisher information for the normalized delay/Doppler pair
(tau_tilde, f_tilde) factors as a 2x2 matrix of pulse-dependent constants
times a beamformer functional:

    J_k = [[iota_k, varsigma_k], [varsigma_k, chi_k]] * Upsilon_k(W)

    iota_k     = 4 B M F_g      eta_k / G_k
    chi_k      = 64 pi^2 B^3 M F_tg eta_k / G_k
    varsigma_k = 16 pi B^2 M F_tgdot eta_k / G_k
    G_k        = (1 + alpha_k) (sigma_c^2 + sigma_z^2)

with F_g = int |g'|^2, F_tg = int t^2 |g|^2, F_tgdot = Re int t g g'* over
one pulse, and

    Upsilon_k(W) = alpha_k Tr(H_los^H H_los sum_i W_i W_i^H)
                 + N_r Tr(sum_i W_i W_i^H)  =  Tr(A_k sum_i W_i W_i^H)

with the sensing weight A_k = alpha_k H_los^H H_los + N_r I.  One kernel,
``sensing_weights``, builds the stack of A_k; the CRB and the beamformer's
objective weight (``beamforming.build_objective_weight``) both read it.

Coordinate conventions baked into these constants (and honoured by the
numerical oracle below): the delay sensitivity is taken against physical
delay in seconds, and the Doppler sensitivity against the normalized offset
accumulated over one pulse period, with the cross term being the real
envelope correlation Re int t g g'*.  The aggregate CRB is the trace of the
inverse of the summed selected FIMs; conversion to physical units is a
caller-side post-multiplication.

Rates come from one kernel over Gram stacks Q_i = W_i W_i^H (block 0 the
probe, block k+1 receiver k), shared with the beamformer: ``interference_mask``,
``receiver_covariance``, ``chol_log2det`` and ``rate`` for all K receivers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from . import rng as rngmod
from .channel import ChannelSet, los_component, sample_rician
from .scenario import (GeometrySummary, Layout, ScenarioConfig,
                       geometry_summary, steering)

LN2 = math.log(2.0)


class SingularFimError(ArithmeticError):
    """The selected FIM is numerically singular; the CRB is undefined."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


# ---------------------------------------------------------------------------
# transmit pulses
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sinc_energy_constant() -> float:
    """A = int_0^pi sin(t)^2 / t^2 dt, the sinc pulse's energy normaliser."""
    val, err = integrate.quad(lambda t: (math.sin(t) / t) ** 2 if t > 0 else 1.0,
                              0.0, math.pi, epsabs=0.0, epsrel=1e-12)
    return val


def pulse_waveform(pulse: str, delta_t: float):
    """Return vectorized callables (g, gdot) of the named pulse on [0, delta_t].

    Both return 0 outside the support.  ``cosine`` is sqrt(2) cos(pi t/(2 dt));
    ``sinc`` is sqrt(pi/A) sinc(t/dt) with the normalised sinc and
    A = int_0^pi sin^2 t / t^2 dt.  Each satisfies (1/dt) int |g|^2 = 1.
    """
    if pulse == "cosine":
        def g(t):
            return np.sqrt(2.0) * np.cos(np.pi * t / (2.0 * delta_t))

        def gdot(t):
            return -np.sqrt(2.0) * np.pi / (2.0 * delta_t) * np.sin(np.pi * t / (2.0 * delta_t))

    elif pulse == "sinc":
        amp = math.sqrt(math.pi / _sinc_energy_constant())

        def g(t):
            return amp * np.sinc(t / delta_t)

        def gdot(t):
            x = t / delta_t
            with np.errstate(divide="ignore", invalid="ignore"):
                ds = np.where(np.abs(x) < 1e-4,
                              -np.pi ** 2 * x / 3.0,
                              (np.cos(np.pi * x) - np.sinc(x)) / np.where(x == 0.0, 1.0, x))
            return amp / delta_t * ds

    else:
        raise ValueError(f"unknown pulse {pulse!r}")

    def on_support(fn):
        def masked(t):
            t = np.asarray(t, dtype=float)
            return np.where((t >= 0.0) & (t <= delta_t), fn(t), 0.0)
        return masked

    return on_support(g), on_support(gdot)


@dataclass(frozen=True)
class PulseIntegrals:
    """Pulse-shape integrals and the derived dimensionless-ish ratios."""

    pulse: str
    delta_t: float
    B: float
    F_g: float       # int |g'|^2 dt
    F_tg: float      # int t^2 |g|^2 dt
    F_tgdot: float   # Re int t g g'* dt
    kappa1: float    # F_g / (16 pi^2 B^2 F_tg)
    kappa2: float    # F_tgdot / (4 pi B F_tg)


def _quad(fn, a: float, b: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(fn, a, b, epsabs=0.0, epsrel=1e-10, limit=200)
        except integrate.IntegrationWarning as exc:  # pragma: no cover - defensive
            raise QuadratureError(str(exc)) from exc
    if err > max(1e-8 * abs(val), 1e-300):
        raise QuadratureError(f"quadrature error estimate {err} too large for value {val}")
    return val


@lru_cache(maxsize=64, typed=True)
def pulse_integrals(pulse: str, delta_t: float, B: float) -> PulseIntegrals:
    """Pulse integrals by adaptive quadrature (relative error <= 1e-8).

    Also verifies the pulse normalisation (1/dt) int |g|^2 = 1 and the
    Cauchy-Schwarz consequence kappa1 - kappa2^2 > 0 that the beamforming
    objective relies on.  Cached per (pulse, delta_t, B): every scene of a
    config asks for the same frozen result.  A call that raises is not cached.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be > 0")
    g, gdot = pulse_waveform(pulse, delta_t)
    norm = _quad(lambda t: float(g(t)) ** 2, 0.0, delta_t) / delta_t
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"pulse {pulse!r} violates unit-energy normalisation: {norm}")
    F_g = _quad(lambda t: float(gdot(t)) ** 2, 0.0, delta_t)
    F_tg = _quad(lambda t: t * t * float(g(t)) ** 2, 0.0, delta_t)
    F_tgdot = _quad(lambda t: t * float(g(t)) * float(gdot(t)), 0.0, delta_t)
    kappa1 = F_g / (16.0 * math.pi ** 2 * B ** 2 * F_tg)
    kappa2 = F_tgdot / (4.0 * math.pi * B * F_tg)
    if F_g * F_tg - F_tgdot ** 2 < 0:
        raise ValueError("pulse integrals violate Cauchy-Schwarz; check the waveform")
    if kappa1 - kappa2 ** 2 <= 0:
        raise ValueError("kappa1 - kappa2^2 <= 0; the CRB objective would change sign")
    return PulseIntegrals(pulse=pulse, delta_t=delta_t, B=B, F_g=F_g, F_tg=F_tg,
                          F_tgdot=F_tgdot, kappa1=kappa1, kappa2=kappa2)


# ---------------------------------------------------------------------------
# Fisher information constants and CRB
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FimConstants:
    """Per-receiver scalar factors of the closed-form FIM."""

    iota: np.ndarray      # (K,)
    chi: np.ndarray       # (K,)
    varsigma: np.ndarray  # (K,)
    pulses: PulseIntegrals

    def __post_init__(self) -> None:
        if np.any(self.iota <= 0) or np.any(self.chi <= 0):
            raise ValueError("iota and chi must be > 0")
        if np.any(self.chi * self.iota - self.varsigma ** 2 <= 0):
            raise ValueError("chi*iota - varsigma^2 must be > 0 for an invertible FIM")


def fim_constants(cfg: ScenarioConfig, geom: GeometrySummary) -> FimConstants:
    """iota_k, chi_k, varsigma_k for every receiver of the scene."""
    p = pulse_integrals(cfg.pulse, cfg.delta_t, cfg.B)
    alpha = np.asarray(cfg.rician_alpha, dtype=float)
    G = (1.0 + alpha) * (cfg.sigma_c2 + cfg.sigma_z2)
    scale = geom.eta / G
    B, M = cfg.B, cfg.M
    iota = 4.0 * B * M * p.F_g * scale
    chi = 64.0 * math.pi ** 2 * B ** 3 * M * p.F_tg * scale
    varsigma = 16.0 * math.pi * B ** 2 * M * p.F_tgdot * scale
    return FimConstants(iota=iota, chi=chi, varsigma=varsigma, pulses=p)


def _as_w_stack(W) -> np.ndarray:
    """Accept a BeamformerSet or a raw (K+1, N_t, L) stack."""
    arr = getattr(W, "W", W)
    arr = np.asarray(arr)
    if arr.ndim != 3:
        raise ValueError("beamformers must be a (K+1, N_t, L) stack")
    return arr


def total_gram(W) -> np.ndarray:
    """sum_i W_i W_i^H over the target and all receiver beamformers."""
    return grams(W).sum(axis=0)


def grams(W) -> np.ndarray:
    """The (K+1, N_t, N_t) Gram stack Q_i = W_i W_i^H of the beamformers."""
    arr = _as_w_stack(W)
    return np.einsum("kil,kjl->kij", arr, arr.conj())


def sensing_weights(los: np.ndarray, alpha, N_r: int) -> np.ndarray:
    """The (K, N_t, N_t) stack A_k = alpha_k H_los,k^H H_los,k + N_r I, with
    Upsilon_k = Tr(A_k sum_i W_i W_i^H); ``los`` is the (K, N_r, N_t) stack."""
    lhl = np.conj(np.transpose(los, (0, 2, 1))) @ los
    return np.asarray(alpha, dtype=float)[:, None, None] * lhl + N_r * np.eye(los.shape[-1])


def _upsilons(A: np.ndarray, Q_total: np.ndarray) -> np.ndarray:
    """Tr(A_k Q_total) for every sensing weight A_k of the stack."""
    return np.einsum("kij,ji->k", A, Q_total).real


def upsilon(W, los_k: np.ndarray, alpha_k: float, N_r: int) -> float:
    """Beamformer functional of the FIM: alpha_k Tr(L^H L sum WW^H) + N_r Tr(sum WW^H)."""
    return float(_upsilons(sensing_weights(los_k[None], [alpha_k], N_r), total_gram(W))[0])


@dataclass(frozen=True)
class CrbReport:
    """Aggregate FIM, its trace-inverse CRB, and the per-receiver Upsilon values."""

    fim: np.ndarray         # 2x2, rows/cols ordered (tau_tilde, f_tilde)
    crb: float
    upsilon: np.ndarray     # (K,)
    crb_identity: float     # (1+kappa1) / ((kappa1-kappa2^2) * sum b chi Upsilon)


def _crb_from_upsilons(b: np.ndarray, ups: np.ndarray, consts: FimConstants) -> CrbReport:
    b = np.asarray(b, dtype=float)
    if b.shape != ups.shape:
        raise ValueError("selection vector and Upsilon sizes disagree")
    if not np.all((b == 0) | (b == 1)):
        raise ValueError("selection entries must be 0 or 1")
    if b.sum() < 1:
        raise ValueError("CRB needs at least one selected receiver")
    s_iota = float(np.sum(b * consts.iota * ups))
    s_chi = float(np.sum(b * consts.chi * ups))
    s_var = float(np.sum(b * consts.varsigma * ups))
    fim = np.array([[s_iota, s_var], [s_var, s_chi]])
    denom = s_chi * s_iota - s_var ** 2
    if denom <= 1e-30:
        raise SingularFimError(f"FIM denominator {denom} is not positive")
    crb = (s_chi + s_iota) / denom
    p = consts.pulses
    identity = (1.0 + p.kappa1) / ((p.kappa1 - p.kappa2 ** 2) * s_chi)
    return CrbReport(fim=fim, crb=crb, upsilon=ups, crb_identity=identity)


def crb_from_gram(b, Q_total: np.ndarray, consts: FimConstants,
                  channels: ChannelSet, cfg: ScenarioConfig) -> CrbReport:
    """CRB for a selection and a total transmit Gram matrix."""
    A = sensing_weights(channels.los_sens, cfg.rician_alpha, cfg.N_r)
    return _crb_from_upsilons(np.asarray(b), _upsilons(A, Q_total), consts)


def crb(b, W, consts: FimConstants, channels: ChannelSet,
        cfg: ScenarioConfig) -> CrbReport:
    """Aggregate delay/Doppler CRB of the selected receivers under beamformers W.

    Raises SingularFimError when the aggregate FIM is numerically singular
    (selection treats such candidates as infeasible).
    """
    return crb_from_gram(b, total_gram(W), consts, channels, cfg)


# ---------------------------------------------------------------------------
# communication rate and cost
# ---------------------------------------------------------------------------

def interference_mask(b) -> np.ndarray:
    """(K, K+1) 0/1 mask of the Gram blocks in each receiver's interference.

    Row k covers every other receiver's stream (blocks i+1, i != k) and the
    probe stream (block 0) only when b_k = 0: a receiver selected for
    localization knows the probe and cancels it.
    """
    b = np.asarray(b)
    K = b.size
    mask = np.ones((K, K + 1))
    mask[:, 0] = b == 0
    mask[np.arange(K), np.arange(1, K + 1)] = 0.0
    return mask


def receiver_covariance(H: np.ndarray, mask: np.ndarray, Q: np.ndarray,
                        sigma2) -> np.ndarray:
    """sigma^2 I + H_m (sum_i mask[m, i] Q_i) H_m^H for every row m, Hermitian.

    H is (m, N_r, N_t), mask (m, K+1), Q the (K+1, N_t, N_t) Gram stack, and
    sigma2 a scalar or one value per row.
    """
    m, n_blocks = mask.shape
    n = Q.shape[-1]
    sums = (mask @ Q.reshape(n_blocks, -1)).reshape(m, n, n)
    noise = np.asarray(sigma2)[..., None, None] * np.eye(H.shape[1])
    S = np.einsum("mri,mij,mcj->mrc", H, sums, H.conj()) + noise
    return 0.5 * (S + np.conj(np.transpose(S, (0, 2, 1))))


def chol_log2det(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors and log2 det of Hermitian matrices; LinAlgError unless all are PD."""
    chol = np.linalg.cholesky(S)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
    return chol, logdet / LN2


def whitened_channels(b, Q: np.ndarray, H: np.ndarray,
                      sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """L_k^{-1} H_k and log2 det Psi_k for every receiver k, where Psi_k = L_k L_k^H
    is receiver k's interference-plus-noise covariance under selection b."""
    psi = receiver_covariance(H, interference_mask(b), Q, sigma2)
    chol, logdet = chol_log2det(psi)
    return np.linalg.solve(chol, H), logdet


def rate(b, Q: np.ndarray, H: np.ndarray, sigma2: float) -> np.ndarray:
    """Achievable rates log2 det(I + W_k^H H_k^H Psi_k^{-1} H_k W_k) of all K receivers.

    In bit/s/Hz, from the Gram stack Q_i = W_i W_i^H (``grams``) and the
    (K, N_r, N_t) channel stack H.  By Sylvester's identity each rate is
    log2 det(I + G_k Q_{k+1} G_k^H) with the whitened channel
    G_k = L_k^{-1} H_k.  That form keeps the accuracy of the W form; the
    difference log2 det(Psi_k + H_k Q_{k+1} H_k^H) - log2 det(Psi_k) loses
    digits to cancellation when the rate is small against log2 det(Psi_k).
    """
    G, _ = whitened_channels(b, Q, H, sigma2)
    own = np.eye(len(G), len(Q), k=1)
    return chol_log2det(receiver_covariance(G, own, Q, 1.0))[1]


def cooperation_cost(b, prices: dict[int, float]) -> float:
    """Total cooperation cost sum_k upsilon_k b_k of the selected receivers."""
    b = np.asarray(b)
    selected = np.flatnonzero(b)
    missing = [int(k) for k in selected if int(k) not in prices]
    if missing:
        raise ValueError(f"no price computed for selected receivers {missing}")
    return float(sum(prices[int(k)] for k in selected))


# ---------------------------------------------------------------------------
# numerical FIM oracle
# ---------------------------------------------------------------------------

def numerical_fim_oracle(cfg: ScenarioConfig, layout: Layout, W, k: int,
                         draws: int = 10_000, seed: int = 0) -> np.ndarray:
    """Finite-difference / Monte-Carlo evaluation of the per-receiver FIM.

    Rebuilds J_k = E[2 Re(d_a mu^H C^{-1} d_b mu)] without touching the
    closed forms: the pulse-train sensitivities are taken numerically
    (central differences of step 1e-4*dt in physical delay; the per-pulse
    normalized Doppler ramp 2 pi (u/dt) as the frequency sensitivity, with
    the cross entry being their real correlation -- the same conventions
    the closed-form constants encode), integrated by midpoint quadrature on
    4096 points, and the channel/beamformer factor is a Monte-Carlo average
    of Tr(H^H H sum_i W_i W_i^H) over fresh Rician draws.  The symbol
    average E[s s^H] = I is applied analytically.

    Returns the 2x2 matrix ordered (tau_tilde, f_tilde).
    """
    if draws < 1:
        raise ValueError("need at least one channel draw")
    arr = _as_w_stack(W)
    gram = total_gram(arr)
    if not np.any(gram):
        return np.zeros((2, 2))
    geom = geometry_summary(layout, cfg)
    g, _ = pulse_waveform(cfg.pulse, cfg.delta_t)
    dt = cfg.delta_t
    h = 1e-4 * dt
    # midpoint grid keeps the FD stencil inside the pulse support
    u = (np.arange(4096) + 0.5) * (dt / 4096)
    du = dt / 4096
    d_tau = (g(u + h) - g(u - h)) / (2.0 * h)
    d_f = 2.0 * np.pi * (u / dt) * g(u)
    gram_tt = float(np.sum(d_tau * d_tau) * du)
    gram_tf = float(np.sum(d_tau * d_f) * du)
    gram_ff = float(np.sum(d_f * d_f) * du)
    shape = (2.0 * cfg.M / dt) * np.array([[gram_tt, gram_tf], [gram_tf, gram_ff]])

    a_tx = steering(geom.theta, cfg.N_t, cfg.spacing, cfg.wavelength)
    a_rx = steering(geom.phi[k], cfg.N_r, cfg.spacing, cfg.wavelength)
    los = los_component(cfg.beta[k], a_rx, a_tx)
    gen = rngmod.substream(seed, rngmod.DOMAIN_ORACLE, k)
    acc = 0.0
    for _ in range(draws):
        H = sample_rician(geom.eta[k], cfg.rician_alpha[k], los, gen)
        acc += float(np.trace(H.conj().T @ H @ gram).real)
    mean_tr = acc / draws
    return shape * mean_tr / (cfg.sigma_c2 + cfg.sigma_z2)
