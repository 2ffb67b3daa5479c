"""Transmit beamforming by successive convex approximation (SCA).

The CRB objective is non-convex in the beamformers W but becomes linear in
the Gram (covariance) variables Q_i = W_i W_i^H:

    minimize CRB  <=>  maximize  (kappa1 - kappa2^2)/(1 + kappa1) * sum_{k in G} chi_k Upsilon_k(Q)

with Upsilon_k(Q) = Tr(A_k sum_i Q_i), A_k = alpha_k H_los^H H_los + N_r I
from ``metrics.sensing_weights``.  A Gram stack is a plain (K+1, N_t, N_t)
array, block 0 the probe stream and block k+1 receiver k's stream, as in
``metrics``.  Without rate constraints (R_th <= 0) the optimum is
closed-form, all power on the weight's top eigenvector, and
``sca_optimize`` returns it without a solve.  The communication-rate
constraints stay non-convex; each SCA iteration replaces log det(Psi_k) by
its first-order expansion at the anchor Q_bar, which upper-bounds it, so
every surrogate-feasible point is exactly feasible (inner approximation)
and the surrogate is tight at the anchor.  ``sca_linearize`` returns all K
linearized constraints as one ``RateSurrogate``.  Exact rates, the
surrogates' covariances and their log-dets come from the rate kernel in
``metrics`` (``interference_mask``, ``receiver_covariance``,
``chol_log2det``, ``rate``).

The resulting inner problem -- maximize a linear functional of Hermitian
PSD matrices under concave log-det constraints and a power budget -- is
solved by a log-barrier interior-point method with exact gradients and
Hessians over an orthonormal real parametrisation of the Hermitian blocks.
Beamformers are recovered from the Grams by eigen-truncation; with
L = N_t the recovery is exact.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
import scipy.linalg as sla

from . import metrics
from .channel import ChannelSet
from .metrics import LN2, FimConstants
from .scenario import ScenarioConfig


class InfeasibleStartError(RuntimeError):
    """No strictly feasible starting point for the rate constraints."""


class SolverError(RuntimeError):
    """A solve missed its tolerance, or the beamformers it returns miss a rate."""


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit matrices, index 0 for the probe stream, k+1 for receiver k."""

    W: np.ndarray  # (K+1, N_t, L)

    def power(self) -> float:
        return float(np.sum(np.abs(self.W) ** 2))


@dataclass
class SolverWork:
    """What one barrier solver did (``_BarrierSolver.work``): its evaluations
    of gradient and curvature (``grad_hess``: ``evaluate`` calls, those of
    ``grad_hess`` included) and its ``_terms`` calls; the Newton steps
    ``center`` took on an evaluation handed to it (``reused``, see
    ``center``), so that ``steps``, the Newton steps, is ``grad_hess +
    reused``; the Newton systems
    solved on each path (elimination, dense Cholesky, ``center``'s
    regularized LU), a reused step's included; one (t, max_newton, Newton
    steps, decrement) entry per ``center`` call; one (warm, Newton steps)
    entry per ``solve`` that returns; and ``uncertified``, the solves whose
    final weight stopped short of its decrement test."""

    grad_hess: int = 0
    reused: int = 0
    terms: int = 0
    eliminated: int = 0
    dense: int = 0
    lu: int = 0
    centers: list[tuple[float, int, int, float | None]] = field(default_factory=list)
    solves: list[tuple[bool, int]] = field(default_factory=list)
    uncertified: int = 0

    @property
    def steps(self) -> int:
        return self.grad_hess + self.reused


@dataclass
class ScaTrace:
    """Record of one SCA run: (objective, Gram stack) of each accepted iterate.
    ``iterations`` adds the CRB and the maximum exact-constraint violation,
    which takes every rate: ``violation`` runs on the first read only.
    ``kkt_residual_max`` and ``gap_bound_max`` are the worst final
    certificates of the run's surrogate solves (``inner_convex_solve``'s
    ``kkt_residual`` and ``gap_bound``), the rejected last one included;
    0 when no solve ran.  ``work`` is the row solver's record, if any."""

    violation: Callable[[np.ndarray], float]
    iterates: list[tuple[float, np.ndarray]] = field(default_factory=list)
    reason: str = ""
    notes: list[str] = field(default_factory=list)
    kkt_residual_max: float = 0.0
    gap_bound_max: float = 0.0
    work: SolverWork = field(default_factory=SolverWork)

    @cached_property
    def iterations(self) -> list[tuple[float, float, float]]:
        return [(obj, 1.0 / obj, self.violation(Q)) for obj, Q in self.iterates]

    @property
    def converged(self) -> bool:
        return self.reason == "tolerance"


# ---------------------------------------------------------------------------
# Hermitian real parametrisation
# ---------------------------------------------------------------------------

@cache
def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of n x n Hermitian matrices, shape (n^2, n, n)."""
    mats = []
    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        mats.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n), dtype=complex)
            S[i, j] = S[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(S)
            A = np.zeros((n, n), dtype=complex)
            A[i, j] = 1j / math.sqrt(2.0)
            A[j, i] = -1j / math.sqrt(2.0)
            mats.append(A)
    return np.stack(mats)


def _vec_many(Qs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Row m is the coordinate vector of Qs[m], Re Tr(E_a Q_m) for every basis E_a.

    E_a is Hermitian, so Tr(E_a Q) = sum_ij conj(E_a[i, j]) Q[i, j]: one matmul
    with the flattened basis.
    """
    flat = basis.reshape(len(basis), -1)
    return (Qs.reshape(len(Qs), -1) @ flat.conj().T).real


def _psd_cores(Xs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Stack of matrices C[m,a,b] = Tr(X_m E_a X_m E_b) (each PSD for PSD X_m).

    With W[m,a] = E_a X_m, C[m,a,b] = Re sum_pq W[m,a][p,q] W[m,b][q,p]: one
    matmul of the basis as an (n^3, n) table with each X_m gives every W, and
    one batched real matmul of W's interleaved (re, im) rows with the
    columns (re, -im) of its transpose sums the real parts.  (One 2-D GEMM
    against the X_m side by side is as fast on one BLAS thread, but large
    enough for OpenBLAS to split: on two threads an N_t = 6 SCA row then
    took 23 s, against 5 s.)
    """
    m, n = Xs.shape[:2]
    bd = n * n
    W = (basis.reshape(bd * n, n) @ Xs).reshape(m, bd, n, n)
    cols = np.empty((m, n, n, 2, bd))
    W_t = W.transpose(0, 3, 2, 1)  # W_t[m, p, q, b] = W[m, b][q, p]
    cols[..., 0, :] = W_t.real
    np.negative(W_t.imag, out=cols[..., 1, :])
    return W.view(float).reshape(m, bd, 2 * bd) @ cols.reshape(m, 2 * bd, bd)


# ---------------------------------------------------------------------------
# linearized rate constraints
# ---------------------------------------------------------------------------

def _interference_trace(T: np.ndarray, interf: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_{i in interferers of row k} Tr(T_k Q_i) for every row k."""
    K, n = T.shape[:2]
    sums = (interf @ Q.reshape(len(Q), -1)).reshape(K, n, n)
    return np.einsum("kij,kji->k", T, sums).real


def _rate_masks(b) -> tuple[np.ndarray, np.ndarray]:
    """(K, K+1) 0/1 masks of each row's interferers and involved blocks."""
    interf = metrics.interference_mask(b)
    return interf, interf + np.eye(*interf.shape, k=1)


@dataclass(frozen=True)
class RateSurrogate:
    """Every receiver's concave surrogate rate constraint, stacked over k:

    slack(Q)[k] = log2 det(sigma^2 I + H_k (sum_{i in involved_k} Q_i) H_k^H)
                  - sum_{i in interferers_k} Tr(T_k Q_i) - offset[k]  >= 0

    interferers_k is row k of ``metrics.interference_mask(b)`` and
    involved_k adds the receiver's own block k+1.  Under that mask a row
    involves blocks 0..K (b_k = 0, the probe interferes) or 1..K (b_k = 1),
    one contiguous range either way.  T_k carries the anchor's whitened
    channel, so slack(anchor) equals the exact rate slacks.
    """

    b: np.ndarray       # (K,) selection
    H: np.ndarray       # (K, N_r, N_t) communication channels
    T: np.ndarray       # (K, N_t, N_t) Hermitian linearization weights
    offset: np.ndarray  # (K,)
    sigma2: float

    def slack(self, Q: np.ndarray) -> np.ndarray:
        """Every row's slack at the Gram stack Q, shape (K,); raises LinAlgError
        if a covariance is not positive definite."""
        interf, involved = _rate_masks(self.b)
        S = metrics.receiver_covariance(self.H, involved, Q, self.sigma2)
        return (metrics.chol_log2det(S)[1] - _interference_trace(self.T, interf, Q)
                - self.offset)


def sca_linearize(b, Q_bar: np.ndarray, H_comm: np.ndarray, sigma2: float,
                  R_th: float) -> RateSurrogate:
    """Every receiver's surrogate constraint under selection b, anchored at
    the Gram stack Q_bar.

    T_k = G_k^H G_k / ln 2 = H_k^H Psi_k^{-1} H_k / ln 2 and the offset come
    from one whitened channel G_k = L_k^{-1} H_k per receiver
    (``metrics.whitened_channels``).  The anchor covariance Psi_k must be
    positive definite, which the noise floor guarantees for any PSD anchor.
    """
    b = np.asarray(b)
    H = np.asarray(H_comm)
    G, logdet_psi = metrics.whitened_channels(b, Q_bar, H, sigma2)
    # conj(G)^T G: entries (i, j) and (j, i) are exact conjugates, so T is Hermitian
    T = np.einsum("kri,krj->kij", G.conj(), G) / LN2
    offset = logdet_psi - _interference_trace(T, metrics.interference_mask(b), Q_bar) + R_th
    return RateSurrogate(b=b, H=H, T=T, offset=offset, sigma2=sigma2)


def build_objective_weight(b, consts: FimConstants, channels: ChannelSet,
                           cfg: ScenarioConfig) -> np.ndarray:
    """Hermitian weight F with objective Tr(F sum_i Q_i); its reciprocal is the CRB."""
    b = np.asarray(b)
    p = consts.pulses
    scale = (p.kappa1 - p.kappa2 ** 2) / (1.0 + p.kappa1)
    A = metrics.sensing_weights(channels.los_sens, cfg.rician_alpha, cfg.N_r)
    F = np.zeros((cfg.N_t, cfg.N_t), dtype=complex)
    for k in np.flatnonzero(b):
        F = F + consts.chi[k] * A[k]
    return scale * 0.5 * (F + F.conj().T)


# ---------------------------------------------------------------------------
# log-barrier interior point
# ---------------------------------------------------------------------------

# ratio of consecutive barrier weights on the path, and the most stages a path takes
BARRIER_MU = 30.0
MAX_STAGES = 80
# The guards of a warm barrier solve's starts (see _BarrierSolver.solve).  On
# small scenes with tight rates Newton's damped phase can crawl along a nearly
# active rate constraint for hundreds of steps, so each start gives up when
# its first Newton decrement exceeds its guard.
# The rung below: a guard of 1e5 there let Newton crawl to max_newton.
WARM_DECREMENT = 1e4
# The final weight: 1e4 keeps too few starts (342 vs 305 steps per tradeoff row).
WARM_FINAL_DECREMENT = 1e5
# The final weight crawls to max_newton within its guard on 3 of 48 small scenes,
# where a kept start takes at most 23 Newton steps.
WARM_FINAL_NEWTON = 25
# Every weight of a barrier path below its final one only hands the next
# weight a start (Boyd & Vandenberghe, Convex Optimization, sec. 11.3.1:
# computing x*(t) exactly is not necessary), so its centering call stops at a
# decrement lambda^2 <= 2 tol = 1/4, lambda <= 1/2; the final weight keeps tol
# 1e-9 and its certificate.  At tol 1e-6 the three newton_census.py sets took
# 1,946 / 876 / 14,947 Newton steps, at 1/8 1,789 / 770 / 13,171, 88 / 54 /
# 992 of them on an evaluation center was handed (see solve).
INTERMEDIATE_TOL = 0.125
# At a decrement this small Newton converges quadratically: the full step
# gains half the decrement to many digits.  The barrier change the Armijo test
# reads is far coarser there: each rate slack is a difference of log-dets and
# offsets near 40 in size, rounded to about 1e-13, so at slacks of 1.5e-4 the
# summed log ratios of a sec6a row were off by 5.7e-9 against a 50-digit
# evaluation, twice the full step's gain.  The test then rejected full steps
# and crawled on null steps to max_newton.  So a strictly feasible full step
# is taken without the test at or below this decrement.
PURE_NEWTON_DECREMENT = 1e-6
# An eliminated Newton step (_BarrierSolver._eliminated_step) is kept when its
# decrement grad @ step agrees with step^T hess step to this relative bound.
# Near the boundary the power and rate barriers' curvature exceeds the PSD
# cores' by many orders, and Woodbury's subtraction loses the step's stiff
# components: with no test, 44 of the 1,003 eliminated steps of the N_t = 4
# selection_compare rows at sec6a_nt4, seed 7, had a decrement more than 1e-6
# off the dense solve's (one by 400%), and on make_scene scenes at N_t = 4
# and 6, P_T = 1, some were negative, which center would have taken for a
# certificate.  With the test the kept steps' decrements lay within 1e-6 of
# the dense ones on those rows, and 57 of 1,011 systems went dense.
ELIMINATION_RTOL = 1e-6
# A step that fails that test is refined once and kept when the refined step
# agrees to this tighter bound.  On newton_census.py's selection_nt4 set the
# refinement keeps all 12 steps that went dense without it (770 systems, the
# same Newton steps).  At 1e-6 or 1e-7 a refined step of an N_t = 4 SCA row
# at P_T = 1 was kept with a decrement 1.7e-4 off the dense solve's, against
# at most 2.5e-5 for the unrefined steps kept there; at 1e-8 none was.
ELIMINATION_REFINED_RTOL = 1e-8
# The Newton path is fixed by the solver's shape (see _BarrierSolver.newton_step),
# read when a solver is built: block elimination from this N_t on, outside
# epigraph mode.  One SCA row at K = 10 (scripts/newton_ladder.py, one BLAS
# thread, 2 shared vCPUs), row wall time per Newton step in microseconds,
# dense / eliminated: N_t = 2 (dim 44) 241 / 240, N_t = 3 (dim 99) 436 / 326,
# N_t = 4 (dim 176) 656 / 393, N_t = 6 (dim 396) 2583 / 1515.  At N_t = 3 two
# more runs read 330 / 243 and 308 / 266, none of its eliminated steps falling
# back; the runs agree there, but no benchmark workload or golden run solves
# at N_t = 3 to check a move on, so the cut-over stays.
ELIMINATE_FROM_NT = 4


class _Curvature(NamedTuple):
    """The negated barrier Hessian at a point in parts (see ``_BarrierSolver.hessian``):

        blockdiag(cores) + sum_g E_g S_g E_g^T + gP gP^T / p^2 + gcon^T diag(inv_h^2) gcon

    with E_g the involvement of group g's blocks, S_g its row ``sums``; and,
    from a solver that eliminates, the inverse of blockdiag(cores).
    """

    power_slack: float
    inv_h: np.ndarray   # (m,) inverse rate slacks
    gcon: np.ndarray    # (m, dim) rate constraint gradients
    cores: np.ndarray   # (n_blocks, n^2, n^2) C(Q_i^-1), the PSD barriers' curvature
    sums: np.ndarray    # (groups, n^4) log-det curvature S_g, flattened
    q_cores: np.ndarray | None  # (n_blocks, n^2, n^2) C(Q_i) = C(Q_i^-1)^-1, or None


class _Evaluation(NamedTuple):
    """The barrier's gradient and curvature at a point (``evaluate``), which
    do not depend on the weight t: the objective is linear, so the gradient
    at t is ``grad + t c`` and the curvature is the same at every t."""

    ev: tuple           # _terms at the point
    grad: np.ndarray    # the barrier's gradient, without t c
    curv: _Curvature


class _BarrierSolver:
    """Damped-Newton path following for the lifted subproblem.

    Maximizes c.z subject to the rate surrogates, the power budget, and PSD
    blocks, all folded into logarithmic barriers.  One solver serves a row:
    it is built from what the row fixes (weight, b, H, sigma^2, P_T), and
    ``reanchor`` gives it each surrogate, the first one included.  With
    ``weight`` None an extra scalar s is appended to the variables and
    maximized against the constraint slacks (epigraph mode, the phase-1
    feasibility search); otherwise the weight is divided by its spectral
    norm ``scale`` so the duality-gap target nu/t is meaningful.

    ``grad_hess(z, t)`` returns the gradient of the barrier value
    (``barrier``) and its *negated* Hessian, which is positive definite, in
    parts (``_Curvature``); the Newton step (``newton_step``) solves
    ``hess @ step = grad`` on one of two paths fixed by the solver's shape
    (``eliminate``).  The dense path assembles ``hess`` (``hessian``) and
    factors it with one Cholesky call.  From N_t = ELIMINATE_FROM_NT (4),
    outside epigraph mode, a block elimination (``_eliminated_step``, Boyd
    & Vandenberghe, Convex Optimization, App. C.4) leaves one LU solve of
    width groups n^2 + 1 + m, 43 at N_t = 4 and K = 10, and falls back to
    the dense path when its step fails a consistency test, and fails it
    again after one round of iterative refinement.  The solver
    counts its own work in ``work`` (``SolverWork``).

    ``center`` evaluates ``_terms`` at most once per point, and not at all
    at a line-search size the slacks' tangents put outside the domain:
    the terms of the point the line search accepts go on to ``grad_hess``.
    Its Armijo test compares the gain 0.25 * size * decrement with the change
    of the barrier value, summed from the ratios of the two points' terms
    (``_value`` with ``ref``): the values themselves are of order t, and at
    the final weight their rounding can exceed the gain, which once stalled a
    centering call on null steps until ``max_newton``.  At a decrement of at
    most PURE_NEWTON_DECREMENT a strictly feasible full step skips the test.
    ``center`` also returns the Newton decrement it stopped on;
    ``inner_convex_solve`` reports it as the KKT certificate, computing the
    decrement at the returned point itself where the final stage stopped
    short of its test (inf if that Newton system is not positive definite).
    The dense path assembles, regularizes and factors the Newton system in
    place in ``workspace``, one block the solver allocates once, so a
    Newton step allocates no (dim, dim) array.

    ``solve`` centers each weight below the final one loosely, to a
    decrement of at most 1/4 (INTERMEDIATE_TOL), and the final one to
    2e-9.  ``center`` returns the weight-free evaluation (``_Evaluation``)
    it stopped on, and ``solve`` hands it to the next call that starts on
    that point, as at each weight change, which takes its first step
    without a ``_terms`` or ``evaluate`` call.

    Every constraint is affine in z, so ``_terms`` evaluates a point with
    one matrix product per kind of block and one Cholesky call: it tests
    the power slack first, then factors one stack of the Q_i = ``unpack(z)``
    and the receiver covariances S_k(z) = sigma^2 I + z.Phi_S, each padded
    with an identity to r x r, r the larger of N_t and N_r.  That factor
    tests both PSD domains, gives the log-dets from its diagonal, and is
    the triangular system ``grad_hess`` solves against.

    The rate constraints are one ``RateSurrogate`` read as it is (without
    rate constraints ``sca_optimize`` needs no solver).  Its rows involve
    blocks 0..K (the probe interferes, b_k = 0) or 1..K (b_k = 1), one
    contiguous range by construction of the mask, so the rows fall into at
    most two groups by the probe column, and each group adds its log-det
    curvature to one square sub-block of the Hessian.
    """

    def __init__(self, weight: np.ndarray | None, b: np.ndarray, H: np.ndarray, sigma2: float,
                 P_T: float) -> None:
        if P_T <= 0:
            raise ValueError("power budget must be > 0")
        m, n_r, n = H.shape
        self.basis = _hermitian_basis(n)
        # the basis as a real (n^2, 2 n^2) table: unpack multiplies the real
        # coordinates with it without a complex cast
        self.basis_f = self.basis.reshape(n * n, n * n).view(float)
        self.n = n
        self.n_r = n_r
        self.m = m
        self.n_blocks = n_blocks = m + 1
        self.bd = n * n
        self.qdim = n_blocks * self.bd
        self.epigraph = epigraph = weight is None
        self.dim = self.qdim + (1 if epigraph else 0)
        self.P_T = P_T
        self.weight = weight

        c = np.zeros(self.dim)
        if epigraph:
            c[-1] = 1.0
        else:
            self.scale = float(np.linalg.norm(weight, 2))
            if self.scale == 0.0:
                raise ValueError("objective weight is zero")
            w = _vec_many((weight / self.scale)[None], self.basis)[0]
            c[:self.qdim] = np.tile(w, n_blocks)
        self.c = c

        self.nu = n_blocks * n + m + 1
        # the parts of the barrier that do not depend on the point: the power
        # barrier's gradient direction (-vec(I) on every block, so the power
        # slack is P_T + gP.z) and curvature, the padded stack _terms fills
        # (sigma^2 I on the receiver blocks), and the right-hand sides of
        # grad_hess's solve against its factor, I and the H_k padded with zero
        # rows: A_i = L_i^-1 with Q_i^-1 = A_i^H A_i and A_k = L_k^-1 H_k with
        # M_k = A_k^H A_k.
        self.gP = np.zeros(self.dim)
        eye = _vec_many(np.eye(n, dtype=complex)[None], self.basis)[0]
        self.gP[:self.qdim] = -np.tile(eye, n_blocks)
        self.lin = np.zeros((m, self.dim))
        r = max(n, n_r)
        self.stack = np.tile(np.eye(r, dtype=complex), (n_blocks + m, 1, 1))
        self.stack[n_blocks:, :n_r, :n_r] *= sigma2
        self.rhs = np.zeros((n_blocks + m, r, n), dtype=complex)
        self.rhs[:n_blocks, :n] = np.eye(n)
        self.rhs[n_blocks:, :n_r] = H
        # S_k(z) - sigma^2 I = sum_(i, a) z_(i, a) mask_ki H_k E_a H_k^H, with
        # H_k E_a H_k^H from the covariance builder (row (k, a) takes the
        # basis block E_a); phi_S is the (qdim, m n_r^2) table as floats
        self.interf, self.mask = _rate_masks(b)
        heh = metrics.receiver_covariance(np.repeat(H, self.bd, axis=0),
                                          np.tile(np.eye(self.bd), (m, 1)), self.basis, 0.0)
        phi = self.mask[:, :, None, None] * heh.reshape(m, 1, self.bd, n_r * n_r)
        self.phi_S = np.ascontiguousarray(
            phi.transpose(1, 2, 0, 3).reshape(self.qdim, -1)).view(float)
        # Hessian groups by the probe column: a (groups, m) indicator of
        # their rows carrying the log2 scale, so one matmul with the
        # 1/h-weighted cores gives every group's curvature sum, and a
        # (n_blocks^2, groups) indicator of the block pairs (i, j) both
        # involved in a group's rows, so a second one spreads the sums
        # over the Hessian's blocks
        probe = self.mask[:, 0] > 0
        rows = np.stack([probe == p for p in dict.fromkeys(probe.tolist())])
        self.group_rows = rows / LN2
        involved = self.mask[rows.argmax(axis=1)]
        self.group_blocks = (involved[:, :, None] * involved[:, None, :]).reshape(
            len(rows), -1).T.copy()
        # the Newton path, fixed by the shape (see ELIMINATE_FROM_NT)
        self.eliminate = not epigraph and n >= ELIMINATE_FROM_NT
        # the elimination's U = [E_g, gP/p, gcon^T diag(1/h), grad] (see
        # _eliminated_step), its columns E_g filled once
        if self.eliminate:
            groups = len(rows) * self.bd
            self.U = np.zeros((self.dim, groups + m + 2))
            self.U[:, :groups] = np.kron(involved.T, np.eye(self.bd))
        self.work = SolverWork()
        # the last center a solve certified one rung below its final weight
        # (see solve); reanchor leaves it
        self.rung: np.ndarray | None = None
        # the solver's (dim, dim) arrays, allocated as one block: the power
        # barrier's curvature, the Newton ridge, and center's workspace (the
        # Hessian, a product term, the regularized Hessian to factor).  At
        # dim 176 per-step arrays of 248 KB each made glibc trim the heap top
        # and fault it back in on every step; freeing a block this size
        # raises glibc's dynamic mmap threshold, and with it the trim
        # threshold, above them.
        block = np.empty((5, self.dim, self.dim))
        self.gP_outer = np.outer(self.gP, self.gP, out=block[0])
        self.ridge = np.multiply(1e-12, np.eye(self.dim), out=block[1])
        self.workspace = block[2:]

    def reanchor(self, surrogate: RateSurrogate) -> None:
        """Take a surrogate of the row (same b, H and sigma^2) before each solve:
        its offsets and their floor, which keeps 1/h^2 curvature finite near
        active constraints, and row k's linear part Tr(T_k Q_i) on interferer i."""
        self.offsets = surrogate.offset
        self.h_floor = 1e-14 * (1.0 + np.abs(self.offsets))
        # center skips a trial point whose rate-slack tangent lies below this
        # (see center)
        self.h_skip = self.h_floor - 1e-9 * (1.0 + np.abs(self.offsets))
        t_vecs = _vec_many(surrogate.T, self.basis)
        self.lin[:, :self.qdim] = np.where(self.interf[:, :, None] > 0, t_vecs[:, None, :],
                                           0.0).reshape(self.m, self.qdim)
        self.gcon_fixed = -self.lin
        if self.epigraph:
            self.gcon_fixed[:, -1] = -1.0

    # -- state helpers ----------------------------------------------------
    def pack(self, Q: np.ndarray, s: float = 0.0) -> np.ndarray:
        z = np.empty(self.dim)
        z[:self.qdim] = _vec_many(np.asarray(Q), self.basis).ravel()
        if self.epigraph:
            z[-1] = s
        return z

    def unpack(self, z: np.ndarray) -> np.ndarray:
        """The Gram stack at z, exactly Hermitian: (j, i) mirrors (i, j)'s products."""
        coords = z[:self.qdim].reshape(self.n_blocks, self.bd)
        return (coords @ self.basis_f).view(complex).reshape(self.n_blocks, self.n, self.n)

    def _stack(self, z: np.ndarray) -> np.ndarray:
        """The Q_i, then the S_k at z, each padded with an identity to r x r."""
        nb, n, n_r = self.n_blocks, self.n, self.n_r
        stack = self.stack.copy()
        stack[:nb, :n, :n] = self.unpack(z)
        stack[nb:, :n_r, :n_r] += (z[:self.qdim] @ self.phi_S).view(complex).reshape(
            self.m, n_r, n_r)
        return stack

    def _terms(self, z: np.ndarray):
        """Evaluate every barrier ingredient; None when z is infeasible.

        Returns (power slack, rate slacks h, the stack's Cholesky factor,
        the diagonals of its Q blocks).
        """
        self.work.terms += 1
        power_slack = self.P_T + float(self.gP @ z)
        if power_slack <= 0:
            return None
        try:
            chol = np.linalg.cholesky(self._stack(z))
        except np.linalg.LinAlgError:
            return None
        nb = self.n_blocks
        diag = chol.diagonal(0, 1, 2).real
        h = 2.0 * np.log(diag[nb:]).sum(axis=1) / LN2 - self.lin @ z - self.offsets
        if self.epigraph:
            h -= z[-1]
        if (h <= self.h_floor).any():
            return None
        return power_slack, h, chol, diag[:nb]

    def _value(self, z: np.ndarray, t: float, ev, ref=None) -> float:
        """Barrier value at z from its ``_terms`` ev.

        With ``ref = (z0, ev0)`` it is the change from z0 to z, summed from the
        ratios of the two points' terms; it keeps its precision when it lies
        far below the rounding of the values themselves (of order t).
        """
        power_slack, h, _, diag = ev
        if ref is None:
            dz, power0, h0, diag0 = z, 1.0, 1.0, 1.0
        else:
            z0, (power0, h0, _, diag0) = ref
            dz = z - z0
        val = t * float(self.c @ dz) + math.log(power_slack / power0)
        val += float(np.log(h / h0).sum())
        val += 2.0 * float(np.log(diag / diag0).sum())
        return val

    def barrier(self, z: np.ndarray, t: float):
        ev = self._terms(z)
        return None if ev is None else self._value(z, t, ev)

    def grad_hess(self, z: np.ndarray, t: float, ev=None) -> tuple[np.ndarray, _Curvature]:
        """(gradient, negated Hessian in parts) at z; ``ev`` is ``_terms(z)`` if known.

        ``hessian`` assembles the parts into the dense matrix and
        ``newton_step`` solves with them.
        """
        at = self.evaluate(z, ev)
        return at.grad + t * self.c, at.curv

    def evaluate(self, z: np.ndarray, ev=None) -> _Evaluation:
        """The barrier's gradient and curvature at z, without the objective's
        t c (see ``grad_hess``); ``ev`` is ``_terms(z)`` if known."""
        self.work.grad_hess += 1
        if ev is None:
            ev = self._terms(z)
        if ev is None:
            raise SolverError("barrier evaluated at an infeasible point")
        power_slack, h, chol, _ = ev
        bd, nb, m = self.bd, self.n_blocks, self.m

        # the PSD block barriers' Q^-1 and the log-det curvature M_k = G_k^H G_k
        # of the whitened channels G_k = L_k^-1 H_k, S_k = L_k L_k^H: one stack
        # of Hermitian matrices (conj(A)^T A has exactly conjugate (i, j) and
        # (j, i) entries), one coordinate and one PSD-core evaluation, which
        # also takes the Q_i where the solver eliminates
        A = np.linalg.solve(chol, self.rhs)
        X = np.einsum("kji,kjl->kil", A.conj(), A)
        vecs = _vec_many(X, self.basis)
        cores = _psd_cores(np.concatenate([X, self.unpack(z)]) if self.eliminate else X,
                           self.basis)

        grad = self.gP / power_slack
        grad[:self.qdim] += vecs[:nb].ravel()

        inv_h = 1.0 / h
        # full constraint gradients: vec(M_k) / ln 2 on every involved block
        gcon = self.gcon_fixed.copy()
        # splitting the axes of a slice keeps it a view of gcon
        gcon[:, :self.qdim].reshape(m, nb, bd)[...] += (
            self.mask[:, :, None] * (vecs[nb:] / LN2)[:, None, :])
        grad += inv_h @ gcon
        # log-det curvature: each group's sum of its rows' cores
        sums = (self.group_rows * inv_h) @ cores[nb:nb + m].reshape(m, bd * bd)
        return _Evaluation(ev, grad, _Curvature(power_slack, inv_h, gcon, cores[:nb], sums,
                                                cores[nb + m:] if self.eliminate else None))

    def hessian(self, curv: _Curvature) -> np.ndarray:
        """The dense negated Hessian, written into ``workspace[0]`` with
        ``workspace[1]`` as scratch, so the next call overwrites it."""
        bd, nb = self.bd, self.n_blocks
        # power barrier (affine constraint): its curvature starts the Hessian
        hess = np.divide(self.gP_outer, curv.power_slack ** 2, out=self.workspace[0])
        # block-diagonal PSD cores, added through a view of the diagonal blocks;
        # splitting the axes of a slice keeps it a view of hess
        blocks = hess[:self.qdim, :self.qdim].reshape(nb, bd, nb, bd)
        np.einsum("kakb->kab", blocks)[...] += curv.cores
        # log-det curvature: each group's sum on every pair of its blocks
        blocks += (self.group_blocks @ curv.sums).reshape(nb, nb, bd, bd).transpose(0, 2, 1, 3)
        hess += np.matmul(curv.gcon.T, (curv.inv_h ** 2)[:, None] * curv.gcon,
                          out=self.workspace[1])
        return hess

    def newton_step(self, grad: np.ndarray, curv: _Curvature) -> np.ndarray:
        """Solve hess @ step = grad, by block elimination where the solver
        eliminates, else (or when elimination fails) by a Cholesky factor of
        hess + 1e-12 I in ``workspace[2]``; ``work`` counts the path taken.

        Raises LinAlgError when that matrix is not numerically positive
        definite, or has a non-finite entry: the factor's diagonal shows
        one, so the inputs are not scanned.  A non-finite ``grad`` shows in
        the step.
        """
        if self.eliminate:
            step = self._eliminated_step(grad, curv)
            if step is not None:
                self.work.eliminated += 1
                return step
        # hess is symmetric, so the Fortran-ordered transpose of the
        # C-ordered workspace is the same matrix, factored in place
        reg = np.add(self.hessian(curv), self.ridge, out=self.workspace[2]).T
        chol, info = sla.lapack.dpotrf(reg, lower=True, clean=False, overwrite_a=True)
        if info != 0 or not np.isfinite(chol.diagonal()).all():
            raise np.linalg.LinAlgError("Newton system is not positive definite")
        self.work.dense += 1
        return sla.lapack.dpotrs(chol, grad, lower=True)[0]

    def _eliminated_step(self, grad: np.ndarray, curv: _Curvature) -> np.ndarray | None:
        """hess^-1 grad with hess = D + U W U^T (Woodbury, never inverting W):

            D^-1 g - D^-1 U (I + W U^T D^-1 U)^-1 W U^T D^-1 g

        D is the block diagonal of the PSD barriers' cores, and D^-1 =
        blockdiag C(Q_i) needs no factor, since C(X)^-1 = C(X^-1): the
        curvature of an eliminating solver carries it.  U = [E_g, gP/p,
        gcon^T diag(1/h)] with E_g the 0/1 involvement of group g's blocks
        kron I_(n^2), and W = diag(S_g, 1, I): S_g, a sum of cores of rank at
        most N_r^2 each, can be singular.

        The step is kept when its decrement grad @ step is positive and
        agrees with step^T hess step, a sum of PSD quadratic forms, to
        ELIMINATION_RTOL relative.  A step that fails takes one round of
        iterative refinement (Higham, Accuracy and Stability of Numerical
        Algorithms, sec. 12.1): the residual grad - hess step, solved with
        the same factors, is added to it, and the refined step is kept when
        it agrees to ELIMINATION_REFINED_RTOL.  None when it does not, or
        when the capacitance matrix is singular (a non-finite step fails
        both tests).
        """
        nb, bd, U = self.n_blocks, self.bd, self.U
        groups = len(curv.sums)
        width = U.shape[1] - 1
        # [U g] in the solver's buffer, after the fixed columns E_g
        U[:, groups * bd] = self.gP / curv.power_slack
        np.multiply(curv.gcon.T, curv.inv_h, out=U[:, groups * bd + 1:width])
        U[:, width] = grad
        # D^-1 [U g], and the capacitance system [U^T D^-1 U | U^T D^-1 g]
        DU = (curv.q_cores @ U.reshape(nb, bd, width + 1)).reshape(self.dim, width + 1)
        # (Fortran-ordered, as dgesv takes it without a copy)
        cap = (DU.T @ U[:, :width]).T
        # W on the left: S_g on each group's rows, identity on the rest
        S = curv.sums.reshape(groups, bd, bd)
        cap[:groups * bd] = (S @ cap[:groups * bd].reshape(groups, bd, width + 1)).reshape(
            groups * bd, width + 1)
        np.einsum("ii->i", cap[:, :width])[...] += 1.0
        lu, piv, x, info = sla.lapack.dgesv(cap[:, :width], cap[:, width], overwrite_a=True)
        if info != 0:
            return None
        step = DU[:, width] - DU[:, :width] @ x

        def weigh(v):
            """W v: S_g on each group's entries, the identity on the rest."""
            w = v.copy()
            w[:groups * bd] = (S @ v[:groups * bd].reshape(groups, bd, 1)).ravel()
            return w

        for refined in (False, True):
            if refined:
                # the residual grad - hess step, hess step = D step + U W v,
                # solved with the same factors and added to the step
                res = grad - D_step - U[:, :width] @ W_v
                D_res = (curv.q_cores @ res.reshape(nb, bd, 1)).reshape(self.dim)
                step = step + D_res - DU[:, :width] @ sla.lapack.dgetrs(
                    lu, piv, weigh(U[:, :width].T @ D_res))[0]
            # step^T hess step = step^T D step + v^T W v, v = U^T step
            D_step = (curv.cores @ step.reshape(nb, bd, 1)).reshape(self.dim)
            v = U[:, :width].T @ step
            W_v = weigh(v)
            decrement = grad @ step
            rtol = ELIMINATION_REFINED_RTOL if refined else ELIMINATION_RTOL
            if decrement > 0 and abs(step @ D_step + v @ W_v - decrement) <= rtol * decrement:
                return step
        return None

    def _trial_sizes(self, ev, gcon: np.ndarray, step: np.ndarray):
        """The line search's sizes 1, 1/2, 1/4, ... above 1e-14 from the point
        with ``_terms`` ev and rate constraint gradients gcon, less every size
        the tangents show outside the domain (see ``center``)."""
        power_slack, h = ev[0], ev[1]
        power_slope, h_slope = float(self.gP @ step), gcon @ step
        size = 1.0
        while size > 1e-14:
            if not (power_slack + size * power_slope < -1e-9 * self.P_T
                    or (h + size * h_slope < self.h_skip).any()):
                yield size
            size *= 0.5

    def center(self, z: np.ndarray, t: float, tol: float = 1e-9, max_newton: int = 200,
               max_first: float = math.inf, start: _Evaluation | None = None
               ) -> tuple[np.ndarray, float | None, _Evaluation | None]:
        """Damped Newton steps at weight t; returns (z, decrement, evaluation).

        The decrement is the one measured at the returned z when the stop test
        ``decrement <= 2 tol`` ended the call, and None when a fallback or
        ``max_newton`` did, or when the first decrement exceeded ``max_first``.
        The evaluation is the last ``evaluate`` call's, at the returned z, or
        None when ``max_newton`` ended the call after a step.

        The line search tries the sizes 1, 1/2, 1/4, ... above 1e-14 along the
        step dz and keeps the first one ``_terms`` accepts that passes the
        Armijo test.  It skips a size a without evaluating it when the
        tangents at z put a slack outside the domain (``_trial_sizes``):

            P + a gP.dz < -1e-9 P_T,  or
            h_k + a gcon_k.dz < h_floor_k - 1e-9 (1 + |offset_k|) for some k,

        with P and h_k the power and rate slacks at z and gP and gcon_k their
        gradients.  Along the step the power slack is affine and each rate
        slack, a log-det less a linear term, is concave, so it lies on or
        below its tangent (Boyd & Vandenberghe, sec. 3.1.3).  Each margin is
        1e-9 of the scale its slack is computed at (the traces summed into
        the power slack reach P_T; a rate slack cancels log-dets and offsets
        of order |offset_k|), far above its rounding, so ``_terms`` would
        reject every skipped size: the accepted size, and every bit after
        it, is the same as with no bound.

        ``start`` is an evaluation an earlier call returned with z, at any
        weight: the objective is linear, so the curvature does not depend on
        t and the gradient is the barrier's plus t c.  The first step then
        takes it, with no ``_terms`` or ``evaluate`` call; ``work.reused``
        counts these steps.
        """
        steps_before, certified, at = self.work.steps, None, start
        # then carried over from the line search that accepts z
        ev = self._terms(z) if start is None else start.ev
        for i in range(max_newton):
            if i == 0 and start is not None:
                self.work.reused += 1
            else:
                at = self.evaluate(z, ev)
            grad, curv = at.grad + t * self.c, at.curv
            try:
                step = self.newton_step(grad, curv)
            except np.linalg.LinAlgError:
                hess = self.hessian(curv)
                if not np.isfinite(hess).all():
                    break
                try:
                    reg = 1e-8 * max(1.0, np.max(np.abs(np.diag(hess))))
                    step = np.linalg.solve(hess + reg * np.eye(self.dim), grad)
                except np.linalg.LinAlgError:
                    # hopeless conditioning: keep the last strictly feasible point
                    break
                self.work.lu += 1
            if not np.all(np.isfinite(step)):
                break
            decrement = float(grad @ step)
            if decrement <= 2.0 * tol:
                certified = decrement
                break
            if i == 0 and decrement > max_first:
                break
            for size in self._trial_sizes(ev, curv.gcon, step):
                cand = z + size * step
                cand_ev = self._terms(cand)
                if cand_ev is not None and (
                        (size == 1.0 and decrement <= PURE_NEWTON_DECREMENT)
                        or self._value(cand, t, cand_ev, (z, ev)) >= 0.25 * size * decrement):
                    z, ev = cand, cand_ev
                    break
            else:
                break
        else:
            # every step moved z, the last one past the last evaluation
            at = None
        self.work.centers.append((t, max_newton, self.work.steps - steps_before, certified))
        return z, certified, at

    def solve(self, z0: np.ndarray, gap_tol: float, t0: float = 1.0, warm: bool = False
              ) -> tuple[np.ndarray, float, float | None]:
        """Path following (Boyd & Vandenberghe, Convex Optimization, sec. 11.3)
        to duality gap nu/t <= gap_tol; returns z, t and decrement of the
        final centering call (see ``center``).

        The weights are listed before any centering call, each BARRIER_MU
        times the last.  A cold path starts at t0 and ends on the first
        weight with nu/t <= gap_tol; one needing more than MAX_STAGES weights
        raises SolverError.  ``warm`` says z0 is the center of a nearby
        problem at its final weight (sec. 9.6): the path is then exactly
        t1, t1 mu, t1 mu^2 with t1 = nu/gap_tol/mu^2 (``t0`` is not read), and
        the first start of these that certifies is kept:

        1. z0 at the final weight, from a first Newton decrement of at most
           WARM_FINAL_DECREMENT within WARM_FINAL_NEWTON steps;
        2. the rung below, from a first decrement of at most WARM_DECREMENT,
           starting at ``rung`` where it is strictly feasible (the anchor lies
           next to the constraints active at the last center, a center one
           rung down lies off them), else at z0;
        3. the whole path from z0.

        Every center certified one rung below the final weight becomes
        ``rung``, which the solver keeps for the row's next warm solve.

        Each weight below the final one is centered to a decrement of at
        most 2 INTERMEDIATE_TOL = 1/4, the final one to 2e-9, whose call
        gives the certificate.  A call that starts where an earlier one
        stopped, as at every weight change, takes that call's evaluation
        (``center``'s ``start``); so does a start at z0 after a start that
        took no step from it.
        """
        if not gap_tol > 0:
            raise ValueError("duality gap tolerance must be > 0")
        if self._terms(z0) is None:
            raise InfeasibleStartError("starting point is not strictly feasible")
        ladder = [self.nu / gap_tol / BARRIER_MU ** 2 if warm else t0]
        while (len(ladder) < 3) if warm else (self.nu / ladder[-1] > gap_tol):
            if len(ladder) == MAX_STAGES:
                raise SolverError("barrier path needs more than MAX_STAGES weights")
            ladder.append(ladder[-1] * BARRIER_MU)
        last = len(ladder) - 1
        tols = [INTERMEDIATE_TOL] * last + [1e-9]
        # at: an evaluation center returned at z (at z0 until a start certifies)
        first, z, decrement, at = 0, z0, None, None
        steps_before = self.work.steps
        if warm:
            rung = z0 if self.rung is None or self._terms(self.rung) is None else self.rung
            starts = ((2, z0, {"max_first": WARM_FINAL_DECREMENT,
                               "max_newton": WARM_FINAL_NEWTON}),
                      (1, rung, {"max_first": WARM_DECREMENT}))
            for i, z_from, guard in starts:
                z_start, decrement, end = self.center(
                    z_from, ladder[i], tol=tols[i], start=at if z_from is z0 else None, **guard)
                if decrement is not None:
                    first, z, at = i, z_start, end
                    break
                if z_start is z0:
                    at = end
        # a decrement that is not None says z is already centered at ladder[first]
        for i in range(first, last + 1):
            if i > first or decrement is None:
                z, decrement, at = self.center(z, ladder[i], tol=tols[i], start=at)
            if i == last - 1 and decrement is not None:
                self.rung = z
        self.work.solves.append((warm, self.work.steps - steps_before))
        self.work.uncertified += decrement is None
        return z, ladder[last], decrement


def inner_convex_solve(solver: _BarrierSolver, Q_start: np.ndarray, gap_tol: float,
                       warm: bool = False) -> tuple[np.ndarray, dict]:
    """Solve the SCA subproblem the solver is anchored at to duality gap <= gap_tol.

    ``Q_start`` must be strictly feasible (Slater point) for the rate
    surrogates and the power budget (InfeasibleStartError otherwise).  With
    ``warm`` it is the center of the previous surrogate at the final weight,
    and ``_BarrierSolver.solve`` chooses the barrier path.  A cold solve's
    path starts at weight max(1, 1/P_T) and at theta Q_start, the maximizer
    of the PSD and power barriers on the ray through Q_start (theta = n_q
    P_T / ((n_q + 1) sum_i Tr Q_i), n_q = (K+1) N_t), when that point is
    strictly feasible, else at Q_start.  Returns the Gram stack and a
    diagnostics dict with the objective, a stationarity residual of the
    final barrier center (KKT certificate; inf when its Newton system is
    not positive definite) and the duality-gap bound of the final weight.
    """
    z0 = solver.pack(Q_start)
    # Q_start may sit next to the power budget (uniform_gram leaves 1e-9 P_T),
    # where centering the first weight takes many steps; an infeasible
    # Q_start is not moved, so solve rejects it, and a feasible one has a
    # positive trace
    if not warm and solver._terms(z0) is not None:
        n_q = solver.n_blocks * solver.n
        theta = n_q * solver.P_T / ((n_q + 1) * -float(solver.gP @ z0))
        if solver._terms(theta * z0) is not None:
            z0 = theta * z0
    z, t_used, decrement = solver.solve(z0, gap_tol=gap_tol, t0=max(1.0, 1.0 / solver.P_T),
                                        warm=warm)
    if decrement is None:
        # centering stopped short of its test: certify the point it returned
        grad, curv = solver.grad_hess(z, t_used)
        try:
            decrement = float(grad @ solver.newton_step(grad, curv))
        except np.linalg.LinAlgError:
            # a singular Newton system at a stalled point: no certificate
            decrement = math.inf
    Q = solver.unpack(z)
    info = {
        "objective": float(np.trace(solver.weight @ Q.sum(axis=0)).real),
        # affine-invariant stationarity certificate: the Newton decrement at z
        "kkt_residual": abs(decrement),
        "gap_bound": solver.nu / t_used * solver.scale,
    }
    return Q, info


# ---------------------------------------------------------------------------
# recovery, feasibility phase, SCA loop
# ---------------------------------------------------------------------------

def recover_beamformers(Q: np.ndarray, L: int) -> BeamformerSet:
    """Best rank-L beamformers from the Gram stack by eigen-truncation.

    Q must be exactly Hermitian, block by block, as the stacks of
    ``_BarrierSolver.unpack`` and ``uniform_gram`` are, and with them every
    stack ``sca_optimize`` and the harness hand in: ``eigh`` reads only the
    lower triangle.
    """
    w, V = np.linalg.eigh(Q)
    order = np.argsort(w, axis=-1)[:, ::-1][:, :L]
    vals = np.clip(np.take_along_axis(w, order, axis=-1), 0.0, None)
    return BeamformerSet(W=np.take_along_axis(V, order[:, None, :], axis=-1)
                         * np.sqrt(vals)[:, None, :])


def uniform_gram(cfg: ScenarioConfig) -> np.ndarray:
    """Uniform power 1e-9 P_T inside the power budget, a (K+1, N_t, N_t) Gram stack.

    The selection's fixed beamformers W_bar are recovered from it, so its
    values stay; a cold surrogate solve from it first moves to the analytic
    center of the PSD and power barriers on its ray (``inner_convex_solve``).
    """
    scale = cfg.P_T / ((cfg.K + 1) * cfg.N_t) * (1.0 - 1e-9)
    return np.stack([scale * np.eye(cfg.N_t, dtype=complex) for _ in range(cfg.K + 1)])


def feasibility_init(b, cfg: ScenarioConfig, channels: ChannelSet) -> np.ndarray:
    """Strictly feasible Grams for the rate constraints, or InfeasibleStartError.

    Phase 1: starting from uniform power, repeatedly maximize the minimum
    linearized rate slack (an epigraph program on one barrier solver, built
    once the uniform start fails and re-anchored each round) until every
    exact slack is strictly positive, in at most 25 rounds.  The search
    ends early when the last round's gain, repeated in every round left,
    cannot lift the slack past the margin.
    """
    b = np.asarray(b)
    Q = uniform_gram(cfg)
    margin = 1e-9 * max(cfg.R_th, 1.0)
    slack = float(metrics.rate(b, Q, channels.H_comm, cfg.sigma2).min()) - cfg.R_th
    if slack > margin:
        return Q
    solver = _BarrierSolver(None, b, channels.H_comm, cfg.sigma2, cfg.P_T)
    for rounds_left in range(24, -1, -1):
        solver.reanchor(sca_linearize(b, Q, channels.H_comm, cfg.sigma2, cfg.R_th))
        # the surrogates are tight at the anchor: their minimum is this slack
        z0 = solver.pack(Q, s=slack - 1.0)
        Q = solver.unpack(solver.solve(z0, gap_tol=1e-6 * max(1.0, cfg.R_th))[0])
        last = slack
        slack = float(metrics.rate(b, Q, channels.H_comm, cfg.sigma2).min()) - cfg.R_th
        if slack > margin:
            return Q
        # the gains shrink from round to round as the slack converges, so
        # the last one, repeated, bounds what the rounds left can add
        if slack + (slack - last) * rounds_left <= margin:
            break
    raise InfeasibleStartError(
        f"rate threshold {cfg.R_th} bit/s/Hz unreachable within the power budget")


def _rescale_for_rates(W: np.ndarray, b, channels: ChannelSet, cfg: ScenarioConfig,
                       notes: list[str]) -> np.ndarray:
    """Bisect interferer power down (W_i -> a W_i, Q_i -> a^2 Q_i) when
    eigen-truncation broke a rate.

    Raises SolverError when a rate is still below R_th - 1e-6 after four
    passes: the bisection may have scaled another receiver's own stream away.
    """
    Q = metrics.grams(W)
    for passes in range(5):
        rates = metrics.rate(b, Q, channels.H_comm, cfg.sigma2)
        bad = np.flatnonzero(rates < cfg.R_th - 1e-6)
        if bad.size == 0:
            return W
        if passes == 4:
            k = int(np.argmin(rates))
            raise SolverError(f"receiver {k} keeps rate {rates[k]:.6g} bit/s/Hz below "
                              f"R_th = {cfg.R_th} after 4 interferer rescales")
        k = int(bad[0])
        interf = np.flatnonzero(metrics.interference_mask(b)[k])
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            Qtry = Q.copy()
            Qtry[interf] *= mid ** 2
            if metrics.rate(b, Qtry, channels.H_comm, cfg.sigma2)[k] >= cfg.R_th:
                lo = mid
            else:
                hi = mid
        W[interf] *= lo
        Q[interf] *= lo ** 2
        notes.append(f"rescaled interferers of receiver {k} by {lo:.6f} after rank truncation")


# the OpenBLAS builds bundled with the NumPy and SciPy wheels: (module, library
# glob relative to the module's site directory, suffix of the symbol names)
_OPENBLAS = ((np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
             (scipy, "scipy.libs/libscipy_openblas-*.so", ""))


@cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every bundled OpenBLAS found.

    Looked up on first use, not at import; a NumPy or SciPy built against
    another BLAS contributes none.
    """
    controls = []
    for module, pattern, suffix in _OPENBLAS:
        for path in sorted(Path(module.__file__).parents[1].glob(pattern)):
            lib = ctypes.CDLL(str(path))
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS on one thread, then restore
    the caller's thread counts.

    A threaded OpenBLAS splits some products differently with the thread
    count, so the last digits of a row, and the CSV bytes, would depend on
    it; and forked workers that each run several BLAS threads oversubscribe
    the cores.  Workers forked inside the body inherit the one thread.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


@_one_blas_thread()
def sca_optimize(b, cfg: ScenarioConfig, channels: ChannelSet, consts: FimConstants,
                 init: np.ndarray | None = None, tol: float = 1e-6, inner_gap: float | None = None,
                 objective_weight: np.ndarray | None = None) -> tuple[BeamformerSet, ScaTrace]:
    """Optimize the beamformers for a fixed selection b.

    Iterates linearize -> inner solve -> re-anchor until the relative
    objective gain drops below ``tol``, for at most 50 iterations (reason
    "max-iters"), with one barrier solver re-anchored to each surrogate.
    Without rate constraints (R_th <= 0) the optimum is closed-form: all
    power on the weight's top eigenvector v, the probe Gram P_T v v^H, and
    no other stream.  The trace records each accepted iterate with its
    equivalent linear objective; its ``iterations`` add the CRB and the
    maximum exact-constraint violation (which stays at 0 by construction
    of the inner approximation).  ``init`` is a strictly feasible Gram
    stack to start from in place of ``feasibility_init``'s.  With L < N_t a
    rate that eigen-truncation breaks and ``_rescale_for_rates`` cannot
    restore raises SolverError.

    ``objective_weight`` overrides the sensing weight built from b; the
    mono-static proxy uses it to optimize for a virtual receiver while the
    rate constraints stay on the real ones (whose b entries are then 0).

    The call runs on one BLAS thread (``_one_blas_thread``) and restores the
    caller's setting, so the result does not depend on the thread count.
    """
    b = np.asarray(b)
    if objective_weight is None and b.sum() < 1:
        raise ValueError("need at least one selected receiver")
    weight = (objective_weight if objective_weight is not None
              else build_objective_weight(b, consts, channels, cfg))

    if cfg.R_th <= 0:
        v = np.linalg.eigh(weight)[1][:, -1]
        W = np.zeros((cfg.K + 1, cfg.N_t, cfg.L), dtype=complex)
        W[0][:, 0] = math.sqrt(cfg.P_T) * v
        Q = np.zeros((cfg.K + 1, cfg.N_t, cfg.N_t), dtype=complex)
        Q[0] = cfg.P_T * np.outer(v, v.conj())
        obj = float(np.trace(weight @ Q[0]).real)
        return BeamformerSet(W=W), ScaTrace(lambda Q: 0.0, [(obj, Q)], reason="tolerance")

    def violation(Q: np.ndarray) -> float:
        rates = metrics.rate(b, Q, channels.H_comm, cfg.sigma2)
        return max(0.0, float(cfg.R_th - rates.min()),
                   float(np.trace(Q.sum(axis=0)).real) - cfg.P_T)

    trace = ScaTrace(violation, reason="max-iters")
    Q = init if init is not None else feasibility_init(b, cfg, channels)
    obj_prev = float(np.trace(weight @ Q.sum(axis=0)).real)
    gap = inner_gap if inner_gap is not None else 1e-6 * cfg.P_T
    # after the first solve the anchor is the previous surrogate's center at
    # the final barrier weight: a warm start (see _BarrierSolver.solve)
    solver = _BarrierSolver(weight, b, channels.H_comm, cfg.sigma2, cfg.P_T)
    trace.work = solver.work
    for i in range(50):
        solver.reanchor(sca_linearize(b, Q, channels.H_comm, cfg.sigma2, cfg.R_th))
        Q_new, info = inner_convex_solve(solver, Q, gap_tol=gap, warm=i > 0)
        trace.kkt_residual_max = max(trace.kkt_residual_max, info["kkt_residual"])
        trace.gap_bound_max = max(trace.gap_bound_max, info["gap_bound"])
        obj_new = info["objective"]
        if obj_new < obj_prev:
            # solver tolerance could not improve on the anchor; stop at the anchor
            trace.reason = "tolerance"
            break
        Q = Q_new
        trace.iterates.append((obj_new, Q))
        if obj_new - obj_prev <= tol * max(abs(obj_prev), 1e-300):
            trace.reason = "tolerance"
            break
        obj_prev = obj_new
    if not trace.iterates:
        trace.iterates.append((obj_prev, Q))

    W = recover_beamformers(Q, cfg.L).W
    if cfg.L < cfg.N_t:
        W = _rescale_for_rates(W, b, channels, cfg, trace.notes)
    return BeamformerSet(W=W), trace
