import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacsim import beamforming, metrics
from isacsim.channel import build_channels
from isacsim.metrics import (SingularFimError, cooperation_cost, crb, grams,
                             interference_mask, numerical_fim_oracle,
                             pulse_integrals, pulse_waveform, rate,
                             receiver_covariance, upsilon)
from isacsim.scenario import Layout, cooperation_price

from conftest import make_cfg, make_layout, make_scene

DT = 5e-9
BW = 1e8


class TestPulseIntegrals:
    def test_cosine_closed_forms(self):
        p = pulse_integrals("cosine", DT, BW)
        assert p.F_g == pytest.approx(math.pi ** 2 / (4 * DT), rel=1e-10)
        assert p.F_tg == pytest.approx((1 / 3 - 2 / math.pi ** 2) * DT ** 3, rel=1e-10)
        assert p.F_tgdot == pytest.approx(-DT / 2, rel=1e-10)

    def test_cosine_cauchy_schwarz_margin(self):
        p = pulse_integrals("cosine", DT, BW)
        margin = p.F_g * p.F_tg - p.F_tgdot ** 2
        expected = DT ** 2 * (math.pi ** 2 * (1 / 3 - 2 / math.pi ** 2) / 4 - 0.25)
        assert margin == pytest.approx(expected, rel=1e-9)
        assert margin > 0

    @pytest.mark.parametrize("pulse", ["cosine", "sinc"])
    def test_normalisation(self, pulse):
        from scipy.integrate import trapezoid
        g, _ = pulse_waveform(pulse, DT)
        ts = np.linspace(0, DT, 200_001)
        energy = trapezoid(g(ts) ** 2, ts) / DT
        assert energy == pytest.approx(1.0, abs=1e-8)

    def test_sinc_boundary_identity(self):
        # Re int t g g' = (dt*g(dt)^2 - int g^2)/2 = -dt/2 for pulses vanishing at dt
        p = pulse_integrals("sinc", DT, BW)
        assert p.F_tgdot == pytest.approx(-DT / 2, rel=1e-9)

    @pytest.mark.parametrize("pulse", ["cosine", "sinc"])
    def test_objective_sign_sanity(self, pulse):
        p = pulse_integrals(pulse, DT, BW)
        assert p.kappa1 - p.kappa2 ** 2 > 0

    def test_kappa_definitions(self):
        p = pulse_integrals("cosine", DT, BW)
        assert p.kappa1 == pytest.approx(p.F_g / (16 * math.pi ** 2 * BW ** 2 * p.F_tg))
        assert p.kappa2 == pytest.approx(p.F_tgdot / (4 * math.pi * BW * p.F_tg))

    def test_bad_pulse(self):
        # failures are not cached: the second call raises too
        for _ in range(2):
            with pytest.raises(ValueError):
                pulse_integrals("square", DT, BW)

    def test_cached_per_arguments(self):
        p = pulse_integrals("cosine", DT, BW)
        assert pulse_integrals("cosine", DT, BW) is p
        assert pulse_integrals("cosine", DT, 2 * BW) is not p


class TestFimConstants:
    def test_kappa_ratios_hold_per_receiver(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=1)
        p = consts.pulses
        np.testing.assert_allclose(consts.iota / consts.chi, p.kappa1, rtol=1e-12)
        np.testing.assert_allclose(consts.varsigma / consts.chi, p.kappa2, rtol=1e-12)

    def test_invertibility_guard(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=0)
        assert np.all(consts.chi * consts.iota - consts.varsigma ** 2 > 0)


class TestUpsilon:
    def test_zero_beamformers(self):
        los = np.ones((2, 2), dtype=complex)
        W = np.zeros((3, 2, 2), dtype=complex)
        assert upsilon(W, los, 0.5, 2) == 0.0

    def test_alpha_zero_is_power_times_nr(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        power = float(np.sum(np.abs(W) ** 2))
        los = np.ones((2, 2), dtype=complex)
        assert upsilon(W, los, 0.0, 2) == pytest.approx(2 * power, rel=1e-12)

    def test_scalar_case(self):
        # N_t = N_r = L = 1, los = 1, alpha = 1, W = sqrt(2): 1*2 + 1*2 = 4
        W = np.array([[[math.sqrt(2.0)]]], dtype=complex)
        los = np.ones((1, 1), dtype=complex)
        assert upsilon(W, los, 1.0, 1) == pytest.approx(4.0)

    def test_nonnegative_and_zero_iff_zero(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=5)
        rng = np.random.default_rng(2)
        W = rng.standard_normal((3, 2, 2)) * 0.1
        assert upsilon(W, channels.los_sens[0], 0.5, 2) > 0


class TestCrb:
    def test_single_receiver_closed_form(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=2)
        rng = np.random.default_rng(0)
        W = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        rep = crb(np.array([1]), W, consts, channels, cfg)
        ups = rep.upsilon[0]
        i, c, v = consts.iota[0], consts.chi[0], consts.varsigma[0]
        expected = (i + c) / ((i * c - v ** 2) * ups)
        assert rep.crb == pytest.approx(expected, rel=1e-12)

    def test_power_doubling_halves_crb(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=2)
        rng = np.random.default_rng(1)
        W = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        b = np.array([1, 1, 0])
        u1 = crb(b, W, consts, channels, cfg).crb
        u2 = crb(b, math.sqrt(2.0) * W, consts, channels, cfg).crb
        assert u2 == pytest.approx(u1 / 2, rel=1e-12)

    def test_identity_form(self):
        cfg, layout, channels, consts = make_scene(K=4, seed=7)
        rng = np.random.default_rng(3)
        for _ in range(20):
            W = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
            b = np.zeros(4, dtype=int)
            b[rng.integers(0, 4)] = 1
            b |= rng.integers(0, 2, size=4)
            if b.sum() == 0:
                b[0] = 1
            rep = crb(b, W, consts, channels, cfg)
            assert abs(rep.crb - rep.crb_identity) <= 1e-10 * rep.crb

    def test_fim_symmetric(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=0)
        rng = np.random.default_rng(4)
        W = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        rep = crb(np.array([1, 1]), W, consts, channels, cfg)
        assert rep.fim[0, 1] == rep.fim[1, 0]

    def test_monotone_in_group(self):
        cfg, layout, channels, consts = make_scene(K=5, seed=8)
        rng = np.random.default_rng(5)
        W = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        small = np.array([1, 0, 1, 0, 0])
        large = np.array([1, 1, 1, 0, 1])
        assert crb(large, W, consts, channels, cfg).crb <= crb(small, W, consts, channels, cfg).crb

    def test_zero_beamformers_singular(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=0)
        W = np.zeros((3, 2, 2), dtype=complex)
        with pytest.raises(SingularFimError):
            crb(np.array([1, 1]), W, consts, channels, cfg)

    def test_needs_selection(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=0)
        W = np.ones((3, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            crb(np.array([0, 0]), W, consts, channels, cfg)


class TestSensingWeights:
    @pytest.mark.parametrize("K, N_t, N_r, b", [(1, 3, 2, [1]), (4, 3, 2, [1, 0, 1, 0]),
                                                (4, 2, 3, [0, 1, 1, 1])])
    def test_crb_and_objective_weight_match_per_receiver_forms(self, K, N_t, N_r, b):
        """crb_from_gram's Upsilon_k and build_objective_weight against
        alpha_k Tr(L_k^H L_k Q) + N_r Tr(Q) and the scaled
        sum_k b_k chi_k (alpha_k L_k^H L_k + N_r I), one receiver at a time."""
        alpha = tuple(0.3 + 0.4 * k for k in range(K))
        cfg, _, channels, consts = make_scene(K=K, seed=K + N_t, N_t=N_t, N_r=N_r, L=2,
                                              rician_alpha=alpha)
        b = np.array(b)
        rng = np.random.default_rng(N_r)
        A = rng.standard_normal((N_t, N_t)) + 1j * rng.standard_normal((N_t, N_t))
        Q = A @ A.conj().T
        lhl = [los.conj().T @ los for los in channels.los_sens]
        ups = [alpha[k] * np.trace(lhl[k] @ Q).real + N_r * np.trace(Q).real
               for k in range(K)]
        report = metrics.crb_from_gram(b, Q, consts, channels, cfg)
        np.testing.assert_allclose(report.upsilon, ups, rtol=1e-13, atol=0)
        p = consts.pulses
        F = sum(consts.chi[k] * (alpha[k] * lhl[k] + N_r * np.eye(N_t))
                for k in np.flatnonzero(b))
        F *= (p.kappa1 - p.kappa2 ** 2) / (1.0 + p.kappa1)
        weight = beamforming.build_objective_weight(b, consts, channels, cfg)
        assert np.max(np.abs(weight - F)) <= 1e-13 * np.max(np.abs(F))


class TestNumericalFimOracle:
    def test_los_limit_matches_closed_form(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=3, rician_alpha=1e8)
        rng = np.random.default_rng(0)
        W = 0.2 * (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
        k = 1
        ups = upsilon(W, channels.los_sens[k], cfg.rician_alpha[k], cfg.N_r)
        closed = np.array([[consts.iota[k], consts.varsigma[k]],
                           [consts.varsigma[k], consts.chi[k]]]) * ups
        oracle = numerical_fim_oracle(cfg, layout, W, k, draws=64, seed=11)
        np.testing.assert_allclose(oracle, closed, rtol=1e-3)

    def test_off_diagonal_structure(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=4, rician_alpha=1e8)
        rng = np.random.default_rng(1)
        W = 0.5 * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        ups = upsilon(W, channels.los_sens[0], cfg.rician_alpha[0], cfg.N_r)
        oracle = numerical_fim_oracle(cfg, layout, W, 0, draws=32, seed=2)
        assert oracle[0, 1] == pytest.approx(consts.varsigma[0] * ups, rel=1e-3)
        assert oracle[0, 1] == oracle[1, 0]

    def test_zero_beamformers(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=4)
        W = np.zeros((2, 2, 2), dtype=complex)
        np.testing.assert_array_equal(numerical_fim_oracle(cfg, layout, W, 0, draws=8),
                                      np.zeros((2, 2)))


def interference(k, b, W, H, sigma2):
    """Receiver k's covariance from the mask and builder, with H_k = H."""
    mask = interference_mask(b)[k:k + 1]
    return receiver_covariance(H[None], mask, grams(W), sigma2)[0]


class TestInterferenceAndRate:
    def test_single_user_no_probe(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=1)
        W = np.zeros((2, 2, 2), dtype=complex)
        for b_k in (0, 1):
            psi = interference(0, np.array([b_k]), W, channels.H_comm[0], cfg.sigma2)
            np.testing.assert_allclose(psi, cfg.sigma2 * np.eye(2), atol=1e-18)

    def test_probe_term_is_psd(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=2)
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        H = channels.H_comm[0]
        diff = (interference(0, np.array([0, 1]), W, H, cfg.sigma2)
                - interference(0, np.array([1, 1]), W, H, cfg.sigma2))
        HW0 = H @ W[0]
        np.testing.assert_allclose(diff, HW0 @ HW0.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(diff).min() > -1e-12

    def test_scalar_expansion(self):
        cfg = make_cfg(K=2, N_t=1, N_r=1, L=1)
        h = 0.3 + 0.4j
        W = np.array([[[0.5]], [[0.8]], [[1.1]]], dtype=complex)
        psi1 = interference(0, np.array([1, 0]), W, np.array([[h]]), cfg.sigma2)
        assert psi1[0, 0] == pytest.approx(abs(h) ** 2 * 1.1 ** 2 + cfg.sigma2)
        psi0 = interference(0, np.array([0, 0]), W, np.array([[h]]), cfg.sigma2)
        assert psi0[0, 0] == pytest.approx(abs(h) ** 2 * (1.1 ** 2 + 0.5 ** 2) + cfg.sigma2)

    def test_zero_beamformer_zero_rate(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=3)
        Q = np.zeros((3, 2, 2), dtype=complex)
        np.testing.assert_allclose(rate(np.array([1, 0]), Q, channels.H_comm, cfg.sigma2),
                                   0.0, atol=1e-15)

    def test_selected_rate_at_least_unselected(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=4)
        rng = np.random.default_rng(2)
        for _ in range(10):
            W = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
            r1 = rate(np.array([0, 1, 0]), grams(W), channels.H_comm, cfg.sigma2)[1]
            r0 = rate(np.array([0, 0, 0]), grams(W), channels.H_comm, cfg.sigma2)[1]
            assert r1 >= r0 - 1e-12

    def test_scalar_rate(self):
        cfg = make_cfg(K=1, N_t=1, N_r=1, L=1)
        lay = Layout(p_b=np.zeros(2), p_0=np.array([20.0, 40.0]),
                     p=np.array([[30.0, 0.0]]))
        channels = build_channels(cfg, lay, seed=0)
        w = 2.0
        W = np.zeros((2, 1, 1), dtype=complex)
        W[1, 0, 0] = w
        h = channels.H_comm[0][0, 0]
        expected = math.log2(1 + abs(h * w) ** 2 / cfg.sigma2)
        assert rate(np.array([1]), grams(W), channels.H_comm,
                    cfg.sigma2)[0] == pytest.approx(expected)


def w_form_rates(b, W, H, sigma2, dtype=complex):
    """Textbook rates log2 det(I + W_k^H H_k^H Psi_k^{-1} H_k W_k), one receiver at a time.

    Psi_k sums sigma^2 I, every other receiver's stream and, when b_k = 0,
    the probe stream W_0.  With a 2 x 2 Psi_k and L = 2 the inverse and the
    determinant are closed forms, so ``dtype=np.clongdouble`` evaluates the
    whole formula in extended precision.
    """
    W, H = W.astype(dtype), H.astype(dtype)
    out = []
    for k in range(len(H)):
        streams = [i for i in range(1, len(W)) if i != k + 1] + ([] if b[k] else [0])
        psi = sigma2 * np.eye(H.shape[1], dtype=dtype)
        for i in streams:
            HW = H[k] @ W[i]
            psi = psi + HW @ HW.conj().T
        HW = H[k] @ W[k + 1]
        if dtype is complex:
            X = np.eye(W.shape[2]) + HW.conj().T @ np.linalg.solve(psi, HW)
            out.append(np.linalg.slogdet(X)[1] / math.log(2.0))
            continue
        adj = np.array([[psi[1, 1], -psi[0, 1]], [-psi[1, 0], psi[0, 0]]])
        psi_inv = adj / (psi[0, 0] * psi[1, 1] - psi[0, 1] * psi[1, 0])
        X = np.eye(2, dtype=dtype) + HW.conj().T @ psi_inv @ HW
        det = (X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0]).real
        out.append(float(np.log2(det)))
    return np.array(out)


class TestRateKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_accuracy_against_extended_precision(self, seed):
        """Within 5e-13 bit/s/Hz of the W form evaluated in extended precision."""
        cfg, layout, channels, consts = make_scene(K=10, seed=seed)
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((11, 2, 2)) + 1j * rng.standard_normal((11, 2, 2))
        W *= math.sqrt(cfg.P_T / np.sum(np.abs(W) ** 2))
        for b in (np.zeros(10, dtype=int), np.ones(10, dtype=int)):
            ref = w_form_rates(b, W, channels.H_comm, cfg.sigma2, dtype=np.clongdouble)
            np.testing.assert_allclose(rate(b, grams(W), channels.H_comm, cfg.sigma2),
                                       ref, rtol=0, atol=5e-13)

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 4), N_t=st.integers(1, 4), N_r=st.integers(1, 3),
           L=st.integers(1, 3), bits=st.integers(0, 15), seed=st.integers(0, 2 ** 32 - 1))
    def test_gram_kernel_equals_w_form(self, K, N_t, N_r, L, bits, seed):
        rng = np.random.default_rng(seed)
        b = np.array([(bits >> k) & 1 for k in range(K)])
        W = rng.standard_normal((K + 1, N_t, L)) + 1j * rng.standard_normal((K + 1, N_t, L))
        H = rng.standard_normal((K, N_r, N_t)) + 1j * rng.standard_normal((K, N_r, N_t))
        sigma2 = 10.0 ** rng.uniform(-2, 1)
        np.testing.assert_allclose(rate(b, grams(W), H, sigma2),
                                   w_form_rates(b, W, H, sigma2), rtol=1e-9, atol=1e-10)

    def test_mask_is_the_probe_cancellation_rule(self):
        expected = np.array([[0, 0, 1, 1],
                             [1, 1, 0, 1],
                             [0, 1, 1, 0]])
        np.testing.assert_array_equal(interference_mask(np.array([1, 0, 1])), expected)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            metrics.chol_log2det(np.array([[[1.0, 2.0], [2.0, 1.0]]]))


class TestCooperationCost:
    def test_zero_selection(self):
        assert cooperation_cost(np.zeros(3, dtype=int), {}) == 0.0

    def test_single(self):
        assert cooperation_cost(np.array([0, 1, 0]), {1: 3.5}) == pytest.approx(3.5)

    def test_group_sum(self):
        lay = make_layout(3, seed=0)
        lay = Layout(p_b=np.zeros(2), p_0=np.array([0.0, 1.0]),
                     p=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        prices = cooperation_price(lay, {0, 1, 2}, rho=0.5)
        b = np.ones(3, dtype=int)
        assert cooperation_cost(b, prices) == pytest.approx(sum(prices.values()))

    def test_missing_price(self):
        with pytest.raises(ValueError):
            cooperation_cost(np.array([1, 0]), {1: 2.0})
