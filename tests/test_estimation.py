import math

import numpy as np
import pytest

from isacsim import estimation as est
from isacsim.estimation import (DegenerateAnglesError, DegenerateInputError,
                                DegenerateTriangleError, DelayDopplerGrid,
                                doa_candidates, estimate_position,
                                invert_distance, invert_doa, localize,
                                matched_filter, matched_filter_error, synthesize_block)
from isacsim.metrics import crb, pulse_waveform
from isacsim.scenario import (SPEED_OF_LIGHT, Layout, geometry_summary,
                              true_delay, true_doppler, wrap_angle)

from conftest import make_cfg, make_scene

C = SPEED_OF_LIGHT


def probe_only_w(cfg, power=None):
    W = np.zeros((cfg.K + 1, cfg.N_t, cfg.L), dtype=complex)
    W[0, :, 0] = math.sqrt(power if power is not None else cfg.P_T) / math.sqrt(cfg.N_t)
    return W


class TestSynthesize:
    def test_noise_only_variance(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=1, M=4096)
        W = np.zeros((3, 2, 2), dtype=complex)
        block = synthesize_block(cfg, channels, W, [(0, 0.0)] * 2, seed=3)
        var = np.var(block.y[0])
        assert var == pytest.approx(cfg.sigma_c2 + cfg.sigma_z2, rel=0.05)

    def test_clean_single_stream_exact(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=2)
        W = probe_only_w(cfg)
        block = synthesize_block(cfg, channels, W, [(0, 0.0)], seed=5,
                                 noise=False, clutter=False)
        g, _ = pulse_waveform(cfg.pulse, cfg.delta_t)
        expected = channels.H_sens[0] @ (float(g(cfg.delta_t / 2)) * W[0] @ (block.s0 / block.pulse_gain))
        np.testing.assert_allclose(block.y[0], expected, atol=1e-12)

    def test_energy_scales_with_power(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=3)
        W1 = probe_only_w(cfg, power=0.25)
        W2 = 2.0 * W1
        b1 = synthesize_block(cfg, channels, W1, [(0, 0.0)], seed=7,
                              noise=False, clutter=False)
        b2 = synthesize_block(cfg, channels, W2, [(0, 0.0)], seed=7,
                              noise=False, clutter=False)
        e1 = np.sum(np.abs(b1.y) ** 2)
        e2 = np.sum(np.abs(b2.y) ** 2)
        assert e2 == pytest.approx(4 * e1, rel=1e-10)

    def test_truth_validation(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=3)
        W = probe_only_w(cfg)
        with pytest.raises(ValueError):
            synthesize_block(cfg, channels, W, [(0.5, 0.0)], seed=0)
        with pytest.raises(ValueError):
            synthesize_block(cfg, channels, W, [(cfg.M, 0.0)], seed=0)
        with pytest.raises(ValueError):
            synthesize_block(cfg, channels, W, [(0, 0.7)], seed=0)

    def test_deterministic(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=4)
        W = probe_only_w(cfg)
        a = synthesize_block(cfg, channels, W, [(3, 0.01), (5, -0.02)], seed=9)
        b = synthesize_block(cfg, channels, W, [(3, 0.01), (5, -0.02)], seed=9)
        assert np.array_equal(a.y, b.y)


class TestGrid:
    def test_defaults_from_config(self):
        cfg = make_cfg(M=1024)
        grid = DelayDopplerGrid.for_config(cfg)
        assert grid.tau_min == 0 and grid.tau_max == 256
        assert grid.f_max == 0.05 and grid.n_f == 129
        assert 0.0 in grid.freqs()

    def test_overrides(self):
        cfg = make_cfg(M=1024)
        grid = DelayDopplerGrid.for_config(cfg, tau_max=32, n_f=65)
        assert grid.tau_max == 32 and grid.n_f == 65


class TestMatchedFilter:
    def test_exact_on_grid_recovery(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=5)
        W = probe_only_w(cfg)
        grid = DelayDopplerGrid(tau_max=16, f_max=0.05, n_f=129)
        f_true = float(grid.freqs()[70])
        block = synthesize_block(cfg, channels, W, [(5, f_true)], seed=11,
                                 noise=False, clutter=False)
        e = matched_filter(block, grid, k=0)
        assert e.tau_hat == 5
        assert e.f_hat == pytest.approx(f_true, abs=1e-12)

    def test_zero_truth(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=6)
        W = probe_only_w(cfg)
        block = synthesize_block(cfg, channels, W, [(0, 0.0)], seed=12,
                                 noise=False, clutter=False)
        e = matched_filter(block, DelayDopplerGrid(tau_max=8), k=0)
        assert (e.tau_hat, e.f_hat) == (0, 0.0)

    def test_all_zero_block(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=6)
        W = np.zeros((2, 2, 2), dtype=complex)
        block = synthesize_block(cfg, channels, W, [(0, 0.0)], seed=12,
                                 noise=False, clutter=False)
        with pytest.raises(DegenerateInputError):
            matched_filter(block, DelayDopplerGrid(tau_max=8), k=0)

    def test_scale_invariance(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=7)
        W = probe_only_w(cfg)
        block = synthesize_block(cfg, channels, W, [(3, 0.01)], seed=13)
        grid = DelayDopplerGrid(tau_max=8)
        e1 = matched_filter(block, grid, k=0)
        scaled = est.SampledBlock(y=(0.3 - 1.7j) * block.y, s0=block.s0,
                                  tau_tilde=block.tau_tilde, f_tilde=block.f_tilde,
                                  pulse_gain=block.pulse_gain)
        e2 = matched_filter(scaled, grid, k=0)
        assert (e1.tau_hat, e1.f_hat) == (e2.tau_hat, e2.f_hat)


class TestInvertDoa:
    def test_round_trip_reference(self):
        theta, phi_k, phi_kp = 0.7, 0.2, -0.9
        f0, v = 3e9, 20.0
        f_k = true_doppler(theta, phi_k, v, f0, "approx")
        f_kp = true_doppler(theta, phi_kp, v, f0, "approx")
        got = invert_doa(f_k, f_kp, phi_k, phi_kp, method="numeric_root")
        assert got == pytest.approx(theta, abs=1e-9)

    def test_identical_bearings(self):
        with pytest.raises(DegenerateAnglesError):
            invert_doa(100.0, 120.0, 0.4, 0.4)

    def test_symmetric_bearings_zero(self):
        f0, v = 3e9, 20.0
        f_k = true_doppler(0.0, 0.8, v, f0, "approx")
        f_kp = true_doppler(0.0, -0.8, v, f0, "approx")
        assert f_k == pytest.approx(f_kp)
        assert invert_doa(f_k, f_kp, 0.8, -0.8) == 0.0

    def test_candidates_are_mirror_pair(self):
        theta = -1.1
        f0, v = 3e9, 20.0
        f_k = true_doppler(theta, 0.3, v, f0, "approx")
        f_kp = true_doppler(theta, 1.4, v, f0, "approx")
        cands = doa_candidates(f_k, f_kp, 0.3, 1.4)
        assert len(cands) == 2
        assert cands[0] == pytest.approx(-theta, abs=1e-9)
        assert cands[1] == pytest.approx(theta, abs=1e-9)

    def test_closed_form_reported_discrepancy(self):
        # the closed-form two-receiver arctangent shortcut disagrees with the
        # ratio-equation root in general; record the gap, do not trust it
        theta, phi_k, phi_kp = 0.7, 0.2, -0.9
        f0, v = 3e9, 20.0
        f_k = true_doppler(theta, phi_k, v, f0, "approx")
        f_kp = true_doppler(theta, phi_kp, v, f0, "approx")
        root = invert_doa(f_k, f_kp, phi_k, phi_kp, method="numeric_root")
        closed = invert_doa(f_k, f_kp, phi_k, phi_kp, method="closed_form")
        print(f"closed-form vs numeric-root bearing: {closed:+.6f} vs {root:+.6f} "
              f"(|diff| = {abs(wrap_angle(closed - root)):.3e} rad)")

    def test_zero_reference_shift(self):
        with pytest.raises(ValueError):
            invert_doa(10.0, 0.0, 0.1, 0.5)


class TestInvertDistance:
    def layout2(self, p_k):
        return Layout(p_b=np.zeros(2), p_0=np.array([20.0, 40.0]),
                      p=np.asarray([p_k], dtype=float))

    def test_monostatic_limit(self):
        lay = self.layout2((0.0, 0.0))
        tau = 2e-6
        assert invert_distance(0.3, tau, lay, 0)[0] == pytest.approx(C * tau / 2)

    def test_equilateral(self):
        lay = Layout(p_b=np.zeros(2), p_0=np.array([0.5, math.sqrt(3) / 2]),
                     p=np.array([[1.0, 0.0]]))
        tau = 2.0 / C
        d = invert_distance(math.pi / 3, tau, lay, 0)[0]
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        cfg = make_cfg(K=1)
        for _ in range(50):
            lay = Layout(p_b=np.zeros(2),
                         p_0=rng.uniform(-80, 80, 2),
                         p=rng.uniform(-80, 80, (1, 2)))
            geom = geometry_summary(lay, cfg)
            tau = true_delay(geom.d_b0, geom.d_0k[0])
            d = invert_distance(geom.theta, tau, lay, 0)[0]
            assert d == pytest.approx(geom.d_0k[0], abs=1e-9)

    def test_degenerate_triangle(self):
        lay = self.layout2((100.0, 0.0))
        # c*tau equal to the projection makes the denominator vanish
        tau = 100.0 / C
        with pytest.raises(DegenerateTriangleError):
            invert_distance(0.0, tau, lay, 0)


class TestPosition:
    def test_tiny_distance(self):
        lay = Layout(p_b=np.zeros(2), p_0=np.ones(2), p=np.array([[3.0, 4.0]]))
        x, y = estimate_position(0, 1e-9, 0.7, lay)
        assert (x, y) == pytest.approx((3.0, 4.0), abs=1e-8)

    def test_diagonal(self):
        lay = Layout(p_b=np.zeros(2), p_0=np.array([5.0, 5.0]), p=np.array([[1.0, 1.0]]))
        x, y = estimate_position(0, math.sqrt(2.0), math.pi / 4, lay)
        assert (x, y) == pytest.approx((2.0, 2.0))

    def test_non_positive_distance(self):
        lay = Layout(p_b=np.zeros(2), p_0=np.array([5.0, 5.0]), p=np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            estimate_position(0, 0.0, 0.1, lay)


class TestLocalize:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_round_trip(self, seed):
        cfg = make_cfg(K=2)
        rng = np.random.default_rng(seed)
        while True:
            lay = Layout(p_b=np.zeros(2), p_0=rng.uniform(-80, 80, 2),
                         p=rng.uniform(-80, 80, (2, 2)))
            geom = geometry_summary(lay, cfg)
            if abs(np.cos(geom.phi[0]) - np.cos(geom.phi[1])) > 1e-4:
                break
        f = [true_doppler(geom.theta, geom.phi[k], cfg.v, cfg.f0, "approx")
             for k in range(2)]
        tau = [true_delay(geom.d_b0, geom.d_0k[k]) for k in range(2)]
        res = localize(lay, 0, 1, f[0], f[1], tau[0], tau[1],
                       geom.phi[0], geom.phi[1])
        assert res.theta_hat == pytest.approx(geom.theta, abs=1e-9)
        assert res.xy_hat[0] == pytest.approx(lay.p_0[0], abs=1e-6)
        assert res.xy_hat[1] == pytest.approx(lay.p_0[1], abs=1e-6)
        assert res.consistency < 1e-6
        # triangle identity: c*tau = (TR -> fix) + (fix -> receiver k)
        d_b0_hat = math.hypot(res.xy_hat[0] - lay.p_b[0], res.xy_hat[1] - lay.p_b[1])
        assert abs(C * tau[0] - d_b0_hat - res.d_hat) <= 1e-6

    def test_negative_bearing_recovered(self):
        # sign disambiguation must pick the mirrored root when theta < 0
        cfg = make_cfg(K=2)
        lay = Layout(p_b=np.zeros(2), p_0=np.array([30.0, -45.0]),
                     p=np.array([[12.0, 7.0], [-20.0, 30.0]]))
        geom = geometry_summary(lay, cfg)
        assert geom.theta < 0
        f = [true_doppler(geom.theta, geom.phi[k], cfg.v, cfg.f0, "approx")
             for k in range(2)]
        tau = [true_delay(geom.d_b0, geom.d_0k[k]) for k in range(2)]
        res = localize(lay, 0, 1, f[0], f[1], tau[0], tau[1],
                       geom.phi[0], geom.phi[1])
        assert res.theta_hat == pytest.approx(geom.theta, abs=1e-9)


class TestMseHarness:
    """The matched-filter error of one trial, as the mf_vs_crb rows compute it."""

    def test_noiseless_on_grid_zero_mse(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=8, sigma_c2=1e-30,
                                                   sigma_z2=1e-30)
        W = probe_only_w(cfg)
        b = np.array([1, 1])
        grid = DelayDopplerGrid(tau_max=8, f_max=0.05, n_f=129)
        f_true = float(grid.freqs()[40])
        for trial in range(100):
            block = synthesize_block(cfg, channels, W, [(2, f_true), (5, f_true)],
                                     seed=3, trial=trial)
            assert matched_filter_error(block, grid, b) == 0.0
        assert crb(b, W, consts, channels, cfg).crb > 0
