import itertools
import math

import numpy as np
import pytest

from isacsim import estimation as est
from isacsim.estimation import (DegenerateAnglesError, DegenerateInputError, NoRootError,
                                DegenerateTriangleError, DelayDopplerGrid,
                                doa_candidates, estimate_position,
                                invert_distance, invert_doa, localize,
                                matched_filter, matched_filter_error, synthesize_block)
from isacsim.metrics import crb, pulse_waveform
from isacsim.scenario import (SPEED_OF_LIGHT, Layout, geometry_summary,
                              true_delay, true_doppler)

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


def matched_filter_ref(block, grid, k=0):
    """The chunked-GEMM matched filter: per-lag products, one GEMM per 64 lags.

    Returns the estimate and the full (n_tau, n_f) score array.
    """
    y = block.y[k]
    s0 = block.s0
    taus = grid.taus()
    freqs = grid.freqs()
    M = y.shape[1]
    dop = np.exp(-2j * np.pi * np.outer(np.arange(M), freqs))  # (M, n_f)
    scores = np.zeros((taus.size, freqs.size))
    chunk = 64
    for start in range(0, taus.size, chunk):
        tau_block = taus[start:start + chunk]
        prod = np.zeros((tau_block.size, y.shape[0] * s0.shape[0], M), dtype=complex)
        for i, tau in enumerate(tau_block):
            if tau >= M:
                continue
            shifted = np.zeros_like(s0)
            shifted[:, tau:] = s0[:, :M - tau]
            prod[i] = (y[:, None, :] * shifted.conj()[None, :, :]).reshape(-1, M)
        phi = prod.reshape(-1, M) @ dop
        scores[start:start + tau_block.size] = np.sum(
            np.abs(phi.reshape(tau_block.size, -1, freqs.size)) ** 2, axis=1)
    i_tau, i_f = divmod(int(np.argmax(scores)), freqs.size)
    est_ref = est.DelayDopplerEstimate(tau_hat=int(taus[i_tau]), f_hat=float(freqs[i_f]),
                                       score=float(scores[i_tau, i_f]))
    return est_ref, scores


def random_block(rng, M, L, N_r):
    """A probe, and an echo of it at a random lag and Doppler in unit noise."""
    s0 = (rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M))) / math.sqrt(2)
    tau = int(rng.integers(0, M))
    f = float(rng.uniform(-0.1, 0.1))
    shifted = np.zeros_like(s0)
    shifted[:, tau:] = s0[:, :M - tau]
    H = rng.standard_normal((N_r, L)) + 1j * rng.standard_normal((N_r, L))
    y = (rng.uniform(0.0, 3.0) * (H @ shifted) * np.exp(2j * np.pi * f * np.arange(M))
         + rng.standard_normal((N_r, M)) + 1j * rng.standard_normal((N_r, M)))
    return est.SampledBlock(y=y[None], s0=s0, tau_tilde=np.array([tau]),
                            f_tilde=np.array([f]), pulse_gain=1.0)


class TestMatchedFilterReference:
    """The FFT matched filter against the chunked-GEMM reference."""

    def test_random_blocks_match(self):
        """312 blocks over M, L, N_r and n_f, some with tau_min > 0 or tau_max >= M.

        Same argmax and scores within 1e-12; where the indices differ, the
        reference scores both within 1e-12, a tie the two round differently.
        """
        rng = np.random.default_rng(2024)
        cases = ties = 0
        for M, L, N_r, n_f in itertools.product((16, 64, 1024), (1, 2), (1, 2, 3),
                                                (1, 5, 65, 129)):
            for rep in range(3 if M == 1024 else 5):
                block = random_block(rng, M, L, N_r)
                tau_min = int(rng.integers(0, M // 4)) if rep % 2 else 0
                if rep >= 3:
                    tau_max = M + int(rng.integers(0, M))    # lags past the block
                else:
                    tau_max = tau_min + int(rng.integers(0, M // 4 + 1))
                grid = DelayDopplerGrid(tau_max=tau_max, tau_min=tau_min, n_f=n_f,
                                        f_max=0.1)
                got = matched_filter(block, grid)
                want, scores = matched_filter_ref(block, grid)
                assert got.score == pytest.approx(want.score, rel=1e-12, abs=0)
                if (got.tau_hat, got.f_hat) != (want.tau_hat, want.f_hat):
                    i_f = int(np.flatnonzero(grid.freqs() == got.f_hat)[0])
                    assert scores[got.tau_hat - tau_min, i_f] == pytest.approx(
                        want.score, rel=1e-12, abs=0)
                    ties += 1
                cases += 1
        assert cases == 312
        assert ties <= 3

    def test_single_overlap_tie_scores_its_maximum(self):
        # at tau = M - 1 one sample overlaps, so |c(tau, f)|^2 does not depend on f
        rng = np.random.default_rng(5)
        M = 16
        block = random_block(rng, M, 2, 2)
        y = np.zeros_like(block.y)
        y[0, :, M - 1] = block.y[0, :, M - 1]
        block = est.SampledBlock(y=y, s0=block.s0, tau_tilde=block.tau_tilde,
                                 f_tilde=block.f_tilde, pulse_gain=1.0)
        grid = DelayDopplerGrid(tau_max=M - 1, tau_min=M - 1, n_f=65)
        got = matched_filter(block, grid)
        want = np.sum(np.abs(np.outer(y[0, :, M - 1], block.s0[:, 0].conj())) ** 2)
        assert got.tau_hat == M - 1
        assert got.score == pytest.approx(want, rel=1e-12)

    def test_lags_past_the_block_score_zero_and_tie_to_the_first(self):
        block = random_block(np.random.default_rng(6), 16, 2, 2)
        grid = DelayDopplerGrid(tau_max=20, tau_min=16, n_f=5)
        got = matched_filter(block, grid)
        assert (got.tau_hat, got.f_hat, got.score) == (16, float(grid.freqs()[0]), 0.0)

    def test_lags_past_the_block_never_beat_a_real_lag(self):
        block = random_block(np.random.default_rng(7), 16, 1, 1)
        got = matched_filter(block, DelayDopplerGrid(tau_max=40, tau_min=3, n_f=5))
        assert 3 <= got.tau_hat < 16 and got.score > 0

    def test_negative_tau_min_rejected(self):
        block = random_block(np.random.default_rng(8), 64, 2, 2)
        with pytest.raises(ValueError, match="tau_min"):
            matched_filter(block, DelayDopplerGrid(tau_max=4, tau_min=-2))


class TestInvertDoa:
    def test_round_trip_reference(self):
        theta, phi_k, phi_kp = 0.7, 0.2, -0.9
        f0, v = 3e9, 20.0
        f_k = true_doppler(theta, phi_k, v, f0, "approx")
        f_kp = true_doppler(theta, phi_kp, v, f0, "approx")
        got = invert_doa(f_k, f_kp, phi_k, phi_kp)
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

    def test_zero_reference_shift(self):
        with pytest.raises(ValueError):
            invert_doa(10.0, 0.0, 0.1, 0.5)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_endpoint_roots_are_exact(self, theta):
        # shifts f = cos(theta) + cos(phi) with the root exactly at an
        # endpoint: rounding must neither move it nor push the cosine the
        # ratio asks for past 1 in magnitude
        rng = np.random.default_rng(9)
        for phi_k, phi_kp in rng.uniform(-math.pi, math.pi, (200, 2)):
            f_k, f_kp = math.cos(theta) + math.cos(phi_k), math.cos(theta) + math.cos(phi_kp)
            assert invert_doa(f_k, f_kp, phi_k, phi_kp) == theta

    def test_no_root(self):
        # the ratio asks for cos(theta) = (2 cos 0.5 - cos 2.0) / (1 - 2) < -1
        with pytest.raises(NoRootError):
            invert_doa(1.0, 2.0, 0.5, 2.0)


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

    def test_pair_without_a_bearing_root(self):
        # relativistic shifts of a target on the velocity axis (theta = 0):
        # the ratio equation, exact for the approx shifts, asks for a cosine
        # an O(v/c) or rounding distance past 1 for about half of the pairs,
        # and those end in DegenerateTriangleError, not NoRootError
        cfg = make_cfg(K=2)
        rng = np.random.default_rng(3)
        rootless = 0
        for _ in range(40):
            lay = Layout(p_b=np.zeros(2), p_0=np.array([rng.uniform(10, 80), 0.0]),
                         p=rng.uniform(-80, 80, (2, 2)))
            geom = geometry_summary(lay, cfg)
            assert geom.theta == 0.0
            f = [true_doppler(0.0, geom.phi[k], cfg.v, cfg.f0, "exact") for k in range(2)]
            tau = [true_delay(geom.d_b0, geom.d_0k[k]) for k in range(2)]
            try:
                doa_candidates(f[0], f[1], geom.phi[0], geom.phi[1])
            except NoRootError:
                rootless += 1
                with pytest.raises(DegenerateTriangleError, match="no bearing root"):
                    localize(lay, 0, 1, f[0], f[1], tau[0], tau[1], geom.phi[0], geom.phi[1])
        assert rootless >= 5

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_receiver_on_the_tr_target_line(self, order):
        # receiver 1 sits beyond the target on the TR -> target ray: at the true
        # bearing its delay fixes no distance, so receiver 0's fix stands alone
        cfg = make_cfg(K=2)
        lay = Layout(p_b=np.zeros(2), p_0=np.array([20.0, 40.0]),
                     p=np.array([[-62.4343134, 54.96544269], [33.0, 66.0]]))
        geom = geometry_summary(lay, cfg)
        f = [true_doppler(geom.theta, geom.phi[k], cfg.v, cfg.f0, "approx")
             for k in range(2)]
        tau = [true_delay(geom.d_b0, geom.d_0k[k]) for k in range(2)]
        with pytest.raises(DegenerateTriangleError):
            invert_distance(geom.theta, tau[1], lay, 1)
        k, kp = order
        res = localize(lay, k, kp, f[k], f[kp], tau[k], tau[kp],
                       geom.phi[k], geom.phi[kp])
        assert res.theta_hat == pytest.approx(geom.theta, abs=1e-9)
        assert res.xy_hat == pytest.approx(tuple(lay.p_0), abs=1e-6)
        assert res.consistency < 1e-6
        assert res.d_hat == pytest.approx(geom.d_0k[k], rel=1e-9)


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
