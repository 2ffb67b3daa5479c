import numpy as np
import pytest

from isacsim import rng as rngmod
from isacsim.channel import build_channels, los_component, sample_rician
from isacsim.scenario import (MIN_DISTANCE, Layout, geometry_summary, steering,
                              wrap_angle)

from conftest import make_cfg, make_layout


class TestLosComponent:
    def test_all_ones(self):
        np.testing.assert_allclose(los_component(1.0, [1, 1], [1, 1]),
                                   np.ones((2, 2)))

    def test_zero_reflection(self):
        np.testing.assert_allclose(los_component(0.0, [1, 1], [1, -1]),
                                   np.zeros((2, 2)))

    def test_outer_product(self):
        got = los_component(0.6, [1, 1j], [1, -1])
        want = 0.6 * np.array([[1, -1], [1j, -1j]])
        np.testing.assert_allclose(got, want)

    def test_plain_transpose_not_hermitian(self):
        # a_tx enters untransposed-unconjugated: column phases follow a_tx itself
        a_tx = np.array([1.0, 1j])
        got = los_component(1.0, [1.0, 1.0], a_tx)
        np.testing.assert_allclose(got[0], a_tx)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        a_rx = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        a_tx = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        sv = np.linalg.svd(los_component(0.6, a_rx, a_tx), compute_uv=False)
        assert sv[1] < 1e-10 * sv[0]

    def test_frobenius_norm(self):
        got = los_component(0.6, [1, 1j, -1], [1, -1])
        assert np.linalg.norm(got) == pytest.approx(0.6 * np.sqrt(3) * np.sqrt(2))


class TestSampleRician:
    def test_los_limit(self):
        los = los_component(1.0, [1, 1], [1, 1])
        rng = np.random.default_rng(0)
        H = sample_rician(0.5, 1e9, los, rng)
        ref = np.sqrt(0.5) * los
        assert np.linalg.norm(H - ref) / np.linalg.norm(ref) < 1e-4

    def test_pure_scatter_energy(self):
        # eta = 1, alpha = 0: E ||H||_F^2 = N_r * N_t
        rng = np.random.default_rng(1)
        los = np.ones((2, 2), dtype=complex)
        acc = sum(np.linalg.norm(sample_rician(1.0, 0.0, los, rng)) ** 2
                  for _ in range(100_000))
        assert acc / 100_000 == pytest.approx(4.0, rel=0.03)

    def test_mixed_energy(self):
        # unit-scale LoS keeps E ||H||_F^2 = N_r * N_t at every alpha
        rng = np.random.default_rng(2)
        los = los_component(1.0, [1, 1j], [1, -1])
        acc = sum(np.linalg.norm(sample_rician(1.0, 1.0, los, rng)) ** 2
                  for _ in range(100_000))
        assert acc / 100_000 == pytest.approx(4.0, rel=0.03)

    def test_eta_scaling(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        los = los_component(1.0, [1, 1], [1, 1])
        e1 = sum(np.linalg.norm(sample_rician(1.0, 0.5, los, rng1)) ** 2
                 for _ in range(100_000))
        e4 = sum(np.linalg.norm(sample_rician(4.0, 0.5, los, rng2)) ** 2
                 for _ in range(100_000))
        assert e4 / e1 == pytest.approx(4.0, rel=0.03)

    def test_single_draw_is_the_plain_formula(self):
        # draw for draw and bit for bit: real then imaginary parts, then the mix
        los = los_component(1.0, [1, 1j], [1, -1])
        for eta, alpha in ((1.0, 0.5), (0.3, 0.0), (2.0, 1e9)):
            rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
            H = sample_rician(eta, alpha, los, rng)
            nlos = (ref_rng.standard_normal((2, 2))
                    + 1j * ref_rng.standard_normal((2, 2))) / np.sqrt(2.0)
            ref = np.sqrt(eta * alpha / (1.0 + alpha)) * los + np.sqrt(eta / (1.0 + alpha)) * nlos
            assert H.dtype == ref.dtype and H.tobytes() == ref.tobytes()
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_preconditions(self):
        los = np.ones((2, 2))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_rician(0.0, 0.5, los, rng)
        with pytest.raises(ValueError):
            sample_rician(1.0, -0.1, los, rng)

    @pytest.mark.parametrize("eta, alpha", [(np.nan, 0.5), (1.0, np.nan)])
    def test_nan_parameters_raise(self, eta, alpha):
        # NaN fails every comparison: it must not pass as a NaN channel,
        # neither in a single draw nor in a stacked one
        los = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            sample_rician(eta, alpha, los, np.random.default_rng(0))
        rngs = [np.random.default_rng(k) for k in range(3)]
        with pytest.raises(ValueError):
            sample_rician(np.array([1.0, eta, 1.0]), np.array([0.5, alpha, 0.5]),
                          np.stack([los] * 3), rngs)


def build_channels_ref(cfg, layout, seed, trial=0, comm=True):
    """The per-receiver loop: one steering, LoS and Rician call per receiver."""
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
                raise ValueError(f"receiver {k} is co-located with the TR")
            eta_c = geom.d_bk[k] ** (-cfg.epsilon)
            a_dep = steering(geom.vartheta[k], N_t, cfg.spacing, cfg.wavelength)
            a_arr = steering(wrap_angle(geom.vartheta[k] + np.pi), N_r, cfg.spacing,
                             cfg.wavelength)
            los_c = los_component(1.0, a_arr, a_dep)
            gen_c = rngmod.substream(seed, rngmod.DOMAIN_CHANNEL_COMM, trial, k)
            H_comm[k] = sample_rician(eta_c, cfg.rician_alpha[k], los_c, gen_c)
    return H_sens, H_comm, los_sens


class TestBatchedBuild:
    """build_channels against the per-receiver loop, bit for bit."""

    @pytest.mark.parametrize("K", [1, 3, 10])
    @pytest.mark.parametrize("N_t,N_r", [(2, 2), (3, 2), (2, 4)])
    @pytest.mark.parametrize("comm", [True, False])
    def test_matches_per_receiver_loop(self, K, N_t, N_r, comm):
        for seed in range(5):
            alpha = tuple(np.random.default_rng(seed).uniform(0.0, 3.0, K))
            cfg = make_cfg(K=K, N_t=N_t, N_r=N_r, rician_alpha=alpha)
            lay = make_layout(K, seed=seed)
            got = build_channels(cfg, lay, seed=seed, trial=seed % 3, comm=comm)
            H_sens, H_comm, los_sens = build_channels_ref(cfg, lay, seed, seed % 3, comm)
            assert np.array_equal(got.H_sens, H_sens)
            assert np.array_equal(got.H_comm, H_comm)
            assert np.array_equal(got.los_sens, los_sens)

    def test_names_first_colocated_receiver(self):
        cfg = make_cfg(K=5)
        lay = make_layout(5, seed=2)
        p = lay.p.copy()
        p[[2, 4]] = lay.p_b
        lay = Layout(p_b=lay.p_b, p_0=lay.p_0, p=p)
        with pytest.raises(ValueError, match="receiver 2 is co-located"):
            build_channels(cfg, lay, seed=0)


class TestBuildChannels:
    def test_deterministic(self):
        cfg = make_cfg(K=4)
        lay = make_layout(4, seed=9)
        a = build_channels(cfg, lay, seed=7, trial=2)
        b = build_channels(cfg, lay, seed=7, trial=2)
        assert np.array_equal(a.H_sens, b.H_sens)
        assert np.array_equal(a.H_comm, b.H_comm)

    def test_receiver_order_independent_of_trial(self):
        cfg = make_cfg(K=4)
        lay = make_layout(4, seed=9)
        a = build_channels(cfg, lay, seed=7, trial=0)
        b = build_channels(cfg, lay, seed=7, trial=1)
        assert not np.array_equal(a.H_sens, b.H_sens)

    def test_los_limit_shape(self):
        cfg = make_cfg(K=1, rician_alpha=(1e8,), beta=(0.6,))
        lay = Layout(p_b=np.zeros(2), p_0=np.array([20.0, 40.0]),
                     p=np.array([[20.0, 0.0]]))
        ch = build_channels(cfg, lay, seed=5)
        ref = np.sqrt(ch.geom.eta[0]) * ch.los_sens[0]
        assert np.linalg.norm(ch.H_sens[0] - ref) / np.linalg.norm(ref) < 1e-3

    def test_reference_shapes(self):
        cfg = make_cfg(K=10)
        lay = make_layout(10, seed=0)
        ch = build_channels(cfg, lay, seed=0)
        assert ch.H_sens.shape == (10, 2, 2)
        assert ch.H_comm.shape == (10, 2, 2)

    def test_los_sens_unscaled_and_rank_one(self):
        cfg = make_cfg(K=3)
        lay = make_layout(3, seed=4)
        ch = build_channels(cfg, lay, seed=4)
        for k in range(3):
            norm2 = np.linalg.norm(ch.los_sens[k]) ** 2
            assert norm2 == pytest.approx(0.6 ** 2 * cfg.N_r * cfg.N_t, rel=1e-12)
            sv = np.linalg.svd(ch.los_sens[k], compute_uv=False)
            assert sv[1] < 1e-10 * sv[0]

    def test_colocated_receiver_needs_comm_off(self):
        cfg = make_cfg(K=1, rician_alpha=(0.5,), beta=(0.6,))
        lay = Layout(p_b=np.zeros(2), p_0=np.array([20.0, 40.0]),
                     p=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="co-located"):
            build_channels(cfg, lay, seed=0)
        ch = build_channels(cfg, lay, seed=0, comm=False)
        assert np.all(ch.H_comm == 0)
        assert np.any(ch.H_sens != 0)
