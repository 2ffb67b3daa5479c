import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacsim.scenario import (SPEED_OF_LIGHT, DegenerateGeometryError, Layout,
                              ConfigError, cooperation_price, geometry_summary,
                              steering, true_delay, true_doppler, wrap_angle)

from conftest import make_cfg

C = SPEED_OF_LIGHT


def layout_of(p_b, p_0, points):
    return Layout(p_b=np.asarray(p_b, float), p_0=np.asarray(p_0, float),
                  p=np.asarray(points, float))


class TestGeometry:
    def test_collinear_axis_case(self):
        cfg = make_cfg(K=1)
        geom = geometry_summary(layout_of((0, 0), (1, 0), [(2, 0)]), cfg)
        assert geom.theta == 0.0
        assert geom.phi[0] == pytest.approx(math.pi)
        assert geom.d_b0 == 1.0
        assert geom.d_0k[0] == 1.0
        assert geom.d_b0k[0] == 2.0

    def test_axis_aligned_theta(self):
        cfg = make_cfg(K=1)
        geom = geometry_summary(layout_of((0, 0), (0, 1), [(2, 0)]), cfg)
        assert geom.theta == pytest.approx(math.pi / 2)

    def test_reference_numbers(self):
        # direct evaluation: d_b0 = sqrt(2000), d_0k = 40 for RE at (20, 0)
        cfg = make_cfg(K=1, epsilon=2.7)
        geom = geometry_summary(layout_of((0, 0), (20, 40), [(20, 0)]), cfg)
        d_b0 = math.sqrt(20 ** 2 + 40 ** 2)
        assert geom.d_b0 == pytest.approx(d_b0, rel=1e-15)
        assert geom.d_0k[0] == pytest.approx(40.0, rel=1e-15)
        assert geom.d_b0k[0] == pytest.approx(d_b0 + 40.0, rel=1e-15)
        assert geom.eta[0] == pytest.approx((d_b0 + 40.0) ** (-2.7), rel=1e-14)

    def test_composite_identity_and_positive_loss(self):
        cfg = make_cfg(K=5)
        rng = np.random.default_rng(1)
        lay = layout_of((0, 0), (20, 40), rng.uniform(-80, 80, size=(5, 2)))
        geom = geometry_summary(lay, cfg)
        np.testing.assert_allclose(geom.d_b0k, geom.d_b0 + geom.d_0k, rtol=1e-15)
        assert np.all(geom.eta > 0)

    def test_path_loss_decreases_with_distance(self):
        cfg = make_cfg(K=2)
        geom = geometry_summary(layout_of((0, 0), (10, 0), [(20, 0), (40, 0)]), cfg)
        assert geom.d_b0k[0] < geom.d_b0k[1]
        assert geom.eta[0] > geom.eta[1]

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometryError):
            layout_of((0, 0), (0, 0), [(1, 1)])
        with pytest.raises(DegenerateGeometryError):
            layout_of((0, 0), (1, 1), [(1, 1)])

    def test_pure_function(self):
        cfg = make_cfg(K=3)
        lay = layout_of((0, 0), (20, 40), [(5, 1), (-3, 7), (11, -2)])
        a = geometry_summary(lay, cfg)
        b = geometry_summary(lay, cfg)
        for field in ("d_b0", "theta"):
            assert getattr(a, field) == getattr(b, field)
        for field in ("d_0k", "d_bk", "d_b0k", "phi", "vartheta", "eta"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_angles_wrapped(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.3) == pytest.approx(0.3)


class TestSteering:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering(0.0, 5, 0.05, 0.1), np.ones(5))

    def test_endfire_two_elements(self):
        lam = 0.1
        np.testing.assert_allclose(steering(math.pi / 2, 2, lam / 2, lam),
                                   [1.0, -1.0], atol=1e-12)

    def test_thirty_degrees(self):
        lam = 0.1
        np.testing.assert_allclose(steering(math.pi / 6, 3, lam / 2, lam),
                                   [1.0, 1j, -1.0], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(angle=st.floats(-math.pi, math.pi), n=st.integers(1, 16))
    def test_unit_modulus_and_norm(self, angle, n):
        a = steering(angle, n, 0.05, 0.1)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.linalg.norm(a) ** 2 == pytest.approx(n, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            steering(0.0, 0, 0.05, 0.1)
        with pytest.raises(ValueError):
            steering(0.0, 2, -1.0, 0.1)


class TestDoppler:
    def test_zero_speed(self):
        assert true_doppler(0.3, -0.8, 0.0, 3e9, "exact") == 0.0
        assert true_doppler(0.3, -0.8, 0.0, 3e9, "approx") == 0.0

    def test_head_on(self):
        f0, v = 3e9, 25.0
        assert true_doppler(0.0, 0.0, v, f0, "approx") == pytest.approx(-2 * f0 * v / C)

    def test_orthogonal_sum(self):
        f0, v = 3e9, 25.0
        theta = 0.4
        assert true_doppler(theta, math.pi - theta, v, f0, "approx") == pytest.approx(0.0, abs=1e-9)

    def test_exact_vs_approx_grid(self):
        # relative error <= 2*zeta and absolute error <= 2*zeta^2*f0/(1-zeta)
        f0, v = 3e9, 3e4
        zeta = v / C
        grid = np.linspace(-math.pi, math.pi, 360)
        for theta in grid[::24]:
            for phi in grid:
                exact = true_doppler(theta, phi, v, f0, "exact")
                approx = true_doppler(theta, phi, v, f0, "approx")
                assert abs(exact - approx) <= 2.0 * zeta ** 2 * f0 / (1.0 - zeta) + 1e-9
                if exact != 0.0:
                    assert abs(exact - approx) / abs(exact) <= 2.0 * zeta + 1e-12

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            true_doppler(0.0, 0.0, 1.0, 1e9, "other")


class TestDelay:
    def test_round_number(self):
        d = C * 5e-7
        assert true_delay(d, d) == pytest.approx(1e-6)

    def test_precondition(self):
        with pytest.raises(ValueError):
            true_delay(300.0, 0.0)

    def test_reference_case(self):
        d_b0 = math.sqrt(2000.0)
        assert true_delay(d_b0, 40.0) == pytest.approx((d_b0 + 40.0) / C, rel=1e-15)


class TestCooperationPrice:
    def setup_method(self):
        self.layout = layout_of((0, 0), (0, 1), [(0, 0), (1, 0), (2, 0)])

    def test_rho_one_is_target_distance(self):
        prices = cooperation_price(self.layout, {0, 1, 2}, rho=1.0)
        for k in (0, 1, 2):
            d = np.linalg.norm(self.layout.p[k] - self.layout.p_0)
            assert prices[k] == pytest.approx(d)

    def test_rho_zero_pair(self):
        prices = cooperation_price(self.layout, {0, 2}, rho=0.0)
        assert prices[0] == pytest.approx(2.0)
        assert prices[2] == pytest.approx(2.0)

    def test_hand_computed_triple(self):
        prices = cooperation_price(self.layout, {0, 1, 2}, rho=0.5)
        assert prices[0] == pytest.approx(0.5 * 1.0 + 0.5 * (1 + 2) / 2)

    def test_singleton_neighbour_term_zero(self):
        prices = cooperation_price(self.layout, {1}, rho=0.3)
        d = np.linalg.norm(self.layout.p[1] - self.layout.p_0)
        assert prices[1] == pytest.approx(0.3 * d)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            cooperation_price(self.layout, set(), rho=0.5)


class TestConfig:
    def test_delta_t_follows_bandwidth(self):
        cfg = make_cfg()
        assert cfg.delta_t == 5e-9
        assert replace(cfg, B=2e8).delta_t == 2.5e-9

    def test_speed_limit(self):
        with pytest.raises(ConfigError, match="'v'"):
            make_cfg(v=0.01 * C)

    def test_stream_count(self):
        with pytest.raises(ConfigError, match="'L'"):
            make_cfg(L=3, N_t=2, N_r=2)

    @pytest.mark.parametrize("overrides,key", [
        ({"B": math.nan}, "'B'"), ({"P_T": math.nan}, "'P_T'"), ({"R_th": math.nan}, "'R_th'"),
        ({"P_T": math.inf}, "'P_T'"), ({"sigma2": math.inf}, "'sigma2'"),
        ({"rician_alpha": (0.5, math.nan, 0.5)}, "'rician_alpha'"),
        ({"Omega_th": math.nan}, "'Omega_th'"), ({"Omega_th": -math.inf}, "'Omega_th'")])
    def test_non_finite_rejected_through_replace(self, overrides, key):
        with pytest.raises(ConfigError, match=key):
            replace(make_cfg(K=3), **overrides)

    def test_wavelength(self):
        cfg = make_cfg()
        assert cfg.wavelength == pytest.approx(C / cfg.f0)
