"""Shared fixtures: reference configuration and small deterministic scenes."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import isacsim
from isacsim import harness
from isacsim.beamforming import _BarrierSolver, _one_blas_thread, _openblas_thread_controls
from isacsim.channel import build_channels
from isacsim.metrics import fim_constants
from isacsim.scenario import Layout, ScenarioConfig, annulus_layout

# the CLI tests run the package in subprocesses: put the tree this process
# imported first on their path, so they run the same code, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(isacsim.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")]))


def make_cfg(**overrides) -> ScenarioConfig:
    """Reference scenario with consistent per-receiver arrays after overrides."""
    base = dict(K=10, N_t=2, N_r=2, L=2, P_T=1.0, B=1e8, f0=3e9,
                M=1024, epsilon=2.7, rho=0.5,
                sigma2=1e-9, sigma_c2=1e-9, sigma_z2=1e-9,
                v=20.0, R_th=0.25, Omega_th=200.0, pulse="cosine", seed=1234)
    base.update(overrides)
    K = base["K"]
    base.setdefault("rician_alpha", tuple([0.5] * K))
    base.setdefault("beta", tuple([0.6] * K))
    if np.isscalar(base["rician_alpha"]):
        base["rician_alpha"] = tuple([float(base["rician_alpha"])] * K)
    if np.isscalar(base["beta"]):
        base["beta"] = tuple([float(base["beta"])] * K)
    return ScenarioConfig(**base)


def make_layout(K: int, seed: int = 0, p_b=(0.0, 0.0), p_0=(20.0, 40.0)) -> Layout:
    return annulus_layout(make_cfg(K=K), p_b, p_0, np.random.default_rng(seed))


def make_scene(K: int = 4, seed: int = 0, **overrides):
    """(cfg, layout, channels, consts) for a small deterministic scene."""
    cfg = make_cfg(K=K, **overrides)
    layout = make_layout(K, seed=seed)
    channels = build_channels(cfg, layout, seed=seed)
    consts = fim_constants(cfg, channels.geom)
    return cfg, layout, channels, consts


def anchored_solver(weight, surrogate, P_T):
    """A barrier solver for the surrogate's row (epigraph mode for weight None),
    anchored at the surrogate."""
    solver = _BarrierSolver(weight, surrogate.b, surrogate.H, surrogate.sigma2, P_T)
    solver.reanchor(surrogate)
    return solver


@pytest.fixture(autouse=True)
def one_blas_thread():
    """Every test runs on one OpenBLAS thread, as ``harness.run_experiment``
    and ``sca_optimize`` run: a threaded OpenBLAS rounds some products
    differently, so the Newton path of a solve a test runs on its own would
    depend on the host's thread count."""
    with _one_blas_thread():
        yield


@pytest.fixture
def two_blas_threads():
    """Every bundled OpenBLAS on two threads for the test (``one_blas_thread``
    restores the caller's counts after it); yields their (get, set) controls."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    for _, set_threads in controls:
        set_threads(2)
    yield controls


@pytest.fixture(scope="session")
def sec6a():
    cfg, layout, base = harness.load_config("sec6a")
    return cfg, layout, base
