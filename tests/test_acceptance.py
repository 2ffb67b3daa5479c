"""Acceptance criteria, one test per criterion clause.

Every test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run pytest with
``-s`` or read captured output).  Tolerances are pinned here and nowhere
else.  Two clauses are expected to fail at desk scale and are implemented
faithfully anyway; the analysis lives in the repo notes:

* 4b: the absolute CRB level of the reference plots is not reproducible
  from the bare power-law path loss (eta = d^-epsilon yields CRB ~ 1e-8 at
  the reference scene, four orders below the plotted 9e-4; reproducing the
  plots requires a link-budget-scale eta ~ 1e-10, which the geometry
  contract forbids).  The ordering clause 4a holds.
* 9c: the matched filter estimates Doppler from the block-level phase ramp,
  which carries ~M^2 more information than the per-pulse closed-form bound
  credits; its MSE is therefore a grid-quantization floor rather than a
  noise floor, and MSE - CRB grows as the CRB shrinks with power.  The
  bound clause 9b holds.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from isacsim import beamforming as bf, estimation as est, harness, metrics, selection
from isacsim.estimation import DelayDopplerGrid, localize, matched_filter, synthesize_block
from isacsim.scenario import Layout, geometry_summary, true_delay, true_doppler

from conftest import make_cfg, make_scene


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def tradeoff_rows(sec6a):
    cfg, _, base = sec6a
    spec = harness.ExperimentSpec(name="tradeoff", sweep=(0, 1, 2, 5),
                                  trials=200, seed=61)
    start = time.time()
    rows = harness.run_experiment(spec, cfg, None, base=base, jobs=2)
    return rows, time.time() - start


@pytest.fixture(scope="session")
def antenna_rows(sec6a):
    cfg, _, base = sec6a
    out = {}
    for name in ("antennas_tx", "antennas_rx"):
        spec = harness.ExperimentSpec(name=name, sweep=tuple(range(2, 11)),
                                      trials=50, seed=62)
        out[name] = harness.run_experiment(spec, cfg, None, base=base, jobs=2)
    return out


@pytest.fixture(scope="session")
def mf_rows(sec6a):
    cfg, _, base = sec6a
    spec = harness.ExperimentSpec(name="mf_vs_crb", sweep=(10.0, 20.0, 30.0),
                                  trials=500, seed=63)
    return harness.run_experiment(spec, cfg, None, base=base, jobs=2)


def mean_by_sweep(rows, value, column):
    vals = [r[column] for r in rows
            if r["sweep_value"] == value and not r.get("error")]
    assert vals, f"no valid rows for sweep value {value}"
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# 1. closed-form FIM vs finite-difference oracle
# ---------------------------------------------------------------------------

def test_criterion_01_fim_vs_oracle():
    start = time.time()
    rng = np.random.default_rng(0)

    def check(alpha, draws, rtol):
        worst = 0.0
        for seed in range(3):
            cfg, layout, channels, consts = make_scene(K=2, seed=seed,
                                                       rician_alpha=alpha)
            W = 0.3 * (rng.standard_normal((3, 2, 2))
                       + 1j * rng.standard_normal((3, 2, 2)))
            for k in range(2):
                ups = metrics.upsilon(W, channels.los_sens[k],
                                      cfg.rician_alpha[k], cfg.N_r)
                closed = np.array([[consts.iota[k], consts.varsigma[k]],
                                   [consts.varsigma[k], consts.chi[k]]]) * ups
                oracle = metrics.numerical_fim_oracle(cfg, layout, W, k,
                                                      draws=draws, seed=seed)
                worst = max(worst, float(np.max(np.abs(oracle - closed)
                                                / np.abs(closed))))
        return worst

    worst_los = check(1e8, draws=64, rtol=1e-3)
    worst_fin = check(0.5, draws=10_000, rtol=0.03)
    elapsed = time.time() - start
    ok = worst_los <= 1e-3 and worst_fin <= 0.03 and elapsed < 120.0
    assert report("1 (FIM closed form vs oracle)", ok,
                  f"LoS worst rel err {worst_los:.2e} (tol 1e-3), "
                  f"alpha=0.5 worst {worst_fin:.2e} (tol 3e-2), "
                  f"runtime {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 2. CRB identity
# ---------------------------------------------------------------------------

def test_criterion_02_crb_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for scene_seed in range(20):
        K = int(rng.integers(2, 7))
        cfg, layout, channels, consts = make_scene(K=K, seed=100 + scene_seed)
        for _ in range(50):
            W = rng.standard_normal((K + 1, 2, 2)) + 1j * rng.standard_normal((K + 1, 2, 2))
            b = rng.integers(0, 2, size=K)
            if b.sum() == 0:
                b[int(rng.integers(0, K))] = 1
            rep = metrics.crb(b, W, consts, channels, cfg)
            worst = max(worst, abs(rep.crb - rep.crb_identity) / rep.crb)
    ok = worst <= 1e-10
    assert report("2 (CRB identity)", ok,
                  f"worst relative gap {worst:.2e} over 1000 instances (tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. CRB monotonicity under group growth
# ---------------------------------------------------------------------------

def test_criterion_03_crb_monotone():
    rng = np.random.default_rng(2)
    violations = 0
    for seed in range(100):
        K = int(rng.integers(3, 8))
        cfg, layout, channels, consts = make_scene(K=K, seed=200 + seed)
        W = rng.standard_normal((K + 1, 2, 2)) + 1j * rng.standard_normal((K + 1, 2, 2))
        small = rng.integers(0, 2, size=K)
        if small.sum() == 0:
            small[0] = 1
        grow = small.copy()
        zero_idx = np.flatnonzero(grow == 0)
        if zero_idx.size:
            grow[rng.choice(zero_idx)] = 1
        u_small = metrics.crb(small, W, consts, channels, cfg).crb
        u_grow = metrics.crb(grow, W, consts, channels, cfg).crb
        if u_grow > u_small * (1 + 1e-12):
            violations += 1
    ok = violations == 0
    assert report("3 (CRB monotone in group)", ok,
                  f"{violations} violations over 100 nested-group instances")


# ---------------------------------------------------------------------------
# 4. group-size tradeoff reproduction
# ---------------------------------------------------------------------------

def test_criterion_04a_tradeoff_ordering(tradeoff_rows):
    rows, elapsed = tradeoff_rows
    means = {g: mean_by_sweep(rows, g, "crb") for g in (0, 1, 2, 5)}
    ordered = means[0] > means[1] > means[2] > means[5]
    ok = ordered and elapsed < 600.0
    assert report("4a (mono > bi > multi2 > multi5, >=200 trials, <10 min)", ok,
                  f"means mono {means[0]:.3e} bi {means[1]:.3e} "
                  f"multi2 {means[2]:.3e} multi5 {means[5]:.3e}; "
                  f"runtime {elapsed:.0f}s")


def test_criterion_04b_tradeoff_magnitude(tradeoff_rows):
    rows, _ = tradeoff_rows
    multi5 = mean_by_sweep(rows, 5, "crb")
    ok = 0.0009 / 3.0 <= multi5 <= 0.0009 * 3.0
    assert report("4b (multi5 within 3x of 0.0009)", ok,
                  f"multi5 trial-mean CRB {multi5:.3e} vs reference 9e-4 "
                  f"(ratio {multi5 / 9e-4:.2e}); bare power-law path loss sits "
                  f"~4 orders below the plotted scale, see notes")


# ---------------------------------------------------------------------------
# 5. antenna sweeps
# ---------------------------------------------------------------------------

def test_criterion_05_antenna_trends(antenna_rows):
    curves = {}
    for name, rows in antenna_rows.items():
        curves[name] = [mean_by_sweep(rows, v, "crb") for v in range(2, 11)]
    dec_tx = all(a > b for a, b in zip(curves["antennas_tx"], curves["antennas_tx"][1:]))
    dec_rx = all(a > b for a, b in zip(curves["antennas_rx"], curves["antennas_rx"][1:]))
    drop_tx = curves["antennas_tx"][0] / curves["antennas_tx"][-1]
    drop_rx = curves["antennas_rx"][0] / curves["antennas_rx"][-1]
    ok = dec_tx and dec_rx and drop_rx > drop_tx
    assert report("5 (CRB falls with N_t and N_r; N_r stronger)", ok,
                  f"strictly decreasing: N_t {dec_tx}, N_r {dec_rx}; "
                  f"relative drop N_t {drop_tx:.2f}x vs N_r {drop_rx:.2f}x")


# ---------------------------------------------------------------------------
# 6. SCA behaviour
# ---------------------------------------------------------------------------

def test_criterion_06a_sca_monotone_feasible():
    bad = 0
    for seed in range(50):
        cfg, layout, channels, consts = make_scene(K=4, seed=300 + seed, R_th=0.25)
        b = np.zeros(4, dtype=int)
        b[np.random.default_rng(seed).choice(4, size=2, replace=False)] = 1
        try:
            W, trace = bf.sca_optimize(b, cfg, channels, consts, tol=1e-5)
        except bf.InfeasibleStartError:
            continue
        objs = [it[0] for it in trace.iterations]
        monotone = all(b2 >= b1 - 1e-9 * abs(b1) for b1, b2 in zip(objs, objs[1:]))
        feasible = all(viol <= 1e-8 for _, _, viol in trace.iterations)
        if not (monotone and feasible):
            bad += 1
    ok = bad == 0
    assert report("6a (SCA monotone + feasible, 50 instances)", ok,
                  f"{bad} misbehaving instances")


def test_criterion_06b_sca_scalar_oracle():
    worst = 0.0
    for K, seed, r_th in ((1, 40, 1.0), (2, 41, 0.4), (2, 42, 0.4), (1, 43, 2.0)):
        cfg, layout, channels, consts = make_scene(K=K, seed=seed, N_t=1, N_r=1,
                                                   L=1, R_th=r_th)
        b = np.zeros(K, dtype=int)
        b[0] = 1
        W, _ = bf.sca_optimize(b, cfg, channels, consts)
        crb_sca = metrics.crb(b, W, consts, channels, cfg).crb
        grid = np.linspace(0, cfg.P_T, 81 if K == 1 else 41)
        best = np.inf
        for q in itertools.product(grid, repeat=K + 1):
            total = sum(q)
            if total > cfg.P_T or total == 0:
                continue
            Q = np.array([[[qi]] for qi in q], dtype=complex)
            if metrics.rate(b, Q, channels.H_comm, cfg.sigma2).min() < cfg.R_th:
                continue
            best = min(best, metrics.crb_from_gram(b, Q.sum(axis=0), consts,
                                                   channels, cfg).crb)
        assert best < np.inf
        worst = max(worst, crb_sca / best - 1.0)
    ok = worst <= 1e-3
    assert report("6b (scalar SCA vs grid oracle)", ok,
                  f"worst relative CRB excess {worst:.2e} (tol 1e-3)")


# ---------------------------------------------------------------------------
# 7. selection vs exhaustive oracle
# ---------------------------------------------------------------------------

def test_criterion_07_selection():
    rng = np.random.default_rng(7)
    checked = 0
    beats_oracle = 0
    loses_to_singleton = 0
    count_violations = 0
    worst_ratio = 1.0
    for seed in range(50):
        K = int(rng.integers(4, 9))
        omega = float(rng.uniform(40.0, 220.0))
        cfg, layout, channels, consts = make_scene(K=K, seed=400 + seed,
                                                   R_th=0.1, Omega_th=omega)
        W = bf.recover_beamformers(bf.uniform_gram(cfg), cfg.L)
        tree = selection.build_linkage_tree(layout.p, layout.p_0, cfg.rho)
        if tree.n_linkage_evals > K ** 3:
            count_violations += 1
        try:
            heur = selection.select_group(tree, W, cfg, layout, channels, consts)
            best = selection.exhaustive_select(cfg, layout, channels, W, consts)
        except selection.NoFeasibleGroupError:
            continue
        checked += 1
        if heur.crb < best.crb * (1 - 1e-12):
            beats_oracle += 1
        worst_ratio = max(worst_ratio, heur.crb / best.crb)
        singles = []
        for k in range(K):
            try:
                singles.append(selection._screen_candidates(
                    [frozenset([k])], W, cfg, layout, channels, consts).crb)
            except selection.NoFeasibleGroupError:
                pass
        if singles and heur.crb > min(singles) * (1 + 1e-12):
            loses_to_singleton += 1
    ok = (checked >= 30 and beats_oracle == 0 and loses_to_singleton == 0
          and count_violations == 0)
    assert report("7 (selection heuristic vs oracle)", ok,
                  f"{checked} feasible instances; beats-oracle {beats_oracle}, "
                  f"loses-to-singleton {loses_to_singleton}, O(K^3) violations "
                  f"{count_violations}; worst heuristic/oracle CRB ratio "
                  f"{worst_ratio:.3f}")


# ---------------------------------------------------------------------------
# 8. localization round trip
# ---------------------------------------------------------------------------

def test_criterion_08_round_trip():
    cfg = make_cfg(K=2)
    rng = np.random.default_rng(8)
    worst_theta = 0.0
    worst_pos = 0.0
    count = 0
    while count < 1000:
        lay = Layout(p_b=np.zeros(2), p_0=rng.uniform(-100, 100, 2),
                     p=rng.uniform(-100, 100, (2, 2)))
        geom = geometry_summary(lay, cfg)
        if abs(np.cos(geom.phi[0]) - np.cos(geom.phi[1])) <= 1e-4:
            continue
        f = [true_doppler(geom.theta, geom.phi[k], cfg.v, cfg.f0, "approx")
             for k in range(2)]
        tau = [true_delay(geom.d_b0, geom.d_0k[k]) for k in range(2)]
        res = localize(lay, 0, 1, f[0], f[1], tau[0], tau[1],
                       geom.phi[0], geom.phi[1])
        worst_theta = max(worst_theta, abs(res.theta_hat - geom.theta))
        worst_pos = max(worst_pos, math.hypot(res.xy_hat[0] - lay.p_0[0],
                                              res.xy_hat[1] - lay.p_0[1]))
        count += 1
    ok = worst_theta <= 1e-9 and worst_pos <= 1e-6
    assert report("8 (localization round trip)", ok,
                  f"worst bearing error {worst_theta:.2e} rad (tol 1e-9), "
                  f"worst position error {worst_pos:.2e} m (tol 1e-6) "
                  f"over 1000 geometries")


# ---------------------------------------------------------------------------
# 9. matched filter vs CRB
# ---------------------------------------------------------------------------

def test_criterion_09a_noiseless_recovery():
    cfg, layout, channels, consts = make_scene(K=1, seed=9)
    W = np.zeros((2, 2, 2), dtype=complex)
    W[0, :, 0] = math.sqrt(cfg.P_T / 2)
    grid = DelayDopplerGrid(tau_max=32, f_max=0.05, n_f=129)
    freqs = grid.freqs()
    hits = 0
    rng = np.random.default_rng(90)
    for trial in range(100):
        tau = int(rng.integers(0, 33))
        f = float(freqs[rng.integers(0, freqs.size)])
        block = synthesize_block(cfg, channels, W, [(tau, f)], seed=901,
                                 trial=trial, noise=False, clutter=False)
        e = matched_filter(block, grid, k=0)
        hits += int(e.tau_hat == tau and abs(e.f_hat - f) < 1e-12)
    ok = hits == 100
    assert report("9a (noiseless on-grid recovery)", ok, f"{hits}/100 exact")


def test_criterion_09b_mse_bounded_below_by_crb(mf_rows):
    frac = {}
    for p in (20.0, 30.0):
        rows = [r for r in mf_rows if r["sweep_value"] == p and not r.get("error")]
        runs = np.array_split(rows, 10)
        good = sum(np.mean([r["mse"] for r in run]) >= np.mean([r["crb"] for r in run])
                   for run in runs)
        frac[p] = good / 10.0
    ok = all(v >= 0.95 for v in frac.values())
    assert report("9b (MSE >= CRB at P_T >= 20 dBm)", ok,
                  f"fraction of 50-trial runs with MSE >= CRB: "
                  f"20 dBm {frac[20.0]:.2f}, 30 dBm {frac[30.0]:.2f} (need >= 0.95)")


def test_criterion_09c_gap_trend(mf_rows):
    gaps = {}
    for p in (10.0, 20.0, 30.0):
        mse = mean_by_sweep(mf_rows, p, "mse")
        crb = mean_by_sweep(mf_rows, p, "crb")
        gaps[p] = mse - crb
    ok = gaps[10.0] >= gaps[20.0] >= gaps[30.0]
    assert report("9c (MSE-CRB gap non-increasing in power)", ok,
                  f"gaps {gaps[10.0]:+.3e} -> {gaps[20.0]:+.3e} -> "
                  f"{gaps[30.0]:+.3e}; the filter is quantization-floored "
                  f"while the bound scales with 1/P, see notes")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for name, extra in (("roundtrip", ("--trials", "10")),
                        ("tradeoff", ("--trials", "1", "--sweep", "1,2"))):
        pair = []
        for rep in range(2):
            out = tmp_path / f"{name}_{rep}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "isacsim.cli", "run", "--config", "sec6a",
                 "--experiment", name, "--seed", "17", *extra, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            pair.append(out.read_bytes())
        outputs.append(pair[0] == pair[1])
    ok = all(outputs)
    assert report("10 (CLI byte determinism)", ok,
                  f"byte-identical reruns: roundtrip {outputs[0]}, tradeoff {outputs[1]}")
