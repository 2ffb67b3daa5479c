import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from isacsim import harness
from isacsim.harness import (COLUMNS, ExperimentSpec, dbm_to_watts,
                             default_sweep, draw_layout, load_config,
                             preset_names, rows_to_csv, run_experiment)
from isacsim.cli import main
from isacsim.scenario import ConfigError, ScenarioConfig

from conftest import make_scene


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_minimal_file_uses_defaults(self, tmp_path):
        cfg, layout, base = load_config(write_cfg(tmp_path, {}))
        assert cfg.K == 10
        assert cfg.P_T == pytest.approx(1.0)
        assert cfg.sigma2 == pytest.approx(1e-9)
        assert cfg.delta_t == pytest.approx(1.0 / (2.0 * cfg.B))
        assert layout is None
        assert draw_layout(cfg, base, cfg.seed, 0).p.shape == (10, 2)

    def test_delta_t_rule_violation_names_key(self, tmp_path):
        path = write_cfg(tmp_path, {"B": 1e8, "delta_t": 1e-8})
        with pytest.raises(ConfigError, match="delta_t"):
            load_config(path)

    def test_preset_matches_reference_values(self):
        cfg, layout, (p_b, p_0) = load_config("sec6a")
        assert cfg.K == 10
        assert cfg.N_t == 2 and cfg.N_r == 2
        assert cfg.P_T == pytest.approx(dbm_to_watts(30.0))
        assert cfg.sigma2 == pytest.approx(dbm_to_watts(-60.0))
        assert cfg.sigma_c2 == pytest.approx(dbm_to_watts(-60.0))
        assert cfg.B == pytest.approx(1e8)
        assert cfg.delta_t == pytest.approx(0.5e-8)
        assert cfg.M == 1024
        assert cfg.epsilon == pytest.approx(2.7)
        assert cfg.rho == pytest.approx(0.5)
        assert cfg.rician_alpha == tuple([0.5] * 10)
        assert cfg.beta == tuple([0.6] * 10)
        np.testing.assert_allclose(p_b, [0.0, 0.0])
        np.testing.assert_allclose(p_0, [20.0, 40.0])

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_cfg(tmp_path, {"bogus": 1}))

    def test_watt_and_dbm_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="P_T"):
            load_config(write_cfg(tmp_path, {"P_T": 1.0, "P_T_dbm": 30.0}))

    def test_watt_keys_direct(self, tmp_path):
        cfg, _, _ = load_config(write_cfg(tmp_path, {"P_T": 0.5, "sigma2": 2e-9}))
        assert cfg.P_T == 0.5
        assert cfg.sigma2 == 2e-9

    def test_per_receiver_lists(self, tmp_path):
        alphas = [0.1 * (k + 1) for k in range(10)]
        cfg, _, _ = load_config(write_cfg(tmp_path, {"rician_alpha": alphas}))
        assert cfg.rician_alpha == tuple(alphas)

    def test_wrong_length_positions(self, tmp_path):
        with pytest.raises(ConfigError, match="'p'"):
            load_config(write_cfg(tmp_path, {"K": 3, "p": [[0, 1], [2, 3]]}))

    def test_fixed_layout_roundtrip(self, tmp_path):
        pts = [[10.0, 0.0], [0.0, 12.0]]
        cfg, layout, base = load_config(write_cfg(tmp_path, {"K": 2, "p": pts}))
        np.testing.assert_allclose(layout.p, pts)

    def test_lambda_cross_check(self, tmp_path):
        with pytest.raises(ConfigError, match="lambda"):
            load_config(write_cfg(tmp_path, {"f0": 3e9, "lambda": 0.2}))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_empty_file_is_the_sec6a_preset(self, tmp_path):
        cfg, layout, base = load_config(write_cfg(tmp_path, {}))
        ref_cfg, ref_layout, ref_base = load_config("sec6a")
        for field in fields(ScenarioConfig):
            got, want = getattr(cfg, field.name), getattr(ref_cfg, field.name)
            assert type(got) is type(want) and got == want, field.name
        assert layout is None and ref_layout is None
        for got, want in zip(base, ref_base):
            assert np.array_equal(got, want)

    def test_omitted_rate_threshold_is_the_presets(self, tmp_path):
        cfg, _, _ = load_config(write_cfg(tmp_path, {"K": 3}))
        assert cfg.R_th == 0.25

    def test_delta_t_follows_bandwidth(self, tmp_path):
        cfg, _, _ = load_config(write_cfg(tmp_path, {"B": 2e8}))
        assert cfg.delta_t == 1.0 / (2.0 * 2e8)
        # a file may still give delta_t, when it agrees with B
        cfg, _, _ = load_config(write_cfg(tmp_path, {"B": 2e8, "delta_t": 2.5e-9}))
        assert cfg.delta_t == 2.5e-9

    @pytest.mark.parametrize("path", sorted(
        [*(Path(harness.__file__).parent / "presets").glob("*.json"),
         *(Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.json")]),
        ids=lambda path: path.name)
    def test_shipped_configs_load_with_delta_t_from_bandwidth(self, path):
        cfg, _, _ = load_config(path)
        assert cfg.delta_t == 1.0 / (2.0 * cfg.B)

    def test_accepted_keys(self):
        assert set(harness._key_kinds()) == {
            "K", "N_t", "N_r", "L", "P_T", "P_T_dbm", "B", "delta_t", "M", "epsilon",
            "rho", "rician_alpha", "beta", "sigma2", "sigma2_dbm", "sigma_c2",
            "sigma_c2_dbm", "sigma_z2", "sigma_z2_dbm", "f0", "lambda", "v", "R_th",
            "Omega_th", "pulse", "seed", "p_b", "p_0", "p"}


class TestPresets:
    def test_sec6a_listed(self):
        assert "sec6a" in preset_names()


class TestRunExperiment:
    def test_rows_deterministic(self, sec6a):
        cfg, layout, base = sec6a
        spec = ExperimentSpec(name="roundtrip", sweep=("noiseless",), trials=6, seed=2)
        rows1 = run_experiment(spec, cfg, None, base=base)
        rows2 = run_experiment(spec, cfg, None, base=base)
        assert rows1 == rows2

    def test_parallel_matches_sequential(self, sec6a):
        cfg, layout, base = sec6a
        spec = ExperimentSpec(name="roundtrip", sweep=("noiseless",), trials=8, seed=2)
        assert (run_experiment(spec, cfg, None, base=base)
                == run_experiment(spec, cfg, None, base=base, jobs=2))

    def test_sweep_order_independent(self, sec6a):
        # substream-keyed randomness: each (sweep value, trial) cell is the
        # same no matter where it sits in the sweep
        cfg, layout, base = sec6a
        fwd = ExperimentSpec(name="antennas_tx", sweep=(2, 4), trials=2, seed=5)
        rev = ExperimentSpec(name="antennas_tx", sweep=(4, 2), trials=2, seed=5)
        rows_fwd = run_experiment(fwd, cfg, None, base=base)
        rows_rev = run_experiment(rev, cfg, None, base=base)
        key = lambda r: (r["sweep_value"], r["trial"])
        assert sorted(rows_fwd, key=key) == sorted(rows_rev, key=key)

    def test_mono_proxy_rows(self, sec6a):
        cfg, layout, base = sec6a
        spec = ExperimentSpec(name="tradeoff", sweep=(0,), trials=1, seed=4)
        rows = run_experiment(spec, cfg, None, base=base)
        assert len(rows) == 1
        row = rows[0]
        assert not row.get("error")
        assert row["group_size"] == 0
        assert row["cost"] == 0.0
        assert row["crb"] > 0

    def test_csv_schema(self, tmp_path, sec6a):
        cfg, layout, base = sec6a
        spec = ExperimentSpec(name="roundtrip", sweep=("noiseless",), trials=2, seed=0)
        rows = run_experiment(spec, cfg, None, base=base)
        out = tmp_path / "rows.csv"
        rows_to_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 3

    def test_default_sweeps(self, sec6a):
        cfg, _, _ = sec6a
        assert default_sweep("tradeoff", cfg) == (0, 1, 2, 5)
        assert default_sweep("antennas_tx", cfg) == tuple(range(2, 11))
        with pytest.raises(ValueError):
            ExperimentSpec(name="nope", sweep=(1,), trials=1, seed=0)
        assert default_sweep("pulses", cfg) == tuple(
            f"{p}:{g}" for p in ("cosine", "sinc") for g in (1, 2, 3, 5, 10))
        # group sizes above K drop out of the default sweeps
        small = replace(cfg, K=3, rician_alpha=cfg.rician_alpha[:3], beta=cfg.beta[:3])
        assert default_sweep("tradeoff", small) == (0, 1, 2)
        assert default_sweep("pulses", small) == tuple(
            f"{p}:{g}" for p in ("cosine", "sinc") for g in (1, 2, 3))

    @pytest.mark.parametrize("name,value", [("tradeoff", -1), ("tradeoff", "11"),
                                            ("pulses", "cosine:11"),
                                            ("selection_compare", "minimax"),
                                            ("selection_compare", "lloyd:100"),
                                            ("mf_vs_crb", "loud"), ("mf_vs_crb", "1e5")])
    def test_bad_sweep_value_is_config_error(self, sec6a, name, value):
        cfg, _, base = sec6a
        spec = ExperimentSpec(name=name, sweep=(value,), trials=1, seed=0)
        with pytest.raises(ConfigError, match=f"{name}.*{value!r}"):
            run_experiment(spec, cfg, None, base=base)

    def test_top_eta_group_size_range(self):
        _, _, channels, _ = make_scene(K=3, seed=1)
        assert harness.top_eta_group(channels, 0).sum() == 0
        assert harness.top_eta_group(channels, 3).sum() == 3
        for size in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                harness.top_eta_group(channels, size)

    def test_row_level_error_capture(self, sec6a):
        # an unreachable rate threshold turns into error rows, not a crash
        cfg, layout, base = sec6a
        from dataclasses import replace
        bad = replace(cfg, R_th=50.0)
        spec = ExperimentSpec(name="tradeoff", sweep=(1,), trials=1, seed=0)
        rows = run_experiment(spec, bad, None, base=base)
        assert len(rows) == 1
        assert "InfeasibleStartError" in rows[0]["error"]


# one cheap sweep per experiment; a new table entry needs one here
LIGHT_SWEEPS = {"tradeoff": (1,), "antennas_tx": (2,), "antennas_rx": (2,),
                "selection_compare": ("minimax:200",), "pulses": ("cosine:1",),
                "mf_vs_crb": (10.0,), "roundtrip": ("noiseless", "again")}


@pytest.mark.parametrize("name", harness.EXPERIMENTS)
def test_every_table_entry_runs(name, sec6a):
    cfg, _, base = sec6a
    sweep = LIGHT_SWEEPS[name]
    trials = 2 if name == "roundtrip" else 1
    spec = ExperimentSpec(name=name, sweep=sweep, trials=trials, seed=3)
    rows = run_experiment(spec, cfg, None, base=base)
    assert len(rows) == len(sweep) * trials
    assert [(r["sweep_value"], r["trial"]) for r in rows] == [
        (v, t) for v in sweep for t in range(trials)]
    assert not any("error" in r for r in rows)


def test_roundtrip_near_collinear_receiver(sec6a):
    # trial 3 of this seed pairs a receiver whose distance inversion has
    # |denominator| / (c tau) ~ 5e-9; averaging its fix in cost 3.5e-6 m
    cfg, _, base = sec6a
    spec = ExperimentSpec(name="roundtrip", sweep=("noiseless",), trials=4,
                          seed=107000163)
    row = run_experiment(spec, cfg, None, base=base)[3]
    assert not row.get("error")
    assert row["mse"] ** 0.5 <= 1e-6


_KILLED_WORKER = """
import json, os, signal, time
from isacsim import harness

def evaluate(cfg, layout, seed, trial, size):
    if size == 1:
        time.sleep(1.0)
        os.kill(os.getpid(), signal.SIGKILL)
    return {"objective": size + 0.5}

# patched before the fork, so the workers run it too
harness._TABLE["tradeoff"] = harness._TABLE["tradeoff"]._replace(evaluate=evaluate)
cfg, _, base = harness.load_config("sec6a")
spec = harness.ExperimentSpec(name="tradeoff", sweep=(0, 1, 2), trials=1, seed=0)
print(json.dumps(harness.run_experiment(spec, cfg, None, base=base, jobs=2)))
"""


def test_parallel_survives_killed_worker():
    proc = subprocess.run([sys.executable, "-c", _KILLED_WORKER],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [r["sweep_value"] for r in rows] == [0, 1, 2]
    assert rows[0]["objective"] == 0.5 and not rows[0].get("error")
    assert rows[2]["objective"] == 2.5 and not rows[2].get("error")
    assert "worker died" in rows[1]["error"]


def test_parallel_matches_sequential_on_a_pinned_layout(tmp_path):
    # a config with receiver positions p: the SCA rows' Layout crosses into
    # the workers as an argument
    cfg, _, base = load_config("sec6a")
    pts = draw_layout(cfg, base, 3, 0).p.tolist()
    cfg, layout, base = load_config(write_cfg(tmp_path, {"p": pts}))
    assert layout is not None
    spec = ExperimentSpec(name="tradeoff", sweep=(0, 2), trials=2, seed=3)
    rows = run_experiment(spec, cfg, layout, base=base)
    assert not any("error" in r for r in rows)
    assert rows == run_experiment(spec, cfg, layout, base=base, jobs=2)


def test_run_experiment_restores_the_callers_blas_threads(two_blas_threads):
    cfg, layout, base = load_config("sec6a")
    spec = ExperimentSpec(name="roundtrip", sweep=default_sweep("roundtrip", cfg), trials=2,
                          seed=3)
    for jobs in (1, 2):
        run_experiment(spec, cfg, layout, base=base, jobs=jobs)
        assert [get() for get, _ in two_blas_threads] == [2] * len(two_blas_threads)


def test_nt4_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    """selection_compare at N_t = 4 (Newton dimension 176, where OpenBLAS
    threads its products) writes the same bytes under 1 and 2 threads."""
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "sec6a_nt4.json"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run([sys.executable, "-m", "isacsim.cli", "run", "--config",
                               str(config), "--experiment", "selection_compare",
                               "--trials", "1", "--seed", "5", "--out", str(out)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "isacsim.cli", *args],
                              capture_output=True, text=True)

    def test_validate_ok(self):
        proc = self.run_cli("validate", "--config", "sec6a")
        assert proc.returncode == 0
        assert "ok:" in proc.stdout

    def test_validate_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"B": 1e8, "delta_t": 1e-8}))
        proc = self.run_cli("validate", "--config", str(path))
        assert proc.returncode == 1
        assert "delta_t" in proc.stderr

    @pytest.mark.parametrize("payload,key", [
        ({"P_T_dbm": "x"}, "P_T_dbm"), ({"rician_alpha": "abc"}, "rician_alpha"),
        ({"K": 2, "p_b": [1]}, "p_b"), ({"K": 2.7}, "K"), ({"B": math.nan}, "B"),
        ({"P_T": math.nan}, "P_T"), ({"R_th": math.nan}, "R_th"),
        ({"P_T_dbm": math.inf}, "P_T_dbm"), ({"P_T_dbm": 4000}, "P_T_dbm"),
        ({"lambda": math.nan}, "lambda"), ({"K": 2, "p": [[1, 2], [3, "x"]]}, "p"),
        ({"B": 0}, "B"), ({"K": True}, "K"), ({"K": "3", "N_t": "4"}, "K"),
        ({"P_T_dbm": False}, "P_T_dbm"), ({"K": 2, "beta": [0.5, True]}, "beta")])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_malformed_value_is_one_config_error_line(self, tmp_path, capsys, payload,
                                                      key, command):
        args = [command, "--config", write_cfg(tmp_path, payload)]
        if command == "run":
            args += ["--experiment", "roundtrip", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: config field '{key}'")

    def test_run_rejects_a_target_on_the_tr(self, tmp_path, capsys):
        # found at load time, before any row runs
        args = ["run", "--config", write_cfg(tmp_path, {"p_b": [20.0, 40.0]}),
                "--experiment", "roundtrip", "--trials", "1", "--out", str(tmp_path / "x.csv")]
        assert main(args) == 1
        assert capsys.readouterr().err == "config error: target coincides with the TR\n"

    def test_presets_lists(self):
        proc = self.run_cli("presets")
        assert proc.returncode == 0
        assert "sec6a" in proc.stdout

    def test_run_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("run", "--config", "sec6a", "--experiment", "roundtrip",
                "--trials", "5", "--seed", "11")
        p1 = self.run_cli(*args, "--out", str(out1))
        p2 = self.run_cli(*args, "--out", str(out2))
        assert p1.returncode == 0 and p2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_failure_exit_code(self, tmp_path):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps({"R_th": 50.0}))
        proc = self.run_cli("run", "--config", str(path), "--experiment",
                            "tradeoff", "--trials", "1", "--sweep", "1",
                            "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("experiment,sweep,named", [
        ("selection_compare", "minimax", "'minimax'"),
        ("tradeoff", "-1,12", "'-1'"), ("mf_vs_crb", "inf", "'inf'"),
        ("mf_vs_crb", "1e5", "'1e5'")])
    def test_bad_sweep_exits_config_error(self, tmp_path, experiment, sweep, named):
        proc = self.run_cli("run", "--config", "sec6a", "--experiment", experiment,
                            "--trials", "1", f"--sweep={sweep}",
                            "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        assert "sweep" in proc.stderr and experiment in proc.stderr
        assert named in proc.stderr

    def test_empty_sweep_exits_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["run", "--config", "sec6a", "--experiment", "tradeoff",
                     "--trials", "1", "--sweep", "", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "sweep" in capsys.readouterr().err

    def test_stdout_matches_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        args = [sys.executable, "-m", "isacsim.cli", "run", "--config", "sec6a",
                "--experiment", "roundtrip", "--trials", "3"]
        to_stdout = subprocess.run(args, capture_output=True)
        to_file = subprocess.run(args + ["--out", str(out)], capture_output=True)
        assert to_stdout.returncode == 0 and to_file.returncode == 0
        assert to_stdout.stdout == out.read_bytes()
