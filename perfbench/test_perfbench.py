"""The benchmark's own tests: determinism of its outputs and counts, and its gate.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each workload runs one chunk untraced and twice traced at a fixed seed; the
CSV hashes must agree across all three, and the exact counts (calls per
function, inner solves per SCA call, linkage evaluations) across the two
traced runs.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from isacsim import harness  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, Part, RunResult, check_rows, part_ref_s,  # noqa: E402
                       reference_loop, run_chunks)

SEED = 7
EXACT = ("beamforming.sca_iters_per_row", "selection.linkage_evals",
         "beamforming.max_iters_rows")


@pytest.fixture()
def out_dir():
    path = bench.OUT / "test"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run(wl, out_dir, traced):
    loaded = harness.load_config(wl.config_arg())
    csv_path = out_dir / f"{wl.name}.csv"
    if not traced:
        return run_chunks(wl, harness, loaded, SEED, csv_path, n_chunks=1), {}
    with Tracer() as tracer:
        res = run_chunks(wl, harness, loaded, SEED, csv_path, n_chunks=1)
    summary = tracer.summary(res.wall_s)
    counts = {k: v for k, v in summary.items() if k.endswith(".calls") or k in EXACT}
    return res, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_repeat_hashes_and_counts(name, out_dir):
    wl = WORKLOADS[name]
    plain, _ = _run(wl, out_dir, traced=False)
    first, counts_a = _run(wl, out_dir, traced=True)
    second, counts_b = _run(wl, out_dir, traced=True)
    assert plain.digests == first.digests == second.digests
    assert counts_a == counts_b
    assert counts_a["harness.run_experiment.calls"] == len(wl.parts)
    assert first.failed() == 0
    assert check_rows(first, harness.load_config(wl.config_arg())[0].R_th) == []


def test_tracer_restores_the_package():
    from isacsim import beamforming, channel

    before = (harness.build_channels, channel.build_channels, beamforming.sca_optimize)
    with Tracer():
        assert harness.build_channels is not before[0]
        assert channel.build_channels is harness.build_channels
    assert (harness.build_channels, channel.build_channels, beamforming.sca_optimize) == before


def test_gate_names_each_failed_check():
    sca = Part("tradeoff", (0,), 1, rate_constrained=True)
    rt = Part("roundtrip", ("noiseless",), 1)
    res = RunResult(rows=[
        (0, sca, {"sweep_value": 0, "trial": 0, "crb": 1e-8, "rate_min": 0.25 - 2e-6}),
        (0, sca, {"sweep_value": 0, "trial": 1, "crb": float("nan"), "rate_min": 0.3}),
        (0, rt, {"sweep_value": "noiseless", "trial": 0, "mse": (2e-6) ** 2}),
        (0, sca, {"sweep_value": 0, "trial": 2, "error": "SolverError: stage budget"}),
    ])
    names = [msg.split(":", 1)[0] for msg in check_rows(res, 0.25)]
    assert names == ["sca-rate-floor", "crb-finite-positive", "roundtrip-position-error"]
    assert res.failed() == 1


def test_each_part_is_scaled_by_the_reference_samples_either_side():
    res = RunResult(part_wall_s=[1.0, 1.0, 1.0], ref_samples=[(0, 0.04), (2, 0.06), (3, 0.05)])
    assert part_ref_s(res) == pytest.approx([0.05, 0.05, 0.055])
    assert reference_loop(2) > 0 and reference_loop(4) > 0


def test_tail_keeps_ten_rows_beyond_up_to_p99():
    assert bench.tail(list(range(100))) == (89, 90.0, 10)
    assert bench.tail(list(range(5000))) == (4949, 99.0, 50)
    assert bench.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_package(monkeypatch, out_dir, capsys):
    monkeypatch.setattr(bench, "SRC", out_dir)
    code = bench.main(["--workload", "sensing", "--seed", "1", "--seconds", "1",
                       "--trace", "0"])
    assert code == bench.EXIT_USAGE
    assert capsys.readouterr().out == ""
