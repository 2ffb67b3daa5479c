"""The full-precision row comparison of scripts/golden_hashes.py."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import golden_hashes as gh  # noqa: E402


def rows(crb, **extra):
    return gh.full_precision([{"sweep_value": 1, "trial": 0, "crb": crb, "rate_min": 0.25,
                               "objective": 3.0, "mse": "", "wall_time_ms": 0.0, **extra}])


def test_full_precision_keeps_every_bit_and_drops_empty_columns():
    (rec,) = rows(1.0 / 3.0)
    assert rec == {"sweep_value": 1, "trial": 0, "crb": 1.0 / 3.0, "rate_min": 0.25,
                   "objective": 3.0}


def test_compare_reports_the_largest_relative_delta_per_column():
    moved = 4.0 * (1 + 1e-15)
    deltas, problems = gh.compare(rows(2.0) + rows(moved), rows(2.0) + rows(4.0))
    assert problems == []
    assert deltas == {"crb": (moved - 4.0) / 4.0, "rate_min": 0.0, "objective": 0.0}
    assert deltas["crb"] > 0


def test_compare_flags_undefined_deltas_and_row_mismatches():
    assert gh.rel_delta(math.nan, math.nan) == 0.0
    assert gh.rel_delta(1.0, math.nan) == math.inf
    assert gh.rel_delta(math.nan, 1.0) == math.inf
    assert gh.rel_delta(1e-300, 0.0) == math.inf
    assert gh.compare(rows(1.0, error="boom"), rows(1.0))[1]
    assert gh.compare(rows(1.0), rows(1.0) + rows(1.0))[1]


# sha256 prefixes of the default CSV bytes of the four SCA runs at jobs=1
SCA_GOLDEN = {
    "tradeoff": "ebe250514bc0cdc4",
    "selection_compare": "2efda1eeba0194f0",
    "pulses": "db5334c390a6dddd",
    "selection_nt4": "c65a0a395cf3e82d",
}


def test_sca_runs_keep_their_golden_csv_bytes():
    """The default CSV bytes of the SCA runs are unchanged.

    These bytes belong to the installed NumPy and the OpenBLAS it links:
    another build may round the last bits of a solve differently.  A change
    that moves them updates the prefixes here, with a CHANGES.md line that
    lists the ``golden_hashes.py --compare`` deltas of every run and column.
    """
    cfg, layout, base = gh.harness.load_config("sec6a")
    hashes = {run: gh.csv_hash(gh.run_rows(run, cfg, layout, base, jobs=1))
              for run in SCA_GOLDEN}
    assert hashes == SCA_GOLDEN


# the same for the four runs whose rows read delta_t through the pulse
# integrals, the pulse gain and the matched filter
SENSING_GOLDEN = {
    "antennas_tx": "904e4a34ff476e92",
    "antennas_rx": "fa79994abb9fc00d",
    "mf_vs_crb": "bf1c2e95ee55078d",
    "roundtrip": "b769b2e77d621368",
}


def test_sensing_runs_keep_their_golden_csv_bytes():
    """The default CSV bytes of the sensing runs are unchanged (see above)."""
    cfg, layout, base = gh.harness.load_config("sec6a")
    hashes = {run: gh.csv_hash(gh.run_rows(run, cfg, layout, base, jobs=1))
              for run in SENSING_GOLDEN}
    assert hashes == SENSING_GOLDEN
