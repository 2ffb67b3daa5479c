#!/usr/bin/env python3
"""Print the golden CSV hashes: one sha256 prefix per run, jobs=1 and jobs=2.

Each of the seven experiments runs at the ``sec6a`` preset, seed 7 and its
default sweep, with the fixed trial counts below.  The eighth run,
``selection_nt4``, is ``selection_compare`` at sec6a with N_t = 4 and
R_th = 0.1 (the config of ``perfbench/configs/sec6a_nt4.json``), seed 5,
one trial: the only run at Newton dimension 176 and the only one whose
rows rescale beamformers after eigen-truncation (L < N_t).  Every run
hashes the bytes ``isac run --out`` would write.  A refactor that claims
bit-identical output must leave every prefix unchanged.  Exits 1 when a row
fails or when the jobs=1 and jobs=2 bytes of any run differ.

    PYTHONPATH=src python3 scripts/golden_hashes.py [--experiments tradeoff ...]
"""

import argparse
import dataclasses
import hashlib
import io
import sys

from isacsim import harness

# run name -> (experiment, trials, seed, sec6a config overrides)
RUNS = {
    "tradeoff": ("tradeoff", 2, 7, {}),
    "antennas_tx": ("antennas_tx", 2, 7, {}),
    "antennas_rx": ("antennas_rx", 2, 7, {}),
    "selection_compare": ("selection_compare", 1, 7, {}),
    "pulses": ("pulses", 1, 7, {}),
    "mf_vs_crb": ("mf_vs_crb", 3, 7, {}),
    "roundtrip": ("roundtrip", 20, 7, {}),
    "selection_nt4": ("selection_compare", 1, 5, {"N_t": 4, "R_th": 0.1}),
}


def csv_hash(run: str, cfg, layout, base, jobs: int) -> tuple[str, int]:
    """sha256 prefix of the run's CSV bytes and its count of error rows."""
    name, trials, seed, overrides = RUNS[run]
    cfg = dataclasses.replace(cfg, **overrides)
    spec = harness.ExperimentSpec(name=name, sweep=harness.default_sweep(name, cfg),
                                  trials=trials, seed=seed)
    rows = harness.run_experiment(spec, cfg, layout, base=base, jobs=jobs)
    buf = io.StringIO()
    harness.rows_to_csv(rows, buf)
    digest = hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()[:16]
    return digest, sum(1 for row in rows if row.get("error"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--experiments", nargs="*", default=list(RUNS), choices=list(RUNS),
                    help="golden runs to hash (default: all)")
    args = ap.parse_args()

    cfg, layout, base = harness.load_config("sec6a")
    status = 0
    print(f"{'run':<18} {'jobs=1':<16} {'jobs=2':<16}")
    for name in args.experiments:
        h1, err1 = csv_hash(name, cfg, layout, base, jobs=1)
        h2, err2 = csv_hash(name, cfg, layout, base, jobs=2)
        flags = []
        if h1 != h2:
            flags.append("JOBS DIFFER")
        if err1 or err2:
            flags.append(f"{max(err1, err2)} error rows")
        print(f"{name:<18} {h1:<16} {h2:<16} {', '.join(flags)}".rstrip(), flush=True)
        status |= bool(flags)
    return status


if __name__ == "__main__":
    sys.exit(main())
