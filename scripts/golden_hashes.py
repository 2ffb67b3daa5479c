#!/usr/bin/env python3
"""Print the golden CSV hashes: one sha256 prefix per experiment, jobs=1 and jobs=2.

Each experiment runs at the ``sec6a`` preset, seed 7 and its default sweep,
with the fixed trial counts below, exactly as ``isac run --out`` would write
it.  A refactor that claims bit-identical output must leave every prefix
unchanged.  Exits 1 when a row fails or when the jobs=1 and jobs=2 bytes of
any experiment differ.

    PYTHONPATH=src python3 scripts/golden_hashes.py [--experiments tradeoff ...]
"""

import argparse
import hashlib
import io
import sys

from isacsim import harness

SEED = 7
TRIALS = {"tradeoff": 2, "antennas_tx": 2, "antennas_rx": 2, "selection_compare": 1,
          "pulses": 1, "mf_vs_crb": 3, "roundtrip": 20}


def csv_hash(name: str, cfg, layout, base, jobs: int) -> tuple[str, int]:
    """sha256 prefix of the experiment's CSV bytes and its count of error rows."""
    spec = harness.ExperimentSpec(name=name, sweep=harness.default_sweep(name, cfg),
                                  trials=TRIALS[name], seed=SEED)
    rows = harness.run_experiment(spec, cfg, layout, base=base, jobs=jobs)
    buf = io.StringIO()
    harness.rows_to_csv(rows, buf)
    digest = hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()[:16]
    return digest, sum(1 for row in rows if row.get("error"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--experiments", nargs="*", default=list(TRIALS), choices=list(TRIALS))
    args = ap.parse_args()

    cfg, layout, base = harness.load_config("sec6a")
    status = 0
    print(f"{'experiment':<18} {'jobs=1':<16} {'jobs=2':<16}")
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
