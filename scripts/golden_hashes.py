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

The CSV rounds to 12 significant digits.  ``--dump PATH`` writes the jobs=1
rows at full precision as JSON (floats by their repr).  ``--compare PATH``
prints, for every run and numeric column, the largest relative delta of
this tree's jobs=1 rows against such a file (0 is bit-identical), and
exits 1 when the two disagree on the rows themselves: their keys, errors or
which columns hold a value.

    PYTHONPATH=src python3 scripts/golden_hashes.py [--experiments tradeoff ...]
        [--dump rows.json] [--compare rows.json]
"""

import argparse
import dataclasses
import hashlib
import io
import json
import math
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

# row columns that identify a row or carry no number
KEYS = ("sweep_value", "trial", "error")
VALUES = tuple(col for col in harness.COLUMNS if col not in KEYS + ("wall_time_ms",))


def run_rows(run: str, cfg, layout, base, jobs: int) -> list[dict]:
    name, trials, seed, overrides = RUNS[run]
    cfg = dataclasses.replace(cfg, **overrides)
    spec = harness.ExperimentSpec(name=name, sweep=harness.default_sweep(name, cfg),
                                  trials=trials, seed=seed)
    return harness.run_experiment(spec, cfg, layout, base=base, jobs=jobs)


def csv_hash(rows: list[dict]) -> str:
    """sha256 prefix of the CSV bytes of the rows."""
    buf = io.StringIO()
    harness.rows_to_csv(rows, buf)
    return hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()[:16]


def full_precision(rows: list[dict]) -> list[dict]:
    """The rows' keys and numeric columns as JSON values; floats keep every bit."""
    out = []
    for row in rows:
        rec = {"sweep_value": row["sweep_value"], "trial": int(row["trial"])}
        if row.get("error"):
            rec["error"] = str(row["error"])
        rec.update({col: float(row[col]) for col in VALUES if row.get(col) not in (None, "")})
        out.append(rec)
    return out


def rel_delta(new: float, old: float) -> float:
    """|new - old| / |old|; inf where that is undefined and the two differ."""
    if new == old or (math.isnan(new) and math.isnan(old)):
        return 0.0
    if not (math.isfinite(new) and math.isfinite(old)) or old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def compare(new: list[dict], old: list[dict]) -> tuple[dict, list[str]]:
    """Largest relative delta per column, and the disagreements on the rows."""
    deltas, problems = {}, []
    if len(new) != len(old):
        return deltas, [f"{len(new)} rows, {len(old)} in the file"]
    for i, (a, b) in enumerate(zip(new, old)):
        if any(a.get(col) != b.get(col) for col in KEYS) or set(a) != set(b):
            problems.append(f"row {i} differs in its keys, error or columns")
            continue
        for col in VALUES:
            if col in a:
                deltas[col] = max(deltas.get(col, 0.0), rel_delta(a[col], b[col]))
    return deltas, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--experiments", nargs="*", default=list(RUNS), choices=list(RUNS),
                    help="golden runs to hash (default: all)")
    ap.add_argument("--dump", metavar="PATH",
                    help="write the jobs=1 rows at full precision as JSON")
    ap.add_argument("--compare", metavar="PATH",
                    help="print the largest relative delta per run and column against "
                         "a --dump file")
    args = ap.parse_args()

    reference = None
    if args.compare:
        with open(args.compare, encoding="ascii") as fh:
            reference = json.load(fh)
    cfg, layout, base = harness.load_config("sec6a")
    status = 0
    dumped, compared = {}, []
    print(f"{'run':<18} {'jobs=1':<16} {'jobs=2':<16}")
    for name in args.experiments:
        rows = run_rows(name, cfg, layout, base, jobs=1)
        rows2 = run_rows(name, cfg, layout, base, jobs=2)
        h1, h2 = csv_hash(rows), csv_hash(rows2)
        errors = max(sum(1 for row in r if row.get("error")) for r in (rows, rows2))
        flags = []
        if h1 != h2:
            flags.append("JOBS DIFFER")
        if errors:
            flags.append(f"{errors} error rows")
        print(f"{name:<18} {h1:<16} {h2:<16} {', '.join(flags)}".rstrip(), flush=True)
        status |= bool(flags)
        dumped[name] = full_precision(rows)
        if reference is not None:
            if name not in reference:
                compared.append((name, {}, ["not in the file"]))
            else:
                compared.append((name, *compare(dumped[name], reference[name])))
    if args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            json.dump(dumped, fh, indent=1)
            fh.write("\n")
    if reference is not None:
        print(f"\nlargest relative delta against {args.compare}")
        print(f"{'run':<18} " + " ".join(f"{col:<10}" for col in VALUES))
        for name, deltas, problems in compared:
            cells = " ".join(f"{deltas[col]:<10.2g}" if col in deltas else f"{'-':<10}"
                             for col in VALUES)
            print(f"{name:<18} {cells} {'; '.join(problems)}".rstrip())
            status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
