#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs of perfbench runs.

    python3 scripts/bench_pairs.py --parent HEAD~1 [--change HEAD] \\
        --out BENCH_13.json [--claim sensing] sensing=1301-1310 sca_tradeoff=1311-1313

Each revision's committed files are extracted with ``git archive`` into a
temporary directory, so the working tree and the repository's metadata are
left alone.  For every ``WORKLOAD=FIRST-LAST`` spec and every seed in the
range, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds 38 --trace 0

once in each checkout, with the run length from BENCHMARK.json's
``run_seconds``.  The pairs alternate which side runs first, parent
first at the first seed of each workload, so a slow spell of a shared host
falls on both sides alike.  The JSON record holds every run: the
end-to-end metrics named in BENCHMARK.json with their medians, quartiles
(linear interpolation) and the pairs the change wins, each run's mean
reference-loop time, its fastest and slowest reference sample, and its raw
wall-clock rows per second.  ``--claim W`` states the claim rule for
``rows_per_s_at_ref`` on W: the change wins at least 9 of 10 pairs and the
gap between the medians exceeds the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLAIM_METRIC = "rows_per_s_at_ref"


def extract(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return short


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end perfbench run: its summary line and its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    summary = json.loads(lines[-1])
    record_path = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0-record.json"
    record = json.loads(record_path.read_text())
    refs = [s for _, s in record["ref_samples_s"]]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "reference_loop_ms_mean": round(1000 * statistics.fmean(refs), 3),
        "ref_samples_s_range": [min(refs), max(refs)],
        "raw_rows_per_s": round(record["raw_wall_clock"]["rows_per_s"], 5),
    }


def spread(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def summarize(runs: dict, end_to_end: list[dict], seeds: list[int]) -> dict:
    """The per-workload record from the two sides' lists of runs."""
    out = {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
    }
    for key in ("reference_loop_ms_mean", "ref_samples_s_range", "raw_rows_per_s"):
        out[key] = {side: [r[key] for r in rs] for side, rs in runs.items()}
    out["metrics"] = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        out["metrics"][name] = {
            "better": metric["better"], "parent": p, "change": c,
            "change_wins": f"{wins}/{len(seeds)}",
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
            "parent_iqr": p["q3"] - p["q1"],
        }
    return out


def claim_holds(entry: dict) -> bool:
    m = entry["metrics"][CLAIM_METRIC]
    wins = int(m["change_wins"].split("/")[0])
    gap = m["change"]["median"] - m["parent"]["median"]
    return wins >= 9 * entry["pairs"] / 10 and gap > m["parent_iqr"]


def parse_spec(spec: str) -> tuple[str, list[int]]:
    name, _, seeds = spec.partition("=")
    first, _, last = seeds.partition("-")
    return name, list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test")
    parser.add_argument("--out", required=True, type=Path, help="JSON record to write")
    parser.add_argument("--claim", help=f"workload on which {CLAIM_METRIC} is claimed")
    parser.add_argument("specs", nargs="+", metavar="WORKLOAD=FIRST-LAST")
    args = parser.parse_args(argv)
    specs = [parse_spec(s) for s in args.specs]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = bench["run_seconds"], bench["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in ("parent", "change")}
        record = {
            "command": (f"python3 perfbench/run.py --workload <w> --seed <s> "
                        f"--seconds {seconds:g} --trace 0"),
            "parent": extract(args.parent, checkouts["parent"]),
            "change": extract(args.change, checkouts["change"]),
            "host": {"cpu_count": os.cpu_count(),
                     "note": "shared host: other tenants' load is unknown; the *_at_ref "
                             "timings are rescaled by perfbench's reference loop, raw "
                             "wall clock is not bounded"},
            "order": "pairs alternate which side runs first: parent first at the first "
                     "seed of each workload",
        }
        if args.claim:
            record["claim"] = {"workload": args.claim, "metric": CLAIM_METRIC,
                               "rule": "change wins >= 9 of 10 pairs and the median gap "
                                       "exceeds the parent's interquartile range"}
        record["workloads"] = {}
        for name, seeds in specs:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    res = run_once(checkouts[side], name, seed, seconds)
                    runs[side].append(res)
                    print(f"{name} seed {seed} {side}: {CLAIM_METRIC} = "
                          f"{res['metrics'][CLAIM_METRIC]:.6g}", flush=True)
            record["workloads"][name] = summarize(runs, end_to_end, seeds)
            args.out.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in record["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name} {metric}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} wins {m['change_wins']} "
                  f"parent IQR {m['parent_iqr']:.3g}")
    if args.claim:
        holds = claim_holds(record["workloads"][args.claim])
        print(f"claim on {args.claim} {CLAIM_METRIC}: {'holds' if holds else 'fails'}")
        return 0 if holds else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
