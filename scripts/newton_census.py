#!/usr/bin/env python3
"""Print the Newton work of the barrier solver for three fixed sets of SCA rows.

The counts are deterministic: they repeat exactly on any host.  Per set:

- ``sca/row``: surrogate solves (``solve`` calls outside phase 1) per row,
  the SCA iterations
- ``solvers/row``: barrier solvers built (``_BarrierSolver.__init__`` calls)
  per row: one per SCA run, and one per phase-1 search
- ``center/row``: centering calls (``_BarrierSolver.center``) per row
- ``steps/row`` and ``steps``: Newton steps (``SolverWork.steps``, counted
  by ``center``: one per Newton system it solves) per row and in total
- ``terms/row`` and ``terms/step``: barrier evaluations
  (``_BarrierSolver._terms`` calls: every line-search trial point, and the
  starts a surrogate solve tests, each point once: the anchor, its ray
  point on a cold solve, and the rung when a warm solve's first start
  fails) per row and per Newton step
- ``at_max_newton``: centering calls under the default Newton budget that
  used all of it; ``at_cap``: calls under a smaller cap that used all of it
- ``longest``: the most Newton steps one call under the default budget took
- ``eliminated``, ``dense`` and ``lu``: Newton systems solved by each path,
  summed over the set's solvers: block elimination, the dense Cholesky (at
  N_t >= 4 outside phase 1, a fallback from elimination), and the
  regularized LU after a failed Cholesky; every Newton step solves one
  system on one path, and so does the KKT certificate of an uncertified
  solve
- ``uncertified``: solves (surrogate solves and phase-1 rounds) whose final
  weight stopped short of its decrement test
- ``cold/row``: Newton steps of cold surrogate solves (without ``warm``, the
  first of each SCA run) per row
- ``warm/solve``: Newton steps per warm surrogate solve
- ``dropped``: the share of warm solves whose final-weight start (their
  first centering call, under the WARM_FINAL_NEWTON cap) was dropped

The sets:

- ``tradeoff``: the 8 rows pinned in ``tests/test_barrier.py`` (``tradeoff``
  at ``sec6a``, seed 7, 2 trials, default sweep)
- ``selection_nt4``: ``selection_compare`` at
  ``perfbench/configs/sec6a_nt4.json`` (N_t = 4), seed 7, 1 trial
- ``census``: 48 ``sca_optimize`` calls on ``make_scene`` scenes
  (``tests/conftest.py``): K = 3, 4, 6; seeds 0-7; R_th 0.25 and 1.0; the
  first K//2 receivers selected; default arguments.  Rows whose threshold
  phase 1 cannot reach count as errors and their Newton work counts too.

Every count is read from the records of the solvers a set builds
(``_BarrierSolver.work``), collected by a hook on ``_BarrierSolver.__init__``.

    PYTHONPATH=src python3 scripts/newton_census.py [--sets tradeoff census]
"""

import argparse
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from isacsim import beamforming as bf, harness

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from conftest import make_scene  # noqa: E402

# (column, width, format)
COLUMNS = (("rows", 4, "d"), ("errors", 6, "d"), ("sca/row", 8, ".2f"),
           ("solvers/row", 12, ".2f"), ("center/row", 11, ".2f"), ("steps/row", 10, ".1f"),
           ("steps", 6, "d"), ("at_max_newton", 14, "d"),
           ("at_cap", 7, "d"), ("longest", 8, "d"), ("terms/row", 10, ".1f"),
           ("terms/step", 11, ".2f"), ("eliminated", 10, "d"), ("dense", 6, "d"),
           ("lu", 3, "d"), ("uncertified", 11, "d"), ("cold/row", 8, ".1f"),
           ("warm/solve", 10, ".1f"), ("dropped", 8, ".3f"))


def collect(run) -> tuple[list, int, int]:
    """Run a row set; (every barrier solver it built, rows, error rows)."""
    solvers, build = [], bf._BarrierSolver.__init__

    def building(self, *args, **kwargs):
        solvers.append(self)
        build(self, *args, **kwargs)

    with mock.patch.object(bf._BarrierSolver, "__init__", building):
        rows, errors = run()
    return solvers, rows, errors


def totals(solvers: list, rows: int, errors: int) -> dict:
    """The census columns of a row set from its solvers' records."""
    works = [solver.work for solver in solvers]
    sums = {name: sum(getattr(work, name) for work in works)
            for name in ("steps", "terms", "eliminated", "dense", "lu", "uncertified")}
    centers = [entry for work in works for entry in work.centers]
    # the final-weight start of a warm solve is its one call under a smaller cap
    capped = [entry for entry in centers if entry[1] == bf.WARM_FINAL_NEWTON]
    uncapped = [entry for entry in centers if entry[1] != bf.WARM_FINAL_NEWTON]
    solves = [entry for solver in solvers if not solver.epigraph for entry in solver.work.solves]
    warm = [steps for is_warm, steps in solves if is_warm]
    return {**sums, "rows": rows, "errors": errors, "sca/row": len(solves) / rows,
            "solvers/row": len(solvers) / rows, "center/row": len(centers) / rows,
            "steps/row": sums["steps"] / rows,
            "at_max_newton": sum(used == budget for _, budget, used, _ in uncapped),
            "at_cap": sum(used == budget for _, budget, used, _ in capped),
            "longest": max((used for _, _, used, _ in uncapped), default=0),
            "terms/row": sums["terms"] / rows,
            "terms/step": sums["terms"] / max(sums["steps"], 1),
            "cold/row": sum(steps for is_warm, steps in solves if not is_warm) / rows,
            "warm/solve": sum(warm) / max(len(warm), 1),
            "dropped": sum(entry[3] is None for entry in capped) / max(len(warm), 1)}


def line(name: str, counts: dict) -> str:
    return f"{name:<14} " + " ".join(f"{counts[col]:>{width}{fmt}}"
                                     for col, width, fmt in COLUMNS)


def run_harness(config: str, experiment: str, trials: int) -> tuple[int, int]:
    cfg, layout, base = harness.load_config(config)
    spec = harness.ExperimentSpec(name=experiment, sweep=harness.default_sweep(experiment, cfg),
                                  trials=trials, seed=7)
    rows = harness.run_experiment(spec, cfg, layout, base=base)
    return len(rows), sum(1 for row in rows if row.get("error"))


# the census scenes (K, seed, R_th)
CENSUS = [(K, seed, R_th) for K in (3, 4, 6) for seed in range(8) for R_th in (0.25, 1.0)]


def run_census(scenes=CENSUS) -> tuple[int, int]:
    errors = 0
    for K, seed, R_th in scenes:
        cfg, _, channels, consts = make_scene(K=K, seed=seed, R_th=R_th)
        b = np.zeros(K, dtype=int)
        b[:K // 2] = 1
        try:
            bf.sca_optimize(b, cfg, channels, consts)
        except (bf.InfeasibleStartError, bf.SolverError):
            errors += 1
    return len(scenes), errors


SETS = {
    "tradeoff": lambda: run_harness("sec6a", "tradeoff", 2),
    "selection_nt4": lambda: run_harness(str(ROOT / "perfbench/configs/sec6a_nt4.json"),
                                         "selection_compare", 1),
    "census": run_census,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", nargs="*", default=list(SETS), choices=list(SETS),
                    help="row sets to count (default: all)")
    args = ap.parse_args()
    print(f"{'set':<14} " + " ".join(f"{col:>{width}}" for col, width, _ in COLUMNS))
    for name in args.sets:
        print(line(name, totals(*collect(SETS[name]))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
