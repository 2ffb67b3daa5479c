#!/usr/bin/env python3
"""Time one SCA row per transmit-array size on each Newton path.

The row: ``perfbench/configs/sec6a_nt4.json`` (sec6a with K = 10 receivers
and R_th = 0.1) at N_t = 2, 4 and 6, the layout and channels of seed 7,
trial 0, the five receivers with the strongest sensing paths selected, and
the harness's tolerances (``harness._sca``).  The row runs once with the
SCA solver on the dense Cholesky and once on block elimination: the
cut-over ``beamforming.ELIMINATE_FROM_NT`` is set before the solver is
built (phase-1 solvers stay dense).  The path a solver takes by its own
rule is marked with ``*``.

Per N_t and path it prints, from the row solver's record (``trace.work``),
the Newton steps (``grad_hess`` calls) and the systems each path solved
(eliminated, dense, regularized LU); then the row's wall time per Newton
step in microseconds and the row's wall time in milliseconds, each the best
of ``--reps`` runs.  Run it with one BLAS thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/newton_ladder.py [--nt 2 4 6]
"""

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path
from unittest import mock

from isacsim import beamforming as bf, harness

CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "sec6a_nt4.json"
PATHS = {"dense": False, "eliminated": True}


def row_inputs(n_t: int):
    cfg, _, base = harness.load_config(str(CONFIG))
    cfg = dataclasses.replace(cfg, N_t=n_t)
    layout = harness.draw_layout(cfg, base, 7, 0)
    channels, consts = harness._scene(cfg, layout, 7, 0)
    return harness.top_eta_group(channels, 5), cfg, channels, consts


def run_row(inputs, eliminate: bool) -> dict:
    """One timed row with its SCA solver on one path: its counts and times."""
    with mock.patch.object(bf, "ELIMINATE_FROM_NT", 1 if eliminate else math.inf):
        start = time.perf_counter()
        _, trace = harness._sca(*inputs)
        wall = time.perf_counter() - start
    work = trace.work
    return {"steps": work.grad_hess, "paths": [work.eliminated, work.dense, work.lu],
            "step_us": 1e6 * wall / max(work.grad_hess, 1), "row_ms": 1e3 * wall}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nt", nargs="*", type=int, default=[2, 4, 6], help="N_t values")
    ap.add_argument("--reps", type=int, default=3, help="runs per row and path (best kept)")
    args = ap.parse_args()
    print(f"{'N_t':>3} {'dim':>5} {'path':<11} {'steps':>6} {'eliminated':>10} {'dense':>6} "
          f"{'lu':>4} {'us/step':>8} {'row_ms':>8}")
    for n_t in args.nt:
        inputs = row_inputs(n_t)
        dim = (inputs[1].K + 1) * n_t * n_t
        for path, eliminate in PATHS.items():
            runs = [run_row(inputs, eliminate) for _ in range(args.reps)]
            best = min(runs, key=lambda r: r["row_ms"])
            mark = "*" if (n_t >= bf.ELIMINATE_FROM_NT) == eliminate else " "
            print(f"{n_t:>3} {dim:>5} {path + mark:<11} {best['steps']:>6} "
                  f"{best['paths'][0]:>10} {best['paths'][1]:>6} {best['paths'][2]:>4} "
                  f"{min(r['step_us'] for r in runs):>8.0f} {best['row_ms']:>8.0f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
