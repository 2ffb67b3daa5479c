#!/usr/bin/env python3
"""Time one SCA row per transmit-array size on each Newton path.

The row: ``perfbench/configs/sec6a_nt4.json`` (sec6a with K = 10 receivers
and R_th = 0.1) at N_t = 2, 4 and 6, the layout and channels of seed 7,
trial 0, the five receivers with the strongest sensing paths selected, and
the harness's tolerances (``harness._sca``).  The row runs once with every
SCA solver on the dense Cholesky and once with every SCA solver on block
elimination (``_BarrierSolver.eliminate``, set from outside after each SCA
solver is built; phase-1 solvers stay dense).  The path a solver takes by
its own rule is marked with ``*``.

Per N_t and path it prints the Newton steps (``grad_hess`` calls), the
systems each path solved (``path_steps``: eliminated, dense, regularized
LU), the mean time of a Newton step (``grad_hess`` plus ``newton_step``) in
microseconds, and the row's wall time in milliseconds, each the best of
``--reps`` runs.  On a tree without block elimination only the dense path
runs.  Run it with one BLAS thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/newton_ladder.py [--nt 2 4 6]
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

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
    """One timed row with every SCA solver on one path: its counts and times."""
    solver_cls = bf._BarrierSolver
    saved = {name: getattr(solver_cls, name) for name in ("__init__", "grad_hess", "newton_step")}
    solvers, spent = [], [0.0, 0]

    def building(self, weight, *args, **kwargs):
        saved["__init__"](self, weight, *args, **kwargs)
        if weight is not None:
            solvers.append((self, self.eliminate if hasattr(self, "eliminate") else False))
            if hasattr(self, "eliminate"):
                self.eliminate = eliminate

    def timed(name):
        def call(self, *args, **kwargs):
            start = time.perf_counter()
            out = saved[name](self, *args, **kwargs)
            spent[0] += time.perf_counter() - start
            spent[1] += name == "grad_hess"
            return out
        return call

    solver_cls.__init__ = building
    solver_cls.grad_hess = timed("grad_hess")
    solver_cls.newton_step = timed("newton_step")
    try:
        start = time.perf_counter()
        harness._sca(*inputs)
        wall = time.perf_counter() - start
    finally:
        for name, value in saved.items():
            setattr(solver_cls, name, value)
    paths = np.sum([s.path_steps for s, _ in solvers if hasattr(s, "path_steps")] or [[0, 0, 0]],
                   axis=0)
    return {"steps": spent[1], "paths": paths.tolist(), "own": solvers[0][1],
            "step_us": 1e6 * spent[0] / max(spent[1], 1), "row_ms": 1e3 * wall}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nt", nargs="*", type=int, default=[2, 4, 6], help="N_t values")
    ap.add_argument("--reps", type=int, default=3, help="runs per row and path (best kept)")
    args = ap.parse_args()
    has_elimination = hasattr(bf._BarrierSolver, "_eliminated_step")
    print(f"{'N_t':>3} {'dim':>5} {'path':<11} {'steps':>6} {'eliminated':>10} {'dense':>6} "
          f"{'lu':>4} {'us/step':>8} {'row_ms':>8}")
    for n_t in args.nt:
        inputs = row_inputs(n_t)
        dim = (inputs[1].K + 1) * n_t * n_t
        for path, eliminate in PATHS.items():
            if eliminate and not has_elimination:
                continue
            runs = [run_row(inputs, eliminate) for _ in range(args.reps)]
            best = min(runs, key=lambda r: r["row_ms"])
            mark = "*" if best["own"] == eliminate else " "
            print(f"{n_t:>3} {dim:>5} {path + mark:<11} {best['steps']:>6} "
                  f"{best['paths'][0]:>10} {best['paths'][1]:>6} {best['paths'][2]:>4} "
                  f"{min(r['step_us'] for r in runs):>8.0f} {best['row_ms']:>8.0f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
