#!/usr/bin/env python3
"""Print the Newton work of the barrier solver for three fixed sets of SCA rows.

The counts are deterministic: they repeat exactly on any host.  Per set:

- ``sca/row``: surrogate solves (``inner_convex_solve`` calls) per row, the
  SCA iterations
- ``solvers/row``: barrier solvers built (``_BarrierSolver.__init__`` calls)
  per row: one per SCA run, and one per phase-1 search
- ``center/row``: centering calls (``_BarrierSolver.center``) per row
- ``grad_hess/row`` and ``grad_hess``: Newton steps (plus the few KKT
  certificates computed outside ``center``) per row and in total
- ``terms/row`` and ``terms/step``: barrier evaluations
  (``_BarrierSolver._terms`` calls: every line-search trial point, one per
  centering call and solve start) per row and per ``grad_hess`` call
- ``at_max_newton``: centering calls under the default Newton budget that
  used all of it; ``at_cap``: calls under a smaller cap that used all of it
- ``longest``: the most Newton steps one call under the default budget took
- ``eliminated``, ``dense`` and ``lu``: Newton systems solved by each path
  (``_BarrierSolver.path_steps``, summed over the set's solvers): block
  elimination, the dense Cholesky (at N_t >= 4 outside phase 1, a fallback
  from elimination), and the regularized LU after a failed Cholesky
- ``cold/row``: Newton steps of cold surrogate solves (``inner_convex_solve``
  without ``warm``, the first of each SCA run) per row
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

The solver's methods are wrapped from outside the package, as the tests do.

    PYTHONPATH=src python3 scripts/newton_census.py [--sets tradeoff census]
"""

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from isacsim import beamforming as bf, harness

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from conftest import make_scene  # noqa: E402


class Counter:
    """Wraps grad_hess, _terms, center, __init__ and inner_convex_solve; counts their
    work, and keeps every solver built for its path counts."""

    def __init__(self) -> None:
        self.grad_hess = 0
        self.terms = 0
        self.solves = 0
        self.solvers = []
        # (Newton steps used, max_newton, certified) per centering call
        self.calls = []
        # Newton steps of cold and warm surrogate solves, warm solves, and
        # warm solves that dropped their final-weight start
        self.cold_steps = self.warm_steps = self.warm_solves = self.dropped = 0
        self._saved = [(owner, name, getattr(owner, name))
                       for owner, name in ((bf._BarrierSolver, "grad_hess"),
                                           (bf._BarrierSolver, "_terms"),
                                           (bf._BarrierSolver, "center"),
                                           (bf._BarrierSolver, "__init__"),
                                           (bf, "inner_convex_solve"))]
        grad_hess, terms, center, build, solve = (value for _, _, value in self._saved)
        signature = inspect.signature(center)
        solve_signature = inspect.signature(solve)
        self.default = signature.parameters["max_newton"].default
        counter = self

        def counting(self, *args, **kwargs):
            counter.grad_hess += 1
            return grad_hess(self, *args, **kwargs)

        def evaluating(self, *args, **kwargs):
            counter.terms += 1
            return terms(self, *args, **kwargs)

        def recording(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            before = counter.grad_hess
            out = center(self, *args, **kwargs)
            counter.calls.append((counter.grad_hess - before, bound.arguments["max_newton"],
                                  out[1] is not None))
            return out

        def building(self, *args, **kwargs):
            counter.solvers.append(self)
            build(self, *args, **kwargs)

        def solving(*args, **kwargs):
            counter.solves += 1
            bound = solve_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            steps, calls = counter.grad_hess, len(counter.calls)
            out = solve(*args, **kwargs)
            steps = counter.grad_hess - steps
            if bound.arguments["warm"]:
                counter.warm_steps += steps
                counter.warm_solves += 1
                _, budget, certified = counter.calls[calls]
                counter.dropped += budget < counter.default and not certified
            else:
                counter.cold_steps += steps
            return out

        bf._BarrierSolver.grad_hess = counting
        bf._BarrierSolver._terms = evaluating
        bf._BarrierSolver.center = recording
        bf._BarrierSolver.__init__ = building
        bf.inner_convex_solve = solving

    def restore(self) -> None:
        for owner, name, value in self._saved:
            setattr(owner, name, value)

    def line(self, name: str, rows: int, errors: int) -> str:
        uncapped = [used for used, budget, _ in self.calls if budget == self.default]
        capped = [(used, budget) for used, budget, _ in self.calls if budget < self.default]
        warm_solves = max(self.warm_solves, 1)
        paths = np.sum([solver.path_steps for solver in self.solvers], axis=0, dtype=int)
        return (f"{name:<14} {rows:>4} {errors:>6} {self.solves / rows:>8.2f} "
                f"{len(self.solvers) / rows:>12.2f} {len(self.calls) / rows:>11.2f} "
                f"{self.grad_hess / rows:>14.1f} "
                f"{self.grad_hess:>10} {uncapped.count(self.default):>14} "
                f"{sum(used == budget for used, budget in capped):>7} "
                f"{max(uncapped, default=0):>8} {self.terms / rows:>10.1f} "
                f"{self.terms / max(self.grad_hess, 1):>11.2f} "
                + " ".join(f"{count:>10}" for count in paths)
                + f" {self.cold_steps / rows:>8.1f} {self.warm_steps / warm_solves:>10.1f}"
                  f" {self.dropped / warm_solves:>8.3f}")


def run_harness(config: str, experiment: str, trials: int) -> tuple[int, int]:
    cfg, layout, base = harness.load_config(config)
    spec = harness.ExperimentSpec(name=experiment, sweep=harness.default_sweep(experiment, cfg),
                                  trials=trials, seed=7)
    rows = harness.run_experiment(spec, cfg, layout, base=base)
    return len(rows), sum(1 for row in rows if row.get("error"))


def run_census() -> tuple[int, int]:
    rows = errors = 0
    for K in (3, 4, 6):
        for seed in range(8):
            for R_th in (0.25, 1.0):
                cfg, _, channels, consts = make_scene(K=K, seed=seed, R_th=R_th)
                b = np.zeros(K, dtype=int)
                b[:K // 2] = 1
                rows += 1
                try:
                    bf.sca_optimize(b, cfg, channels, consts)
                except (bf.InfeasibleStartError, bf.SolverError):
                    errors += 1
    return rows, errors


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
    print(f"{'set':<14} {'rows':>4} {'errors':>6} {'sca/row':>8} {'solvers/row':>12} "
          f"{'center/row':>11} "
          f"{'grad_hess/row':>14} {'grad_hess':>10} {'at_max_newton':>14} {'at_cap':>7} "
          f"{'longest':>8} {'terms/row':>10} {'terms/step':>11} "
          f"{'eliminated':>10} {'dense':>10} {'lu':>10} {'cold/row':>8} {'warm/solve':>10} "
          f"{'dropped':>8}")
    for name in args.sets:
        counter = Counter()
        try:
            rows, errors = SETS[name]()
        finally:
            counter.restore()
        print(counter.line(name, rows, errors), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
