"""Smoke tests of scripts/newton_census.py and scripts/newton_ladder.py."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import newton_census as census  # noqa: E402
import newton_ladder as ladder  # noqa: E402


def test_census_counts_the_solver_of_a_phase_one_error_row():
    # (4, 0, 1.0): phase 1 builds its solver, then cannot reach the threshold
    solvers, rows, errors = census.collect(lambda: census.run_census([(4, 0, 1.0), (3, 3, 0.25)]))
    counts = census.totals(solvers, rows, errors)
    assert (rows, errors) == (2, 1) and solvers[0].epigraph and solvers[0].work.grad_hess
    # every Newton step of these rows solved one system on one path, reused
    # steps included
    assert counts["reused"] > 0
    assert counts["eliminated"] + counts["dense"] + counts["lu"] == counts["steps"]
    assert counts["sca/row"] == len(solvers[-1].work.solves) / 2 > 0
    assert census.line("census", counts).split()[:3] == ["census", "2", "1"]


def test_ladder_runs_a_row_on_each_path():
    inputs = ladder.row_inputs(2)
    dense, eliminated = (ladder.run_row(inputs, eliminate) for eliminate in (False, True))
    for run in (dense, eliminated):
        assert sum(run["paths"]) == run["steps"] > 0 and run["row_ms"] > 0
    assert dense["paths"][0] == 0 < eliminated["paths"][0]
