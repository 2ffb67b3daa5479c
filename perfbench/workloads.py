"""The benchmark's workloads, the closed loop that runs them, and the row checks.

A workload is a list of ``isac run`` invocations (parts).  One pass over the
parts is a chunk; part ``p`` of chunk ``i`` at workload seed ``s`` runs at the
experiment seed ``part_seed(s, i, p)``, so it is exactly

    isac run --config <config> --experiment <experiment> --sweep <sweep> \\
             --trials <trials> --seed <part_seed(s, i, p)> --out <file>

Chunks run back to back with one client (a closed loop: each row starts when
the previous one ends, ``jobs=1``) until the time budget is spent.  Every
chunk covers each sweep value once per trial, so a run's mix of row kinds does
not depend on when it stops.  The SCA workloads give each sweep value its own
part, hence its own seed and scene: SCA cost varies with the scene, and four
scenes per chunk instead of one shrink the share of a run's spread that comes
from its scenes.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla

HERE = Path(__file__).resolve().parent

# rate_min may sit below R_th by at most this much on a rate-constrained row
RATE_SLACK_TOL = 1e-6
# largest noiseless round-trip position error, in metres
ROUNDTRIP_TOL_M = 1e-6
# a timed run spends about one reference loop per this many seconds of parts
REF_EVERY_S = 1.0
# and times at most this many loops back to back between two parts
REF_MAX_LOOPS = 8

# blocks of the reference loop's Newton system, as for K = 10 receivers
_REF_BLOCKS = 11
# loops per sample for each transmit array size, about 40 ms each on a 2-vCPU Xeon
_REF_ITERS = {2: 200, 4: 46}


def _reference_inputs(n: int) -> dict:
    rng = np.random.default_rng(20240707 + n)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    X = cplx(_REF_BLOCKS, n, n)
    return {
        "X": X @ np.conj(np.transpose(X, (0, 2, 1))) + n * np.eye(n),
        "eye": np.broadcast_to(np.eye(n, dtype=complex), (_REF_BLOCKS, n, n)),
        "basis": cplx(n * n, n, n),
        "G": rng.standard_normal((_REF_BLOCKS, _REF_BLOCKS * n * n)),
        "M": cplx(96, 256), "N": cplx(256, 64),
    }


_REF_INPUTS = {n: _reference_inputs(n) for n in _REF_ITERS}


def reference_loop(n: int) -> float:
    """Seconds taken by fixed work shaped like one SCA barrier step at N_t = ``n``.

    Batched n x n Cholesky factors, solves and the PSD-core einsum chain on
    11 blocks, a Newton system of dimension 11 n^2 assembled and solved by
    Cholesky, as in ``beamforming``'s barrier; and now and then a complex
    GEMM, as in the matched filter.  It calls nothing in ``isacsim``, so a
    change to the package cannot change its time; only the speed the machine
    lends the process can.
    """
    ref = _REF_INPUTS[n]
    X, eye, basis, G = ref["X"], ref["eye"], ref["basis"], ref["G"]
    bd = n * n
    dim = _REF_BLOCKS * bd
    start = time.perf_counter()
    acc = 0.0
    for i in range(_REF_ITERS[n]):
        inv = np.linalg.solve(np.linalg.cholesky(X), eye)
        Xinv = np.einsum("kji,kjl->kil", inv.conj(), inv)
        P = np.einsum("mij,ajk->maik", Xinv, basis)
        cores = np.einsum("maij,mbji->mab", P, P.conj()).real
        hess = G.T @ G + dim * np.eye(dim)
        for k in range(_REF_BLOCKS):
            hess[k * bd:(k + 1) * bd, k * bd:(k + 1) * bd] += cores[k]
        acc += float(sla.cho_solve(sla.cho_factor(hess, lower=True), G[0])[0])
        if i % 10 == 0:
            acc += abs((ref["M"] @ ref["N"])[0, 0])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop lost its inputs")
    return elapsed


@dataclass(frozen=True)
class Part:
    """One ``isac run`` invocation inside a chunk."""

    experiment: str
    sweep: tuple
    trials: int
    rate_constrained: bool = False  # rows come from SCA under R_th > 0

    def cli_args(self) -> str:
        sweep = ",".join(str(v) for v in self.sweep)
        return f"--experiment {self.experiment} --sweep {sweep} --trials {self.trials}"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str            # preset name, or a file next to this module
    parts: tuple
    # the quality metrics are taken over this many leading chunks, which every
    # run completes whatever its speed, so two versions are scored on the same rows
    quality_chunks: int
    why: str

    def config_arg(self) -> str:
        return str(HERE / self.config) if self.config.endswith(".json") else self.config


def _per_value(experiment: str, sweep: tuple, **kw) -> tuple:
    return tuple(Part(experiment, (value,), 1, **kw) for value in sweep)


_SELECTION_SWEEP = ("minimax:100", "minimax:200", "kmeans:100", "kmeans:200")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sca_tradeoff", "sec6a",
            _per_value("tradeoff", (0, 1, 2, 5), rate_constrained=True),
            quality_chunks=4,
            why="the dominant cost: SCA at Newton dimension 44, glue-bound; "
                "size-0 rows cover the objective_weight path"),
        Workload(
            "sca_wide", "configs/sec6a_nt4.json",
            _per_value("selection_compare", _SELECTION_SWEEP, rate_constrained=True),
            quality_chunks=3,
            why="SCA at Newton dimension 176 (grad_hess-bound), the L<N_t "
                "rescale path, and the only run of selection; R_th=0.1 (see README)"),
        Workload(
            "sensing", "sec6a",
            (Part("mf_vs_crb", (10.0, 20.0, 30.0), 1),
             Part("antennas_tx", tuple(range(2, 11)), 1),
             Part("antennas_rx", tuple(range(2, 11)), 1),
             Part("roundtrip", ("noiseless",), 10)),
            quality_chunks=30,
            why="matched filter, block synthesis, channel build, pulse integrals, "
                "FIM constants, rates and localization; R_th=0 bypasses SCA"),
    )
}


def part_seed(seed: int, chunk: int, part: int) -> int:
    """Experiment seed of part ``part`` of chunk ``chunk`` at workload seed ``seed``."""
    return seed * 1_000_000 + chunk * 10 + part


@dataclass
class RunResult:
    """Rows, CSV digests and wall time of a sequence of chunks."""

    rows: list = field(default_factory=list)      # (chunk, Part, row dict)
    digests: list = field(default_factory=list)   # (chunk, experiment, seed, sha256)
    chunks: int = 0
    chunk_wall_s: list = field(default_factory=list)
    # seconds of each part in run order: run_experiment and rows_to_csv, what
    # one `isac run` does after its set-up; and each row's index into it
    part_wall_s: list = field(default_factory=list)
    row_part: list = field(default_factory=list)
    wall_s: float = 0.0
    row_count_errors: list = field(default_factory=list)
    # (part, seconds): the reference loop, timed just before that part; the
    # last sample, after the last part, has part == len(part_wall_s)
    ref_samples: list = field(default_factory=list)

    def ok_rows(self):
        return [(c, p, r) for c, p, r in self.rows if not r.get("error")]

    def failed(self) -> int:
        return sum(1 for _, _, r in self.rows if r.get("error"))


def run_chunks(wl: Workload, harness, loaded, seed: int, csv_path: Path,
               budget_s: float | None = None, n_chunks: int | None = None,
               probe=None, reference: bool = False) -> RunResult:
    """Run chunks 0, 1, ... through the public ``isac run`` calls.

    With ``n_chunks`` the run does exactly that many.  Otherwise it runs at
    least ``wl.quality_chunks`` and stops before a chunk that would, at the
    mean chunk time so far, end past ``budget_s``.  A ``probe`` (install /
    uninstall) is active during the first ``wl.quality_chunks`` chunks only.
    With ``reference`` the reference loop, at the config's ``N_t``, is timed
    before the first part, after the last, and between parts once
    ``REF_EVERY_S`` seconds have passed: one loop per ``REF_EVERY_S`` seconds
    since the last sample (up to ``REF_MAX_LOOPS``), so the loop takes about
    the same share of every run whatever the part length.
    """
    cfg, layout, base = loaded
    res = RunResult()
    if probe is not None:
        probe.install()
    if reference:
        reference_loop(cfg.N_t)  # warm-up
        res.ref_samples.append((0, reference_loop(cfg.N_t)))
    last_ref = time.perf_counter()
    start = time.perf_counter()
    while True:
        done = res.chunks
        if n_chunks is not None:
            if done >= n_chunks:
                break
        elif done >= wl.quality_chunks:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > budget_s:
                break
        chunk_start = time.perf_counter()
        for index, part in enumerate(wl.parts):
            since = time.perf_counter() - last_ref
            if reference and since >= REF_EVERY_S:
                res.ref_samples.append((len(res.part_wall_s),
                                        reference_sample(since, cfg.N_t)))
                last_ref = time.perf_counter()
            seed_c = part_seed(seed, done, index)
            part_start = time.perf_counter()
            spec = harness.ExperimentSpec(name=part.experiment, sweep=part.sweep,
                                          trials=part.trials, seed=seed_c,
                                          out=str(csv_path))
            rows = harness.run_experiment(spec, cfg, layout, base=base, timing=True)
            # the bytes `isac run --out` writes without --timing
            harness.rows_to_csv([dict(r, wall_time_ms=0.0) for r in rows], csv_path)
            res.row_part.extend([len(res.part_wall_s)] * len(rows))
            res.part_wall_s.append(time.perf_counter() - part_start)
            res.digests.append((done, part.experiment, seed_c,
                                hashlib.sha256(csv_path.read_bytes()).hexdigest()))
            expected = len(part.sweep) * part.trials
            if len(rows) != expected:
                res.row_count_errors.append(
                    f"{part.experiment} seed={seed_c}: {len(rows)} rows, expected {expected}")
            res.rows.extend((done, part, r) for r in rows)
        res.chunk_wall_s.append(time.perf_counter() - chunk_start)
        res.chunks += 1
        if probe is not None and res.chunks == wl.quality_chunks:
            probe.uninstall()
    if reference:
        res.ref_samples.append((len(res.part_wall_s), reference_sample(
            time.perf_counter() - last_ref, cfg.N_t)))
    res.wall_s = time.perf_counter() - start
    if probe is not None:
        probe.uninstall()
    return res


def reference_sample(since_s: float, n_t: int) -> float:
    """Mean seconds per reference loop over one loop per ``REF_EVERY_S`` in ``since_s``."""
    loops = max(1, min(REF_MAX_LOOPS, int(since_s / REF_EVERY_S)))
    return sum(reference_loop(n_t) for _ in range(loops)) / loops


def part_ref_s(res: RunResult) -> list[float]:
    """Reference-loop seconds for each part: the mean of the samples either side."""
    out = []
    k = 0  # the last sample taken before the part
    for part in range(len(res.part_wall_s)):
        while res.ref_samples[k + 1][0] <= part:
            k += 1
        out.append((res.ref_samples[k][1] + res.ref_samples[k + 1][1]) / 2)
    return out


def check_rows(res: RunResult, R_th: float) -> list[str]:
    """Names and details of every failed correctness check (empty when all hold).

    Error rows are not checked here; they count in ``failed``.
    """
    failures = [f"row-count: {msg}" for msg in res.row_count_errors]
    for chunk, part, row in res.ok_rows():
        where = (f"{part.experiment} chunk={chunk} sweep={row['sweep_value']} "
                 f"trial={row['trial']}")
        crb = row.get("crb")
        if crb is not None and not (math.isfinite(crb) and crb > 0):
            failures.append(f"crb-finite-positive: {where}: crb={crb!r}")
        if part.rate_constrained and not row["rate_min"] >= R_th - RATE_SLACK_TOL:
            failures.append(f"sca-rate-floor: {where}: rate_min={row['rate_min']!r} "
                            f"< R_th={R_th!r} - {RATE_SLACK_TOL}")
        if part.experiment == "roundtrip" and not math.sqrt(row["mse"]) <= ROUNDTRIP_TOL_M:
            failures.append(f"roundtrip-position-error: {where}: "
                            f"{math.sqrt(row['mse'])!r} m > {ROUNDTRIP_TOL_M} m")
        if part.experiment == "mf_vs_crb" and not (math.isfinite(row["mse"]) and row["mse"] >= 0):
            failures.append(f"mf-mse-finite: {where}: mse={row['mse']!r}")
    return failures
