"""Experiment runner: config parsing, presets, sweeps, CSV output.

Every experiment is a deterministic function of (config, spec, seed): trials
draw their receiver placements, channels, symbols and noise from keyed
substreams, and rows are emitted in canonical (sweep value, trial) order, so
two runs with identical inputs produce byte-identical CSV files.  The
``wall_time_ms`` column is therefore written as 0 unless timing is requested
explicitly (real timings would break the byte-determinism contract).  Nor
do the bytes depend on the caller's BLAS thread count: ``run_experiment``
runs the bundled OpenBLAS on one thread.

Experiments mirror the reference evaluation:

    tradeoff          CRB/rate for group sizes {0 (mono proxy), 1, 2, 5}
    antennas_tx/_rx   CRB vs transmit / receive antenna count (2..10)
    selection_compare minimax-linkage vs Lloyd's clustering under cost caps
    pulses            cosine vs sinc pulse across group sizes
    mf_vs_crb         matched-filter MSE vs CRB across power budgets
    roundtrip         noiseless localization inversion error

The mono-static proxy is a virtual receiver co-located with the TR (ideal
self-interference cancellation assumed); the real receivers then carry only
communication traffic.  It is a qualitative comparison baseline.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import beamforming, estimation, metrics, rng as rngmod, selection
from .channel import ChannelSet, build_channels
from .scenario import (ConfigError, Layout, ScenarioConfig, annulus_layout,
                       cooperation_price, geometry_summary, true_delay,
                       true_doppler, wrap_angle)

COLUMNS = ("sweep_value", "trial", "crb", "rate_min", "rate_mean", "cost",
           "group_size", "objective", "mse", "wall_time_ms", "error")

# the dBm alternates of the watt-valued fields
_DBM_KEYS = {"P_T_dbm": "P_T", "sigma2_dbm": "sigma2",
             "sigma_c2_dbm": "sigma_c2", "sigma_z2_dbm": "sigma_z2"}


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: experiment name, sweep values, trial count, seed, output."""

    name: str
    sweep: tuple
    trials: int
    seed: int
    out: str | None = None

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown {self.name!r}; choose from {EXPERIMENTS}")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if len(self.sweep) < 1:
            raise ConfigError("sweep", "must contain at least one value")


def default_sweep(name: str, cfg: ScenarioConfig) -> tuple:
    return _TABLE[name].sweep(cfg)


def default_trials(name: str) -> int:
    return _TABLE[name].trials


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

@functools.cache
def _key_kinds() -> dict:
    """The kind of every key a config file may give.

    ScenarioConfig's fields are of the types their annotations read ("int",
    "float", "str" or "tuple[float, ...]"); the other keys are the watt
    fields' dBm alternates, the derived ``lambda`` and ``delta_t``, the
    points ``p_b`` and ``p_0`` and the K receiver positions ``p``.
    """
    kinds = {f.name: f.type for f in fields(ScenarioConfig)}
    kinds.update(dict.fromkeys(_DBM_KEYS, "dBm"))
    kinds.update({"lambda": "float", "delta_t": "float", "p_b": "point", "p_0": "point",
                  "p": "points"})
    return kinds


@functools.cache
def _defaults() -> dict:
    """The sec6a preset: the value of every key a file omits."""
    return _load_json("sec6a")


def _holds_bool_or_str(value) -> bool:
    if isinstance(value, list):
        return any(map(_holds_bool_or_str, value))
    return isinstance(value, (bool, str))


def _coerce(key: str, value, K: int):
    """``value`` as the kind of ``key`` (dBm in watts); ConfigError if it is not one."""
    kind = _key_kinds()[key]
    if kind == "str":
        return value  # ScenarioConfig checks the pulse name
    if _holds_bool_or_str(value):  # NumPy would read True as 1 and "3" as 3
        raise ConfigError(key, f"not a number: {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
        if kind == "dBm" and arr.ndim == 0:
            arr = np.asarray(dbm_to_watts(float(arr)))
    except OverflowError as exc:
        raise ConfigError(key, f"out of range: {value!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, f"not a number: {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(key, f"not finite: {value!r}")
    if kind == "tuple[float, ...]":  # one number for every receiver, or a list
        if arr.ndim > 1:
            raise ConfigError(key, f"need a number or a list of numbers; got {value!r}")
        return (float(arr),) * K if arr.ndim == 0 else tuple(arr.tolist())
    shape = {"point": (2,), "points": (K, 2)}.get(kind, ())
    if arr.shape != shape:
        raise ConfigError(key, f"need shape {shape}; got {arr.shape}")
    if kind == "int":
        if arr != np.trunc(arr):
            raise ConfigError(key, f"not an integer: {value!r}")
        return int(value) if isinstance(value, int) else int(arr)
    return arr if shape else float(arr)


def _parse_raw(raw: dict):
    unknown = set(raw) - set(_key_kinds())
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration key")
    values = dict(_defaults())
    # watt-valued keys may be given directly or in dBm (not both)
    for dbm_key, watt_key in _DBM_KEYS.items():
        if watt_key in raw and dbm_key in raw:
            raise ConfigError(watt_key, f"give either {watt_key} (watts) or {dbm_key}, not both")
        if watt_key in raw:
            del values[dbm_key]
    values.update(raw)
    K = _coerce("K", values["K"], 0)
    values = {_DBM_KEYS.get(key, key): _coerce(key, value, K)
              for key, value in values.items()}
    p_b, p_0, lam, dt, p = (values.pop(key, None)
                            for key in ("p_b", "p_0", "lambda", "delta_t", "p"))
    cfg = ScenarioConfig(**values)
    if lam is not None and abs(lam - cfg.wavelength) > 1e-6 * cfg.wavelength:
        raise ConfigError("lambda", f"must equal c/f0 = {cfg.wavelength!r}; got {lam!r}")
    if dt is not None and abs(dt - cfg.delta_t) > 1e-9 * cfg.delta_t:
        raise ConfigError("delta_t", f"must equal 1/(2B) = {cfg.delta_t!r}; got {dt!r}")
    layout = None if p is None else Layout(p_b=p_b, p_0=p_0, p=p)
    return cfg, layout, (p_b, p_0)


def load_config(path) -> tuple[ScenarioConfig, Layout | None, tuple]:
    """Load and validate a flat JSON configuration: (cfg, layout, (p_b, p_0)).

    Omitted keys take the ``sec6a`` preset's values; watt-valued fields
    accept ``*_dbm`` alternates.  ``lambda`` and ``delta_t`` follow f0 and B
    (c/f0 and 1/(2B)); a file may give them, and a value that disagrees is
    malformed.  Every malformed value raises ConfigError naming its key.
    ``layout`` is None when receiver positions ``p`` are omitted: experiments
    then draw the placements per trial (``draw_layout``) around the TR
    position p_b and target position p_0.
    """
    return _parse_raw(_load_json(path))


def _load_json(path) -> dict:
    text = resolve_preset(path) if isinstance(path, str) else None
    if text is not None:
        raw = json.loads(text)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a flat JSON object")
    return raw


def draw_layout(cfg: ScenarioConfig, base, seed: int, trial: int) -> Layout:
    """The seed's random placement for a trial: uniform annulus, 1..100 m around p_b."""
    p_b, p_0 = base
    gen = rngmod.substream(seed, rngmod.DOMAIN_LAYOUT, trial)
    return annulus_layout(cfg, p_b, p_0, gen)


def preset_names() -> list[str]:
    files = resources.files("isacsim").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def resolve_preset(name: str) -> str | None:
    """Return the preset's JSON text when ``name`` names a shipped preset."""
    if "/" in name or "\\" in name or name.endswith(".json"):
        return None
    files = resources.files("isacsim").joinpath("presets")
    candidate = files.joinpath(f"{name}.json")
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    return None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def rows_to_csv(rows: list[dict], path) -> None:
    """Write the rows as CSV to ``path``: a file path or an open text stream."""
    lines = [",".join(COLUMNS)]
    lines += [",".join(_fmt(row.get(col, "")) for col in COLUMNS) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def top_eta_group(channels: ChannelSet, size: int) -> np.ndarray:
    """The ``size`` receivers with the strongest sensing paths, as a 0/1 vector."""
    if not 0 <= size <= channels.K:
        raise ValueError(f"group size {size} outside 0..{channels.K}")
    order = np.argsort(channels.geom.eta)[::-1]
    b = np.zeros(channels.K, dtype=int)
    b[order[:size]] = 1
    return b


def _sca(b, cfg, channels, consts, **kw):
    """Experiment-throughput SCA: a slightly loose tolerance, same guarantees.

    The per-op default ``tol`` 1e-6 (relative gain 1e-6, duality gap
    1e-6*P_T) stands for direct API use; sweeps run at 1e-4 (gap 1e-4*P_T)
    and trade the last two significant digits of the CRB for a ~2x speedup,
    which trial averaging cannot see.
    """
    return beamforming.sca_optimize(b, cfg, channels, consts, tol=1e-4, **kw)


def _scene(cfg: ScenarioConfig, layout: Layout, seed: int, trial: int):
    channels = build_channels(cfg, layout, seed, trial)
    return channels, metrics.fim_constants(cfg, channels.geom)


def _summary(cfg, layout, channels, consts, b, W, trace, report=None) -> dict:
    """CRB (of ``b`` unless ``report`` is given), rates, cost and objective of a row."""
    Q = metrics.grams(W)
    if report is None:
        report = metrics.crb_from_gram(b, Q.sum(axis=0), consts, channels, cfg)
    rates = metrics.rate(b, Q, channels.H_comm, cfg.sigma2)
    group = frozenset(np.flatnonzero(b).tolist())
    cost = (metrics.cooperation_cost(b, cooperation_price(layout, group, cfg.rho))
            if group else 0.0)
    return {"crb": report.crb, "rate_min": rates.min(), "rate_mean": rates.mean(),
            "cost": cost, "group_size": len(group),
            "objective": trace.iterates[-1][0]}


# ---------------------------------------------------------------------------
# experiments: row evaluators (cfg, layout, seed, trial, arg) -> payload,
# and the table that pairs each with its sweep
# ---------------------------------------------------------------------------

def _group_row(cfg, layout, seed, trial, size: int) -> dict:
    """Beamformers for the ``size`` strongest receivers (0: mono-static proxy)."""
    channels, consts = _scene(cfg, layout, seed, trial)
    if size == 0:
        # virtual sensing receiver on top of the TR (ideal SI cancellation)
        cfg_mono = replace(cfg, K=1, rician_alpha=cfg.rician_alpha[:1], beta=cfg.beta[:1])
        layout_mono = Layout(p_b=layout.p_b, p_0=layout.p_0, p=np.asarray([layout.p_b]))
        ch_mono = build_channels(cfg_mono, layout_mono, seed, trial, comm=False)
        consts_mono = metrics.fim_constants(cfg_mono, ch_mono.geom)
        weight = beamforming.build_objective_weight(np.array([1]), consts_mono,
                                                    ch_mono, cfg_mono)
        b = np.zeros(cfg.K, dtype=int)
        W, trace = _sca(b, cfg, channels, consts, objective_weight=weight)
        report = metrics.crb(np.array([1]), W, consts_mono, ch_mono, cfg_mono)
    else:
        b = top_eta_group(channels, size)
        report = None
        W, trace = _sca(b, cfg, channels, consts)
    return _summary(cfg, layout, channels, consts, b, W, trace, report)


def _group_point(cfg, value):
    """A tradeoff/pulses group size: 0 (mono-static proxy) up to K."""
    size = int(value)
    if not 0 <= size <= cfg.K:
        raise ValueError(f"group size {size} outside 0..{cfg.K}")
    return size


def _selection_point(cfg, value):
    """``method:Omega_th`` with method minimax or kmeans."""
    method, _, cap = value.partition(":")
    if method not in ("minimax", "kmeans") or not cap:
        raise ValueError("expected minimax:<Omega_th> or kmeans:<Omega_th>")
    return value, replace(cfg, Omega_th=float(cap)), method


def _selection_row(cfg, layout, seed, trial, method: str) -> dict:
    """Select receivers under uniform beamformers, then optimize for them."""
    channels, consts = _scene(cfg, layout, seed, trial)
    W_bar = beamforming.recover_beamformers(beamforming.uniform_gram(cfg), cfg.L)
    if method == "minimax":
        tree = selection.build_linkage_tree(layout.p, layout.p_0, cfg.rho)
        sel = selection.select_group(tree, W_bar, cfg, layout, channels, consts)
    else:
        sel = selection.select_group_kmeans(layout.p, W_bar, cfg, layout,
                                            channels, consts, seed=seed)
    W, trace = _sca(sel.b, cfg, channels, consts)
    return _summary(cfg, layout, channels, consts, sel.b, W, trace)


def _mf_point(cfg, p_dbm):
    # Sensing-only operating point: the filter correlates against the probe
    # stream alone, so the probe must carry the transmit power (with rate
    # constraints binding, the optimizer parks nearly all power on the
    # communication streams and the probe becomes undetectable).  The
    # Doppler raster is sized so its quantization cell, not the noise,
    # limits the search, matching how the grid would be chosen in practice.
    cfg_s = replace(cfg, P_T=dbm_to_watts(float(p_dbm)), R_th=0.0)
    return float(p_dbm), cfg_s, estimation.DelayDopplerGrid(tau_max=cfg_s.M // 8, n_f=65)


def _mf_row(cfg, layout, seed, trial, grid) -> dict:
    """Matched-filter delay/Doppler MSE of the two strongest receivers."""
    channels, consts = _scene(cfg, layout, seed, trial)
    b = top_eta_group(channels, min(2, cfg.K))
    W, trace = _sca(b, cfg, channels, consts)
    gen_t = rngmod.substream(seed, rngmod.DOMAIN_TRUTH, trial)
    taus = gen_t.integers(grid.tau_min, grid.tau_max + 1, size=cfg.K)
    freqs = gen_t.uniform(-grid.f_max, grid.f_max, size=cfg.K)
    block = estimation.synthesize_block(
        cfg, channels, W, list(zip(taus.tolist(), freqs.tolist())),
        seed=seed, trial=trial)
    return dict(_summary(cfg, layout, channels, consts, b, W, trace),
                mse=estimation.matched_filter_error(block, grid, b))


def _roundtrip_row(cfg, layout, seed, trial, _arg) -> dict:
    """Noiseless localization inversion error of the first usable receiver pair."""
    geom = geometry_summary(layout, cfg)
    pair = next(((k, kp) for k in range(cfg.K) for kp in range(k + 1, cfg.K)
                 if abs(np.cos(geom.phi[k]) - np.cos(geom.phi[kp])) > 1e-4), None)
    if pair is None:
        raise estimation.DegenerateAnglesError(
            "no receiver pair with usable bearing separation")
    k, kp = pair
    f_k = true_doppler(geom.theta, geom.phi[k], cfg.v, cfg.f0, mode="approx")
    f_kp = true_doppler(geom.theta, geom.phi[kp], cfg.v, cfg.f0, mode="approx")
    tau_k = true_delay(geom.d_b0, geom.d_0k[k])
    tau_kp = true_delay(geom.d_b0, geom.d_0k[kp])
    res = estimation.localize(layout, k, kp, f_k, f_kp, tau_k, tau_kp,
                              geom.phi[k], geom.phi[kp])
    pos_err = float(np.hypot(res.xy_hat[0] - layout.p_0[0],
                             res.xy_hat[1] - layout.p_0[1]))
    ang_err = abs(wrap_angle(res.theta_hat - geom.theta))
    return {"mse": pos_err ** 2, "objective": ang_err, "group_size": 2}


class _Experiment(NamedTuple):
    trials: int          # default trial count
    sweep: Callable      # cfg -> default sweep values
    point: Callable      # (cfg, value) -> (CSV sweep_value, row cfg, row arg);
                         # raises ValueError, TypeError or ArithmeticError on a bad value
    evaluate: Callable   # (cfg, layout, seed, trial, arg) -> row payload


_TABLE = {
    "tradeoff": _Experiment(
        50, lambda cfg: tuple(g for g in (0, 1, 2, 5) if g <= cfg.K),
        lambda cfg, v: (int(v), cfg, _group_point(cfg, v)), _group_row),
    # Sensing-limited sweeps: the rate threshold is lifted so the closed-form
    # CRB-optimal beamformer applies at every antenna count.
    "antennas_tx": _Experiment(
        20, lambda cfg: tuple(range(2, 11)),
        lambda cfg, v: (int(v), replace(cfg, N_t=int(v), L=min(cfg.L, int(v), cfg.N_r),
                                        R_th=0.0), min(2, cfg.K)), _group_row),
    "antennas_rx": _Experiment(
        20, lambda cfg: tuple(range(2, 11)),
        lambda cfg, v: (int(v), replace(cfg, N_r=int(v), L=min(cfg.L, cfg.N_t, int(v)),
                                        R_th=0.0), min(2, cfg.K)), _group_row),
    "selection_compare": _Experiment(
        20, lambda cfg: ("minimax:100", "minimax:200", "kmeans:100", "kmeans:200"),
        _selection_point, _selection_row),
    "pulses": _Experiment(
        20, lambda cfg: tuple(f"{p}:{g}" for p in ("cosine", "sinc")
                              for g in sorted({g for g in (1, 2, 3, 5, cfg.K) if g <= cfg.K})),
        lambda cfg, v: (v, replace(cfg, pulse=v.partition(":")[0]),
                        _group_point(cfg, v.partition(":")[2])),
        _group_row),
    "mf_vs_crb": _Experiment(100, lambda cfg: (10.0, 20.0, 30.0), _mf_point, _mf_row),
    "roundtrip": _Experiment(
        200, lambda cfg: ("noiseless",), lambda cfg, v: (v, cfg, None), _roundtrip_row),
}

EXPERIMENTS = tuple(_TABLE)


def _rows(spec: ExperimentSpec, cfg: ScenarioConfig) -> list[tuple]:
    """Every row as (sweep_value, trial, row cfg, row arg), in canonical order."""
    exp = _TABLE[spec.name]
    rows = []
    for value in spec.sweep:
        try:
            sval, cfg_s, arg = exp.point(cfg, value)
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ConfigError("sweep", f"experiment {spec.name!r} cannot run sweep "
                                       f"value {value!r}: {exc}") from exc
        rows += [(sval, trial, cfg_s, arg) for trial in range(spec.trials)]
    return rows


def _execute_item(spec: ExperimentSpec, layout: Layout | None, base, row, timing: bool) -> dict:
    """Run one row, on the trial's drawn placement when ``layout`` is None."""
    sval, trial, cfg, arg = row
    start = time.perf_counter()
    try:
        if layout is None:
            layout = draw_layout(cfg, base, spec.seed, trial)
        payload = _TABLE[spec.name].evaluate(cfg, layout, spec.seed, trial, arg)
    except Exception as exc:  # noqa: BLE001 - row-level fault isolation
        payload = {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = (time.perf_counter() - start) * 1000.0
    return {"sweep_value": sval, "trial": trial,
            "wall_time_ms": elapsed if timing else 0.0, **payload}


def run_experiment(spec: ExperimentSpec, cfg: ScenarioConfig,
                   layout: Layout | None = None,
                   base=None, timing: bool = False, jobs: int = 1) -> list[dict]:
    """Run one experiment; returns the CSV rows in canonical order.

    ``layout=None`` redraws receiver placements per trial from the seed's
    layout substream (the reference setup); a concrete Layout pins them.
    Row-level failures land in the ``error`` column instead of aborting
    the sweep; a sweep value the experiment cannot run raises ConfigError
    before any row runs.  ``jobs > 1`` forks workers over rows; substream-keyed
    randomness makes the result identical to the sequential run.  BLAS runs
    on one thread throughout, in the workers too, whatever the caller's
    setting, which is restored on return.
    """
    if base is None:  # read only when placements are drawn per trial
        base = _parse_raw({})[2]
    rows = _rows(spec, cfg)
    with beamforming._one_blas_thread():
        if jobs <= 1 or len(rows) < 2:
            return [_execute_item(spec, layout, base, row, timing) for row in rows]
        return _run_parallel(spec, layout, base, rows, timing, jobs)


def _run_parallel(spec, layout, base, rows, timing: bool, jobs: int) -> list[dict]:
    """Fork workers over rows; rows come back in canonical order.

    Forked workers inherit the caller's one BLAS thread (see ``run_experiment``).
    A worker that dies hard (a signal, the OOM killer) breaks the pool: every
    row not finished by then becomes an error row instead of a hang.
    """
    import multiprocessing as mp
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    out = []
    with ProcessPoolExecutor(jobs, mp_context=mp.get_context("fork")) as pool:
        futures = [pool.submit(_execute_item, spec, layout, base, row, timing)
                   for row in rows]
        for (sval, trial, _, _), future in zip(rows, futures):
            try:
                out.append(future.result())
            except BrokenExecutor:
                out.append({"sweep_value": sval, "trial": trial, "wall_time_ms": 0.0,
                            "error": "worker died before finishing this row"})
    return out
