"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each target function in every ``isacsim`` module
namespace that holds it (``from .channel import build_channels`` binds a second
name) with a wrapper that records a span: name, start, end, parent span and
row id.  Nothing under ``src/`` is edited.  Spans stay in memory until
``write_spans``.  Row ids come from a marker around the harness's per-row
executor, which is not itself a span, so its time counts as
``harness.run_experiment`` self time.

``QualityProbe`` patches the same way but wraps only the SCA entry point, to
score the beamformers it returns; end-to-end runs use it on their first chunks.
"""

from __future__ import annotations

import sys
import time

import numpy as np

TARGETS = {
    "harness": ("load_config", "run_experiment", "rows_to_csv"),
    "scenario": ("geometry_summary",),
    "channel": ("build_channels",),
    "metrics": ("pulse_integrals", "fim_constants", "rate", "crb"),
    "selection": ("build_linkage_tree", "select_group", "select_group_kmeans"),
    "beamforming": ("sca_optimize", "inner_convex_solve", "feasibility_init",
                    "sca_linearize", "recover_beamformers"),
    "estimation": ("synthesize_block", "matched_filter", "localize"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# modules whose exception classes get an `<module>.errors` count
ERROR_MODULES = ("scenario", "metrics", "selection", "beamforming", "estimation")

_NAME, _START, _END, _PARENT, _ROW, _CHILD = range(6)


def patch_package(wrappers: dict) -> list:
    """Point every ``isacsim`` module name bound to a key of ``wrappers`` at its value.

    Returns the (module, attribute, original) triples that ``unpatch`` restores.
    """
    by_id = {id(orig): (orig, wrapper) for orig, wrapper in wrappers.items()}
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "isacsim" or name.startswith("isacsim.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def unpatch(patched: list) -> None:
    for module, attr, value in reversed(patched):
        setattr(module, attr, value)


def _matched_filter_flops(args, kwargs) -> int:
    """8 flops per complex multiply-add of the (n_tau N_r L, M) x (M, n_f) product."""
    block = args[0] if args else kwargs["block"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    n_r, m = block.y.shape[1:]
    return 8 * grid.taus().size * n_r * block.s0.shape[0] * m * grid.n_f


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, row, child_time]
        self._stack: list[int] = []
        self.row = -1
        self._rows_started = 0
        self.sca_results: list[tuple[int, int, str, int]] = []  # span, iterations, reason, row
        self.kkt_residual_max = 0.0
        self.linkage_evals = 0
        self.mf_flops = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.row, 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]
            if on_return is not None:
                on_return(sid, args, kwargs, result)
            return result

        return wrapper

    def _row_marker(self, fn):
        def execute_item(*args, **kwargs):
            self.row = self._rows_started
            self._rows_started += 1
            return fn(*args, **kwargs)
        return execute_item

    def _on_sca(self, sid, args, kwargs, result):
        trace = result[1]
        self.sca_results.append((sid, len(trace.iterations), trace.reason, self.row))

    def _on_inner(self, sid, args, kwargs, result):
        self.kkt_residual_max = max(self.kkt_residual_max,
                                    float(result[1].get("kkt_residual", 0.0)))

    def _on_tree(self, sid, args, kwargs, result):
        self.linkage_evals += result.n_linkage_evals

    def _on_mf(self, sid, args, kwargs, result):
        self.mf_flops += _matched_filter_flops(args, kwargs)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        hooks = {"beamforming.sca_optimize": self._on_sca,
                 "beamforming.inner_convex_solve": self._on_inner,
                 "selection.build_linkage_tree": self._on_tree,
                 "estimation.matched_filter": self._on_mf}
        wrappers = {}
        for mod, fns in TARGETS.items():
            module = sys.modules[f"isacsim.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(module, fn)
                wrappers[orig] = self._wrap(name, orig, hooks.get(name))
        orig = sys.modules["isacsim.harness"]._execute_item
        wrappers[orig] = self._row_marker(orig)
        self._patched = patch_package(wrappers)

    def uninstall(self) -> None:
        unpatch(self._patched)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-function calls/self_s/share, the residual and derived counts."""
        out: dict[str, float] = {}
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        inner_per_sca: dict[int, int] = {}
        for rec in self.spans:
            name = rec[_NAME]
            calls[name] += 1
            self_s[name] += rec[_END] - rec[_START] - rec[_CHILD]
            if name == "beamforming.inner_convex_solve" and rec[_PARENT] >= 0:
                inner_per_sca[rec[_PARENT]] = inner_per_sca.get(rec[_PARENT], 0) + 1
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.share"] = self_s[name] / wall_s
        other = wall_s - sum(self_s.values())
        out["other.self_s"] = other
        out["other.share"] = other / wall_s

        inner_total = calls["beamforming.inner_convex_solve"]
        n_sca = len(self.sca_results)
        wasted = sum(max(inner_per_sca.get(sid, 0) - iters, 0)
                     for sid, iters, _, _ in self.sca_results if inner_per_sca.get(sid))
        out["beamforming.sca_iters_per_row"] = inner_total / n_sca if n_sca else 0.0
        out["beamforming.inner_solves_wasted_frac"] = wasted / inner_total if inner_total else 0.0
        out["beamforming.max_iters_rows"] = len(
            {row for _, _, reason, row in self.sca_results if reason == "max-iters"})
        out["beamforming.kkt_residual_max"] = self.kkt_residual_max
        out["selection.linkage_evals"] = self.linkage_evals
        mf_self = self_s["estimation.matched_filter"]
        out["estimation.matched_filter.gflop_s"] = (
            self.mf_flops / mf_self / 1e9 if mf_self > 0 else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,name,start_s,end_s,parent,row\n")
            for sid, rec in enumerate(self.spans):
                fh.write(f"{sid},{rec[_NAME]},{rec[_START]:.9f},{rec[_END]:.9f},"
                         f"{rec[_PARENT]},{rec[_ROW]}\n")


def error_counts(rows) -> dict[str, int]:
    """Error rows per module that defines the exception class in the row."""
    counts = {f"{mod}.errors": 0 for mod in ERROR_MODULES}
    counts["other.errors"] = 0
    for row in rows:
        err = row.get("error")
        if not err:
            continue
        cls_name = err.split(":", 1)[0].strip()
        key = "other.errors"
        for mod in ERROR_MODULES:
            cls = getattr(sys.modules[f"isacsim.{mod}"], cls_name, None)
            if isinstance(cls, type) and cls.__module__ == f"isacsim.{mod}":
                key = f"{mod}.errors"
                break
        counts[key] += 1
    return counts


class QualityProbe:
    """How far each SCA result's CRB sits above the sensing-only optimum.

    Wraps ``beamforming.sca_optimize`` alone.  For each call it records
    ``P_T * lambda_max(F) / Tr(F sum_i W_i W_i^H)``, with F the objective
    weight of the call: by the CRB identity (the objective is the reciprocal of
    the CRB bound) this is the factor by which the returned beamformers' bound
    exceeds the bound of all power on the best sensing beam for the same
    receivers.  It is 1 for the closed form (R_th = 0) and grows when the rate
    constraints bind or the solver stops short.  Path loss cancels in the
    ratio, so it varies far less across scenes than the CRB itself.
    """

    def __init__(self) -> None:
        self.excess: list[float] = []
        self._patched: list = []

    def install(self) -> None:
        beamforming = sys.modules["isacsim.beamforming"]
        metrics = sys.modules["isacsim.metrics"]
        orig = beamforming.sca_optimize

        def sca_optimize(b, cfg, channels, consts, *args, **kwargs):
            W, trace = orig(b, cfg, channels, consts, *args, **kwargs)
            weight = kwargs.get("objective_weight")
            if weight is None:
                weight = beamforming.build_objective_weight(b, consts, channels, cfg)
            best = cfg.P_T * float(np.linalg.eigvalsh(weight)[-1])
            got = float(np.trace(weight @ metrics.total_gram(W.W)).real)
            self.excess.append(best / got)
            return W, trace

        self._patched = patch_package({orig: sca_optimize})

    def uninstall(self) -> None:
        unpatch(self._patched)
        self._patched = []
