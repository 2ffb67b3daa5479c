"""Receiver selection: minimax-linkage clustering over RE positions.

Exhaustive search over the 2^K subsets is the optimal reference but scales
hopelessly; the heuristic builds an agglomerative tree whose merge criterion
is the joint minimax-and-target radius

    r(P) = (1 - rho) * min_{p in P} max_{p' in P} d(p, p')  +  rho * min_{p in P} d(p, p_0)

and screens the 2K-1 tree nodes (K singletons + K-1 merged groups) against
the rate and cost constraints, returning the feasible candidate with the
smallest CRB.  Ties on equal linkage break lexicographically by the sorted
member indices, so trees are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import metrics
from .channel import ChannelSet
from .metrics import FimConstants, SingularFimError
from .scenario import Layout, ScenarioConfig, cooperation_price


class NoFeasibleGroupError(RuntimeError):
    """No candidate group satisfies the rate and cost constraints."""


@dataclass(frozen=True)
class LinkageTree:
    """Candidate groups produced by the agglomerative merge sequence."""

    groups: tuple[frozenset, ...]                       # 2K-1 sets, singletons first
    merge_records: tuple[tuple[frozenset, frozenset, float], ...]
    n_linkage_evals: int

    @property
    def K(self) -> int:
        return (len(self.groups) + 1) // 2


def minimax_radius(points: np.ndarray, target: np.ndarray, rho: float) -> float:
    """Joint minimax-and-target radius r(P) of a nonempty point set."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("minimax radius of an empty set is undefined")
    return _LinkageEvaluator(pts, target, rho).radius(tuple(range(len(pts))))


class _LinkageEvaluator:
    """Shared distance tables plus an evaluation counter for the O(K^3) test."""

    def __init__(self, points: np.ndarray, target: np.ndarray, rho: float) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        self.t = np.linalg.norm(pts - np.asarray(target, float)[None, :], axis=1)
        self.rho = rho
        self.count = 0

    def radius(self, idx: tuple[int, ...]) -> float:
        self.count += 1
        sub = self.d[np.ix_(idx, idx)]
        r_min = float(sub.max(axis=1).min())
        return (1.0 - self.rho) * r_min + self.rho * float(self.t[list(idx)].min())

    def linkage(self, a: frozenset, b: frozenset) -> float:
        return self.radius(tuple(sorted(a | b)))


def build_linkage_tree(points: np.ndarray, target: np.ndarray, rho: float) -> LinkageTree:
    """Agglomerate K receivers into a minimax-linkage tree.

    Every merge takes the globally smallest linkage r(P1 | P2) among active
    pairs.  Produces exactly K-1 merges and 2K-1 candidate groups.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    K = pts.shape[0]
    if K < 1:
        raise ValueError("need at least one receiver")
    ev = _LinkageEvaluator(pts, target, rho)
    groups: list[frozenset] = [frozenset([k]) for k in range(K)]
    merges: list[tuple[frozenset, frozenset, float]] = []
    active: list[frozenset] = list(groups)
    link: dict[tuple[frozenset, frozenset], float] = {}
    for a, b in combinations(active, 2):
        link[(a, b)] = ev.linkage(a, b)
    while len(active) > 1:
        best = min(link.items(),
                   key=lambda kv: (kv[1], tuple(sorted(kv[0][0] | kv[0][1]))))
        (ga, gb), value = best
        merged = ga | gb
        merges.append((ga, gb, value))
        groups.append(merged)
        active = [g for g in active if g is not ga and g is not gb]
        link = {pair: v for pair, v in link.items()
                if ga not in pair and gb not in pair}
        for other in active:
            link[(other, merged)] = ev.linkage(other, merged)
        active.append(merged)
    return LinkageTree(groups=tuple(groups), merge_records=tuple(merges),
                       n_linkage_evals=ev.count)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of candidate screening."""

    b: np.ndarray          # (K,) 0/1
    group: frozenset
    crb: float
    cost: float
    rate_min: float


def group_to_b(group, K: int) -> np.ndarray:
    b = np.zeros(K, dtype=int)
    b[sorted(group)] = 1
    return b


def _screen_candidates(candidates, W_bar, cfg: ScenarioConfig, layout: Layout,
                       channels: ChannelSet, consts: FimConstants) -> SelectionResult:
    """Pick the feasible candidate group with the smallest CRB.

    Rates under a fixed W_bar depend on b only through the receiver's own
    bit (selected receivers cancel the probe stream), so the two per-receiver
    values are precomputed once.
    """
    K = cfg.K
    Q = metrics.grams(W_bar)
    rate_sel = metrics.rate(np.ones(K), Q, channels.H_comm, cfg.sigma2)
    rate_unsel = metrics.rate(np.zeros(K), Q, channels.H_comm, cfg.sigma2)
    gram = metrics.total_gram(W_bar)
    best: SelectionResult | None = None
    for group in candidates:
        b = group_to_b(group, K)
        rates = np.where(b == 1, rate_sel, rate_unsel)
        if np.any(rates < cfg.R_th):
            continue
        prices = cooperation_price(layout, group, cfg.rho)
        cost = metrics.cooperation_cost(b, prices)
        if cost > cfg.Omega_th:
            continue
        try:
            report = metrics.crb_from_gram(b, gram, consts, channels, cfg)
        except SingularFimError:
            continue
        if best is None or report.crb < best.crb:
            best = SelectionResult(b=b, group=frozenset(group), crb=report.crb,
                                   cost=cost, rate_min=float(rates.min()))
    if best is None:
        raise NoFeasibleGroupError(
            "no candidate group satisfies the rate and cost constraints")
    return best


def select_group(tree: LinkageTree, W_bar, cfg: ScenarioConfig, layout: Layout,
                 channels: ChannelSet, consts: FimConstants) -> SelectionResult:
    """Screen the linkage-tree candidates under fixed beamformers."""
    return _screen_candidates(tree.groups, W_bar, cfg, layout, channels, consts)


def exhaustive_select(cfg: ScenarioConfig, layout: Layout, channels: ChannelSet,
                      W_bar, consts: FimConstants) -> SelectionResult:
    """Optimal selection by enumerating all nonempty subsets (test oracle, K <= 12)."""
    K = cfg.K
    if K > 12:
        raise ValueError("exhaustive search is limited to K <= 12")
    candidates = []
    for size in range(1, K + 1):
        candidates.extend(frozenset(c) for c in combinations(range(K), size))
    return _screen_candidates(candidates, W_bar, cfg, layout, channels, consts)


def kmeans_candidates(points: np.ndarray, seed: int) -> list[frozenset]:
    """Candidate groups from Lloyd's clustering, one list entry per cluster.

    Baseline for the selection-comparison experiment: for every cluster count
    j = 1..K, run up to 50 Lloyd's iterations from a seeded start and emit
    each nonempty cluster as a candidate group.  Deduplicated, deterministic.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    K = pts.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    seen: set[frozenset] = set()
    out: list[frozenset] = []
    for j in range(1, K + 1):
        centers = pts[rng.choice(K, size=j, replace=False)].copy()
        assign = np.zeros(K, dtype=int)
        for _ in range(50):
            d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=-1)
            new_assign = d.argmin(axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(j):
                mask = assign == c
                if mask.any():
                    centers[c] = pts[mask].mean(axis=0)
        for c in range(j):
            group = frozenset(np.flatnonzero(assign == c).tolist())
            if group and group not in seen:
                seen.add(group)
                out.append(group)
    return out


def select_group_kmeans(points: np.ndarray, W_bar, cfg: ScenarioConfig,
                        layout: Layout, channels: ChannelSet,
                        consts: FimConstants, seed: int) -> SelectionResult:
    """Lloyd's-clustering counterpart of select_group (comparison baseline)."""
    return _screen_candidates(kmeans_candidates(points, seed), W_bar, cfg,
                              layout, channels, consts)
