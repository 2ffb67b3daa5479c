import numpy as np
import pytest

from isacsim import selection
from isacsim.selection import (NoFeasibleGroupError, build_linkage_tree,
                               exhaustive_select, kmeans_candidates,
                               minimax_radius, select_group)
from isacsim.beamforming import recover_beamformers, uniform_gram
from conftest import make_cfg, make_scene

FAR = np.array([1e6, 1e6])


def uniform_w(cfg):
    return recover_beamformers(uniform_gram(cfg), cfg.L)


class TestMinimaxRadius:
    def test_singleton(self):
        assert minimax_radius(np.array([[3.0, 4.0]]), FAR, rho=0.0) == 0.0

    def test_pair(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert minimax_radius(pts, FAR, rho=0.0) == pytest.approx(2.0)

    def test_pair_with_target(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert minimax_radius(pts, np.array([2.0, 0.0]), rho=0.5) == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            minimax_radius(np.zeros((0, 2)), FAR, rho=0.0)


class TestLinkageTree:
    def test_first_merge_by_proximity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        tree = build_linkage_tree(pts, FAR, rho=0.0)
        ga, gb, value = tree.merge_records[0]
        assert ga | gb == {0, 1}
        assert value == pytest.approx(1.0)

    def test_first_merge_by_target(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        tree = build_linkage_tree(pts, np.array([5.0, 0.0]), rho=1.0)
        ga, gb, value = tree.merge_records[0]
        # rho = 1 scores a group purely by its closest member; the singleton
        # merge containing receiver 2 at the target wins with linkage 0
        assert 2 in (ga | gb)
        assert value == pytest.approx(0.0)

    def test_single_receiver(self):
        tree = build_linkage_tree(np.array([[1.0, 2.0]]), FAR, rho=0.5)
        assert tree.groups == (frozenset([0]),)
        assert tree.merge_records == ()

    def test_shape(self):
        rng = np.random.default_rng(0)
        K = 7
        tree = build_linkage_tree(rng.uniform(-50, 50, (K, 2)), FAR, rho=0.5)
        assert len(tree.groups) == 2 * K - 1
        assert len(tree.merge_records) == K - 1
        assert tree.groups[-1] == frozenset(range(K))
        for k in range(K):
            assert tree.groups[k] == frozenset([k])

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-50, 50, (6, 2))
        t1 = build_linkage_tree(pts, np.array([10.0, 10.0]), rho=0.5)
        t2 = build_linkage_tree(pts, np.array([10.0, 10.0]), rho=0.5)
        assert t1.groups == t2.groups
        assert t1.merge_records == t2.merge_records

    def test_tie_break_lexicographic(self):
        # four corners of a square: all nearest-pair linkages tie at 1
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = build_linkage_tree(pts, FAR, rho=0.0)
        ga, gb, _ = tree.merge_records[0]
        assert tuple(sorted(ga | gb)) == (0, 1)

    def test_linkage_eval_budget(self):
        for K in (2, 5, 9):
            rng = np.random.default_rng(K)
            tree = build_linkage_tree(rng.uniform(-50, 50, (K, 2)), FAR, rho=0.5)
            assert tree.n_linkage_evals <= K ** 3


class TestSelectGroup:
    def test_infeasible_cost(self):
        cfg, layout, channels, consts = make_scene(K=4, seed=1, R_th=0.0, Omega_th=1e-6)
        tree = build_linkage_tree(layout.p, layout.p_0, cfg.rho)
        with pytest.raises(NoFeasibleGroupError):
            select_group(tree, uniform_w(cfg), cfg, layout, channels, consts)

    def test_unconstrained_takes_everyone(self):
        cfg, layout, channels, consts = make_scene(K=5, seed=2, R_th=0.0, Omega_th=np.inf)
        tree = build_linkage_tree(layout.p, layout.p_0, cfg.rho)
        res = select_group(tree, uniform_w(cfg), cfg, layout, channels, consts)
        assert res.group == frozenset(range(5))

    def test_never_worse_than_best_singleton(self):
        for seed in range(6):
            cfg, layout, channels, consts = make_scene(K=6, seed=seed, R_th=0.1,
                                                       Omega_th=120.0)
            tree = build_linkage_tree(layout.p, layout.p_0, cfg.rho)
            W = uniform_w(cfg)
            try:
                res = select_group(tree, W, cfg, layout, channels, consts)
            except NoFeasibleGroupError:
                continue
            singles = []
            for k in range(6):
                try:
                    singles.append(selection._screen_candidates(
                        [frozenset([k])], W, cfg, layout, channels, consts).crb)
                except NoFeasibleGroupError:
                    pass
            if singles:
                assert res.crb <= min(singles) + 1e-18


class TestExhaustive:
    def test_single_receiver_agrees(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=3, R_th=0.0,
                                                   Omega_th=np.inf)
        tree = build_linkage_tree(layout.p, layout.p_0, cfg.rho)
        W = uniform_w(cfg)
        heur = select_group(tree, W, cfg, layout, channels, consts)
        best = exhaustive_select(cfg, layout, channels, W, consts)
        assert heur.group == best.group
        assert heur.crb == pytest.approx(best.crb)

    def test_oracle_never_loses(self):
        gaps = []
        for seed in range(8):
            cfg, layout, channels, consts = make_scene(K=6, seed=seed + 10,
                                                       R_th=0.1, Omega_th=150.0)
            tree = build_linkage_tree(layout.p, layout.p_0, cfg.rho)
            W = uniform_w(cfg)
            try:
                heur = select_group(tree, W, cfg, layout, channels, consts)
                best = exhaustive_select(cfg, layout, channels, W, consts)
            except NoFeasibleGroupError:
                continue
            assert best.crb <= heur.crb + 1e-18
            gaps.append(heur.crb / best.crb)
        assert gaps, "every instance was infeasible; broaden the setup"
        print(f"heuristic/exhaustive CRB ratio over {len(gaps)} instances: "
              f"max {max(gaps):.3f} mean {np.mean(gaps):.3f}")

    def test_k_limit(self):
        cfg, layout, channels, consts = make_scene(K=4, seed=0)
        cfg13 = make_cfg(K=13)
        with pytest.raises(ValueError):
            exhaustive_select(cfg13, layout, channels, uniform_w(cfg), consts)


class TestKmeansBaseline:
    def test_candidates_cover_all_sizes(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-50, 50, (6, 2))
        cands = kmeans_candidates(pts, seed=0)
        assert frozenset(range(6)) in cands
        assert all(len(c) >= 1 for c in cands)
        assert len(set(cands)) == len(cands)

    def test_selection_runs(self):
        cfg, layout, channels, consts = make_scene(K=5, seed=6, R_th=0.0,
                                                   Omega_th=np.inf)
        res = selection.select_group_kmeans(layout.p, uniform_w(cfg), cfg,
                                            layout, channels, consts, seed=1)
        assert res.b.sum() >= 1
