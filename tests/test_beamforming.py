import itertools
import math

import numpy as np
import pytest

from isacsim import beamforming as bf, metrics
from isacsim.beamforming import (InfeasibleStartError, feasibility_init,
                                 inner_convex_solve, recover_beamformers,
                                 sca_linearize, sca_optimize, uniform_gram)

from conftest import anchored_solver, make_scene


def random_gram(rng, n_blocks, n, power):
    """Random strictly PSD Gram stack with the given total power."""
    A = rng.standard_normal((n_blocks, n, n)) + 1j * rng.standard_normal((n_blocks, n, n))
    Q = np.einsum("kij,klj->kil", A, A.conj())
    Q *= power / np.einsum("kii->", Q).real
    return Q


class TestLinearize:
    def test_exact_at_anchor(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=1)
        rng = np.random.default_rng(0)
        Q = random_gram(rng, 4, 2, cfg.P_T)
        b = np.array([1, 0, 1])
        rates = metrics.rate(b, Q, channels.H_comm, cfg.sigma2)
        surrogate = sca_linearize(b, Q, channels.H_comm, cfg.sigma2, cfg.R_th)
        np.testing.assert_allclose(surrogate.slack(Q), rates - cfg.R_th, rtol=0, atol=1e-9)

    def test_inner_bound(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=2)
        rng = np.random.default_rng(1)
        Q_bar = random_gram(rng, 4, 2, cfg.P_T)
        b = np.array([1, 1, 0])
        surrogate = sca_linearize(b, Q_bar, channels.H_comm, cfg.sigma2, cfg.R_th)
        for trial in range(20):
            Q = random_gram(rng, 4, 2, cfg.P_T * rng.uniform(0.2, 1.0))
            rates = metrics.rate(b, Q, channels.H_comm, cfg.sigma2)
            assert np.all(surrogate.slack(Q) + cfg.R_th <= rates + 1e-9)

    def test_scalar_single_user_is_exact(self):
        cfg, layout, channels, consts = make_scene(K=1, seed=3, N_t=1, N_r=1, L=1)
        rng = np.random.default_rng(2)
        Q_bar = random_gram(rng, 2, 1, cfg.P_T)
        surrogate = sca_linearize(np.array([1]), Q_bar, channels.H_comm, cfg.sigma2, cfg.R_th)
        q = 0.37
        Q = np.zeros((2, 1, 1), dtype=complex)
        Q[1, 0, 0] = q
        h2 = abs(channels.H_comm[0][0, 0]) ** 2
        assert surrogate.slack(Q)[0] == pytest.approx(
            math.log2(1 + h2 * q / cfg.sigma2) - cfg.R_th, abs=1e-12)


class TestInnerSolve:
    def test_zero_power(self):
        # a power budget that is not positive has no strictly feasible point
        cfg, layout, channels, consts = make_scene(K=2, seed=4)
        anchor = uniform_gram(cfg)
        surrogate = sca_linearize(np.ones(2), anchor, channels.H_comm, cfg.sigma2, cfg.R_th)
        for P_T in (0.0, -1.0):
            with pytest.raises(ValueError, match="power budget"):
                anchored_solver(np.eye(2), surrogate, P_T)

    def test_scalar_grid_oracle(self):
        # K = 1, scalar channels, one exact rate constraint: the solution
        # must match a dense grid search over (q_probe, q_user)
        cfg, layout, channels, consts = make_scene(K=1, seed=5, N_t=1, N_r=1, L=1,
                                                   R_th=2.0)
        h2 = abs(channels.H_comm[0][0, 0]) ** 2
        weight = bf.build_objective_weight(np.array([1]), consts, channels, cfg)
        anchor = uniform_gram(cfg)
        surrogate = sca_linearize(np.array([1]), anchor, channels.H_comm, cfg.sigma2, cfg.R_th)
        Q, info = inner_convex_solve(anchored_solver(weight, surrogate, cfg.P_T), anchor,
                                     1e-6 * cfg.P_T)
        # brute force: rate needs q_user >= q_min; objective is total power
        q_min = (2.0 ** cfg.R_th - 1.0) * cfg.sigma2 / h2
        best = -np.inf
        w00 = weight[0, 0].real
        for q_user in np.linspace(q_min, cfg.P_T, 20001):
            val = w00 * cfg.P_T  # all remaining power goes to the probe
            best = max(best, val)
        assert info["objective"] == pytest.approx(best, rel=1e-4)
        assert metrics.rate(np.array([1]), Q, channels.H_comm,
                            cfg.sigma2)[0] >= cfg.R_th - 1e-8

    def test_infeasible_start_raises(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=6, R_th=5.0)
        weight = bf.build_objective_weight(np.array([1, 1]), consts, channels, cfg)
        anchor = uniform_gram(cfg)
        surrogate = sca_linearize(np.ones(2), anchor, channels.H_comm, cfg.sigma2, 50.0)
        with pytest.raises(InfeasibleStartError):
            inner_convex_solve(anchored_solver(weight, surrogate, cfg.P_T), anchor,
                               1e-6 * cfg.P_T)

    def test_kkt_certificate(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=7)
        weight = bf.build_objective_weight(np.array([1, 1, 1]), consts, channels, cfg)
        anchor = feasibility_init(np.array([1, 1, 1]), cfg, channels)
        surrogate = sca_linearize(np.ones(3), anchor, channels.H_comm, cfg.sigma2, cfg.R_th)
        Q, info = inner_convex_solve(anchored_solver(weight, surrogate, cfg.P_T), anchor,
                                     1e-6 * cfg.P_T)
        assert info["kkt_residual"] < 1e-5
        assert np.all(surrogate.slack(Q) > 0)
        assert np.trace(Q.sum(axis=0)).real <= cfg.P_T + 1e-8


class TestRecovery:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        Q = np.outer(w, w.conj())[None, :, :]
        W = recover_beamformers(Q, L=2).W
        np.testing.assert_allclose(W[0] @ W[0].conj().T, Q[0], atol=1e-10)

    def test_identity_full_rank(self):
        Q = np.eye(2, dtype=complex)[None, :, :]
        W = recover_beamformers(Q, L=2).W
        np.testing.assert_allclose(W[0] @ W[0].conj().T, np.eye(2), atol=1e-12)

    def test_truncation(self):
        Q = np.diag([3.0, 1.0]).astype(complex)[None, :, :]
        W = recover_beamformers(Q, L=1).W
        np.testing.assert_allclose(W[0] @ W[0].conj().T, np.diag([3.0, 0.0]),
                                   atol=1e-12)

    def test_hermitian_inputs_need_no_symmetrization(self):
        """The stacks the package hands in are exactly Hermitian: the
        barrier solver's unpack, uniform_gram, and an SCA row's last
        iterate.  On each the beamformers' bytes equal those of the
        symmetrized stack, which recover_beamformers no longer forms."""
        rng = np.random.default_rng(8)
        cfg, _, channels, consts = make_scene(K=3, seed=5, N_t=4, L=2, R_th=0.25)
        b = np.array([1, 1, 0])
        solver = bf._BarrierSolver(np.eye(4), b, channels.H_comm, cfg.sigma2, cfg.P_T)
        _, trace = sca_optimize(b, cfg, channels, consts)
        stacks = [solver.unpack(rng.standard_normal(solver.dim)) for _ in range(5)]
        stacks += [uniform_gram(cfg), trace.iterates[-1][1]]
        for Q in stacks:
            symmetrized = 0.5 * (Q + np.conj(np.transpose(Q, (0, 2, 1))))
            assert Q.tobytes() == symmetrized.tobytes()
            for L in (1, 2, 4):
                assert (recover_beamformers(Q, L).W.tobytes()
                        == recover_beamformers(symmetrized, L).W.tobytes())

    def test_stack_matches_one_block_at_a_time(self):
        # the stacked eigendecomposition against eigh of each Hermitian block
        rng = np.random.default_rng(3)
        Q = random_gram(rng, 4, 3, 2.0)
        Q[2] = np.diag([1.0, 0.0, 2.0])  # a zero eigenvalue
        W = recover_beamformers(Q, L=2).W
        for Qi, Wi in zip(Q, W):
            w, V = np.linalg.eigh(0.5 * (Qi + Qi.conj().T))
            order = np.argsort(w)[::-1][:2]
            np.testing.assert_array_equal(Wi, V[:, order] * np.sqrt(np.clip(w[order], 0, None)))


class TestFeasibilityInit:
    def test_zero_threshold_uniform(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=8, R_th=0.0)
        Q = feasibility_init(np.array([1, 0, 0]), cfg, channels)
        expected = cfg.P_T / (4 * 2) * (1 - 1e-9)
        np.testing.assert_allclose(Q[0], expected * np.eye(2), atol=1e-15)

    def test_huge_threshold_infeasible(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=9, R_th=1e3, P_T=1e-3)
        with pytest.raises(InfeasibleStartError):
            feasibility_init(np.array([1, 1]), cfg, channels)

    def test_moderate_threshold_feasible(self):
        cfg, layout, channels, consts = make_scene(K=4, seed=10, R_th=0.25)
        b = np.array([1, 1, 0, 0])
        Q = feasibility_init(b, cfg, channels)
        assert metrics.rate(b, Q, channels.H_comm, cfg.sigma2).min() >= cfg.R_th
        # every Gram block is PSD up to rounding relative to its trace
        for Qi in Q:
            assert np.linalg.eigvalsh(Qi).min() >= -1e-9 * max(np.trace(Qi).real, 1e-300)


class TestScaOptimize:
    def test_zero_threshold_top_eigendirection(self):
        # without rate constraints all power goes on the weight's top
        # eigenvector v: the probe Gram is P_T v v^H and every other block is 0
        cfg, layout, channels, consts = make_scene(K=2, seed=4, R_th=0.0)
        b = np.array([1, 1])
        W, trace = sca_optimize(b, cfg, channels, consts)
        weight = bf.build_objective_weight(b, consts, channels, cfg)
        w, V = np.linalg.eigh(weight)
        Q = metrics.grams(W)
        np.testing.assert_allclose(Q[0], cfg.P_T * np.outer(V[:, -1], V[:, -1].conj()),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(Q[1:], 0.0)
        assert trace.iterations[0][0] == pytest.approx(cfg.P_T * w[-1], rel=1e-12)

    def test_zero_threshold_single_iteration(self):
        cfg, layout, channels, consts = make_scene(K=3, seed=11, R_th=0.0)
        W, trace = sca_optimize(np.array([1, 1, 0]), cfg, channels, consts)
        assert len(trace.iterations) == 1
        assert trace.converged
        assert W.power() == pytest.approx(cfg.P_T, rel=1e-9)
        weight = bf.build_objective_weight(np.array([1, 1, 0]), consts, channels, cfg)
        top = np.linalg.eigvalsh(weight)[-1]
        assert trace.iterations[0][0] == pytest.approx(cfg.P_T * top, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_feasible(self, seed):
        cfg, layout, channels, consts = make_scene(K=4, seed=20 + seed, R_th=0.25)
        b = np.array([1, 1, 0, 0])
        W, trace = sca_optimize(b, cfg, channels, consts, tol=1e-5)
        objs = [it[0] for it in trace.iterations]
        assert all(b2 >= b1 - 1e-9 * abs(b1) for b1, b2 in zip(objs, objs[1:]))
        assert all(it[2] <= 1e-8 for it in trace.iterations)
        assert W.power() <= cfg.P_T * (1 + 1e-6)
        rates = metrics.rate(b, metrics.grams(W), channels.H_comm, cfg.sigma2)
        assert rates.min() >= cfg.R_th - 1e-6

    def test_final_crb_not_worse_than_initial(self):
        cfg, layout, channels, consts = make_scene(K=4, seed=30, R_th=0.25)
        b = np.array([1, 0, 1, 0])
        init = feasibility_init(b, cfg, channels)
        crb0 = metrics.crb_from_gram(b, init.sum(axis=0), consts, channels, cfg).crb
        W, trace = sca_optimize(b, cfg, channels, consts, init=init)
        crb1 = metrics.crb(b, W, consts, channels, cfg).crb
        assert crb1 <= crb0
        assert trace.iterations[-1][1] == pytest.approx(crb1, rel=1e-6)

    def test_rescale_restores_the_rates(self):
        # L = 1 < N_t: eigen-truncation breaks receiver 2's rate and one
        # interferer rescale restores it
        cfg, layout, channels, consts = make_scene(K=3, seed=4, N_t=3, N_r=2, L=1, R_th=0.5)
        b = np.array([1, 1, 0])
        W, trace = sca_optimize(b, cfg, channels, consts, tol=1e-4)
        assert any(note.startswith("rescaled interferers") for note in trace.notes)
        rates = metrics.rate(b, metrics.grams(W), channels.H_comm, cfg.sigma2)
        assert rates.min() >= cfg.R_th - 1e-6
        objs = [it[0] for it in trace.iterations]
        assert all(b2 >= b1 for b1, b2 in zip(objs, objs[1:]))

    @pytest.mark.parametrize("K,seed,N_t", [(3, 3, 4), (4, 2, 3)])
    def test_rescale_that_cannot_restore_a_rate_raises(self, K, seed, N_t):
        # the bisection scales other receivers' own streams away with the
        # interferers; the beamformers it leaves break the rate constraint
        cfg, layout, channels, consts = make_scene(K=K, seed=seed, N_t=N_t, N_r=2, L=1,
                                                   R_th=1.0)
        b = np.array([1, 1] + [0] * (K - 2))
        with pytest.raises(bf.SolverError, match="below R_th"):
            sca_optimize(b, cfg, channels, consts)

    def test_needs_selection_without_weight(self):
        cfg, layout, channels, consts = make_scene(K=2, seed=0)
        with pytest.raises(ValueError):
            sca_optimize(np.zeros(2, dtype=int), cfg, channels, consts)


def scalar_crb_of_split(q, b, cfg, channels, consts):
    Q = np.array([[[q_i]] for q_i in q], dtype=complex)
    return metrics.crb_from_gram(b, Q.sum(axis=0), consts, channels, cfg).crb


def scalar_feasible(q, b, cfg, channels):
    return metrics.rate(b, np.array([[[qi]] for qi in q], dtype=complex),
                        channels.H_comm, cfg.sigma2).min() >= cfg.R_th


class TestScalarOracle:
    # with one spatial dimension two users cannot both clear 1 bit/s/Hz
    # (mutual-interference contradiction), so K = 2 instances use a
    # threshold inside the max-min region
    @pytest.mark.parametrize("K,seed,r_th", [(1, 40, 1.0), (2, 41, 0.4), (2, 42, 0.4)])
    def test_matches_grid_search(self, K, seed, r_th):
        cfg, layout, channels, consts = make_scene(K=K, seed=seed, N_t=1, N_r=1,
                                                   L=1, R_th=r_th)
        b = np.zeros(K, dtype=int)
        b[0] = 1
        W, trace = sca_optimize(b, cfg, channels, consts)
        crb_sca = metrics.crb(b, W, consts, channels, cfg).crb
        # brute force over the power simplex
        grid = np.linspace(0, cfg.P_T, 81 if K == 1 else 41)
        best = np.inf
        for q in itertools.product(grid, repeat=K + 1):
            if sum(q) > cfg.P_T or sum(q) == 0:
                continue
            if not scalar_feasible(q, b, cfg, channels):
                continue
            best = min(best, scalar_crb_of_split(q, b, cfg, channels, consts))
        assert best < np.inf, "grid found no feasible split"
        assert crb_sca <= best * (1 + 1e-3)
