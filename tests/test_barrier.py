"""The log-barrier solver's derivatives and kernels, and the SCA rows they drive."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings, strategies as st

from isacsim import beamforming as bf, harness, metrics
from isacsim.beamforming import (_BarrierSolver, feasibility_init, inner_convex_solve,
                                 sca_linearize, uniform_gram)

from conftest import anchored_solver, make_scene


def solver_at(n, epigraph):
    """A solver with K = 3, b = [1, 1, 0] (both involvement groups), N_r = 2,
    its variable vector at half the uniform Grams, and its surrogate."""
    cfg, _, channels, consts = make_scene(K=3, seed=2, N_t=n, L=min(n, 2), R_th=0.0)
    b = np.array([1, 1, 0])
    anchor = uniform_gram(cfg)
    surrogate = sca_linearize(b, anchor, channels.H_comm, cfg.sigma2, cfg.R_th)
    weight = bf.build_objective_weight(b, consts, channels, cfg)
    solver = anchored_solver(None if epigraph else weight, surrogate, cfg.P_T)
    Q = 0.5 * anchor
    s = surrogate.slack(Q).min() - 1.0
    return solver, solver.pack(Q, s=s), surrogate


def rel_err(approx, exact):
    return np.max(np.abs(approx - exact)) / np.max(np.abs(exact))


@pytest.mark.parametrize("epigraph", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_grad_hess_matches_central_differences(n, epigraph):
    solver, z, _ = solver_at(n, epigraph)
    t = 10.0
    assert len(solver.group_rows) == 2
    grad, curv = solver.grad_hess(z, t)
    hess = solver.hessian(curv)
    # the Hessian lives in the solver's workspace, which the calls below overwrite
    assert np.shares_memory(hess, solver.workspace)
    hess = hess.copy()
    step = 1e-6 * np.max(np.abs(z))
    fd_grad = np.empty(solver.dim)
    fd_hess = np.empty((solver.dim, solver.dim))
    for i in range(solver.dim):
        e = np.zeros(solver.dim)
        e[i] = step
        fd_grad[i] = (solver.barrier(z + e, t) - solver.barrier(z - e, t)) / (2 * step)
        fd_hess[:, i] = (solver.grad_hess(z + e, t)[0]
                         - solver.grad_hess(z - e, t)[0]) / (2 * step)
    assert rel_err(fd_grad, grad) <= 1e-6
    # the solver maximizes: grad_hess returns the negated Hessian
    assert rel_err(fd_hess, -hess) <= 1e-6


def random_hermitian(rng, m, n):
    A = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return A + np.conj(np.transpose(A, (0, 2, 1)))


# einsum definitions the kernels must reproduce
def vec_many_ref(Qs, basis):
    return np.einsum("aij,mji->ma", basis, Qs).real


def unpack_ref(coords, basis):
    return np.einsum("kb,bij->kij", coords, basis)


def psd_cores_ref(Xs, basis):
    P = np.einsum("mij,ajk->maik", Xs, basis)
    return np.einsum("maij,mbji->mab", P, P).real


def grad_hess_ref(solver, surrogate, z, t):
    """grad_hess term by term from the einsum definitions, with none of the
    solver's evaluation: Q from the basis, S from the covariance builder, the
    slacks from the surrogate, Q_i^-1 and M_k = H_k^H S_k^-1 H_k from
    explicit inverses, and every row's constraint gradient and log-det
    curvature added on its own."""
    basis, bd = solver.basis, solver.bd
    Q = unpack_ref(z[:solver.qdim].reshape(solver.n_blocks, bd), basis)
    s = z[-1] if solver.epigraph else 0.0
    power_slack = solver.P_T - np.trace(Q, axis1=1, axis2=2).sum().real
    h = surrogate.slack(Q) - s
    blocks = [slice(i * bd, (i + 1) * bd) for i in range(solver.n_blocks)]
    Qinv = np.linalg.inv(Q)
    H = surrogate.H
    S = metrics.receiver_covariance(H, bf._rate_masks(surrogate.b)[1], Q, surrogate.sigma2)
    M = np.einsum("mri,mrc,mcj->mij", H.conj(), np.linalg.inv(S), H)
    grad = t * solver.c + solver.gP / power_slack
    grad[:solver.qdim] += vec_many_ref(Qinv, basis).ravel()
    hess = np.outer(solver.gP, solver.gP) / power_slack ** 2
    for sl, core in zip(blocks, psd_cores_ref(Qinv, basis)):
        hess[sl, sl] += core
    vec_M = vec_many_ref(M, basis) / metrics.LN2
    cores_M = psd_cores_ref(M, basis) / metrics.LN2
    for k in range(solver.m):
        involved = [blocks[i] for i in np.flatnonzero(solver.mask[k])]
        g = -solver.lin[k]
        for sl in involved:
            g[sl] += vec_M[k]
        if solver.epigraph:
            g[-1] -= 1.0
        grad += g / h[k]
        hess += np.outer(g, g) / h[k] ** 2
        for row in involved:
            for col in involved:
                hess[row, col] += cores_M[k] / h[k]
    return grad, hess


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_kernels_match_einsum_definitions(monkeypatch, n):
    rng = np.random.default_rng(n)
    basis = bf._hermitian_basis(n)
    Xs = random_hermitian(rng, 5, n)
    general = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    for Qs in (Xs, general):
        np.testing.assert_allclose(bf._vec_many(Qs, basis), vec_many_ref(Qs, basis),
                                   rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bf._psd_cores(Xs, basis), psd_cores_ref(Xs, basis),
                               rtol=1e-12, atol=1e-12)
    solver = solver_at(n, False)[0]
    z = rng.standard_normal(solver.dim)
    np.testing.assert_allclose(solver.unpack(z),
                               unpack_ref(z.reshape(solver.n_blocks, n * n), basis),
                               rtol=1e-12, atol=1e-12)
    # grad_hess's one stacked _vec_many/_psd_cores call on [Q^-1; M], and on
    # [Q^-1; M; Q] where the solver eliminates, and its group sums against
    # every row's terms added one by one, with N_r = 2 above, equal to and
    # below n
    for epigraph in (False, True):
        solver, z, surrogate = solver_at(n, epigraph)
        grad, curv = solver.grad_hess(z, 10.0)
        hess = solver.hessian(curv)
        grad_ref, hess_ref = grad_hess_ref(solver, surrogate, z, 10.0)
        assert rel_err(grad, grad_ref) <= 1e-10
        assert rel_err(hess, hess_ref) <= 1e-10
        assert solver.eliminate == (n >= 4 and not epigraph)
        if not solver.eliminate:
            assert curv.q_cores is None
            continue
        Q = unpack_ref(z.reshape(solver.n_blocks, n * n), basis)
        assert rel_err(curv.q_cores, psd_cores_ref(Q, basis)) <= 1e-12
        # the dense fallback's Hessian is the one a solver that does not
        # eliminate assembles, to the bit
        hess = hess.copy()
        with monkeypatch.context() as patch:  # a cut-over past every N_t
            patch.setattr(bf, "ELIMINATE_FROM_NT", math.inf)
            dense = solver_at(n, epigraph)[0]
        dense_grad, dense_curv = dense.grad_hess(z, 10.0)
        assert dense_curv.q_cores is None
        assert_same_bits(dense_grad, grad)
        assert_same_bits(dense.hessian(dense_curv), hess)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unpack_is_exactly_hermitian(n):
    """unpack's Gram stack equals its Hermitian part to the bit, so no caller
    symmetrizes it: 2, 4 and 11 blocks, z over ten decades of scale."""
    rng = np.random.default_rng(n)
    for n_blocks in (2, 4, 11):
        H = rng.standard_normal((n_blocks - 1, 2, n)) + 0j
        solver = _BarrierSolver(np.eye(n), np.ones(n_blocks - 1), H, 1.0, 1.0)
        for _ in range(200):
            z = rng.standard_normal(solver.dim) * 10.0 ** rng.uniform(-5, 5, solver.dim)
            Q = solver.unpack(z)
            assert_same_bits(Q, 0.5 * (Q + np.conj(np.transpose(Q, (0, 2, 1)))))


def random_solver(rng, n, n_r, epigraph, offset=-50.0, b=(1, 1, 0)):
    """A solver on a random K = 3 surrogate, b = [1, 1, 0] by default, noise
    0.7, every offset ``offset`` (far below the slacks by default), and a
    random strictly feasible point at half the power budget: (solver,
    surrogate, Grams, point)."""
    K = 3
    H = rng.standard_normal((K, n_r, n)) + 1j * rng.standard_normal((K, n_r, n))
    G = rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n))
    T = np.einsum("kij,klj->kil", G, G.conj()) / (10 * n)
    surrogate = bf.RateSurrogate(b=np.array(b), H=H, T=T, offset=np.full(K, offset),
                                 sigma2=0.7)
    A = rng.standard_normal((K + 1, n, n)) + 1j * rng.standard_normal((K + 1, n, n))
    Q = np.einsum("kij,klj->kil", A, A.conj()) / n + 0.1 * np.eye(n)
    P_T = 2.0 * np.trace(Q, axis1=1, axis2=2).sum().real
    solver = anchored_solver(None if epigraph else np.eye(n), surrogate, P_T)
    return solver, surrogate, Q, solver.pack(Q, s=-1.0)


@pytest.mark.parametrize("epigraph", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluation_matches_the_covariance_builder(n, epigraph):
    """The solver's affine maps against their definitions, with N_r above,
    equal to and below N_t: S(z) against metrics.receiver_covariance at
    random z, and at random feasible points the power slack against
    P_T - sum_i Tr Q_i and the rate slacks against the surrogate's."""
    rng = np.random.default_rng(10 * n + epigraph)
    for n_r in {max(n - 1, 1), n, n + 1}:
        solver, surrogate, _, _ = random_solver(rng, n, n_r, epigraph)
        nb, r = solver.n_blocks, max(n, n_r)
        mask = bf._rate_masks(surrogate.b)[1]
        for _ in range(5):
            z = rng.standard_normal(solver.dim)
            Q = unpack_ref(z[:solver.qdim].reshape(nb, n * n), solver.basis)
            stack = solver._stack(z)
            assert stack.shape == (nb + solver.m, r, r)
            S = metrics.receiver_covariance(surrogate.H, mask, Q, surrogate.sigma2)
            assert rel_err(stack[nb:, :n_r, :n_r], S) <= 1e-13
            assert rel_err(stack[:nb, :n, :n], Q) <= 1e-13
            # the padding is an identity
            padded = stack.copy()
            padded[:nb, :n, :n] = np.eye(n)
            padded[nb:, :n_r, :n_r] = np.eye(n_r)
            np.testing.assert_array_equal(padded, np.broadcast_to(np.eye(r), padded.shape))
        for _ in range(5):
            solver, surrogate, Q, z = random_solver(rng, n, n_r, epigraph)
            power_slack, h, chol, _ = solver._terms(z)
            power = solver.P_T - np.trace(Q, axis1=1, axis2=2).sum().real
            assert power_slack == pytest.approx(power, rel=1e-13, abs=0)
            s = -1.0 if epigraph else 0.0
            assert rel_err(h, surrogate.slack(Q) - s) <= 1e-13
            np.testing.assert_allclose(chol[:nb, :n, :n], np.linalg.cholesky(Q),
                                       rtol=1e-13, atol=1e-13 * np.abs(Q).max())


@pytest.mark.parametrize("epigraph", [False, True])
def test_evaluation_outside_the_domain_is_none(epigraph):
    """_terms returns None for a Q block that is not positive definite, a
    power slack <= 0, and a rate slack under its relative floor
    1e-14 (1 + |offset|); each case breaks one condition and meets the others."""
    rng = np.random.default_rng(5)
    n, n_r = 2, 2
    solver, surrogate, Q, z = random_solver(rng, n, n_r, epigraph)
    assert solver._terms(z) is not None
    # one block with a small negative eigenvalue: the power and S stay fine
    bad = Q.copy()
    bad[2] = np.diag([-1e-6, 0.5])
    z_bad = solver.pack(bad, s=-1.0)
    assert solver.P_T + solver.gP @ z_bad > 0
    assert np.all(np.linalg.eigvalsh(solver._stack(z_bad)[solver.n_blocks:]) > 0)
    assert solver._terms(z_bad) is None
    # power slack exactly 0, then negative
    power = -(solver.gP @ z)
    for P_T in (power, 0.5 * power):
        at_budget = anchored_solver(None if epigraph else np.eye(n), surrogate, P_T)
        assert at_budget._terms(z) is None
    # rate slack: offsets moved so row 1's slack is half, then twice, its floor
    h = solver._terms(z)[1]
    for factor, feasible in ((0.5, False), (2.0, True)):
        offset = surrogate.offset.copy()
        floor = 1e-14 * (1.0 + np.abs(offset[1] + h[1]))
        offset[1] += h[1] - factor * floor
        shifted = bf.RateSurrogate(b=surrogate.b, H=surrogate.H, T=surrogate.T,
                                   offset=offset, sigma2=surrogate.sigma2)
        tight = anchored_solver(None if epigraph else np.eye(n), shifted, solver.P_T)
        assert (tight._terms(z) is not None) == feasible


def line_search_sizes(solver, z, step, ev, gcon):
    """Every size of center's line search, each with whether _trial_sizes keeps it."""
    kept = set(solver._trial_sizes(ev, gcon, step))
    sizes = []
    size = 1.0
    while size > 1e-14:
        sizes.append((size, size in kept))
        size *= 0.5
    return sizes


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4]), epigraph=st.booleans(), final=st.booleans(),
       offset=st.floats(-50.0, 0.0), reach=st.integers(0, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_line_search_skips_only_sizes_outside_the_domain(n, epigraph, final, offset, reach,
                                                         seed):
    """_terms rejects every size the line search's tangent bound skips: random
    solver states at N_t = 2 and 4, both modes, at the cold weight
    max(1, 1/P_T) and the final weight nu/gap (gap 1e-6 P_T), along the
    Newton step scaled by 2^reach."""
    rng = np.random.default_rng(seed)
    solver, _, _, z = random_solver(rng, n, 2, epigraph, offset=offset)
    ev = solver._terms(z)
    assume(ev is not None)
    t = solver.nu / (1e-6 * solver.P_T) if final else max(1.0, 1.0 / solver.P_T)
    grad, curv = solver.grad_hess(z, t, ev)
    step = 2.0 ** reach * solver.newton_step(grad, curv)
    for size, kept in line_search_sizes(solver, z, step, ev, curv.gcon):
        assert kept or solver._terms(z + size * step) is None


@pytest.mark.parametrize("epigraph", [False, True])
def test_line_search_skips_sizes_past_either_tangent(epigraph):
    """The bound skips on each kind of tangent.  Along 4 z from half the power
    budget the power tangent P_T/2 - 2 a P_T crosses -1e-9 P_T past a = 1/4,
    so sizes 1 and 1/2 are skipped.  Along a direction that keeps the trace
    and drops row 0's slack h_0 at rate 2 h_0, the power tangent is flat and
    size 1 is skipped."""
    rng = np.random.default_rng(6)
    solver, _, _, z = random_solver(rng, 4, 2, epigraph)
    ev = solver._terms(z)
    gcon = solver.grad_hess(z, 1.0, ev)[1].gcon
    assert [kept for _, kept in line_search_sizes(solver, z, 4.0 * z, ev, gcon)[:3]] == [
        False, False, True]
    down = -gcon[0] + (solver.gP @ gcon[0]) / (solver.gP @ solver.gP) * solver.gP
    down *= 2.0 * ev[1][0] / -(gcon[0] @ down)
    assert solver.gP @ down == pytest.approx(0.0, abs=1e-12 * np.abs(down).max())
    sizes = line_search_sizes(solver, z, down, ev, gcon)
    assert sizes[0] == (1.0, False)
    for size, kept in sizes:
        assert kept or solver._terms(z + size * down) is None


@pytest.mark.parametrize("b, groups", [((1, 1, 0), 2), ((1, 1, 1), 1)])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_eliminated_step_equals_the_dense_solve(monkeypatch, n, b, groups):
    """The block-eliminated Newton step against np.linalg.solve of the dense
    negated Hessian on random solver states, with both involvement groups
    and with one, at the cold weight max(1, 1/P_T) and at the final weight
    nu/gap, gap 1e-6 P_T: the step within 1e-11 and its decrement
    grad @ step within 1e-12, relative (measured: 9.1e-14 and 3.5e-14).
    At N_t = 3 the cut-over is moved down so the solver eliminates."""
    monkeypatch.setattr(bf, "ELIMINATE_FROM_NT", 3)
    rng = np.random.default_rng(n)
    for _ in range(3):
        solver, _, _, z = random_solver(rng, n, 2, False, b=b)
        assert solver.eliminate and len(solver.group_rows) == groups
        for t in (max(1.0, 1.0 / solver.P_T), solver.nu / (1e-6 * solver.P_T)):
            grad, curv = solver.grad_hess(z, t)
            dense = np.linalg.solve(solver.hessian(curv), grad)
            step = solver._eliminated_step(grad, curv)
            assert rel_err(step, dense) <= 1e-11
            assert grad @ step == pytest.approx(grad @ dense, rel=1e-12, abs=0)


def test_eliminated_steps_along_an_sca_row_keep_the_dense_decrement(monkeypatch):
    """Near the boundary Woodbury's subtraction loses the step's stiff
    components, and the decrement test sends such steps to the dense path.
    Along an N_t = 4 SCA row at P_T = 1 (many of its steps fall back) every
    eliminated step that is kept has a positive decrement within 1e-4,
    relative, of the dense Cholesky solve's (measured: 2.5e-5; where they
    differed most, a 40-digit solve of the same matrix put the eliminated
    decrement 6.4e-6 off and the dense one 3.2e-5)."""
    cfg, _, channels, consts = make_scene(K=3, seed=2, N_t=4, L=2, R_th=1.0)
    kept, dropped = [], [0]
    eliminated_step = _BarrierSolver._eliminated_step

    def checked(self, grad, curv):
        step = eliminated_step(self, grad, curv)
        if step is None:
            dropped[0] += 1
            return None
        dense = sla.cho_solve(sla.cho_factor(self.hessian(curv) + self.ridge), grad)
        kept.append((grad @ step, grad @ dense))
        return step

    monkeypatch.setattr(_BarrierSolver, "_eliminated_step", checked)
    bf.sca_optimize(np.array([1, 1, 0]), cfg, channels, consts)
    assert len(kept) > 100 and dropped[0] > 100
    for decrement, dense in kept:
        assert decrement > 0
        assert decrement == pytest.approx(dense, rel=1e-4, abs=0)


def newton_paths(solver):
    """The Newton systems the solver's record counts: (eliminated, dense, LU)."""
    return solver.work.eliminated, solver.work.dense, solver.work.lu


def test_newton_paths_are_counted(monkeypatch):
    """The solver's record counts the eliminated, dense and regularized-LU
    systems.  A failed dgesv and a non-finite step each fall back to the
    dense path (bit for bit the dense solver's step), and a failed dgesv
    with a failed Cholesky to center's regularized LU."""
    rng = np.random.default_rng(4)
    solver, surrogate, _, z = random_solver(rng, 4, 2, False)
    monkeypatch.setattr(bf, "ELIMINATE_FROM_NT", math.inf)
    dense_solver = anchored_solver(solver.weight, surrogate, solver.P_T)
    grad, curv = solver.grad_hess(z, 10.0)
    solver.newton_step(grad, curv)
    assert solver.eliminate and newton_paths(solver) == (1, 0, 0)
    expected = dense_solver.newton_step(grad, curv)
    assert not dense_solver.eliminate and newton_paths(dense_solver) == (0, 1, 0)
    # a singular capacitance system: dgesv reports info > 0
    singular = (bf.sla.lapack, "dgesv", lambda a, b, **_: (a, None, b, 1))
    monkeypatch.setattr(*singular)
    assert_same_bits(solver.newton_step(grad, curv), expected)
    assert newton_paths(solver) == (1, 1, 0)
    monkeypatch.undo()
    # a non-finite step: the dense path's step is non-finite too
    poisoned = grad.copy()
    poisoned[3] = np.nan
    assert np.isnan(solver.newton_step(poisoned, curv)).any()
    assert newton_paths(solver) == (1, 2, 0)
    # a failed elimination and a failed Cholesky: center takes the regularized LU step
    monkeypatch.setattr(*singular)
    monkeypatch.setattr(bf.sla.lapack, "dpotrf", lambda a, **_: (a, 1))
    solver.center(z, 10.0, max_newton=1)
    assert newton_paths(solver) == (1, 2, 1)


def certificate_scene():
    """The scene of test_beamforming's KKT certificate test: K = 3, all selected."""
    cfg, _, channels, consts = make_scene(K=3, seed=7)
    b = np.array([1, 1, 1])
    weight = bf.build_objective_weight(b, consts, channels, cfg)
    anchor = feasibility_init(b, cfg, channels)
    surrogate = sca_linearize(b, anchor, channels.H_comm, cfg.sigma2, cfg.R_th)
    return weight, surrogate, cfg.P_T, anchor


@pytest.mark.parametrize("max_newton", [200, 1])
def test_certificate_is_the_decrement_at_the_returned_point(monkeypatch, max_newton):
    weight, surrogate, P_T, anchor = certificate_scene()
    calls = []
    center = _BarrierSolver.center

    def recording(self, z, t, tol=1e-9, **_):
        out = center(self, z, t, tol, max_newton=max_newton)
        calls.append((self, t, out))
        return out

    monkeypatch.setattr(_BarrierSolver, "center", recording)
    _, info = inner_convex_solve(anchored_solver(weight, surrogate, P_T), anchor, 1e-6 * P_T)
    solver, t, (z, decrement) = calls[-1]
    # a full solve stops on the decrement test; one Newton step leaves it unmet
    assert (decrement is None) == (max_newton == 1)
    # the same solve of hess + 1e-12 I as center's: at the one-step point its
    # condition number is about 2e15, where an LU solve differs by 6e-4
    grad, curv = solver.grad_hess(z, t)
    fresh = abs(grad @ solver.newton_step(grad, curv))
    assert info["kkt_residual"] == pytest.approx(fresh, rel=1e-6, abs=0)


def test_certificate_of_a_singular_newton_system(monkeypatch):
    """A final stage that stops short at a point whose Newton system is
    singular reports an infinite residual instead of raising; the point is
    the cold start theta Q_start, theta = n_q P_T / ((n_q + 1) sum_i Tr Q_i)."""
    weight, surrogate, P_T, anchor = certificate_scene()

    def singular(self, curv):
        return -1e-12 * np.eye(self.dim)  # + 1e-12 I is exactly zero

    monkeypatch.setattr(_BarrierSolver, "hessian", singular)
    monkeypatch.setattr(_BarrierSolver, "center", lambda self, z, t, *a, **k: (z, None))
    grams, info = inner_convex_solve(anchored_solver(weight, surrogate, P_T), anchor,
                                     1e-6 * P_T)
    assert info["kkt_residual"] == np.inf
    n_q = anchor.shape[0] * anchor.shape[1]
    theta = n_q * P_T / ((n_q + 1) * np.trace(anchor, axis1=1, axis2=2).sum().real)
    np.testing.assert_allclose(grams, theta * anchor, rtol=0, atol=1e-15 * P_T)


@pytest.mark.parametrize("tightened", [False, True])
def test_cold_solve_starts_on_the_analytic_center_ray(monkeypatch, tightened):
    """A cold solve starts at theta Q_start, the maximizer of the PSD and
    power barriers on the ray through Q_start, or at Q_start itself when a
    tightened surrogate makes theta Q_start infeasible; either way it ends
    on the final stage of the ladder from Q_start."""
    weight, surrogate, P_T, anchor = certificate_scene()
    n_q = anchor.shape[0] * anchor.shape[1]
    theta = n_q * P_T / ((n_q + 1) * np.trace(anchor, axis1=1, axis2=2).sum().real)
    if tightened:
        # one row's slack stays positive at the anchor and turns negative at theta Q
        drop = surrogate.slack(anchor) - surrogate.slack(theta * anchor)
        k = int(np.argmax(drop))
        assert drop[k] > 0
        offset = surrogate.offset.copy()
        offset[k] += surrogate.slack(anchor)[k] - 0.5 * drop[k]
        surrogate = dataclasses.replace(surrogate, offset=offset)
    gap = 1e-6 * P_T
    ladder = cold_solve(weight, surrogate, P_T, anchor, gap, t0=max(1.0, 1.0 / P_T))
    starts = count_calls(monkeypatch, _BarrierSolver, "solve", lambda self, z0, *a, **k: z0)
    solver = anchored_solver(weight, surrogate, P_T)
    _, info = inner_convex_solve(solver, anchor, gap)
    expected = anchor if tightened else theta * anchor
    np.testing.assert_allclose(solver.unpack(starts[0]), expected, rtol=0, atol=1e-15 * P_T)
    assert_same_final_stage(weight, ladder, info)


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (3, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_newton_system_keeps_the_start(monkeypatch, entry, value):
    """A non-finite Hessian entry (and its mirror) ends centering at once on
    the point it started from, with no decrement: the Cholesky factor's
    diagonal shows it, and center returns before the regularized fallback."""
    solver, z, _ = solver_at(2, False)
    hessian = _BarrierSolver.hessian

    def poisoned(self, curv):
        hess = hessian(self, curv)
        hess[entry] = hess[entry[::-1]] = value
        return hess

    monkeypatch.setattr(_BarrierSolver, "hessian", poisoned)
    end, decrement = solver.center(z.copy(), 10.0)
    assert decrement is None
    np.testing.assert_array_equal(end, z)


def test_small_decrement_takes_the_full_step_whatever_the_value_reads(monkeypatch):
    """At a decrement of at most PURE_NEWTON_DECREMENT center takes the full
    Newton step when it is strictly feasible, even when the barrier change
    it reads (rounded coarser than the gain there) says the step loses:
    Newton then certifies within a few steps."""
    solver, z, _ = solver_at(2, False)
    t = 1e4
    z, decrement = solver.center(z, t)
    assert decrement is not None
    # move off the center to a decrement of about 1e-7
    hess = solver.hessian(solver.grad_hess(z, t)[1])
    v = np.random.default_rng(0).standard_normal(solver.dim)
    start = z + np.sqrt(1e-7 / (v @ hess @ v)) * v
    value = _BarrierSolver._value

    def losing(self, z, t, ev, ref=None):
        return value(self, z, t, ev) if ref is None else -1.0

    monkeypatch.setattr(_BarrierSolver, "_value", losing)
    end, decrement = solver.center(start, t)
    assert decrement is not None and decrement <= 2e-9
    assert 1 < solver.work.centers[-1][2] <= 4  # Newton steps
    # above the bound the test still decides: every step is rejected
    monkeypatch.setattr(bf, "PURE_NEWTON_DECREMENT", 1e-8)
    end, decrement = solver.center(start, t)
    assert decrement is None
    np.testing.assert_array_equal(end, start)


def surrogate_pair(iterations):
    """The certificate scene's SCA surrogate after ``iterations`` solves, and its anchor."""
    weight, surrogate, P_T, anchor = certificate_scene()
    cfg, _, channels, _ = make_scene(K=3, seed=7)
    for _ in range(iterations):
        anchor, _ = inner_convex_solve(anchored_solver(weight, surrogate, P_T), anchor,
                                       1e-6 * P_T)
        surrogate = sca_linearize(np.ones(3), anchor, channels.H_comm, cfg.sigma2, cfg.R_th)
    return weight, surrogate, P_T, anchor, 1e-6 * P_T


def cold_solve(weight, surrogate, P_T, anchor, gap, t0=None):
    """The full ladder from the anchor at t0, by default a warm solve's
    nu/gap/30^2: (Hermitian Grams, gap bound, t0)."""
    solver = anchored_solver(weight, surrogate, P_T)
    if t0 is None:
        t0 = solver.nu / gap / 30.0 ** 2
    z, t, _ = solver.solve(solver.pack(anchor), gap_tol=gap, t0=t0)
    Q = solver.unpack(z)
    return 0.5 * (Q + np.conj(np.transpose(Q, (0, 2, 1)))), solver.nu / t * solver.scale, t0


def warm_and_cold(iterations):
    """The cold ladder's (Grams, gap bound, t0), the warm solve's (Grams, info),
    and the warm solve's centering calls as (t / t0, decrement, Newton steps)."""
    weight, surrogate, P_T, anchor, gap = surrogate_pair(iterations)
    cold = cold_solve(weight, surrogate, P_T, anchor, gap)
    solver = anchored_solver(weight, surrogate, P_T)
    warm = inner_convex_solve(solver, anchor, gap, warm=True)
    return weight, cold, warm, [(t / cold[2], d, used) for t, _, used, d in solver.work.centers]


def assert_same_final_stage(weight, cold, warm):
    """Same final weight as the cold ladder, the same center up to the
    centering tolerance, and a certified decrement."""
    cold_Q, cold_gap, _ = cold
    assert warm["gap_bound"] == cold_gap
    cold_objective = np.trace(weight @ cold_Q.sum(axis=0)).real
    assert 1.0 / warm["objective"] == pytest.approx(1.0 / cold_objective, rel=1e-8, abs=0)
    assert warm["kkt_residual"] <= 2e-9


def test_warm_solve_skips_the_first_weight_and_keeps_the_final_one():
    # after five SCA steps the anchor is nearly central at the final weight
    # t0 30^2: one centering call there certifies, well within the cap
    weight, cold, (_, warm), calls = warm_and_cold(5)
    assert len(calls) == 1
    t, decrement, steps = calls[0]
    assert t == 900.0 and decrement is not None and steps < bf.WARM_FINAL_NEWTON
    assert_same_final_stage(weight, cold, warm)


def test_warm_solve_drops_the_final_weight_for_the_rung_below():
    # four SCA steps in, the first decrement at the final weight is past
    # WARM_FINAL_DECREMENT: the attempt stops there, and the rung below
    # restarts from the anchor and certifies
    weight, cold, (_, warm), calls = warm_and_cold(4)
    assert [(t, d is None) for t, d, _ in calls] == [(900.0, True), (30.0, False),
                                                     (900.0, False)]
    assert calls[0][2] == 1
    assert_same_final_stage(weight, cold, warm)


def test_warm_solve_falls_back_when_the_cap_cuts_the_final_weight(monkeypatch):
    # the five-step anchor passes the final weight's decrement guard; a cap
    # below the steps it needs cuts the attempt, and the rung below takes over
    monkeypatch.setattr(bf, "WARM_FINAL_NEWTON", 3)
    weight, cold, (_, warm), calls = warm_and_cold(5)
    assert [(t, d is None, n) for t, d, n in calls[:1]] == [(900.0, True, 3)]
    assert [(t, d is None) for t, d, _ in calls[1:]] == [(30.0, False), (900.0, False)]
    assert_same_final_stage(weight, cold, warm)


def test_warm_solve_falls_back_to_the_full_path():
    # one SCA step in, the anchor is far from the next surrogate's path: both
    # warm starts are abandoned at their first Newton decrement, and the full
    # ladder from the anchor gives the cold solve's Grams to the bit
    _, (cold_Q, cold_gap, _), (warm_grams, warm), calls = warm_and_cold(1)
    assert [(t, d is None, n) for t, d, n in calls[:2]] == [(900.0, True, 1), (30.0, True, 1)]
    assert [t for t, _, _ in calls[2:]] == [1.0, 30.0, 900.0]
    np.testing.assert_array_equal(warm_grams, cold_Q)
    assert warm["gap_bound"] == cold_gap


@pytest.mark.parametrize("feasible", [True, False])
def test_warm_solve_centers_the_rung_below_from_the_remembered_center(monkeypatch, feasible):
    # four SCA steps in the final-weight start is dropped (test above); the
    # rung below then starts from the rung center the solver keeps from the
    # previous solve, or from the anchor when that point is not strictly
    # feasible, and the center it finds there becomes the solver's rung
    weight, surrogate, P_T, anchor, gap = surrogate_pair(4)
    _, prev_surrogate, _, prev_anchor, _ = surrogate_pair(3)
    solver = anchored_solver(weight, prev_surrogate, P_T)
    inner_convex_solve(solver, prev_anchor, gap)
    solver.reanchor(surrogate)
    if not feasible:
        solver.rung = 2.0 * solver.rung
    rung = solver.rung
    assert (solver._terms(rung) is not None) == feasible
    cold = cold_solve(weight, surrogate, P_T, anchor, gap)
    before = len(solver.work.centers)
    starts = count_calls(monkeypatch, _BarrierSolver, "center", lambda self, z, *a, **k: z)
    _, warm = inner_convex_solve(solver, anchor, gap, warm=True)
    calls = solver.work.centers[before:]
    assert [(t / cold[2], d is None) for t, _, _, d in calls] == [(900.0, True), (30.0, False),
                                                                  (900.0, False)]
    assert_same_bits(starts[1], rung if feasible else solver.pack(anchor))
    assert_same_bits(solver.rung, starts[2])
    assert_same_final_stage(weight, cold, warm)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("epigraph", [False, True])
def test_reanchored_solver_equals_a_fresh_one(epigraph):
    """A solver built on one SCA surrogate and re-anchored to the next holds,
    bit for bit, every table a solver built on the next one holds."""
    weight, first, P_T, _, _ = surrogate_pair(0)
    _, second, _, _, _ = surrogate_pair(1)
    if epigraph:
        weight = None
    reused = anchored_solver(weight, first, P_T)
    fresh = anchored_solver(weight, second, P_T)
    assert reused.lin.tobytes() != fresh.lin.tobytes()
    reused.reanchor(second)
    # lin, gcon_fixed, offsets and h_floor, and the tables that do not depend
    # on the surrogate; workspace is uninitialized scratch, and neither
    # solver has a Newton step in its record
    assert vars(reused).keys() == vars(fresh).keys()
    for name, value in vars(fresh).items():
        if name == "work":
            assert reused.work == value == bf.SolverWork()
        elif name != "workspace":
            assert_same_bits(getattr(reused, name), value)


@pytest.mark.parametrize("warm", [False, True])
def test_solve_on_a_reanchored_solver_equals_a_fresh_solve(warm):
    """inner_convex_solve with the row's solver, after it solved the previous
    surrogate, returns the Grams and info, and keeps the rung, of a solve
    that builds its own and is given the reused solver's rung."""
    weight, first, P_T, first_anchor, gap = surrogate_pair(4)
    _, second, _, anchor, _ = surrogate_pair(5)
    reused = anchored_solver(weight, first, P_T)
    inner_convex_solve(reused, first_anchor, gap)
    reused.reanchor(second)
    fresh = anchored_solver(weight, second, P_T)
    fresh.rung = reused.rung
    Q, info = inner_convex_solve(reused, anchor, gap, warm=warm)
    Q_fresh, info_fresh = inner_convex_solve(fresh, anchor, gap, warm=warm)
    assert_same_bits(Q, Q_fresh)
    assert info == info_fresh
    assert_same_bits(reused.rung, fresh.rung)


def count_calls(monkeypatch, owner, name, record=None):
    """Wrap ``owner.name``; return the list its calls append to (``record``
    maps the call's arguments to the entry, by default None)."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(record(*args, **kwargs) if record else None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def built_solvers(monkeypatch):
    """The list every barrier solver built from here on is appended to, in
    order; each solver's ``work`` records what it did."""
    return count_calls(monkeypatch, _BarrierSolver, "__init__", lambda self, *a, **k: self)


def newton_work(solvers):
    """The solvers' Newton steps (grad_hess calls) and their centering calls,
    each (t, max_newton, Newton steps, decrement), from their records."""
    return (sum(solver.work.grad_hess for solver in solvers),
            [call for solver in solvers for call in solver.work.centers])


def test_record_equals_a_wrapper_count(monkeypatch):
    """The records of an SCA row's solvers, phase 1's included, against the
    tree's only counting wrappers of grad_hess, _terms and center: the same
    calls of each, and the same (t, max_newton, Newton steps, decrement) per
    centering call."""
    cfg, _, channels, consts = make_scene(K=4, seed=3, R_th=0.9999)
    solvers = built_solvers(monkeypatch)
    steps = count_calls(monkeypatch, _BarrierSolver, "grad_hess")
    terms = count_calls(monkeypatch, _BarrierSolver, "_terms")
    calls, center = [], _BarrierSolver.center

    def recording(self, z, t, tol=1e-9, max_newton=200, **kwargs):
        before = len(steps)
        out = center(self, z, t, tol, max_newton, **kwargs)
        calls.append((t, max_newton, len(steps) - before, out[1]))
        return out

    monkeypatch.setattr(_BarrierSolver, "center", recording)
    bf.sca_optimize(np.array([1, 1, 0, 0]), cfg, channels, consts)
    assert [solver.epigraph for solver in solvers] == [True, False] and len(calls) > 10
    assert (len(steps), calls) == newton_work(solvers)
    assert len(terms) == sum(solver.work.terms for solver in solvers)


def test_sca_row_builds_one_solver_and_computes_rates_when_read(monkeypatch):
    cfg, _, channels, consts = make_scene(K=4, seed=20, R_th=0.25)
    b = np.array([1, 1, 0, 0])
    init = feasibility_init(b, cfg, channels)
    rate = metrics.rate
    solvers = built_solvers(monkeypatch)
    rate_calls = count_calls(monkeypatch, metrics, "rate")
    W, trace = bf.sca_optimize(b, cfg, channels, consts, tol=1e-5, init=init)
    assert [solver.epigraph for solver in solvers] == [False] and not rate_calls
    assert trace.work is solvers[0].work and len(trace.work.solves) >= 3
    iterations = trace.iterations
    assert len(rate_calls) == len(trace.iterates) and trace.iterations is iterations
    weight = bf.build_objective_weight(b, consts, channels, cfg)

    def describe(Q):
        """The record sca_optimize used to make for each iterate as it accepted it."""
        total = Q.sum(axis=0)
        obj = float(np.trace(weight @ total).real)
        rates = rate(b, Q, channels.H_comm, cfg.sigma2)
        viol = max(0.0, float(cfg.R_th - rates.min()), float(np.trace(total).real) - cfg.P_T)
        return obj, 1.0 / obj, viol

    assert iterations == [describe(Q) for _, Q in trace.iterates]
    # the last iterate is the Gram stack the beamformers come from (L = N_t)
    assert_same_bits(W.W, bf.recover_beamformers(trace.iterates[-1][1], cfg.L).W)


def test_sca_trace_keeps_the_worst_certificates(monkeypatch):
    """The trace's kkt_residual_max and gap_bound_max are the maxima of the
    certificates inner_convex_solve returned, over every surrogate solve;
    the closed form (R_th <= 0) solves none and keeps 0."""
    cfg, _, channels, consts = make_scene(K=4, seed=20, R_th=0.25)
    b = np.array([1, 1, 0, 0])
    infos = []
    solve = bf.inner_convex_solve

    def recording(*args, **kwargs):
        Q, info = solve(*args, **kwargs)
        infos.append(info)
        return Q, info

    monkeypatch.setattr(bf, "inner_convex_solve", recording)
    _, trace = bf.sca_optimize(b, cfg, channels, consts, tol=1e-5)
    assert len(infos) >= 3
    assert trace.kkt_residual_max == max(info["kkt_residual"] for info in infos)
    assert trace.gap_bound_max == max(info["gap_bound"] for info in infos)
    assert 0 < trace.kkt_residual_max <= 2e-9
    infos.clear()
    cfg, _, channels, consts = make_scene(K=4, seed=20, R_th=0.0)
    _, trace = bf.sca_optimize(b, cfg, channels, consts)
    assert not infos and trace.kkt_residual_max == trace.gap_bound_max == 0.0


def test_phase_one_builds_one_solver(monkeypatch):
    # an unreachable threshold: the minimum rate reaches 0.9999749 in four
    # rounds, and the fifth gains 1e-8, too little for the 20 rounds left
    cfg, _, channels, _ = make_scene(K=4, seed=0, R_th=1.0)
    solvers = built_solvers(monkeypatch)
    rate_calls = count_calls(monkeypatch, metrics, "rate")
    with pytest.raises(bf.InfeasibleStartError):
        feasibility_init(np.array([1, 1, 0, 0]), cfg, channels)
    # one rate evaluation of the uniform start, then one per round
    assert [solver.epigraph for solver in solvers] == [True]
    assert len(solvers[0].work.solves) == 5 and len(rate_calls) == 6


def test_phase_one_reaches_a_threshold_over_several_rounds(monkeypatch):
    # the minimum slack climbs -0.357, -0.136, -0.0157, -7.0e-5 and +3.6e-5
    cfg, _, channels, _ = make_scene(K=4, seed=3, R_th=0.9999)
    b = np.array([1, 1, 0, 0])
    solvers = built_solvers(monkeypatch)
    Q = feasibility_init(b, cfg, channels)
    assert [len(solver.work.solves) for solver in solvers] == [4]
    assert metrics.rate(b, Q, channels.H_comm, cfg.sigma2).min() > cfg.R_th


# make_scene scenes (K, seed, R_th), first K//2 receivers selected, on which a
# final-weight start without WARM_FINAL_NEWTON passed its decrement guard and
# then spent all of max_newton = 200 Newton steps
CRAWL_SCENES = [(3, 3, 1.0), (3, 4, 1.0)]


@pytest.mark.parametrize("K, seed, R_th", CRAWL_SCENES)
def test_capped_final_weight_start_does_not_crawl(monkeypatch, K, seed, R_th):
    cfg, _, channels, consts = make_scene(K=K, seed=seed, R_th=R_th)
    b = np.zeros(K, dtype=int)
    b[:K // 2] = 1
    solvers = built_solvers(monkeypatch)
    W, _ = bf.sca_optimize(b, cfg, channels, consts)
    budgets = [(used, budget) for _, budget, used, _ in newton_work(solvers)[1]]
    assert (bf.WARM_FINAL_NEWTON, bf.WARM_FINAL_NEWTON) in budgets  # the cap cut a start
    assert all(used < budget for used, budget in budgets if budget == 200)
    # a cap of 0 drops every final-weight start: the path through t0 mu
    monkeypatch.setattr(bf, "WARM_FINAL_NEWTON", 0)
    W_two_rung, _ = bf.sca_optimize(b, cfg, channels, consts)
    crb = metrics.crb(b, W, consts, channels, cfg).crb
    assert crb == pytest.approx(metrics.crb(b, W_two_rung, consts, channels, cfg).crb,
                                rel=1e-8, abs=0)


def test_warm_solves_stop_at_their_final_weight(monkeypatch):
    """No centering call of a warm solve runs above its final weight 900 t0,
    t0 = nu/gap/30^2, where 900 t0 rounds below nu/gap (nu = 28, gap 1e-6:
    27999999.999999996); a path that ended on a test of nu/t <= gap climbed
    one weight past it on every warm solve of this row, which took 3,304
    Newton steps (2,329 when written, with one BLAS thread)."""
    cfg, _, channels, consts = make_scene(K=3, seed=3, N_t=6, L=2, R_th=1.0)
    solvers = built_solvers(monkeypatch)
    work = bf.sca_optimize(np.array([1, 0, 0]), cfg, channels, consts)[1].work
    nu, gap = solvers[-1].nu, 1e-6 * cfg.P_T
    final = nu / gap / 30.0 ** 2 * 30.0 * 30.0
    assert nu / final > gap  # rounded below nu/gap
    # the warm solves' calls: from the first one under the final-weight cap on
    budgets = [budget for _, budget, _, _ in work.centers]
    warm = work.centers[budgets.index(bf.WARM_FINAL_NEWTON):]
    assert any(is_warm for is_warm, _ in work.solves) and all(t <= final for t, *_ in warm)
    assert newton_work(solvers)[0] <= 2400


# tradeoff rows at sec6a, seed 7, 2 trials, default sweep, as computed before
# the barrier kernels were vectorised: (crb, rate_min, rate_mean, objective)
PINNED_TRADEOFF = {
    (0, 0): (8.635943173043554e-08, 0.2846635258372557, 0.29591716884735114, 11579511.119543098),
    (0, 1): (8.635411609284298e-08, 0.2754460471047446, 0.29483279889158615, 11580223.911097169),
    (1, 0): (2.0952740037976294e-08, 0.28480376533110563, 0.29618364021130755, 47726454.78288414),
    (1, 1): (3.54701620096148e-08, 0.27557006750697743, 0.29519459218284416, 28192710.248375326),
    (2, 0): (1.5277032734747588e-08, 0.28491475899126334, 0.29645078014116744, 65457737.596222006),
    (2, 1): (2.1941771492907536e-08, 0.2756035939402282, 0.2953323098522588, 45575171.55455023),
    (5, 0): (9.738217736466776e-09, 0.26887467154192324, 0.2886798215345438, 102688194.80748448),
    (5, 1): (1.1237212002576383e-08, 0.2747114850897976, 0.2937442666192265, 88990044.84125857),
}


# selection_compare rows at perfbench/configs/sec6a_nt4.json (N_t = 4, Newton
# dimension 176, L < N_t), seed 7, 1 trial, default sweep, as computed with one
# BLAS thread before grad_hess read the whitened channels:
# (crb, rate_min, rate_mean, objective)
NT4_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "sec6a_nt4.json"
PINNED_NT4 = {
    ("minimax:100", 0): (1.6563625641979424e-08, 0.2360779225073173, 0.45893481881162534,
                         60377694.04926509),
    ("minimax:200", 0): (8.132143051249296e-09, 0.20805245353673832, 0.4620259222110505,
                         122977726.95965904),
    ("kmeans:100", 0): (1.2693901145233888e-08, 0.23610196011095902, 0.46023797194348404,
                        78783747.04168321),
    ("kmeans:200", 0): (8.639517876257533e-09, 0.2355597205724306, 0.46457195067255636,
                        115755620.4440544),
}


def seed7_rows(config, experiment, trials):
    cfg, layout, base = harness.load_config(config)
    spec = harness.ExperimentSpec(name=experiment, sweep=harness.default_sweep(experiment, cfg),
                                  trials=trials, seed=7)
    return harness.run_experiment(spec, cfg, layout, base=base)


def assert_rows_match(rows, pinned):
    """The CRB and objective within rtol 1e-8, the rates within 1e-7 bit/s/Hz."""
    assert {(r["sweep_value"], r["trial"]) for r in rows} == set(pinned)
    for row in rows:
        crb, rate_min, rate_mean, objective = pinned[row["sweep_value"], row["trial"]]
        assert row["crb"] == pytest.approx(crb, rel=1e-8, abs=0)
        assert row["objective"] == pytest.approx(objective, rel=1e-8, abs=0)
        assert row["rate_min"] == pytest.approx(rate_min, rel=0, abs=1e-7)
        assert row["rate_mean"] == pytest.approx(rate_mean, rel=0, abs=1e-7)


def test_tradeoff_rows_within_pinned_bound():
    assert_rows_match(seed7_rows("sec6a", "tradeoff", 2), PINNED_TRADEOFF)


def test_nt4_selection_rows_within_pinned_bound():
    assert_rows_match(seed7_rows(str(NT4_CONFIG), "selection_compare", 1), PINNED_NT4)


def test_tradeoff_rows_newton_work(monkeypatch):
    """The pinned rows center every barrier stage within its Newton budget, at
    most 260 Newton steps (grad_hess calls) per row (243.2 when written; 300.5
    from the boundary starts); a null-step stall spent 200 steps in one
    centering call."""
    solvers = built_solvers(monkeypatch)
    rows = seed7_rows("sec6a", "tradeoff", 2)
    steps, calls = newton_work(solvers)
    assert len(rows) == len(PINNED_TRADEOFF) and not any(r.get("error") for r in rows)
    assert all(used < budget for _, budget, used, _ in calls)
    assert steps <= 260 * len(rows)


def test_nt4_selection_rows_newton_work(monkeypatch):
    """The pinned N_t = 4 rows take at most 240 Newton steps per row, and at
    most 10 of their Newton systems fall back from block elimination to the
    dense path (221.0 and 6 when written; from the boundary starts 252.8, and
    57 of 1,011 systems fell back)."""
    solvers = built_solvers(monkeypatch)
    rows = seed7_rows(str(NT4_CONFIG), "selection_compare", 1)
    steps, calls = newton_work(solvers)
    assert len(rows) == len(PINNED_NT4) and not any(r.get("error") for r in rows)
    assert all(used < budget for _, budget, used, _ in calls)
    assert steps <= 240 * len(rows)
    assert sum(solver.work.dense for solver in solvers if solver.eliminate) <= 10
