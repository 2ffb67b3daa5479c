"""The log-barrier solver's derivatives and kernels, and the SCA rows they drive."""

import numpy as np
import pytest

from isacsim import beamforming as bf, harness
from isacsim.beamforming import _BarrierSolver, sca_linearize, uniform_gram

from conftest import make_scene


def solver_at(n, epigraph):
    """A solver with K = 3, b = [1, 1, 0] (both involvement groups) and its
    variable vector at half the uniform Grams."""
    cfg, _, channels, consts = make_scene(K=3, seed=2, N_t=n, R_th=0.0)
    b = np.array([1, 1, 0])
    anchor = uniform_gram(cfg)
    cons = [sca_linearize(k, int(b[k]), anchor, channels.H_comm[k], cfg.sigma2,
                          cfg.R_th) for k in range(3)]
    weight = bf.build_objective_weight(b, consts, channels, cfg)
    solver = _BarrierSolver(weight / np.linalg.norm(weight, 2), cons, cfg.P_T, n,
                            cfg.K + 1, epigraph=epigraph)
    Q = 0.5 * anchor.Q
    s = min(c.value(Q) for c in cons) - 1.0
    return solver, solver.pack(Q, s=s)


def rel_err(approx, exact):
    return np.max(np.abs(approx - exact)) / np.max(np.abs(exact))


@pytest.mark.parametrize("epigraph", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_grad_hess_matches_central_differences(n, epigraph):
    solver, z = solver_at(n, epigraph)
    t = 10.0
    assert len(solver.groups) == 2
    val, grad, hess = solver.grad_hess(z, t)
    assert val == solver.barrier(z, t)
    step = 1e-6 * np.max(np.abs(z))
    fd_grad = np.empty(solver.dim)
    fd_hess = np.empty((solver.dim, solver.dim))
    for i in range(solver.dim):
        e = np.zeros(solver.dim)
        e[i] = step
        fd_grad[i] = (solver.barrier(z + e, t) - solver.barrier(z - e, t)) / (2 * step)
        fd_hess[:, i] = (solver.grad_hess(z + e, t)[1]
                         - solver.grad_hess(z - e, t)[1]) / (2 * step)
    assert rel_err(fd_grad, grad) <= 1e-6
    # the solver maximizes: grad_hess returns the negated Hessian
    assert rel_err(fd_hess, -hess) <= 1e-6


def test_non_contiguous_involvement_rejected():
    solver, _ = solver_at(2, False)
    con = solver.constraints[0]
    gapped = bf.LinearizedRateConstraint(k=con.k, H=con.H, involved=(0, 2, 3),
                                         own=con.own, T=con.T, offset=con.offset,
                                         sigma2=con.sigma2)
    with pytest.raises(ValueError, match="contiguous"):
        _BarrierSolver(np.eye(2), [gapped], 1.0, 2, 4)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_match_einsum_definitions(n):
    rng = np.random.default_rng(n)
    basis = bf._hermitian_basis(n)
    Xs = random_hermitian(rng, 5, n)
    general = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    for Qs in (Xs, general):
        np.testing.assert_allclose(bf._vec_many(Qs, basis), vec_many_ref(Qs, basis),
                                   rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bf._psd_cores(Xs, basis), psd_cores_ref(Xs, basis),
                               rtol=1e-12, atol=1e-12)
    solver = _BarrierSolver(np.eye(n), [], 1.0, n, 5)
    z = rng.standard_normal(solver.dim)
    np.testing.assert_allclose(solver.unpack(z),
                               unpack_ref(z.reshape(5, n * n), basis),
                               rtol=1e-12, atol=1e-12)


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


def test_tradeoff_rows_within_pinned_bound():
    cfg, layout, base = harness.load_config("sec6a")
    spec = harness.ExperimentSpec(name="tradeoff", sweep=harness.default_sweep("tradeoff", cfg),
                                  trials=2, seed=7)
    rows = harness.run_experiment(spec, cfg, layout, base=base)
    assert {(r["sweep_value"], r["trial"]) for r in rows} == set(PINNED_TRADEOFF)
    for row in rows:
        crb, rate_min, rate_mean, objective = PINNED_TRADEOFF[row["sweep_value"], row["trial"]]
        assert row["crb"] == pytest.approx(crb, rel=1e-8, abs=0)
        assert row["objective"] == pytest.approx(objective, rel=1e-8, abs=0)
        assert row["rate_min"] == pytest.approx(rate_min, rel=0, abs=1e-7)
        assert row["rate_mean"] == pytest.approx(rate_mean, rel=0, abs=1e-7)
