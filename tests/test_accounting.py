"""Property tests of the oracle-accounting identities.

Composite oracles are called once per outer step.  Coupling calls follow
from the inner iteration counts: a forward-backward-forward inner run
(Tseng's modified extragradient) accepted after t steps makes 2t + 1
coupling calls, and a bilinear inner run makes one B
product to build its linear term plus three B/B^T products per iterate it
checks, t + 1 of them: two for the start's residual or for the
conjugate-gradient step that reached the iterate, one for the acceptance
check.  The two regularized reductions make only a fixed few oracle calls
outside those tallies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddleslide import (
    BilinearProblem,
    OracleCounters,
    PointPair,
    SolveConfig,
    initial_potential,
    plan_scc,
    solve,
    solve_affine_constrained,
    solve_bilinear,
    solve_bilinear_linear_composites,
    split_bilinear,
    tune_parameters,
)
from saddleslide.bench.generators import (
    gen_bilinear,
    gen_consensus,
    gen_linear_bilinear,
    gen_quadratic_spp,
    reference_solution,
)
from saddleslide.bench.runner import run_single
from saddleslide.problems import count_calls

SETTINGS = settings(max_examples=20, deadline=None)
dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _assert_composite_once_per_step(counters):
    assert counters.calls_grad_p == counters.outer_iterations
    assert counters.calls_grad_q == counters.outer_iterations
    assert counters.outer_iterations >= 1


@SETTINGS
@given(
    d_x=dims,
    d_y=dims,
    L_p=st.floats(0.0, 20.0),
    L_q=st.floats(0.0, 20.0),
    mu_x=st.floats(0.5, 2.0),
    mu_y=st.floats(0.5, 2.0),
    coupling_gain=st.floats(1.0, 5.0),
    seed=seeds,
)
def test_extragradient_path_identities(
    d_x, d_y, L_p, L_q, mu_x, mu_y, coupling_gain, seed
):
    L_R = coupling_gain * max(mu_x, mu_y)
    inst = gen_quadratic_spp(d_x, d_y, L_p, mu_x, L_q, mu_y, L_R, seed)
    problem, spec = inst.problem(), inst.spec()
    start = PointPair(np.zeros(d_x), np.zeros(d_y))
    psi_0 = initial_potential(problem, spec, start, inst.saddle())
    report = solve(problem, spec, start, SolveConfig(eps=1e-4, psi_0=psi_0))
    c = report.counters
    _assert_composite_once_per_step(c)
    assert c.calls_grad_R == 2 * c.inner_iterations + c.outer_iterations


@SETTINGS
@given(
    d_x=dims,
    d_y=dims,
    mu_p=st.floats(0.5, 2.0),
    mu_q=st.floats(0.5, 2.0),
    cond_p=st.floats(1.0, 10.0),
    cond_q=st.floats(1.0, 10.0),
    sigma_max=st.floats(0.0, 10.0),
    seed=seeds,
)
def test_bilinear_path_identities(
    d_x, d_y, mu_p, mu_q, cond_p, cond_q, sigma_max, seed
):
    inst = gen_bilinear(
        d_x, d_y, cond_p * mu_p, mu_p, cond_q * mu_q, mu_q, sigma_max, seed
    )
    start = PointPair(np.zeros(d_x), np.zeros(d_y))
    report = solve_bilinear(
        inst.bilinear_problem(), start, SolveConfig(eps=1e-4, psi_0=100.0)
    )
    c = report.counters
    _assert_composite_once_per_step(c)
    assert c.calls_grad_R == 4 * c.outer_iterations + 3 * c.inner_iterations


@SETTINGS
@given(
    n_nodes=st.integers(min_value=2, max_value=8),
    topology=st.sampled_from(["path", "ring", "star"]),
    seed=seeds,
)
def test_consensus_path_identities(n_nodes, topology, seed):
    eps = 1e-6
    inst = gen_consensus(n_nodes, topology, 1.0, 4.0, seed)
    grad, _ = inst.local_objective()
    report = solve_affine_constrained(
        grad_p=grad,
        L_p=inst.constants["local_L"],
        mu_p=inst.constants["local_mu"],
        coupling=inst.coupling(),
        c=inst.arrays["c"],
        D_y=inst.constants["D_y"],
        eps=eps,
    )
    c = report.counters
    _assert_composite_once_per_step(c)
    assert c.calls_grad_R == 4 * c.outer_iterations + 3 * c.inner_iterations
    x_ref = reference_solution(inst).x
    assert np.sum((report.final_pair.x - x_ref) ** 2) <= eps


def _counted_coupling(op, counters):
    return dataclasses.replace(
        op,
        matvec=count_calls(op.matvec, counters, "calls_grad_R"),
        rmatvec=count_calls(op.rmatvec, counters, "calls_grad_R"),
    )


def test_affine_reduction_runs_on_the_scc_plan():
    eps = 1e-6
    inst = gen_consensus(6, "ring", 1.0, 4.0, seed=3)
    grad, _ = inst.local_objective()
    consts, coupling = inst.constants, inst.coupling()
    report = solve_affine_constrained(
        grad_p=grad, L_p=consts["local_L"], mu_p=consts["local_mu"],
        coupling=coupling, c=inst.arrays["c"], D_y=consts["D_y"], eps=eps,
    )
    mu_q = 2.0 * plan_scc(eps, consts["D_y"]).coeff_y
    bp = BilinearProblem(
        grad_p=grad, grad_q=lambda y: y, L_p=consts["local_L"],
        mu_p=consts["local_mu"], L_q=mu_q, mu_q=mu_q, coupling=coupling,
    )
    assert report.tuning == tune_parameters(split_bilinear(bp)[1])


def test_reductions_certify_the_blocks_they_promise():
    # The outer loop bounds W = ||dx||^2/eta_x + ||dy||^2/eta_y.  The affine
    # route promises x only, and W >= ||dx||^2/eta_x; the linear-composite
    # route's stages need both blocks, so its last stage divides by eta_y too.
    # The affine route aims at the plan's own target and meets the residual
    # bound there, so it does not resume.
    eps = 1e-6
    inst = gen_consensus(10, "ring", 1.0, 4.0, seed=0)
    grad, _ = inst.local_objective()
    consts, coupling = inst.constants, inst.coupling()
    report = solve_affine_constrained(
        grad_p=grad, L_p=consts["local_L"], mu_p=consts["local_mu"],
        coupling=coupling, c=inst.arrays["c"], D_y=consts["D_y"], eps=eps,
    )
    target = plan_scc(eps, consts["D_y"]).inner_target
    tuning = report.tuning
    assert tuning.eta_y > 1e5 * max(1.0, tuning.eta_x)
    assert report.eps == target / max(1.0, tuning.eta_x)

    lb = gen_linear_bilinear(6, 0)
    report = solve_bilinear_linear_composites(
        lb.arrays["d"], lb.arrays["c"], lb.coupling(),
        lb.constants["D_x"], lb.constants["D_y"], eps,
    )
    tuning = report.tuning
    assert report.eps == (eps / 2.0) / max(1.0, tuning.eta_x, tuning.eta_y)


@pytest.mark.parametrize("topology", ["ring", "path"])
def test_affine_reduction_uncounted_calls(topology):
    # One grad_p(0) sizes the potential bound and one B^T product checks
    # the constraint residual; neither lands in the report's tallies.
    inst = gen_consensus(8, topology, 1.0, 4.0, seed=1)
    grad, _ = inst.local_objective()
    mine = OracleCounters()
    report = solve_affine_constrained(
        grad_p=count_calls(grad, mine, "calls_grad_p"),
        L_p=inst.constants["local_L"],
        mu_p=inst.constants["local_mu"],
        coupling=_counted_coupling(inst.coupling(), mine),
        c=inst.arrays["c"],
        D_y=inst.constants["D_y"],
        eps=1e-6,
    )
    assert mine.calls_grad_p == report.counters.calls_grad_p + 1
    assert mine.calls_grad_R == report.counters.calls_grad_R + 1


@pytest.mark.parametrize("seed", [0, 3])
def test_linear_reduction_counts_every_product(seed):
    # At eps 1e-7 the reduction runs several restarted stages; the caller's
    # counted coupling must see exactly the products summed over them.
    inst = gen_linear_bilinear(8, seed)
    for eps in (1e-3, 1e-7):
        mine = OracleCounters()
        report = solve_bilinear_linear_composites(
            d=inst.arrays["d"],
            c=inst.arrays["c"],
            coupling=_counted_coupling(inst.coupling(), mine),
            D_x=inst.constants["D_x"],
            D_y=inst.constants["D_y"],
            eps=eps,
        )
        assert mine.calls_grad_R == report.counters.calls_grad_R > 0


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 40),
    cond=st.floats(1.0, 100.0),
    log_scale=st.floats(-3.0, 1.0),
    seed=seeds,
    log_eps=st.floats(-10.0, -2.0),
)
# The CG residual of one inner run here reaches a subnormal r^T r, where
# p^T M p underflows to zero.
@example(d=24, cond=1.0, log_scale=-0.09301342909021892, seed=24, log_eps=-10.0)
def test_restarted_linear_reduction_certifies(d, cond, log_scale, seed, log_eps):
    # Every stage of the restarted regularization certifies its target, so
    # the run ends residual-met within eps of the reference at any eps and
    # any coupling scale, and the stages' summed tallies keep the bilinear
    # identities.
    eps = 10.0**log_eps
    inst = gen_linear_bilinear(d, seed, scale=10.0**log_scale, cond=cond)
    row = run_single(inst, "sliding", eps)
    assert row.termination == "residual-met"
    assert row.dist_unweighted <= eps
    assert row.calls_grad_p == row.calls_grad_q == row.outer_iters
    assert row.calls_grad_R == 4 * row.outer_iters + 3 * row.inner_iters
