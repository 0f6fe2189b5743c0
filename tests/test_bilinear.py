import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddleslide import (
    AuxiliaryProblem,
    BilinearProblem,
    CouplingOperator,
    OracleCounters,
    PointPair,
    SolveConfig,
    eliminate_y,
    estimate_spectral_bounds,
    initial_potential,
    solve_affine_constrained,
    solve_bilinear,
    solve_bilinear_linear_composites,
    split_bilinear,
    tune_parameters,
    unweighted_distance_sq,
    weighted_distance_sq,
    wrap_counting_bilinear,
)
from saddleslide import bilinear, inner
from saddleslide.bench.generators import (
    RITZ_SLACK,
    gen_bilinear,
    gen_consensus,
    gen_linear_bilinear,
    reference_solution,
)
from saddleslide.bilinear import _cg_start, _cg_step, lanczos_extremes
from saddleslide.errors import (
    BudgetExhausted,
    DimensionMismatch,
    DivergenceDetected,
    InconsistentConstants,
    InfeasibleTarget,
    InnerBudgetExhausted,
    NonPositiveInput,
    NonPositiveModulus,
)
from saddleslide.outer import SolverTuning, X_DOMINANT
from saddleslide.problems import count_calls

from conftest import (
    kick_first_run, off_constraint, random_sym_psd, recording_bilinear, step_trace,
)


def _random_bilinear(rng, d_x, d_y, L_p=4.0, mu_p=1.0, L_q=3.0, mu_q=0.8, sigma=2.0):
    Hp = random_sym_psd(rng, d_x, mu_p, L_p)
    Hq = random_sym_psd(rng, d_y, mu_q, L_q)
    B = rng.standard_normal((d_x, d_y))
    B *= sigma / np.linalg.svd(B, compute_uv=False)[0]
    d = rng.standard_normal(d_x)
    c = rng.standard_normal(d_y)
    bp = BilinearProblem(
        grad_p=lambda x: Hp @ x + d,
        grad_q=lambda y: Hq @ y + c,
        L_p=L_p, mu_p=mu_p, L_q=L_q, mu_q=mu_q,
        coupling=CouplingOperator.from_dense(B),
        value_p=lambda x: 0.5 * float(x @ (Hp @ x)) + float(d @ x),
        value_q=lambda y: 0.5 * float(y @ (Hq @ y)) + float(c @ y),
    )
    kkt = np.block([[Hp, B], [B.T, -Hq]])
    rhs = np.concatenate([-d, c])
    z = np.linalg.solve(kkt, rhs)
    return bp, {"Hp": Hp, "Hq": Hq, "B": B, "d": d, "c": c}, PointPair(z[:d_x], z[d_x:])


def _random_affine(rng, n, m, scale):
    """``min ||x - b||^2/2`` subject to ``B^T x = c``, with ``c = B^T x0``.

    Returns the arguments of `solve_affine_constrained` but ``eps``, with
    ``D_y = 1.25 ||y+|| + 1e-6`` for the least-norm dual solution ``y+``,
    and the constrained minimizer, both from the KKT system.
    """
    B = scale * rng.standard_normal((n, m))
    b = rng.standard_normal(n)
    x0 = 1e-3 * rng.standard_normal(n)
    c = B.T @ x0
    kkt = np.block([[np.eye(n), B], [B.T, np.zeros((m, m))]])
    z = np.linalg.lstsq(kkt, np.concatenate([b, c]), rcond=None)[0]
    args = dict(
        grad_p=lambda x: x - b, L_p=1.0, mu_p=1.0,
        coupling=CouplingOperator.from_dense(B), c=c,
        D_y=1.25 * np.linalg.norm(z[n:]) + 1e-6,
    )
    return args, z[:n]


def _recipe_trial(index):
    # Forty trials share one generator: n = 6, m in [2, 6), coupling scale
    # in [1, 1e3].
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        m = int(rng.integers(2, 6))
        scale = 10 ** rng.uniform(0, 3)
        args, x_star = _random_affine(rng, 6, m, scale)
    return args, x_star


def _assert_affine_promises(report, x_star, c, eps):
    assert np.sum((report.final_pair.x - x_star) ** 2) <= eps
    assert report.constraint_residual <= math.sqrt(eps) * (1.0 + np.linalg.norm(c))


def _aux_saddle_direct(data, bp, gp, gq, x_k, y_k, tuning):
    """Direct solve of the split subproblem's stationarity system."""
    B = data["B"]
    d_x, d_y = B.shape
    mat = np.block([
        [(1.0 / tuning.eta_x + bp.mu_p) * np.eye(d_x), B],
        [B.T, -(1.0 / tuning.eta_y + bp.mu_q) * np.eye(d_y)],
    ])
    rhs = np.concatenate([x_k / tuning.eta_x - gp, gq - y_k / tuning.eta_y])
    z = np.linalg.solve(mat, rhs)
    return z[:d_x], z[d_x:]


class TestSplitBilinear:
    def test_pure_quadratic_composite_cancels(self, rng):
        bp = BilinearProblem(
            grad_p=lambda x: x,
            grad_q=lambda y: y,
            L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(rng.standard_normal((3, 3))),
        )
        composite, spec = split_bilinear(bp)
        assert spec.L_p == 0.0
        x = rng.standard_normal(3)
        assert np.linalg.norm(composite.grad_p(x)) <= 1e-14

    def test_split_coupling_gradient(self, rng):
        B = rng.standard_normal((4, 3))
        bp = BilinearProblem(
            grad_p=lambda x: 2 * x, grad_q=lambda y: 3 * y,
            L_p=2.0, mu_p=2.0, L_q=3.0, mu_q=3.0,
            coupling=CouplingOperator.from_dense(B),
        )
        composite, _ = split_bilinear(bp)
        x = rng.standard_normal(4)
        y = rng.standard_normal(3)
        r_x, r_y = composite.grad_R(x, y)
        assert np.allclose(r_x, 2.0 * x + B @ y)
        assert np.allclose(r_y, B.T @ x - 3.0 * y)

    def test_round_trip_identity(self, rng):
        bp, data, _ = _random_bilinear(rng, 4, 3)
        composite, _ = split_bilinear(bp)
        B = data["B"]
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(3)
            r_x, _ = composite.grad_R(x, y)
            total = composite.grad_p(x) + r_x
            assert np.allclose(total, bp.grad_p(x) + B @ y, atol=1e-12)

    def test_requires_positive_moduli(self, rng):
        bp = BilinearProblem(
            grad_p=lambda x: x, grad_q=lambda y: y,
            L_p=1.0, mu_p=0.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(np.eye(2)),
        )
        with pytest.raises(NonPositiveModulus):
            split_bilinear(bp)


def _aux(bp, gp, gq, x_k, y_k, tuning):
    # The subproblem the outer loop builds on split_bilinear output.
    coupled = split_bilinear(bp)[0]
    return AuxiliaryProblem(coupled.grad_R, gp, gq, x_k, y_k, tuning.eta_x, tuning.eta_y)


def _dense_minimizer(qf, B):
    # The reduced gradient (kappa I + B B^T) x + b vanishes here.
    return np.linalg.solve(qf.kappa * np.eye(B.shape[0]) + B @ B.T, -qf.b)


class TestEliminateY:
    def test_unit_example_matches_display(self):
        # 1-d with unit steps and moduli and B = [1]: the quadratic
        # coefficient is ((1+1)(1+1) + 1)/2 = 2.5.
        bp = BilinearProblem(
            grad_p=lambda x: x, grad_q=lambda y: y,
            L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(np.array([[1.0]])),
        )
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        aux = _aux(bp, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), tuning)
        qf = eliminate_y(bp, aux)
        one = np.ones(1)
        assert 0.5 * (qf.kappa * one + qf.matvec(qf.rmatvec(one)))[0] == pytest.approx(2.5)

    def test_zero_data_gives_zero_saddle(self):
        bp = BilinearProblem(
            grad_p=lambda x: x, grad_q=lambda y: y,
            L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(np.array([[1.0, 0.5]])),
        )
        tuning = SolverTuning(alpha=1.0, eta_x=0.5, eta_y=0.5, branch=X_DOMINANT)
        aux = _aux(bp, np.zeros(1), np.zeros(2), np.zeros(1), np.zeros(2), tuning)
        qf = eliminate_y(bp, aux)
        assert np.all(qf.b == 0.0)
        x_hat = _dense_minimizer(qf, np.array([[1.0, 0.5]]))
        assert np.linalg.norm(x_hat) <= 1e-10
        assert np.linalg.norm(qf.recover_y(x_hat)) <= 1e-10

    def test_matches_direct_kkt_on_random_instance(self, rng):
        bp, data, _ = _random_bilinear(rng, 3, 2)
        tuning = tune_parameters(split_bilinear(bp)[1])
        gp = rng.standard_normal(3)
        gq = rng.standard_normal(2)
        x_k = rng.standard_normal(3)
        y_k = rng.standard_normal(2)
        qf = eliminate_y(bp, _aux(bp, gp, gq, x_k, y_k, tuning))
        x_hat = _dense_minimizer(qf, data["B"])
        y_hat = qf.recover_y(x_hat)
        x_ref, y_ref = _aux_saddle_direct(data, bp, gp, gq, x_k, y_k, tuning)
        assert np.linalg.norm(x_hat - x_ref) <= 1e-10
        assert np.linalg.norm(y_hat - y_ref) <= 1e-10

    def test_elimination_consistency_500_random(self, rng):
        for trial in range(500):
            d_x = int(rng.integers(1, 5))
            d_y = int(rng.integers(1, 5))
            bp, data, _ = _random_bilinear(
                rng, d_x, d_y,
                L_p=rng.uniform(1, 5), mu_p=rng.uniform(0.3, 1),
                L_q=rng.uniform(1, 5), mu_q=rng.uniform(0.3, 1),
                sigma=rng.uniform(0.1, 3),
            )
            tuning = tune_parameters(split_bilinear(bp)[1])
            gp = rng.standard_normal(d_x)
            gq = rng.standard_normal(d_y)
            x_k = rng.standard_normal(d_x)
            y_k = rng.standard_normal(d_y)
            qf = eliminate_y(bp, _aux(bp, gp, gq, x_k, y_k, tuning))
            x_hat = _dense_minimizer(qf, data["B"])
            y_hat = qf.recover_y(x_hat)
            x_ref, y_ref = _aux_saddle_direct(data, bp, gp, gq, x_k, y_k, tuning)
            err = max(
                np.linalg.norm(x_hat - x_ref), np.linalg.norm(y_hat - y_ref)
            )
            assert err <= 1e-8, f"trial {trial}: {err}"

    def test_matvec_counts_per_apply(self, rng):
        bp, _, _ = _random_bilinear(rng, 3, 2)
        wrapped, counters = wrap_counting_bilinear(bp)
        tuning = tune_parameters(split_bilinear(bp)[1])
        before = counters.calls_grad_R
        aux = _aux(wrapped, np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(2), tuning)
        qf = eliminate_y(wrapped, aux)
        assert counters.calls_grad_R == before + 1  # one product to build b
        qf.matvec(qf.rmatvec(np.ones(3)))
        assert counters.calls_grad_R == before + 3  # plus B^T and B


class TestSolveBilinear:
    def test_pure_moduli_converges_to_origin(self, rng):
        B = rng.standard_normal((3, 4))
        bp = BilinearProblem(
            grad_p=lambda x: 1.5 * x, grad_q=lambda y: 0.7 * y,
            L_p=1.5, mu_p=1.5, L_q=0.7, mu_q=0.7,
            coupling=CouplingOperator.from_dense(B),
        )
        start = PointPair(rng.standard_normal(3), rng.standard_normal(4))
        report = solve_bilinear(bp, start, SolveConfig(eps=1e-10, psi_0=100.0))
        origin = PointPair(np.zeros(3), np.zeros(4))
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, origin, t.eta_x, t.eta_y) <= 1e-10

    def test_one_dimensional_closed_form(self):
        bp = BilinearProblem(
            grad_p=lambda x: x + 1.0, grad_q=lambda y: y,
            L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(np.array([[1.0]])),
        )
        report = solve_bilinear(bp, PointPair([0.0], [0.0]),
                                SolveConfig(eps=1e-12, psi_0=10.0))
        assert report.final_pair.x[0] == pytest.approx(-0.5, abs=1e-6)
        assert report.final_pair.y[0] == pytest.approx(-0.5, abs=1e-6)

    def test_random_instance_matches_kkt(self, rng):
        bp, _, saddle = _random_bilinear(rng, 10, 10, sigma=5.0)
        start = PointPair(np.zeros(10), np.zeros(10))
        composite, spec = split_bilinear(bp)
        psi0 = initial_potential(composite, spec, start, saddle)
        report = solve_bilinear(bp, start, SolveConfig(eps=1e-8, psi_0=psi0))
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, saddle, t.eta_x, t.eta_y) <= 1e-8

    def test_counters_report_matvecs(self, rng):
        bp, _, saddle = _random_bilinear(rng, 4, 4)
        report = solve_bilinear(bp, PointPair(np.zeros(4), np.zeros(4)),
                                SolveConfig(eps=1e-6, psi_0=50.0))
        c = report.counters
        assert c.calls_grad_p == c.outer_iterations
        assert c.calls_grad_q == c.outer_iterations
        # Per outer step: one product to build the linear term, then three
        # per checked CG iterate (two for the start's residual or the CG
        # step, one for the acceptance check), one iterate beyond the steps.
        assert c.calls_grad_R == c.outer_iterations * 4 + 3 * c.inner_iterations

    def test_stall_rule_follows_inner_config(self, rng, monkeypatch):
        # STALL_RTOL = 1 counts every CG step as a stall, so with a window
        # of one some outer step must be accepted by the stall rule.
        monkeypatch.setattr(inner, "STALL_WINDOW", 1)
        monkeypatch.setattr(inner, "STALL_RTOL", 1.0)
        bp, _, _ = _random_bilinear(rng, 6, 5, sigma=20.0)
        runs = recording_bilinear(monkeypatch)
        solve_bilinear(
            bp, PointPair(np.zeros(6), np.zeros(5)), SolveConfig(eps=1e-6, psi_0=50.0)
        )
        (steps,) = runs
        assert any(result.accepted_by == "stall" for _, result in steps)

    def test_inner_budget_raises_named_error(self, rng, monkeypatch):
        monkeypatch.setattr(inner, "MAX_INNER", 0)
        bp, _, _ = _random_bilinear(rng, 6, 5, sigma=20.0)
        with pytest.raises(InnerBudgetExhausted):
            solve_bilinear(
                bp, PointPair(np.ones(6), np.ones(5)), SolveConfig(eps=1e-6, psi_0=50.0)
            )

    def test_non_finite_composite_raises_divergence(self, rng, monkeypatch):
        # A NaN composite gradient poisons the conjugate-gradient iterates;
        # the inner criterion must name it instead of exhausting the budget.
        monkeypatch.setattr(inner, "MAX_INNER", 1000)
        bp, _, _ = _random_bilinear(rng, 6, 5)
        calls = []

        def grad_p(x):
            calls.append(None)
            return bp.grad_p(x) * (np.nan if len(calls) > 3 else 1.0)

        with pytest.raises(DivergenceDetected):
            solve_bilinear(
                dataclasses.replace(bp, grad_p=grad_p),
                PointPair(np.zeros(6), np.zeros(5)),
                SolveConfig(eps=1e-6, psi_0=50.0),
            )

    def test_composite_gradient_shape_checked(self, rng):
        # A (1,)-shaped grad_p broadcasts against the split's modulus term
        # and, unchecked, runs out its budget at a wrong point.
        bp, _, _ = _random_bilinear(rng, 4, 3)
        bp = dataclasses.replace(bp, grad_p=lambda x: np.array([x.sum() + 1.0]))
        with pytest.raises(DimensionMismatch):
            solve_bilinear(bp, PointPair(np.zeros(4), np.zeros(3)),
                           SolveConfig(eps=1e-6, psi_0=50.0))

    def test_potential_tracking_leaves_tallies_unchanged(self, rng, monkeypatch):
        # Potentials are rebuilt from the hook's recorded steps, on the
        # uncounted composites, after the run.
        bp, _, saddle = _random_bilinear(rng, 5, 4)
        start = PointPair(np.zeros(5), np.zeros(4))
        config = SolveConfig(eps=1e-6, psi_0=50.0)
        plain = solve_bilinear(bp, start, config)
        runs = recording_bilinear(monkeypatch)
        tracked = solve_bilinear(bp, start, config)
        composite, _ = split_bilinear(bp)
        _, potentials = step_trace(runs[0], tracked.tuning, saddle, composite)
        assert len(potentials) == tracked.counters.outer_iterations > 0
        assert tracked.counters.as_dict() == plain.counters.as_dict()

    def test_coupling_scale_sweep_separates_counts(self, rng):
        base_B = rng.standard_normal((6, 6))
        base_B /= np.linalg.svd(base_B, compute_uv=False)[0]
        Hp = random_sym_psd(rng, 6, 1.0, 4.0)
        Hq = random_sym_psd(rng, 6, 1.0, 4.0)
        counts = {}
        for scale in [1.0, 10.0]:
            bp = BilinearProblem(
                grad_p=lambda x: Hp @ x, grad_q=lambda y: Hq @ y,
                L_p=4.0, mu_p=1.0, L_q=4.0, mu_q=1.0,
                coupling=CouplingOperator.from_dense(scale * base_B),
            )
            start = PointPair(np.ones(6), np.ones(6))
            report = solve_bilinear(bp, start, SolveConfig(eps=1e-8, psi_0=1e4))
            counts[scale] = report.counters
        assert counts[1.0].calls_grad_p == counts[10.0].calls_grad_p
        assert counts[1.0].calls_grad_q == counts[10.0].calls_grad_q
        growth = counts[10.0].calls_grad_R / counts[1.0].calls_grad_R
        assert growth <= 20.0


class TestSolveAffineConstrained:
    def test_projection_onto_plane(self):
        # min ||x||^2 / 2 subject to x_1 = 1; the solution is e_1.
        d = 4
        B = np.zeros((d, 1))
        B[0, 0] = 1.0
        report = solve_affine_constrained(
            grad_p=lambda x: x, L_p=1.0, mu_p=1.0,
            coupling=CouplingOperator.from_dense(B),
            c=np.array([1.0]), D_y=1.5, eps=1e-6,
        )
        target = np.zeros(d)
        target[0] = 1.0
        assert np.sum((report.final_pair.x - target) ** 2) <= 1e-6
        assert report.constraint_residual <= 1e-3 * 2.0

    def test_zero_rhs_gives_unconstrained_minimum(self):
        B = np.zeros((3, 1))
        B[0, 0] = 1.0
        report = solve_affine_constrained(
            grad_p=lambda x: x, L_p=1.0, mu_p=1.0,
            coupling=CouplingOperator.from_dense(B),
            c=np.zeros(1), D_y=1.0, eps=1e-6,
        )
        assert np.sum(report.final_pair.x**2) <= 1e-6

    def test_consensus_blocks_agree(self, rng):
        from saddleslide.bench import gen_consensus, reference_solution

        inst = gen_consensus(4, "path", 1.0, 3.0, seed=9, spread=0.2)
        grad, _ = inst.local_objective()
        report = solve_affine_constrained(
            grad_p=grad,
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(),
            c=inst.arrays["c"],
            D_y=inst.constants["D_y"],
            eps=1e-6,
        )
        x = report.final_pair.x
        assert np.max(np.abs(x - x.mean())) <= 1e-3
        centralized = reference_solution(inst)
        assert np.sum((x - centralized.x) ** 2) <= 1e-6

    def test_long_path_needs_no_spectral_floor(self, monkeypatch):
        # The path Laplacian's smallest nonzero eigenvalue shrinks like
        # 1/n^2; an inner solver whose rate depends on it needs more than
        # 400 steps in some outer step here.
        from saddleslide.bench import gen_consensus, reference_solution

        eps = 1e-6
        inst = gen_consensus(40, "path", 1.0, 4.0, seed=0)
        grad, _ = inst.local_objective()
        runs = recording_bilinear(monkeypatch)
        report = solve_affine_constrained(
            grad_p=grad,
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(),
            c=inst.arrays["c"],
            D_y=inst.constants["D_y"],
            eps=eps,
        )
        assert max(r.iterations for steps in runs for _, r in steps) <= 400
        x_ref = reference_solution(inst).x
        assert np.sum((report.final_pair.x - x_ref) ** 2) <= eps
        assert report.constraint_residual <= math.sqrt(eps)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("topology", ["path", "ring", "star"])
    def test_certifies_primal_and_residual(self, topology, eps):
        # The route certifies the primal block alone; the constraint
        # residual is bounded through x too.
        from saddleslide.bench import gen_consensus, reference_solution

        inst = gen_consensus(8, topology, 1.0, 4.0, seed=0)
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
        x_ref = reference_solution(inst).x
        assert np.sum((report.final_pair.x - x_ref) ** 2) <= eps
        assert report.constraint_residual <= math.sqrt(eps)
        assert report.termination == "residual-met"

    def test_infeasible_rhs_raises(self):
        # Constraint row space misses the second coordinate of c.
        B = np.array([[1.0, 0.0]])
        with pytest.raises(InfeasibleTarget):
            solve_affine_constrained(
                grad_p=lambda x: x, L_p=1.0, mu_p=1.0,
                coupling=CouplingOperator.from_dense(B),
                c=np.array([0.0, 1.0]), D_y=2.0, eps=1e-4,
                max_outer=300,
            )

    @pytest.mark.parametrize("trial", [14, 22])
    @pytest.mark.parametrize("resume", [False, True], ids=["measured", "resumed"])
    def test_small_dual_bound_meets_residual(self, monkeypatch, trial, resume):
        # D_y is about 3e-4 here.  Under a regularizer planned on D_y the
        # tightened run ended with residuals of 3.5e-2 and 4.2e-2 against
        # bounds of 2.4e-2 and 1.4e-2 at eps 1e-4: the regularized saddle's
        # own residual, 2 coeff_y ||y_r|| <= eps/(6 D_y), is not small.  The
        # floor sqrt(eps)/3 on the planned bound caps it at sqrt(eps)/2, so
        # even the tightened run, forced here, meets the bound.
        eps = 1e-4
        args, x_star = _recipe_trial(trial)
        assert args["D_y"] < math.sqrt(eps) / 3.0
        if resume:
            B = args["coupling"]
            runs = kick_first_run(monkeypatch, B.matvec(np.ones(B.d_y)))
        report = solve_affine_constrained(**args, eps=eps)
        _assert_affine_promises(report, x_star, args["c"], eps)
        if resume:
            assert len(runs) == 2

    def test_missed_residual_resumes_at_tightened_target(self, monkeypatch):
        # The first run's point is moved off the constraint by a vector
        # whose residual is ten times the bound; the route resumes from it
        # at the tightened target on what is left of max_outer.
        eps, max_outer = 1e-6, 100_000
        inst = gen_consensus(8, "path", 1.0, 4.0, seed=0)
        grad, _ = inst.local_objective()
        coupling, c = inst.coupling(), inst.arrays["c"]
        bound = math.sqrt(eps) * (1.0 + np.linalg.norm(c))
        runs = kick_first_run(monkeypatch, off_constraint(coupling, 10.0 * bound))
        recorded = recording_bilinear(monkeypatch)
        mine = OracleCounters()
        counted = dataclasses.replace(
            coupling,
            matvec=count_calls(coupling.matvec, mine, "calls_grad_R"),
            rmatvec=count_calls(coupling.rmatvec, mine, "calls_grad_R"),
        )
        report = solve_affine_constrained(
            grad_p=count_calls(grad, mine, "calls_grad_p"),
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=counted,
            c=c,
            D_y=inst.constants["D_y"],
            eps=eps,
            max_outer=max_outer,
        )
        assert len(runs) == 2
        (_, first_args, first), (start, second_args, second) = runs
        assert start is first.final_pair
        lam = coupling.lambda_max_BBt
        assert lam > 1.0
        assert first_args[0] == 2.0 * eps / 3.0
        assert second_args[0] == eps / (4.0 * lam)
        assert second_args[3] == max_outer - first.counters.outer_iterations
        _assert_affine_promises(report, reference_solution(inst).x, c, eps)
        assert report.final_pair is second.final_pair

        counters = report.counters
        for name, total in counters.as_dict().items():
            assert total == getattr(first.counters, name) + getattr(second.counters, name)
        assert counters.calls_grad_p == counters.outer_iterations
        assert counters.calls_grad_R == 4 * counters.outer_iterations + 3 * counters.inner_iterations
        assert [sum(r.iterations for _, r in steps) for steps in recorded] == [
            first.counters.inner_iterations, second.counters.inner_iterations]
        assert report.planned_outer == first.planned_outer + second.planned_outer
        # Outside the tallies: one grad_p(0) and a B^T check product per run.
        assert mine.calls_grad_p == counters.calls_grad_p + 1
        assert mine.calls_grad_R == counters.calls_grad_R + 2

    def test_runs_share_max_outer(self, monkeypatch):
        # One outer step is left after the first run, whose point is moved
        # to a residual of 100 times the bound; the resumed run is capped by
        # that step, which here brings the residual back within the bound.
        # A first run that used up max_outer is checked and never resumed.
        eps = 1e-6
        inst = gen_consensus(8, "path", 1.0, 4.0, seed=0)
        grad, _ = inst.local_objective()
        args = dict(
            grad_p=grad, L_p=inst.constants["local_L"], mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(), c=inst.arrays["c"], D_y=inst.constants["D_y"],
            eps=eps,
        )
        outer = solve_affine_constrained(**args).counters.outer_iterations
        bound = math.sqrt(eps) * (1.0 + np.linalg.norm(args["c"]))
        runs = kick_first_run(monkeypatch, off_constraint(args["coupling"], 100.0 * bound))
        report = solve_affine_constrained(**args, max_outer=outer + 1)
        assert len(runs) == 2
        assert runs[1][1][3] == 1
        assert report.counters.outer_iterations == outer + 1
        assert report.termination == "budget-exhausted"
        runs.clear()
        with pytest.raises(InfeasibleTarget):
            solve_affine_constrained(**args, max_outer=outer)
        assert len(runs) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 6),
        m_share=st.floats(0.0, 1.0),
        log_scale=st.floats(0.0, 3.0),
        eps=st.sampled_from([1e-4, 1e-6]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_rhs_meets_both_promises(self, n, m_share, log_scale, eps, seed):
        # Dense couplings of up to n columns, scale up to 1e3 and c != 0 in
        # range(B^T), against the KKT reference; InfeasibleTarget would fail
        # the test.
        m = 1 + int(m_share * (n - 1))
        args, x_star = _random_affine(np.random.default_rng(seed), n, m, 10**log_scale)
        report = solve_affine_constrained(**args, eps=eps)
        _assert_affine_promises(report, x_star, args["c"], eps)
        counters = report.counters
        assert counters.calls_grad_R == 4 * counters.outer_iterations + 3 * counters.inner_iterations

    def test_validates_inputs(self):
        B = np.eye(2)
        with pytest.raises(NonPositiveInput):
            solve_affine_constrained(
                grad_p=lambda x: x, L_p=1.0, mu_p=1.0,
                coupling=CouplingOperator.from_dense(B),
                c=np.zeros(2), D_y=1.0, eps=-1.0,
            )
        bad = [(math.nan, 1.0), (math.inf, 1.0), (1e-4, math.nan), (1e-4, math.inf)]
        for eps, D_y in bad:
            with pytest.raises(NonPositiveInput):
                solve_affine_constrained(
                    grad_p=lambda x: x, L_p=1.0, mu_p=1.0,
                    coupling=CouplingOperator.from_dense(B),
                    c=np.zeros(2), D_y=D_y, eps=eps,
                )


class TestSolveLinearComposites:
    def test_zero_data_stays_at_origin(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        report = solve_bilinear_linear_composites(
            d=np.zeros(3), c=np.zeros(3),
            coupling=CouplingOperator.from_dense(q),
            D_x=1.0, D_y=1.0, eps=1e-4,
        )
        assert unweighted_distance_sq(
            report.final_pair, PointPair(np.zeros(3), np.zeros(3))
        ) <= 1e-4

    def test_one_dimensional_closed_form(self):
        # x d + x b y - y c with b = d = c = 1: the stationary pair of the
        # unregularized problem is (1, -1).
        report = solve_bilinear_linear_composites(
            d=np.array([1.0]), c=np.array([1.0]),
            coupling=CouplingOperator.from_dense(np.array([[1.0]])),
            D_x=1.5, D_y=1.5, eps=1e-4,
        )
        target = PointPair([1.0], [-1.0])
        assert unweighted_distance_sq(report.final_pair, target) <= 1e-4

    def test_orthogonal_coupling_polylog_cost(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        d = rng.standard_normal(4)
        c = rng.standard_normal(4)
        kkt = np.block([[np.zeros((4, 4)), q], [q.T, np.zeros((4, 4))]])
        z = np.linalg.solve(kkt, np.concatenate([-d, c]))
        norms = {}
        for eps in [1e-2, 1e-3, 1e-4]:
            report = solve_bilinear_linear_composites(
                d=d, c=c, coupling=CouplingOperator.from_dense(q),
                D_x=1.25 * np.linalg.norm(z[:4]) + 1e-6,
                D_y=1.25 * np.linalg.norm(z[4:]) + 1e-6,
                eps=eps,
            )
            assert unweighted_distance_sq(
                report.final_pair, PointPair(z[:4], z[4:])
            ) <= eps
            norms[eps] = report.counters.calls_grad_R / math.log(1.0 / eps) ** 2
        ratios = list(norms.values())
        assert max(ratios) <= 3.0 * min(ratios)

    def test_restarted_cost_grows_with_log_eps(self):
        # Every restarted stage runs at the same eps/D^2, so seven more
        # decades of accuracy cost at most 3x the products (193 against 103
        # at 1e-10 and 1e-3).  One regularization around the origin spent
        # 174x as much at 1e-7 as at 1e-3.
        inst = gen_linear_bilinear(8, 4)
        products = {}
        for eps in (1e-3, 1e-10):
            report = solve_bilinear_linear_composites(
                d=inst.arrays["d"], c=inst.arrays["c"], coupling=inst.coupling(),
                D_x=inst.constants["D_x"], D_y=inst.constants["D_y"],
                eps=eps,
            )
            assert report.termination == "residual-met"
            products[eps] = report.counters.calls_grad_R
        assert products[1e-10] <= 3 * products[1e-3]

    def test_uncertified_stage_raises(self):
        # One outer step for the whole run ends the first of the stages at
        # eps 1e-7 short of its certificate, and its point would prove no
        # radius for the next stage.
        inst = gen_linear_bilinear(8, 4)
        with pytest.raises(BudgetExhausted, match="stage 1"):
            solve_bilinear_linear_composites(
                d=inst.arrays["d"], c=inst.arrays["c"], coupling=inst.coupling(),
                D_x=inst.constants["D_x"], D_y=inst.constants["D_y"],
                eps=1e-7, max_outer=1,
            )

    def test_weak_coupling_stays_within_eps(self):
        # With sigma(B) = 0.01, plan_cc's regularizer T_k/(8 T_{k-1}) =
        # 1.25e-3 leaves each stage's saddle 0.12 times as far from the
        # saddle as its centre, where the next radius allows 0.03: uncapped,
        # the run ended residual-met at about 4 eps.  The cap on mu keeps
        # every stage's point within its radius.
        inst = gen_linear_bilinear(1, 0, scale=0.01)
        reference = inst.saddle()
        eps = 1e-8
        report = solve_bilinear_linear_composites(
            d=inst.arrays["d"], c=inst.arrays["c"], coupling=inst.coupling(),
            D_x=inst.constants["D_x"], D_y=inst.constants["D_y"],
            eps=eps,
        )
        assert unweighted_distance_sq(report.final_pair, reference) <= eps

    def test_rejects_singular_coupling(self):
        B = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InconsistentConstants):
            solve_bilinear_linear_composites(
                d=np.zeros(2), c=np.zeros(2),
                coupling=CouplingOperator.from_dense(B),
                D_x=1.0, D_y=1.0, eps=1e-3,
            )


def _estimate_counted(B, **kwargs):
    # The estimator on dense B, with its reported product count checked
    # against a tally of the products it made.
    made = []
    lmax, lmin, used = estimate_spectral_bounds(
        lambda v: made.append("B") or B @ v,
        lambda v: made.append("B^T") or B.T @ v,
        B.shape[0],
        **kwargs,
    )
    assert used == len(made)
    return lmax, lmin, used


class TestSpectralEstimation:
    # One Lanczos run of up to d_x steps, two products each: the 5 x 7
    # coupling takes all 5 steps, and the rank-deficient ones stop at their
    # invariant subspaces, after 2 and 21 steps.
    def test_estimates_match_exact_eigenvalues(self, rng):
        B = rng.standard_normal((5, 7))
        lam = np.linalg.eigvalsh(B @ B.T)
        lmax, lmin, used = _estimate_counted(B, seed=4)
        assert lmax == pytest.approx(lam[-1], rel=1e-3)
        assert lmin == pytest.approx(lam[0], rel=2e-2, abs=1e-8)
        assert used > 0
        assert used <= 10

    def test_singular_coupling_floor(self, rng):
        B = np.zeros((3, 2))
        B[0, 0] = 2.0
        lmax, lmin, used = _estimate_counted(B, seed=1)
        assert lmax == pytest.approx(4.0, rel=1e-4)
        assert lmin <= 1e-6
        assert used <= 6

    def test_rank_deficient_coupling_cost(self):
        B = np.random.default_rng(0).standard_normal((30, 20))
        lam = np.linalg.eigvalsh(B @ B.T)
        lmax, lmin, used = _estimate_counted(B)
        assert used <= 20_000
        assert lmax == pytest.approx(lam[-1], rel=1e-3)
        assert lmin <= 1e-6
        assert used <= 44

    def test_near_singular_coupling_needs_every_step(self):
        # lambda_min 1.2e-5 under a top of 100: a step cap below d_x = 200
        # reads the bottom orders of magnitude too high.
        B = gen_bilinear(200, 200, 100.0, 1.0, 100.0, 1.0, 10.0, seed=3).arrays["B"]
        lam = np.linalg.eigvalsh(B @ B.T)
        lmax, lmin, used = _estimate_counted(B)
        assert lmax == pytest.approx(lam[-1], rel=1e-6)
        assert lmin == pytest.approx(lam[0], rel=1e-3)
        assert used <= 400

    def test_small_bottom_under_a_large_top(self):
        # Half the spectrum of B B^T is 1e-4..1e-2, half 1..1e3: a residual
        # stop judged on the top's scale, 1e-3 here, reads lambda_min as
        # 1.5e-4 after 30 steps.
        rng = np.random.default_rng(0)
        lam = np.concatenate([np.geomspace(1e-4, 1e-2, 20), np.linspace(1.0, 1e3, 20)])
        u, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        B = (u * np.sqrt(lam)) @ v.T
        lmax, lmin, used = _estimate_counted(B)
        assert lmax == pytest.approx(1e3, rel=1e-6)
        assert lmin == pytest.approx(1e-4, rel=1e-3)
        assert used <= 80

    def test_empty_coupling_reads_zero(self):
        assert _estimate_counted(np.zeros((0, 3))) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_from_dense_accepts_an_empty_coupling(self, shape):
        op = CouplingOperator.from_dense(np.zeros(shape))
        assert (op.d_x, op.d_y) == shape
        assert (op.lambda_max_BBt, op.lambda_min_BBt) == (0.0, 0.0)


def _symmetric_with_spectrum(seed, eigs):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigs), len(eigs))))
    m = (q * np.asarray(eigs)) @ q.T
    return 0.5 * (m + m.T)


class TestLanczos:
    @settings(max_examples=60, deadline=None)
    @given(
        eigs=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30),
        zeros=st.integers(0, 30),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    # Squared entries of this scale underflow: an unscaled norm of the
    # first residual reads 0 and stops at one step.
    @example(eigs=[0.0, 6.782960170311107e-195], zeros=0, steps=2, seed=0)
    # A top of one subnormal: the products themselves round at that scale,
    # where 1e-5 of it underflows to 0.
    @example(eigs=[0.0, 5e-324], zeros=0, steps=1, seed=0)
    def test_ritz_ends_lie_inside_the_spectrum(self, eigs, zeros, steps, seed):
        # Indefinite, and rank-deficient once zeros replace some eigenvalues.
        eigs = [0.0] * min(zeros, len(eigs)) + eigs[zeros:]
        m = _symmetric_with_spectrum(seed, eigs)
        exact = np.linalg.eigvalsh(m)
        slack = RITZ_SLACK * max(np.max(np.abs(exact)), 1e-300)
        lo, hi, _, _, used = lanczos_extremes(lambda v: m @ v, m.shape[0], steps, seed=seed)
        assert 1 <= used <= min(steps, m.shape[0])
        assert lo >= exact[0] - slack
        assert hi <= exact[-1] + slack
        lo, hi, _, _, _ = lanczos_extremes(lambda v: m @ v, m.shape[0], m.shape[0], seed=seed)
        tol = max(1e-5 * np.max(np.abs(exact)), 4 * np.finfo(float).smallest_subnormal)
        assert lo == pytest.approx(exact[0], abs=tol)
        assert hi == pytest.approx(exact[-1], abs=tol)

    def test_rank_one_stops_at_its_invariant_subspace(self):
        rng = np.random.default_rng(1)
        B = np.outer(rng.standard_normal(10), rng.standard_normal(8))
        made = []
        lo, hi, res_lo, res_hi, used = lanczos_extremes(
            lambda v: made.append(v) or B @ (B.T @ v), 10, 10)
        top = np.linalg.eigvalsh(B @ B.T)[-1]
        assert used == len(made) == 2
        assert hi == pytest.approx(top, rel=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12 * top)
        assert max(res_lo, res_hi) <= 1e-12 * top

    def test_zero_operator_reads_zero_after_one_product(self):
        made = []
        ends = lanczos_extremes(lambda v: made.append(v) or np.zeros(7), 7, 100)
        assert ends == (0.0, 0.0, 0.0, 0.0, 1)
        assert len(made) == 1

    def test_tridiagonal_solves_double_their_spacing(self, monkeypatch):
        # A bottom of 1e-6 under a top of 1 keeps the run going to its cap.
        sizes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda t: sizes.append(len(t)) or eigh(t))
        m = np.diag(np.geomspace(1e-6, 1.0, 300))
        assert lanczos_extremes(lambda v: m @ v, 300, 300)[4] == 300
        assert sizes == [10, 20, 40, 80, 160, 300]

    def test_empty_operator_reads_zero_without_a_product(self):
        made = []
        assert lanczos_extremes(lambda v: made.append(v) or v, 0, 100) == (0.0, 0.0, 0.0, 0.0, 0)
        assert made == []


def _cg_states(matvec, rmatvec, shift, rhs, x, steps):
    # The CG state at x and after each of up to ``steps`` further steps,
    # ending on breakdown.
    states = [_cg_start(matvec, rmatvec, shift, rhs, x)]
    for _ in range(steps):
        state = _cg_step(matvec, rmatvec, shift, *states[-1])
        if state is None:
            break
        states.append(state)
    return states


class TestConjugateGradients:
    def test_zero_residual_ends_iteration(self):
        # (1 + 1) x = 4 is solved exactly by the first step.
        one = lambda v: v.copy()
        states = _cg_states(one, one, 1.0, np.array([4.0]), np.zeros(1), 10)
        assert len(states) == 2
        x, bt_x, r = states[-1][:3]
        assert x[0] == 2.0 and bt_x[0] == 2.0 and r[0] == 0.0

    def test_nonpositive_curvature_ends_iteration(self):
        zero = lambda v: np.zeros_like(v)
        states = _cg_states(zero, zero, -1.0, np.ones(2), np.zeros(2), 10)
        assert len(states) == 1

    def test_underflowed_curvature_takes_scaled_step(self):
        # 1e-10 x = rhs at scale 1e-158: r^T r is subnormal and p^T M p
        # underflows to zero, yet the first step solves the system.
        zero = lambda v: np.zeros_like(v)
        rhs = 1e-158 * np.array([1.0, 2.0])
        states = _cg_states(zero, zero, 1e-10, rhs, np.zeros(2), 10)
        assert len(states) >= 2
        x, _, r = states[1][:3]
        assert np.allclose(1e-10 * x, rhs, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(r) <= 1e-12 * np.abs(rhs))

    def test_tracks_coupling_image_and_residual(self, rng):
        B = rng.standard_normal((6, 4))
        rhs = rng.standard_normal(6)
        for x, bt_x, r, _, _ in _cg_states(
            lambda v: B @ v, lambda v: B.T @ v, 0.5, rhs, np.ones(6), 50
        ):
            assert np.allclose(bt_x, B.T @ x)
            assert np.allclose(r, rhs - 0.5 * x - B @ (B.T @ x))
            if np.linalg.norm(r) <= 1e-10:
                break
        assert np.allclose(0.5 * x + B @ (B.T @ x), rhs)


def test_wrap_counting_bilinear_tallies(rng):
    bp, _, _ = _random_bilinear(rng, 3, 2)
    wrapped, counters = wrap_counting_bilinear(bp)
    wrapped.grad_p(np.zeros(3))
    wrapped.coupling.matvec(np.zeros(2))
    wrapped.coupling.rmatvec(np.zeros(3))
    wrapped.coupling.rmatvec(np.zeros(3))
    assert counters.calls_grad_p == 1
    assert counters.calls_grad_q == 0
    assert counters.calls_grad_R == 3
