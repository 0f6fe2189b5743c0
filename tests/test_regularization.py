import math

import numpy as np
import pytest

from saddleslide import (
    CompositeSaddleProblem,
    PointPair,
    RegularizationPlan,
    SmoothnessSpec,
    SolveConfig,
    apply_plan,
    initial_potential,
    plan_cc,
    plan_scc,
    solve,
    tune_parameters,
    unweighted_distance_sq,
)
from saddleslide.errors import CaseMismatch, NonPositiveInput
from saddleslide.regularization import CASE_CC, CASE_SCC

from conftest import random_sym_psd


class TestPlanScc:
    def test_basic_example(self):
        plan = plan_scc(eps=1.2, D_y=1.0)
        assert plan.case == CASE_SCC
        assert plan.coeff_x == 0.0
        assert plan.coeff_y == pytest.approx(0.1)
        assert plan.inner_target == pytest.approx(0.8)

    def test_radius_scaling(self):
        assert plan_scc(12.0, np.sqrt(10.0)).coeff_y == pytest.approx(0.1)

    def test_doubling_radius_quarters_coefficient(self):
        base = plan_scc(1.0, 1.0).coeff_y
        assert plan_scc(1.0, 2.0).coeff_y == pytest.approx(base / 4.0)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveInput):
            plan_scc(0.0, 1.0)
        with pytest.raises(NonPositiveInput):
            plan_scc(1.0, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(NonPositiveInput):
                plan_scc(bad, 1.0)
            with pytest.raises(NonPositiveInput):
                plan_scc(1.0, bad)


class TestPlanCc:
    def test_unit_example(self):
        plan = plan_cc(eps=16.0, D_x=1.0, D_y=1.0)
        assert plan.coeff_x == pytest.approx(1.0)
        assert plan.coeff_y == pytest.approx(1.0)
        assert plan.inner_target == pytest.approx(8.0)

    def test_asymmetric_radii(self):
        plan = plan_cc(eps=1.0, D_x=2.0, D_y=1.0)
        assert plan.coeff_x == pytest.approx(1 / 64)
        assert plan.coeff_y == pytest.approx(1 / 16)

    def test_symmetric_radii_give_equal_coefficients(self):
        plan = plan_cc(eps=0.3, D_x=1.7, D_y=1.7)
        assert plan.coeff_x == plan.coeff_y

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveInput):
            plan_cc(1.0, 0.0, 1.0)
        for bad in (math.nan, math.inf):
            for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(NonPositiveInput):
                    plan_cc(*args)


def _bilinear_cc_problem(B):
    d_x, d_y = B.shape
    return CompositeSaddleProblem(
        d_x=d_x,
        d_y=d_y,
        grad_p=lambda x: np.zeros(d_x),
        grad_q=lambda y: np.zeros(d_y),
        grad_R=lambda x, y: (B @ y, B.T @ x),
        value_p=lambda x: 0.0,
        value_q=lambda y: 0.0,
        value_R=lambda x, y: float(x @ (B @ y)),
    )


class TestApplyPlan:
    def test_zero_coefficients_leave_problem_unchanged(self, rng):
        B = rng.standard_normal((3, 3))
        problem = _bilinear_cc_problem(B)
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=2.0, mu_x=0.0, mu_y=0.0)
        degenerate = RegularizationPlan(
            case=CASE_CC, D_x=1.0, D_y=1.0, eps=1.0,
            coeff_x=0.0, coeff_y=0.0, inner_target=0.5,
        )
        wrapped, new_spec = apply_plan(problem, spec, degenerate)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        rx0, ry0 = problem.grad_R(x, y)
        rx1, ry1 = wrapped.grad_R(x, y)
        assert np.array_equal(rx0, rx1) and np.array_equal(ry0, ry1)
        assert new_spec == spec

    def test_gradient_identity(self, rng):
        B = rng.standard_normal((4, 2))
        problem = _bilinear_cc_problem(B)
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=3.0, mu_x=0.0, mu_y=0.0)
        plan = plan_cc(eps=0.5, D_x=1.3, D_y=0.7)
        wrapped, _ = apply_plan(problem, spec, plan)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(2)
            rx0, ry0 = problem.grad_R(x, y)
            rx1, ry1 = wrapped.grad_R(x, y)
            assert np.allclose(rx1, rx0 + 2 * plan.coeff_x * x, atol=1e-13)
            assert np.allclose(ry1, ry0 - 2 * plan.coeff_y * y, atol=1e-13)

    def test_case_mismatch(self):
        problem = _bilinear_cc_problem(np.eye(2))
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1.0, mu_x=0.0, mu_y=0.0)
        with pytest.raises(CaseMismatch):
            apply_plan(problem, spec, plan_scc(eps=1.0, D_y=1.0))

    def test_modulus_bookkeeping_enables_tuning(self, rng):
        for _ in range(50):
            spec = SmoothnessSpec(
                L_p=rng.uniform(0, 5), L_q=rng.uniform(0, 5),
                L_R=rng.uniform(0.1, 5), mu_x=0.0, mu_y=0.0,
            )
            plan = plan_cc(
                eps=rng.uniform(0.01, 1), D_x=rng.uniform(0.2, 3),
                D_y=rng.uniform(0.2, 3),
            )
            problem = _bilinear_cc_problem(np.eye(2))
            _, new_spec = apply_plan(problem, spec, plan)
            tuning = tune_parameters(new_spec)  # must not raise
            assert tuning.alpha > 0.0

    def test_cc_toy_saddle_recovered_through_solver(self):
        # Pure bilinear coupling x'y with the identity: the original saddle
        # is the origin, the regularizers keep it there, and the solver must
        # land inside the eps ball.
        eps = 0.1
        B = np.eye(2)
        problem = _bilinear_cc_problem(B)
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1.0, mu_x=0.0, mu_y=0.0)
        plan = plan_cc(eps=eps, D_x=1.0, D_y=1.0)
        wrapped, new_spec = apply_plan(problem, spec, plan)
        origin = PointPair(np.zeros(2), np.zeros(2))
        # Regularized stationarity: 2 c_x x + B y = 0 and B'x - 2 c_y y = 0,
        # whose unique solution is the origin.
        start = PointPair([0.7, -0.4], [0.3, 0.5])
        tuning = tune_parameters(new_spec)
        psi0 = initial_potential(wrapped, new_spec, start, origin)
        tau = plan.inner_target / max(1.0, tuning.eta_x, tuning.eta_y)
        report = solve(wrapped, new_spec, start, SolveConfig(eps=tau, psi_0=psi0))
        assert unweighted_distance_sq(report.final_pair, origin) <= eps


class TestLemmaOneEndToEnd:
    def _make_cc_instance(self, rng, d):
        P = random_sym_psd(rng, d, 0.0, rng.uniform(0.2, 2.0))
        Q = random_sym_psd(rng, d, 0.0, rng.uniform(0.2, 2.0))
        B = rng.standard_normal((d, d))
        s = np.linalg.svd(B, compute_uv=False)
        B *= rng.uniform(0.8, 1.5) / s[0]
        dv = rng.standard_normal(d) * 0.5
        cv = rng.standard_normal(d) * 0.5
        kkt = np.block([[P, B], [B.T, -Q]])
        z = np.linalg.solve(kkt, np.concatenate([-dv, cv]))
        return P, Q, B, dv, cv, z

    def test_perturbed_regularized_saddle_is_eps_solution(self, rng):
        # Any point within the plan's accuracy of the regularized saddle is
        # an eps-solution of the original problem.
        failures = 0
        for _ in range(50):
            d = int(rng.integers(1, 4))
            eps = float(rng.choice([1e-2, 1e-3]))
            P, Q, B, dv, cv, z = self._make_cc_instance(rng, d)
            D_x = 1.05 * max(np.linalg.norm(z[:d]), 0.1)
            D_y = 1.05 * max(np.linalg.norm(z[d:]), 0.1)
            plan = plan_cc(eps, D_x, D_y)
            reg = np.block([
                [P + 2 * plan.coeff_x * np.eye(d), B],
                [B.T, -(Q + 2 * plan.coeff_y * np.eye(d))],
            ])
            z_reg = np.linalg.solve(reg, np.concatenate([-dv, cv]))
            radius = np.sqrt(plan.inner_target)
            for _ in range(6):
                direction = rng.standard_normal(2 * d)
                direction /= np.linalg.norm(direction)
                candidate = z_reg + radius * direction
                if np.sum((candidate - z) ** 2) > eps:
                    failures += 1
        assert failures == 0


class TestLemmaSccPrimal:
    """`plan_scc` certifies the primal block: a point's y plays no part."""

    @pytest.mark.parametrize("topology", ["path", "ring", "star"])
    def test_x_near_regularized_saddle_is_eps_solution(self, rng, topology):
        # Consensus min sum_i a_i (x_i - b_i)^2 / 2 s.t. W x = 0, wrapped with
        # the plan's dual regularizer: any x within the plan's accuracy of the
        # wrapped saddle's x is within eps of x*, whatever y goes with it.
        # Besides random directions, the one away from x* is the worst.
        from saddleslide.bench.generators import gen_consensus

        failures = 0
        for n in (4, 8, 12, 20):
            for seed in range(3):
                inst = gen_consensus(n, topology, 1.0, 4.0, seed)
                a, b, W = (inst.arrays[k] for k in ("local_a", "local_b", "W"))
                x_star = inst.arrays["x_star"]
                for eps in (1e-4, 1e-6, 1e-8):
                    plan = plan_scc(eps, inst.constants["D_y"])
                    mu_q = 2.0 * plan.coeff_y
                    reg = np.block([[np.diag(a), W], [W.T, -mu_q * np.eye(n)]])
                    x_reg = np.linalg.solve(reg, np.concatenate([a * b, np.zeros(n)]))[:n]
                    directions = [x_reg - x_star] + [rng.standard_normal(n) for _ in range(6)]
                    for direction in directions:
                        direction /= np.linalg.norm(direction)
                        candidate = x_reg + np.sqrt(plan.inner_target) * direction
                        if not np.sum((candidate - x_star) ** 2) <= eps:
                            failures += 1
        assert failures == 0
