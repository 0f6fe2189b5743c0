import math

import numpy as np
import pytest

from saddleslide import (
    CompositeSaddleProblem,
    InnerConfig,
    OuterState,
    PointPair,
    SmoothnessSpec,
    SolveConfig,
    check_inner_criterion,
    compute_potential,
    initial_potential,
    required_outer_iterations,
    solve,
    tune_parameters,
    weighted_distance_sq,
)
from saddleslide.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InconsistentConstants,
    MissingValueOracle,
    NonPositiveInput,
    NonPositiveModulus,
)
from saddleslide.outer import (
    TERMINATION_BUDGET,
    TERMINATION_RESIDUAL,
    X_DOMINANT,
    Y_DOMINANT,
    SolverTuning,
)

from conftest import random_quadratic_instance


class TestTuneParameters:
    def test_x_dominant_example(self):
        t = tune_parameters(SmoothnessSpec(L_p=4, L_q=1, L_R=2, mu_x=1, mu_y=1))
        assert t.alpha == pytest.approx(0.5)
        assert t.eta_x == pytest.approx(1 / 6)
        assert t.eta_y == pytest.approx(1 / 6)
        assert t.branch == X_DOMINANT

    def test_alpha_capped_at_one(self):
        t = tune_parameters(SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1))
        assert t.alpha == 1.0
        assert t.eta_x == pytest.approx(1 / 3)
        assert t.eta_y == pytest.approx(1 / 3)
        assert t.branch == X_DOMINANT  # tie resolves to the x branch

    def test_y_dominant_example(self):
        t = tune_parameters(SmoothnessSpec(L_p=1, L_q=9, L_R=3, mu_x=1, mu_y=1))
        assert t.alpha == pytest.approx(1 / 3)
        assert t.eta_y == pytest.approx(1 / 9)
        assert t.eta_x == pytest.approx(1 / 9)
        assert t.branch == Y_DOMINANT

    def test_zero_composite_constant(self):
        t = tune_parameters(SmoothnessSpec(L_p=0, L_q=0, L_R=2, mu_x=1, mu_y=2))
        assert t.alpha == 1.0
        assert t.eta_x == pytest.approx(1 / 3)
        assert t.eta_y == pytest.approx(1 / 6)

    def test_invalid_spec_propagates(self):
        with pytest.raises(NonPositiveModulus):
            tune_parameters(SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=-1, mu_y=1))

    def test_underflowing_ratio_raises_named_error(self):
        # Passes validate_spec, but mu_x/L_p underflows to 0 and so would alpha.
        spec = SmoothnessSpec(L_p=1e300, L_q=0, L_R=1e300, mu_x=1e-300, mu_y=1e-300)
        with pytest.raises(InconsistentConstants):
            tune_parameters(spec)

    def test_feasibility_over_random_specs(self, rng):
        for _ in range(1000):
            mu_x, mu_y = rng.uniform(1e-3, 10, size=2)
            L_p = rng.uniform(0, 1e3)
            L_q = rng.uniform(0, 1e3)
            L_R = max(mu_x, mu_y) * rng.uniform(1, 100)
            t = tune_parameters(SmoothnessSpec(L_p, L_q, L_R, mu_x, mu_y))
            assert 0.0 < t.alpha <= 1.0
            assert t.eta_x * mu_x >= t.alpha / 3 * (1 - 1e-9)
            assert t.eta_y * mu_y >= t.alpha / 3 * (1 - 1e-9)


class TestRequiredOuterIterations:
    SPEC2 = SmoothnessSpec(L_p=4, L_q=1, L_R=2, mu_x=1, mu_y=1)  # max ratio 2
    SPEC1 = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)  # max ratio 1

    def test_ratio_two_times_log_e(self):
        assert required_outer_iterations(self.SPEC2, math.e, 1.0) == 6

    def test_floor_at_one(self):
        assert required_outer_iterations(self.SPEC1, 0.5, 1.0) == 1

    def test_ratio_one_log_e_squared(self):
        assert required_outer_iterations(self.SPEC1, math.e**2, 1.0) == 6

    def test_non_positive_inputs(self):
        with pytest.raises(NonPositiveInput):
            required_outer_iterations(self.SPEC1, 0.0, 1.0)
        with pytest.raises(NonPositiveInput):
            required_outer_iterations(self.SPEC1, 1.0, -1.0)


class TestInnerCriterion:
    def test_zero_gradients_accept(self):
        t = SolverTuning(alpha=1.0, eta_x=1 / 6, eta_y=1 / 6, branch=X_DOMINANT)
        assert check_inner_criterion(
            np.zeros(2), np.zeros(2), np.ones(2), np.ones(2), t
        )

    def test_unit_case_accepts(self):
        t = SolverTuning(alpha=1.0, eta_x=1 / 6, eta_y=1 / 6, branch=X_DOMINANT)
        # lhs = 1/3, rhs = 1
        assert check_inner_criterion(
            np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([0.0]), t,
            floor_tol=0.0,
        )

    def test_zero_displacement_rejects(self):
        t = SolverTuning(alpha=1.0, eta_x=1 / 6, eta_y=1 / 6, branch=X_DOMINANT)
        assert not check_inner_criterion(
            np.array([1.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]), t,
            floor_tol=0.0,
        )

    def test_floor_escape(self):
        t = SolverTuning(alpha=1.0, eta_x=1 / 6, eta_y=1 / 6, branch=X_DOMINANT)
        g = np.array([1e-15])
        z = np.array([0.0])
        assert check_inner_criterion(g, g, z, z, t, floor_tol=1e-24)

    def test_dimension_mismatch(self):
        t = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        with pytest.raises(DimensionMismatch):
            check_inner_criterion(np.ones(2), np.ones(2), np.ones(3), np.ones(2), t)

    def test_non_finite_or_huge_inputs_raise(self):
        t = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        one = np.ones(1)
        with pytest.raises(DivergenceDetected):
            check_inner_criterion(one, np.array([np.nan]), one, one, t)
        with pytest.raises(DivergenceDetected):
            check_inner_criterion(one, one, np.array([1e151]), one, t)


def _decoupled_problem(mu_x=1.0, mu_y=1.0):
    return CompositeSaddleProblem(
        d_x=3,
        d_y=2,
        grad_p=lambda x: np.zeros_like(x),
        grad_q=lambda y: np.zeros_like(y),
        grad_R=lambda x, y: (mu_x * x, -mu_y * y),
        value_p=lambda x: 0.0,
        value_q=lambda y: 0.0,
    )


class TestSolve:
    def test_pure_coupling_converges_to_origin(self):
        problem = _decoupled_problem()
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)
        start = PointPair([2.0, -1.0, 0.5], [1.0, 3.0])
        origin = PointPair(np.zeros(3), np.zeros(2))
        psi0 = initial_potential(problem, spec, start, origin)
        config = SolveConfig(eps=1e-8, psi_0=psi0, known_solution=origin)
        report = solve(problem, spec, start, config)
        assert report.weighted_dist_sq[-1] <= 1e-8
        assert report.counters.outer_iterations == report.planned_outer

    def test_quadratic_spp_matches_kkt(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 2, 2, 3.0, 1.0, 2.0, 1.5, 2.0
        )
        start = PointPair(np.zeros(2), np.zeros(2))
        psi0 = initial_potential(problem, spec, start, saddle)
        config = SolveConfig(eps=1e-7, psi_0=psi0)
        report = solve(problem, spec, start, config)
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, saddle, t.eta_x, t.eta_y) <= 1e-6

    def test_one_dimensional_closed_form(self):
        # p(x) = x, R = x^2/2 + xy - y^2/2, q = 0; stationarity gives
        # x + 1 + y = 0 and x - y = 0, so the saddle is (-1/2, -1/2).
        problem = CompositeSaddleProblem(
            d_x=1,
            d_y=1,
            grad_p=lambda x: np.ones(1),
            grad_q=lambda y: np.zeros(1),
            grad_R=lambda x, y: (x + y, x - y),
            value_p=lambda x: float(x[0]),
            value_q=lambda y: 0.0,
        )
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=math.sqrt(2), mu_x=1, mu_y=1)
        target = PointPair([-0.5], [-0.5])
        start = PointPair([0.0], [0.0])
        psi0 = initial_potential(problem, spec, start, target)
        report = solve(problem, spec, start, SolveConfig(eps=1e-12, psi_0=psi0))
        assert report.final_pair.x[0] == pytest.approx(-0.5, abs=1e-6)
        assert report.final_pair.y[0] == pytest.approx(-0.5, abs=1e-6)

    def test_alpha_one_bookkeeping_is_exact(self, rng):
        # With alpha = 1 the gradient point is the iterate and the
        # extrapolation sequence tracks the accepted inner pair exactly.
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 3, 3, 1.0, 1.0, 1.0, 1.0, 1.2
        )
        assert tune_parameters(spec).alpha == 1.0
        seen = {}
        from saddleslide.inner import solve_auxiliary

        def probing_inner(aux, spec_, tuning, config):
            result = solve_auxiliary(aux, spec_, tuning, config)
            seen["x_hat"] = result.pair.x.copy()
            seen["anchor"] = aux.grad_p_anchor.copy()
            seen["x_k"] = aux.x_k.copy()
            return result

        config = SolveConfig(eps=1e-4, max_outer=1, track_inner_details=True)
        report = solve(problem, spec, PointPair(rng.standard_normal(3), rng.standard_normal(3)),
                       config, inner_solver=probing_inner)
        log = report.inner_logs[0]
        # x_g^0 == x^0 exactly and x_f^1 == x_hat exactly
        assert np.array_equal(log["grad_p_g"], problem.grad_p(log["x_k"]))
        assert np.array_equal(seen["x_hat"], log["x_hat"])

    def test_oracle_parsimony(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 4, 3, 5.0, 1.0, 2.0, 0.5, 3.0
        )
        start = PointPair(np.zeros(4), np.zeros(3))
        psi0 = initial_potential(problem, spec, start, saddle)
        report = solve(problem, spec, start, SolveConfig(eps=1e-6, psi_0=psi0))
        c = report.counters
        assert c.calls_grad_p == c.outer_iterations
        assert c.calls_grad_q == c.outer_iterations
        assert c.calls_grad_R == 2 * c.inner_iterations + c.outer_iterations

    def test_acceptance_soundness_from_logs(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 3, 4, 4.0, 1.0, 3.0, 2.0, 2.5
        )
        start = PointPair(np.zeros(3), np.zeros(4))
        psi0 = initial_potential(problem, spec, start, saddle)
        config = SolveConfig(eps=1e-6, psi_0=psi0, track_inner_details=True,
                             inner=InnerConfig(floor_tol=1e-24))
        report = solve(problem, spec, start, config)
        tuning = report.tuning
        assert len(report.inner_logs) == report.counters.outer_iterations
        for log in report.inner_logs:
            assert log["accepted_by"] == "criterion"
            assert check_inner_criterion(
                log["g_x"], log["g_y"],
                log["x_hat"] - log["x_k"], log["y_hat"] - log["y_k"],
                tuning, 1e-24,
            )

    def test_record_counts_match_iterations(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 3, 3, 2.0, 1.0, 2.0, 1.0, 1.5
        )
        start = PointPair(np.zeros(3), np.zeros(3))
        config = SolveConfig(eps=1e-4, max_outer=17, known_solution=saddle,
                             track_potential=True)
        report = solve(problem, spec, start, config)
        n = report.counters.outer_iterations
        assert len(report.weighted_dist_sq) == n
        assert len(report.unweighted_dist_sq) == n
        assert len(report.potentials) == n
        assert len(report.inner_iterations) == n

    def test_divergence_detected_on_understated_constants(self, rng):
        # Declaring a far smaller coupling constant than the truth makes the
        # inner step too long and the iteration explode.
        problem, _, saddle, _ = random_quadratic_instance(
            rng, 3, 3, 1.0, 1.0, 1.0, 1.0, 60.0
        )
        lying_spec = SmoothnessSpec(L_p=1.0, L_q=1.0, L_R=1.0, mu_x=1.0, mu_y=1.0)
        start = PointPair(np.ones(3), np.ones(3))
        config = SolveConfig(eps=1e-8, max_outer=500, known_solution=saddle)
        with pytest.raises(DivergenceDetected):
            solve(problem, lying_spec, start, config)

    def test_residual_stop_certifies_distance(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 3, 3, 2.0, 1.0, 2.0, 1.0, 1.5
        )
        start = PointPair(np.zeros(3), np.zeros(3))
        config = SolveConfig(eps=1e-2, max_outer=10_000, use_residual_stop=True)
        report = solve(problem, spec, start, config)
        assert report.termination == TERMINATION_RESIDUAL
        # The stop certifies eps/4 in the plain squared distance.
        dx = report.final_pair.x - saddle.x
        dy = report.final_pair.y - saddle.y
        assert float(dx @ dx + dy @ dy) <= 1e-2
        c = report.counters
        assert c.calls_grad_p == c.outer_iterations  # surrogate costs nothing

    def test_invalid_config_rejected(self, rng):
        problem, spec, _, _ = random_quadratic_instance(
            rng, 2, 2, 2.0, 1.0, 2.0, 1.0, 1.5
        )
        start = PointPair(np.zeros(2), np.zeros(2))
        with pytest.raises(NonPositiveInput):
            solve(problem, spec, start, SolveConfig(eps=0.0))
        with pytest.raises(NonPositiveInput):
            solve(problem, spec, start, SolveConfig(eps=1e-6, max_outer=0))

    def test_budget_from_computed_potential(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 3, 3, 2.0, 1.0, 2.0, 1.0, 1.5
        )
        start = PointPair(np.ones(3), np.ones(3))
        config = SolveConfig(eps=1e-6, known_solution=saddle, track_potential=True)
        report = solve(problem, spec, start, config)
        expected = required_outer_iterations(spec, report.psi_initial, 1e-6)
        assert report.planned_outer == expected
        assert report.termination == TERMINATION_BUDGET


class TestComputePotential:
    def _state(self, z, z_f):
        return OuterState(k=0, z=z, z_f=z_f, z_g=z,
                          grad_p_g=np.zeros(z.x.size), grad_q_g=np.zeros(z.y.size))

    def test_zero_at_solution(self):
        problem = _decoupled_problem()
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)
        tuning = tune_parameters(spec)
        sol = PointPair(np.zeros(3), np.zeros(2))
        assert compute_potential(problem, spec, tuning, self._state(sol, sol), sol) == 0.0

    def test_distance_only_for_zero_composites(self):
        problem = _decoupled_problem()
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        sol = PointPair(np.zeros(3), np.zeros(2))
        z = PointPair([1.0, 0.0, 0.0], [1.0, 0.0])
        assert compute_potential(problem, spec, tuning, self._state(z, sol), sol) == pytest.approx(2.0)

    def test_bregman_term_weighting(self):
        # p = ||x||^2/2, alpha = 1, eta = 1/3, unit offsets in the x block.
        problem = CompositeSaddleProblem(
            d_x=1, d_y=1,
            grad_p=lambda x: x,
            grad_q=lambda y: np.zeros(1),
            grad_R=lambda x, y: (x, -y),
            value_p=lambda x: 0.5 * float(x @ x),
            value_q=lambda y: 0.0,
        )
        spec = SmoothnessSpec(L_p=1, L_q=0, L_R=1, mu_x=1, mu_y=1)
        tuning = SolverTuning(alpha=1.0, eta_x=1 / 3, eta_y=1 / 3, branch=X_DOMINANT)
        sol = PointPair([0.0], [0.0])
        z = PointPair([1.0], [0.0])
        value = compute_potential(problem, spec, tuning, self._state(z, z), sol)
        assert value == pytest.approx(4.0)

    def test_missing_value_oracle(self):
        problem = CompositeSaddleProblem(
            d_x=1, d_y=1,
            grad_p=lambda x: x,
            grad_q=lambda y: y,
            grad_R=lambda x, y: (x, -y),
        )
        spec = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)
        tuning = tune_parameters(spec)
        sol = PointPair([0.0], [0.0])
        with pytest.raises(MissingValueOracle):
            compute_potential(problem, spec, tuning, self._state(sol, sol), sol)
