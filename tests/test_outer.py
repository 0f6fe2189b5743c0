import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleslide import (
    CompositeSaddleProblem,
    InnerConfig,
    PointPair,
    SmoothnessSpec,
    SolveConfig,
    check_inner_criterion,
    initial_potential,
    required_outer_iterations,
    solve,
    solve_bilinear,
    split_bilinear,
    tune_parameters,
    weighted_distance_sq,
    wrap_counting,
)
from saddleslide.bilinear import make_bilinear_inner_solver, wrap_counting_bilinear
from saddleslide.bench.generators import (
    gen_bilinear,
    gen_quadratic_spp,
    reference_solution,
)
from saddleslide.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InconsistentConstants,
    MissingValueOracle,
    NonPositiveInput,
    NonPositiveModulus,
)
from saddleslide.inner import AuxiliaryProblem, InnerResult, solve_auxiliary
from saddleslide.outer import (
    TERMINATION_BUDGET,
    TERMINATION_RESIDUAL,
    X_DOMINANT,
    Y_DOMINANT,
    SolverTuning,
    potential,
    residual_bounds,
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

    @pytest.mark.parametrize("psi_0, eps", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_inputs(self, psi_0, eps):
        with pytest.raises(NonPositiveInput):
            required_outer_iterations(self.SPEC1, psi_0, eps)

    def test_overflowing_quotient(self):
        # psi_0/eps = 1e600 overflows float64; 3 ln(1e600) = 4144.65.
        assert required_outer_iterations(self.SPEC1, 1e300, 1e-300) == 4145
        # And 1e-600 underflows to 0; its logarithm is negative.
        assert required_outer_iterations(self.SPEC1, 1e-300, 1e300) == 1

    def test_overflowing_condition_number_raises_named_error(self):
        # L_p/mu_x = 1e600 makes the budget itself infinite.
        spec = SmoothnessSpec(L_p=1e300, L_q=1, L_R=1, mu_x=1e-300, mu_y=1)
        with pytest.raises(InconsistentConstants):
            required_outer_iterations(spec, 10.0, 1e-8)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", ["x", "y"])
    def test_huge_inner_pair_raises(self, block):
        # An inner solver outside the library need not pass its pair through
        # check_inner_criterion's guard, so solve's own guard must catch a
        # finite entry whose square overflows.
        problem = _decoupled_problem()
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)

        def huge_inner(aux, spec_, tuning, config):
            x, y = np.zeros(3), np.zeros(2)
            (x if block == "x" else y)[0] = 1e200
            return InnerResult(PointPair(x, y), 0, np.zeros(3), np.zeros(2))

        start = PointPair(np.zeros(3), np.zeros(2))
        # The entry's square overflows to inf, which is what trips the guard;
        # the overflow raises no warning first.
        with pytest.raises(DivergenceDetected, match="outer step 0"):
            solve(problem, spec, start, SolveConfig(eps=1e-8, max_outer=5),
                  inner_solver=huge_inner)

    @pytest.mark.filterwarnings("error")
    def test_huge_coupling_output_raises(self):
        # The coupling oracle's second output has an entry of 1e200: the
        # inner criterion's guard raises, with no overflow warning first.
        problem = _decoupled_problem()
        calls = []

        def grad_R(x, y):
            calls.append(None)
            r_x, r_y = problem.grad_R(x, y)
            if len(calls) > 1:
                r_x = r_x + 1e200
            return r_x, r_y

        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)
        start = PointPair(np.ones(3), np.ones(2))
        with pytest.raises(DivergenceDetected, match="inner iterate"):
            solve(dataclasses.replace(problem, grad_R=grad_R), spec, start,
                  SolveConfig(eps=1e-8, max_outer=5))

    def test_residual_stop_certifies_distance(self, rng):
        problem, spec, saddle, _ = random_quadratic_instance(
            rng, 3, 3, 2.0, 1.0, 2.0, 1.0, 1.5
        )
        start = PointPair(np.zeros(3), np.zeros(3))
        config = SolveConfig(eps=1e-2, max_outer=10_000, use_residual_stop=True)
        report = solve(problem, spec, start, config)
        assert report.termination == TERMINATION_RESIDUAL
        # The stop certifies eps in the step-weighted squared distance, and
        # eta_x, eta_y <= 1/(3 mu) = 1/3 here, so the plain one is below eps/3.
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

    @staticmethod
    def _small_instance():
        inst = gen_quadratic_spp(4, 4, 4.0, 1.0, 4.0, 1.0, 3.0, 0)
        return inst.problem(), inst.spec(), PointPair(np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("psi_0", [-1.0, math.nan, math.inf])
    def test_bad_psi_0_rejected(self, psi_0):
        # A negative or NaN bound used to run all max_outer steps and report
        # budget-exhausted; an infinite one raised a bare OverflowError.
        problem, spec, start = self._small_instance()
        with pytest.raises(NonPositiveInput):
            solve(problem, spec, start, SolveConfig(eps=1e-6, psi_0=psi_0, max_outer=50))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    @pytest.mark.parametrize("psi_0", [None, 1.0])
    def test_non_finite_eps_rejected(self, eps, psi_0):
        problem, spec, start = self._small_instance()
        with pytest.raises(NonPositiveInput):
            solve(problem, spec, start, SolveConfig(eps=eps, psi_0=psi_0, max_outer=50))

    def test_zero_psi_0_plans_max_outer(self):
        problem, spec, start = self._small_instance()
        report = solve(problem, spec, start, SolveConfig(eps=1e-6, psi_0=0.0, max_outer=7))
        assert report.planned_outer == 7
        assert report.counters.outer_iterations == 7

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


# Log-uniform draws: mu_x/mu_y over [0.01, 100], condition numbers over
# [1, 100], the coupling gain over [1, 20] and eps over [1e-8, 1e-2].
_moduli_ratio = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
_condition = st.floats(0.0, 2.0).map(lambda e: 10.0**e)
_gain = st.floats(0.0, 1.3).map(lambda e: 10.0**e)
_target = st.floats(2.0, 8.0).map(lambda e: 10.0**-e)
_CERTIFICATE = settings(max_examples=25, deadline=None)


def _assert_certified(report, spec, psi_0, eps, reference):
    # On 528 draws per route from these ranges, every corner among them,
    # every run certified, at most 0.84 eps (quadratic) and 0.95 eps
    # (bilinear) from the reference, so a certificate that stops firing
    # fails here.
    assert report.termination == TERMINATION_RESIDUAL
    t = report.tuning
    assert weighted_distance_sq(report.final_pair, reference, t.eta_x, t.eta_y) <= eps
    assert report.counters.outer_iterations <= required_outer_iterations(spec, psi_0, eps)


class TestResidualCertificate:
    """The residual stop proves the weighted target it stops on."""

    @_CERTIFICATE
    @given(d=st.integers(2, 6), ratio=_moduli_ratio, cond_p=_condition,
           cond_q=_condition, gain=_gain, eps=_target, seed=st.integers(0, 2**31 - 1))
    def test_quadratic(self, d, ratio, cond_p, cond_q, gain, eps, seed):
        mu_x, mu_y = 1.0, 1.0 / ratio
        inst = gen_quadratic_spp(
            d, d, cond_p * mu_x, mu_x, cond_q * mu_y, mu_y, gain * max(mu_x, mu_y), seed
        )
        problem, spec = inst.problem(), inst.spec()
        start = PointPair(np.zeros(d), np.zeros(d))
        reference = reference_solution(inst)
        psi_0 = initial_potential(problem, spec, start, reference)
        config = SolveConfig(eps=eps, psi_0=psi_0, use_residual_stop=True)
        report = solve(problem, spec, start, config)
        _assert_certified(report, spec, psi_0, eps, reference)

    @_CERTIFICATE
    @given(d=st.integers(2, 6), ratio=_moduli_ratio, cond_p=_condition,
           cond_q=_condition, gain=_gain, eps=_target, seed=st.integers(0, 2**31 - 1))
    def test_bilinear(self, d, ratio, cond_p, cond_q, gain, eps, seed):
        mu_p, mu_q = 1.0, 1.0 / ratio
        inst = gen_bilinear(
            d, d, cond_p * mu_p, mu_p, cond_q * mu_q, mu_q,
            gain * np.sqrt(mu_p * mu_q), seed,
        )
        bp = inst.bilinear_problem()
        composite, spec = split_bilinear(bp)
        start = PointPair(np.zeros(d), np.zeros(d))
        reference = reference_solution(inst)
        psi_0 = initial_potential(composite, spec, start, reference)
        report = solve_bilinear(
            bp, start, SolveConfig(eps=eps, psi_0=psi_0, use_residual_stop=True)
        )
        _assert_certified(report, spec, psi_0, eps, reference)


class TestExtrapolationStop:
    """The residual stop may certify the step's extrapolation point zg."""

    def test_stops_on_extrapolation_point(self):
        inst = gen_quadratic_spp(10, 10, 100, 1, 100, 1, 10, 0)
        problem, spec = inst.problem(), inst.spec()
        start = PointPair(np.zeros(10), np.zeros(10))
        reference = reference_solution(inst)
        psi_0 = initial_potential(problem, spec, start, reference)
        config = SolveConfig(eps=1e-8, psi_0=psi_0, use_residual_stop=True,
                             track_inner_details=True)
        report = solve(problem, spec, start, config)
        assert report.termination == TERMINATION_RESIDUAL
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, reference, t.eta_x, t.eta_y) <= 1e-8
        # Returning a point other than the last accepted pair means zg.
        assert not np.array_equal(report.final_pair.x, report.inner_logs[-1]["x_hat"])
        c = report.counters
        # 241 steps; the inner-pair bound alone needs 281.
        assert c.outer_iterations <= 250
        assert c.calls_grad_p == c.outer_iterations
        assert c.calls_grad_R == 2 * c.inner_iterations + c.outer_iterations

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), ratio=_moduli_ratio, cond_p=_condition,
           cond_q=_condition, gain=_gain, seed=st.integers(0, 2**31 - 1),
           step=st.floats(-8.0, 1.0))
    def test_bounds_dominate_exact_residual(self, d, ratio, cond_p, cond_q, gain,
                                            seed, step):
        mu_x, mu_y = 1.0, 1.0 / ratio
        inst = gen_quadratic_spp(
            d, d, cond_p * mu_x, mu_x, cond_q * mu_y, mu_y, gain * max(mu_x, mu_y), seed
        )
        problem, spec = inst.problem(), inst.spec()
        rng = np.random.default_rng(seed)
        x_hat, y_hat = rng.standard_normal(d), rng.standard_normal(d)
        xg = x_hat + 10.0**step * rng.standard_normal(d)
        yg = y_hat + 10.0**step * rng.standard_normal(d)

        def scaled_sq(x, y):
            # ||D^-1/2 F(x, y)||^2 from the exact, uncounted oracles.
            r_x, r_y = problem.grad_R(x, y)
            f_x = problem.grad_p(x) + r_x
            f_y = problem.grad_q(y) - r_y
            return float(f_x @ f_x) / spec.mu_x + float(f_y @ f_y) / spec.mu_y

        r_x, r_y = problem.grad_R(x_hat, y_hat)
        rx = problem.grad_p(xg) + r_x
        ry = problem.grad_q(yg) - r_y
        at_hat, at_g = residual_bounds(
            np.linalg.norm(rx), np.linalg.norm(ry),
            np.linalg.norm(x_hat - xg), np.linalg.norm(y_hat - yg), spec,
        )
        # The relative slack absorbs rounding in the declared constants.
        assert scaled_sq(x_hat, y_hat) <= at_hat * (1.0 + 1e-9)
        assert scaled_sq(xg, yg) <= at_g * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Reference copy of `solve`'s loop in its plain form: one extrapolation
# formula for every alpha, the displacement recomputed where it is used, the
# residual with its plain sign, norms by np.linalg.norm and no diagnostics.
# The library's loop must produce the same floating-point results bit for bit.


def _reference_solve(problem, spec, start, config, inner_solver=None, counters=None):
    tuning = tune_parameters(spec)
    alpha, eta_x, eta_y = tuning.alpha, tuning.eta_x, tuning.eta_y
    inner_config = config.inner if config.inner is not None else InnerConfig()
    inner_solver = inner_solver if inner_solver is not None else solve_auxiliary
    counted, counters = wrap_counting(problem, counters)
    planned = min(config.max_outer,
                  required_outer_iterations(spec, config.psi_0, config.eps))
    weight = max(1.0 / (eta_x * spec.mu_x), 1.0 / (eta_y * spec.mu_y))
    x, y = start.x.copy(), start.y.copy()
    xf, yf = x.copy(), y.copy()
    inner_iterations = []
    for _ in range(planned):
        xg = alpha * x + (1.0 - alpha) * xf
        yg = alpha * y + (1.0 - alpha) * yf
        aux = AuxiliaryProblem(counted.grad_R, counted.grad_p(xg), counted.grad_q(yg),
                               x, y, eta_x, eta_y)
        result = inner_solver(aux, spec, tuning, inner_config)
        x_hat, y_hat = result.pair.x, result.pair.y
        counters.outer_iterations += 1
        counters.inner_iterations += result.iterations
        inner_iterations.append(result.iterations)
        if config.use_residual_stop:
            rx = result.grad_x - (x_hat - x) / eta_x
            ry = -result.grad_y - (y_hat - y) / eta_y
            at_hat, at_g = residual_bounds(
                np.linalg.norm(rx), np.linalg.norm(ry),
                np.linalg.norm(x_hat - xg), np.linalg.norm(y_hat - yg), spec,
            )
            if weight * at_hat <= config.eps:
                return PointPair(x_hat, y_hat), counters, inner_iterations, TERMINATION_RESIDUAL
            if weight * at_g <= config.eps:
                return PointPair(xg, yg), counters, inner_iterations, TERMINATION_RESIDUAL
        # With alpha = 1 the extrapolation sequence is the accepted pair
        # itself, which xg + (x_hat - x) only approximates in floating point.
        if alpha == 1.0:
            xf, yf = x_hat, y_hat
        else:
            xf, yf = xg + alpha * (x_hat - x), yg + alpha * (y_hat - y)
        x, y = x_hat - eta_x * result.grad_x, y_hat + eta_y * result.grad_y
    return PointPair(x, y), counters, inner_iterations, TERMINATION_BUDGET


def _assert_matches_reference(report, want):
    pair, counters, inner_iterations, termination = want
    assert np.array_equal(report.final_pair.x, pair.x)
    assert np.array_equal(report.final_pair.y, pair.y)
    assert report.counters.as_dict() == counters.as_dict()
    assert report.inner_iterations == inner_iterations
    assert report.termination == termination


# (d_x, d_y, L_p, mu_x, L_q, mu_y, L_R): alpha < 1 with equal moduli, where
# the stop certifies the extrapolation point; alpha < 1 with unequal moduli
# and steps; alpha == 1; odd dimensions, where the y block of the stacked
# iterate starts 56 bytes in, off the 16-byte alignment of a fresh array.
_LOOP_CASES = {
    "alpha<1": (10, 8, 100.0, 1.0, 100.0, 1.0, 10.0),
    "alpha<1-unequal": (10, 8, 4.0, 1.0, 0.04, 0.01, 1.0),
    "alpha=1": (10, 8, 1.0, 1.0, 0.5, 1.0, 4.0),
    "odd-dims": (7, 9, 100.0, 1.0, 100.0, 1.0, 10.0),
}


class TestSolveReference:
    """Bit-equal results against the reference copy of `solve`'s loop."""

    @pytest.mark.parametrize("use_residual_stop", [True, False])
    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_quadratic_matches_reference(self, case, use_residual_stop):
        d_x, d_y, L_p, mu_x, L_q, mu_y, L_R = _LOOP_CASES[case]
        inst = gen_quadratic_spp(d_x, d_y, L_p, mu_x, L_q, mu_y, L_R, 0)
        problem, spec = inst.problem(), inst.spec()
        assert (tune_parameters(spec).alpha == 1.0) == (case == "alpha=1")
        start = PointPair(np.zeros(d_x), np.zeros(d_y))
        psi_0 = initial_potential(problem, spec, start, reference_solution(inst))
        config = SolveConfig(eps=1e-8, psi_0=psi_0, use_residual_stop=use_residual_stop)
        report = solve(problem, spec, start, config)
        want = _reference_solve(problem, spec, start, config)
        _assert_matches_reference(report, want)
        assert (report.termination == TERMINATION_RESIDUAL) == use_residual_stop

    @pytest.mark.parametrize("use_residual_stop", [True, False])
    def test_bilinear_matches_reference(self, use_residual_stop):
        inst = gen_bilinear(30, 20, 4.0, 1.0, 0.04, 0.01, 2.0, 1)
        bp = inst.bilinear_problem()
        start = PointPair(np.zeros(30), np.zeros(20))
        composite, spec = split_bilinear(bp)
        psi_0 = initial_potential(composite, spec, start, reference_solution(inst))
        config = SolveConfig(eps=1e-8, psi_0=psi_0, use_residual_stop=use_residual_stop)
        report = solve_bilinear(bp, start, config)
        wrapped, counters = wrap_counting_bilinear(bp)
        want = _reference_solve(composite, spec, start, config,
                                inner_solver=make_bilinear_inner_solver(wrapped),
                                counters=counters)
        _assert_matches_reference(report, want)
        assert (report.termination == TERMINATION_RESIDUAL) == use_residual_stop


class TestComputePotential:
    def test_zero_at_solution(self):
        problem = _decoupled_problem()
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)
        tuning = tune_parameters(spec)
        sol = PointPair(np.zeros(3), np.zeros(2))
        assert potential(problem, tuning, sol)(sol.x, sol.y, sol.x, sol.y) == 0.0

    def test_distance_only_for_zero_composites(self):
        problem = _decoupled_problem()
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        sol = PointPair(np.zeros(3), np.zeros(2))
        z = PointPair([1.0, 0.0, 0.0], [1.0, 0.0])
        assert potential(problem, tuning, sol)(z.x, z.y, sol.x, sol.y) == pytest.approx(2.0)

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
        tuning = SolverTuning(alpha=1.0, eta_x=1 / 3, eta_y=1 / 3, branch=X_DOMINANT)
        sol = PointPair([0.0], [0.0])
        z = PointPair([1.0], [0.0])
        value = potential(problem, tuning, sol)(z.x, z.y, z.x, z.y)
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
            potential(problem, tuning, sol)
