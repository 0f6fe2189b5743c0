import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleslide import (
    CompositeSaddleProblem,
    PointPair,
    SmoothnessSpec,
    SolveConfig,
    check_inner_criterion,
    initial_potential,
    required_outer_iterations,
    solve,
    solve_affine_constrained,
    solve_bilinear,
    solve_bilinear_linear_composites,
    split_bilinear,
    tune_parameters,
    weighted_distance_sq,
    wrap_counting,
)
from saddleslide import inner
from saddleslide.bilinear import make_bilinear_inner_solver, wrap_counting_bilinear
from saddleslide.bench.generators import (
    gen_bilinear,
    gen_consensus,
    gen_linear_bilinear,
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
from saddleslide.inner import FLOOR_TOL, AuxiliaryProblem, InnerResult, solve_auxiliary
from saddleslide.outer import (
    TERMINATION_BUDGET,
    TERMINATION_RESIDUAL,
    X_DOMINANT,
    Y_DOMINANT,
    SolverTuning,
    potential,
    residual_bounds,
)

from conftest import (
    kick_first_run, off_constraint, planned_run, random_quadratic_instance, recording,
    recording_bilinear,
)


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
        report = solve(problem, spec, start, SolveConfig(eps=1e-8, psi_0=psi0))
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, origin, t.eta_x, t.eta_y) <= 1e-8
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
        solver, steps = recording(solve_auxiliary)
        config = SolveConfig(eps=1e-4, max_outer=1)
        solve(problem, spec, PointPair(rng.standard_normal(3), rng.standard_normal(3)),
              config, inner_solver=solver)
        ((aux, _),) = steps
        # x_g^0 == x^0 exactly
        assert np.array_equal(aux.grad_p_anchor, problem.grad_p(aux.x_k))

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
        solver, steps = recording(solve_auxiliary)
        report = solve(problem, spec, start, SolveConfig(eps=1e-6, psi_0=psi0),
                       inner_solver=solver)
        assert len(steps) == report.counters.outer_iterations
        for aux, result in steps:
            assert result.accepted_by == "criterion"
            assert check_inner_criterion(
                result.grad_x, result.grad_y,
                result.pair.x - aux.x_k, result.pair.y - aux.y_k,
                report.tuning, FLOOR_TOL,
            )

    def test_divergence_detected_on_understated_constants(self, rng):
        # Declaring a far smaller coupling constant than the truth makes the
        # inner step too long and the iteration explode; the inner
        # criterion's guard names it.
        problem, _, _, _ = random_quadratic_instance(
            rng, 3, 3, 1.0, 1.0, 1.0, 1.0, 60.0
        )
        lying_spec = SmoothnessSpec(L_p=1.0, L_q=1.0, L_R=1.0, mu_x=1.0, mu_y=1.0)
        start = PointPair(np.ones(3), np.ones(3))
        config = SolveConfig(eps=1e-8, max_outer=500)
        with pytest.raises(DivergenceDetected, match="inner iterate"):
            solve(problem, lying_spec, start, config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", ["x", "y"])
    def test_huge_inner_pair_raises(self, block):
        # An inner solver outside the library need not pass its pair through
        # check_inner_criterion's guard, so solve's own guard must catch a
        # finite entry whose square overflows.
        problem = _decoupled_problem()
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=1, mu_x=1, mu_y=1)

        def huge_inner(aux, spec_, tuning):
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

    @pytest.mark.parametrize("max_outer", [math.nan, 50.0, True])
    def test_non_integer_max_outer_rejected(self, max_outer):
        # A nan budget never compares true, so it would switch the budget
        # off; a float is refused, not rounded, and a bool is no count.
        problem, spec, start = self._small_instance()
        with pytest.raises(NonPositiveInput):
            solve(problem, spec, start, SolveConfig(eps=1e-6, max_outer=max_outer))

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

    @pytest.mark.parametrize("psi_0", [None, 0.0])
    def test_zero_psi_0_plans_max_outer(self, psi_0):
        # Without a positive psi_0 the budget is max_outer, run to its end.
        problem, spec, start = self._small_instance()
        config = SolveConfig(eps=1e-6, psi_0=psi_0, max_outer=7)
        report = solve(problem, spec, start, config)
        assert report.planned_outer == report.counters.outer_iterations == 7
        assert report.termination == TERMINATION_BUDGET
        assert report.certificate_ratio is None

    def test_default_inner_solver_looked_up_per_call(self, monkeypatch):
        # A profiler patches inner.solve_auxiliary from outside; `solve`
        # must call the patched name once per outer step, not a binding
        # taken at import.
        calls = []

        def traced(aux, spec, tuning):
            calls.append(aux)
            return solve_auxiliary(aux, spec, tuning)

        monkeypatch.setattr(inner, "solve_auxiliary", traced)
        problem, spec, start = self._small_instance()
        report = solve(problem, spec, start, SolveConfig(eps=1e-6, max_outer=9))
        assert len(calls) == report.counters.outer_iterations == 9


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
    # fails here.  The recorded ratio is the certified bound over eps, so
    # the distance lies below it too, up to rounding in the reference.
    assert report.termination == TERMINATION_RESIDUAL
    t = report.tuning
    dist = weighted_distance_sq(report.final_pair, reference, t.eta_x, t.eta_y)
    assert dist <= eps
    assert report.certificate_ratio <= 1.0
    assert dist <= report.certificate_ratio * eps * (1.0 + 1e-9)
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


def _operator_bounds(rx, ry, sx, sy, spec):
    # `residual_bounds` without co-coercivity: the pair's value bounds
    # ||D^-1/2 F|| there through L_p sx and L_q sy alone.
    bx = rx + spec.L_p * sx
    by = ry + spec.L_q * sy
    gap = spec.L_R * math.sqrt(sx * sx + sy * sy) / math.sqrt(min(spec.mu_x, spec.mu_y))
    b_g = math.sqrt(rx * rx / spec.mu_x + ry * ry / spec.mu_y) + gap
    return bx * bx / spec.mu_x + by * by / spec.mu_y, b_g * b_g


class TestExtrapolationStop:
    """The residual stop may certify the step's extrapolation point zg."""

    @staticmethod
    def _tracked_run(inst):
        # The certified run with its inner steps recorded.
        problem, spec = inst.problem(), inst.spec()
        start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
        reference = reference_solution(inst)
        psi_0 = initial_potential(problem, spec, start, reference)
        config = SolveConfig(eps=1e-8, psi_0=psi_0, use_residual_stop=True)
        solver, steps = recording(solve_auxiliary)
        report = solve(problem, spec, start, config, inner_solver=solver)
        _assert_certified(report, spec, psi_0, 1e-8, reference)
        c = report.counters
        assert c.calls_grad_p == c.outer_iterations
        assert c.calls_grad_R == 2 * c.inner_iterations + c.outer_iterations
        return report, steps

    def test_stops_on_extrapolation_point(self):
        report, steps = self._tracked_run(gen_quadratic_spp(10, 10, 100, 1, 100, 1, 2, 0))
        # Returning a point other than the last accepted pair means zg.
        assert not np.array_equal(report.final_pair.x, steps[-1][1].pair.x)
        # 318 steps; the inner-pair bound alone needs 329 (412 without
        # co-coercivity).
        assert report.counters.outer_iterations <= 325

    def test_pair_certifies_before_extrapolation_point(self):
        # Without co-coercivity this instance stopped on zg after 241
        # steps, and the pair's bound alone needed 282.
        report, steps = self._tracked_run(gen_quadratic_spp(10, 10, 100, 1, 100, 1, 10, 0))
        assert np.array_equal(report.final_pair.x, steps[-1][1].pair.x)
        assert report.counters.outer_iterations == 228

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), ratio=_moduli_ratio,
           cond_p=st.sampled_from([0.0, 0.1, 0.3, 1.0, 10.0, 100.0]),
           cond_q=st.sampled_from([0.0, 0.1, 0.3, 1.0, 10.0, 100.0]),
           gain=_gain, seed=st.integers(0, 2**31 - 1), step=st.floats(-8.0, 1.0))
    def test_bounds_dominate_exact_residual(self, d, ratio, cond_p, cond_q, gain,
                                            seed, step):
        # Condition numbers below 1/4 are where the operator bound can beat
        # co-coercivity at the pair.
        mu_x, mu_y = 1.0, 1.0 / ratio
        inst = gen_quadratic_spp(
            d, d, cond_p * mu_x, mu_x, cond_q * mu_y, mu_y, gain * max(mu_x, mu_y), seed
        )
        problem, spec = inst.problem(), inst.spec()
        reference = reference_solution(inst)
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
        norms = (np.linalg.norm(rx), np.linalg.norm(ry),
                 np.linalg.norm(x_hat - xg), np.linalg.norm(y_hat - yg))
        at_hat, at_g = residual_bounds(*norms, spec)
        # The pair's value bounds what it certifies against the KKT
        # reference, zg's the scaled operator; the relative slack absorbs
        # rounding in the declared constants and the reference.
        dx, dy = x_hat - reference.x, y_hat - reference.y
        assert mu_x * float(dx @ dx) + mu_y * float(dy @ dy) <= at_hat * (1.0 + 1e-9)
        assert scaled_sq(xg, yg) <= at_g * (1.0 + 1e-9)
        # Co-coercivity only ever lowers the pair's value; zg's is unchanged.
        without = _operator_bounds(*norms, spec)
        assert at_hat <= without[0]
        assert at_g == without[1]

    @pytest.mark.parametrize("mu_x, mu_y, x_hat", [(1.0, 1.0, 1.0), (4.0, 0.25, -3.0)])
    def test_pair_bound_tight_in_one_dimension(self, mu_x, mu_y, x_hat):
        # p = (L_p/2) x^2 with L_p = mu_x/2, q = 0,
        # R = (mu_x/2) x^2 - (mu_y/2) y^2: the saddle is 0.  At
        # xg = -x_hat, y_hat = yg = 0 co-coercivity and Cauchy-Schwarz both
        # hold with equality, so the bound is exactly mu_x x_hat^2 and any
        # smaller constant in front of c breaks it.
        L_p = mu_x / 2.0
        spec = SmoothnessSpec(L_p=L_p, L_q=0.0, L_R=max(mu_x, mu_y), mu_x=mu_x, mu_y=mu_y)
        xg = -x_hat
        rx = abs(L_p * xg + mu_x * x_hat)
        at_hat, _ = residual_bounds(rx, 0.0, abs(x_hat - xg), 0.0, spec)
        assert at_hat == pytest.approx(mu_x * x_hat**2, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 5), ratio=_moduli_ratio,
           cond_p=st.sampled_from([0.0, 0.1, 1.0, 4.0, 100.0]),
           cond_q=st.sampled_from([0.0, 0.1, 1.0, 4.0, 100.0]),
           gain=_gain, eps=_target, seed=st.integers(0, 2**31 - 1))
    def test_stops_no_later_than_operator_bound(self, d, ratio, cond_p, cond_q, gain,
                                                eps, seed):
        # The iterates do not depend on the stop, and the pair's value is
        # never above the operator bound's, so the run stops at the same
        # step or earlier, on the same trajectory.
        mu_x, mu_y = 1.0, 1.0 / ratio
        inst = gen_quadratic_spp(
            d, d, cond_p * mu_x, mu_x, cond_q * mu_y, mu_y, gain * max(mu_x, mu_y), seed
        )
        solver, steps = recording(solve_auxiliary)
        report, certified, args = _certified_run(inst, eps, solver)
        _assert_certified(report, *certified)
        _, counters, inner_iterations, _ = _reference_solve(*args, bounds=_operator_bounds)
        n = report.counters.outer_iterations
        assert n <= counters.outer_iterations
        assert [r.iterations for _, r in steps] == inner_iterations[:n]


def _hooked_route(route, monkeypatch):
    # A route's report, the hook's recorded steps of each `solve` it ran,
    # and whether its last accepted pair is the returned point (None where
    # that is not pinned).
    if route in ("solve-zg", "solve-pair"):
        l_r = 2 if route == "solve-zg" else 10
        inst = gen_quadratic_spp(10, 10, 100, 1, 100, 1, l_r, 0)
        report, steps = TestExtrapolationStop._tracked_run(inst)
        return report, [steps], route == "solve-pair"
    runs = recording_bilinear(monkeypatch)
    if route == "bilinear":
        report, _ = planned_run(gen_bilinear(20, 20, 4.0, 1.0, 4.0, 1.0, 5.0, 0), 1e-8)
    elif route == "affine-resumed":
        # The first run's point is moved off the constraint, so the route
        # resumes from it.
        inst = gen_consensus(8, "path", 1.0, 4.0, seed=0)
        grad, _ = inst.local_objective()
        coupling, c = inst.coupling(), inst.arrays["c"]
        bound = math.sqrt(1e-6) * (1.0 + np.linalg.norm(c))
        kick_first_run(monkeypatch, off_constraint(coupling, 10.0 * bound))
        report = solve_affine_constrained(
            grad_p=grad, L_p=inst.constants["local_L"], mu_p=inst.constants["local_mu"],
            coupling=coupling, c=c, D_y=inst.constants["D_y"], eps=1e-6,
        )
        assert len(runs) == 2
    else:
        inst = gen_linear_bilinear(8, 4)
        report = solve_bilinear_linear_composites(
            d=inst.arrays["d"], c=inst.arrays["c"], coupling=inst.coupling(),
            D_x=inst.constants["D_x"], D_y=inst.constants["D_y"], eps=1e-3,
        )
        assert len(runs) > 1
    return report, runs, None


@pytest.mark.parametrize("route", [
    "solve-zg", "solve-pair", "bilinear", "affine-resumed", "linear-bilinear",
])
def test_inner_solver_hook_sees_every_outer_step(route, monkeypatch):
    # The hook is the one window onto each outer step: one call per step,
    # in order, whose results' inner iterations sum to the report's tally.
    report, runs, last_is_final = _hooked_route(route, monkeypatch)
    assert sum(map(len, runs)) == report.counters.outer_iterations
    assert sum(r.iterations for steps in runs for _, r in steps) == (
        report.counters.inner_iterations)
    for steps in runs:
        assert steps[0][0].remainder is None
        # Each step's subproblem starts where the previous result led:
        # its remainder, and the main update from its accepted pair.
        for (aux, r), (following, _) in zip(steps, steps[1:]):
            assert following.remainder is r.remainder
            assert np.array_equal(following.x_k, r.pair.x - aux.eta_x * r.grad_x)
            assert np.array_equal(following.y_k, r.pair.y + aux.eta_y * r.grad_y)
    if last_is_final is not None:
        assert report.termination == TERMINATION_RESIDUAL
        last = runs[-1][-1][1].pair
        final = report.final_pair
        assert (np.array_equal(final.x, last.x) and np.array_equal(final.y, last.y)
                ) == last_is_final


# ---------------------------------------------------------------------------
# Reference copy of `solve`'s loop in its plain form: one extrapolation
# formula for every alpha, the displacement recomputed where it is used, the
# residual with its plain sign, norms by np.linalg.norm and no diagnostics;
# each step hands the accepted pair's FBF remainder to the next subproblem.
# The library's loop must produce the same floating-point results bit for bit.
# ``bounds`` stands in for `residual_bounds` to replay another stop rule.


def _reference_solve(problem, spec, start, config, inner_solver=None, counters=None,
                     bounds=residual_bounds):
    tuning = tune_parameters(spec)
    alpha, eta_x, eta_y = tuning.alpha, tuning.eta_x, tuning.eta_y
    inner_solver = inner_solver if inner_solver is not None else solve_auxiliary
    counted, counters = wrap_counting(problem, counters)
    planned = min(config.max_outer,
                  required_outer_iterations(spec, config.psi_0, config.eps))
    weight = max(1.0 / (eta_x * spec.mu_x), 1.0 / (eta_y * spec.mu_y))
    x, y = start.x.copy(), start.y.copy()
    xf, yf = x.copy(), y.copy()
    remainder = None
    inner_iterations = []
    for _ in range(planned):
        xg = alpha * x + (1.0 - alpha) * xf
        yg = alpha * y + (1.0 - alpha) * yf
        aux = AuxiliaryProblem(counted.grad_R, counted.grad_p(xg), counted.grad_q(yg),
                               x, y, eta_x, eta_y, remainder=remainder)
        result = inner_solver(aux, spec, tuning)
        remainder = result.remainder
        x_hat, y_hat = result.pair.x, result.pair.y
        counters.outer_iterations += 1
        counters.inner_iterations += result.iterations
        inner_iterations.append(result.iterations)
        if config.use_residual_stop:
            rx = result.grad_x - (x_hat - x) / eta_x
            ry = -result.grad_y - (y_hat - y) / eta_y
            at_hat, at_g = bounds(
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


def _assert_matches_reference(report, steps, want):
    # ``steps`` is the run's `recording` list.
    pair, counters, inner_iterations, termination = want
    assert np.array_equal(report.final_pair.x, pair.x)
    assert np.array_equal(report.final_pair.y, pair.y)
    assert report.counters.as_dict() == counters.as_dict()
    assert [r.iterations for _, r in steps] == inner_iterations
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
        solver, steps = recording(solve_auxiliary)
        report = solve(problem, spec, start, config, inner_solver=solver)
        want = _reference_solve(problem, spec, start, config)
        _assert_matches_reference(report, steps, want)
        assert (report.termination == TERMINATION_RESIDUAL) == use_residual_stop

    @pytest.mark.parametrize("use_residual_stop", [True, False])
    def test_bilinear_matches_reference(self, use_residual_stop, monkeypatch):
        inst = gen_bilinear(30, 20, 4.0, 1.0, 0.04, 0.01, 2.0, 1)
        bp = inst.bilinear_problem()
        start = PointPair(np.zeros(30), np.zeros(20))
        composite, spec = split_bilinear(bp)
        psi_0 = initial_potential(composite, spec, start, reference_solution(inst))
        config = SolveConfig(eps=1e-8, psi_0=psi_0, use_residual_stop=use_residual_stop)
        runs = recording_bilinear(monkeypatch)
        report = solve_bilinear(bp, start, config)
        wrapped, counters = wrap_counting_bilinear(bp)
        want = _reference_solve(composite, spec, start, config,
                                inner_solver=make_bilinear_inner_solver(wrapped),
                                counters=counters)
        _assert_matches_reference(report, runs[0], want)
        assert (report.termination == TERMINATION_RESIDUAL) == use_residual_stop


def _rebuilt(aux, spec, tuning):
    # A custom inner solver: FBF's result rebuilt from plain copies, so it
    # carries no stacked terms and `solve` forms them from the blocks.
    r = solve_auxiliary(aux, spec, tuning)
    return InnerResult(PointPair(r.pair.x.copy(), r.pair.y.copy()), r.iterations,
                       r.grad_x.copy(), r.grad_y.copy(), r.accepted_by, r.remainder.copy())


@pytest.mark.parametrize("use_residual_stop", [True, False])
@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_rebuilt_custom_result_matches_default(case, use_residual_stop):
    d_x, d_y, L_p, mu_x, L_q, mu_y, L_R = _LOOP_CASES[case]
    inst = gen_quadratic_spp(d_x, d_y, L_p, mu_x, L_q, mu_y, L_R, 0)
    problem, spec = inst.problem(), inst.spec()
    start = PointPair(np.zeros(d_x), np.zeros(d_y))
    psi_0 = initial_potential(problem, spec, start, reference_solution(inst))
    config = SolveConfig(eps=1e-8, psi_0=psi_0, use_residual_stop=use_residual_stop)
    default, want_steps = recording(solve_auxiliary)
    rebuilt, got_steps = recording(_rebuilt)
    want = solve(problem, spec, start, config, inner_solver=default)
    got = solve(problem, spec, start, config, inner_solver=rebuilt)
    assert np.array_equal(got.final_pair.x, want.final_pair.x)
    assert np.array_equal(got.final_pair.y, want.final_pair.y)
    assert got.counters.as_dict() == want.counters.as_dict()
    assert [r.iterations for _, r in got_steps] == [r.iterations for _, r in want_steps]
    assert got.termination == want.termination
    assert got.certificate_ratio == want.certificate_ratio
    assert (got.certificate_ratio is None) != use_residual_stop


def _certified_run(inst, eps, inner_solver=None):
    # A certified solve from the origin, as `run_single` makes it; returns
    # the report and `_assert_certified`'s and `_reference_solve`'s inputs.
    problem, spec = inst.problem(), inst.spec()
    start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
    reference = reference_solution(inst)
    psi_0 = initial_potential(problem, spec, start, reference)
    config = SolveConfig(eps=eps, psi_0=psi_0, use_residual_stop=True)
    report = solve(problem, spec, start, config, inner_solver=inner_solver)
    return report, (spec, psi_0, eps, reference), (problem, spec, start, config)


def _assert_tally_identity(report):
    c = report.counters
    assert c.calls_grad_p == c.calls_grad_q == c.outer_iterations
    assert c.calls_grad_R == 2 * c.inner_iterations + c.outer_iterations


class TestWarmStart:
    """Each FBF solve after a run's first starts from the previous remainder."""

    def test_engages_after_first_step(self):
        # The warm start lands on the subproblem's solution closely enough
        # that every step after the cold first one accepts its start (228
        # steps, 230 coupling calls; 684 starting cold).
        solver, steps = recording(solve_auxiliary)
        report, certified, _ = _certified_run(
            gen_quadratic_spp(10, 10, 100, 1, 100, 1, 10, 0), 1e-8, solver)
        _assert_certified(report, *certified)
        first, *rest = [r.iterations for _, r in steps]
        assert first >= 1
        assert rest == [0] * len(rest)
        _assert_tally_identity(report)

    def test_custom_solver_without_remainder_starts_cold(self):
        # A custom inner solver whose results carry no remainder gets cold
        # subproblems at every step, so the run is the cold-start one, bit
        # for bit: its tallies, and the reference loop's results.
        remainders = []

        def without_remainder(aux, spec, tuning):
            remainders.append(aux.remainder)
            result = solve_auxiliary(aux, spec, tuning)
            return dataclasses.replace(result, remainder=None)

        solver, steps = recording(without_remainder)
        report, _, args = _certified_run(
            gen_quadratic_spp(10, 10, 100, 1, 100, 1, 10, 0), 1e-8, solver)
        assert remainders == [None] * report.counters.outer_iterations
        c = report.counters
        assert (c.calls_grad_p, c.calls_grad_R, c.inner_iterations) == (228, 684, 228)
        _assert_matches_reference(
            report, steps, _reference_solve(*args, inner_solver=without_remainder))

    def test_lopsided_moduli_certify_cheaply(self):
        # mu_y/mu_x = 1000 with no composite curvature: one scalar FBF step
        # for both blocks made 34,335 coupling calls from cold starts.
        report, certified, _ = _certified_run(
            gen_quadratic_spp(10, 10, 0, 1, 0, 1000, 1001, 0), 1e-8)
        _assert_certified(report, *certified)
        assert report.counters.calls_grad_R < 1000
        _assert_tally_identity(report)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), log_ratio=st.floats(-3.0, 3.0),
           cond_p=st.sampled_from([0.0, 1.0, 4.0, 100.0]),
           cond_q=st.sampled_from([0.0, 1.0, 4.0, 100.0]),
           gain=st.floats(1.0, 10.0), eps=_target, seed=st.integers(0, 2**31 - 1))
    def test_warm_runs_certify(self, d, log_ratio, cond_p, cond_q, gain, eps, seed):
        # mu_x/mu_y up to 1000 either way, composites from none to L/mu = 100.
        # On 400 draws from these ranges every run certified, at most
        # 0.95 eps from the reference.
        mu_x, mu_y = 1.0, 10.0**-log_ratio
        inst = gen_quadratic_spp(
            d, d, cond_p * mu_x, mu_x, cond_q * mu_y, mu_y, gain * max(mu_x, mu_y), seed
        )
        report, certified, _ = _certified_run(inst, eps)
        _assert_tally_identity(report)
        _assert_certified(report, *certified)


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
