import dataclasses
import itertools

import numpy as np
import pytest

from saddleslide import (
    AuxiliaryProblem,
    BilinearProblem,
    CompositeSaddleProblem,
    CouplingOperator,
    InnerConfig,
    PointPair,
    SmoothnessSpec,
    build_auxiliary,
    check_inner_criterion,
    compute_rescaling,
    gamma_target,
    solve_auxiliary,
    split_bilinear,
    tune_parameters,
    wrap_counting,
    wrap_counting_bilinear,
)
from saddleslide.bilinear import make_bilinear_inner_solver
from saddleslide.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InnerBudgetExhausted,
    NonPositiveInput,
    NonPositiveStep,
)
from saddleslide.inner import extragradient_iterates, rescaled_smoothness_bound
from saddleslide.outer import OuterState, SolverTuning, X_DOMINANT

from conftest import central_diff, random_quadratic_instance, random_sym_psd


def _state(problem, x, y, tuning):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return OuterState(
        k=0,
        z=PointPair(x, y),
        z_f=PointPair(x, y),
        z_g=PointPair(x, y),
        grad_p_g=problem.grad_p(x),
        grad_q_g=problem.grad_q(y),
    )


class TestBuildAuxiliary:
    def test_vanishes_at_anchor_with_zero_data(self):
        problem = CompositeSaddleProblem(
            d_x=2, d_y=2,
            grad_p=lambda x: np.zeros(2),
            grad_q=lambda y: np.zeros(2),
            grad_R=lambda x, y: (np.zeros(2), np.zeros(2)),
        )
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        aux = build_auxiliary(problem, _state(problem, np.zeros(2), np.zeros(2), tuning), tuning)
        g_x, g_y = aux.gradients(np.zeros(2), np.zeros(2))
        assert np.all(g_x == 0.0) and np.all(g_y == 0.0)

    def test_one_dimensional_identity(self):
        # eta_x = 1, x_k = 0, frozen composite gradient 2, R = x*y:
        # at (1, 3) the x gradient is 2 + 1 + 3 = 6.
        aux = AuxiliaryProblem(
            grad_R=lambda x, y: (y.copy(), x.copy()),
            grad_p_anchor=np.array([2.0]),
            grad_q_anchor=np.array([0.0]),
            x_k=np.array([0.0]),
            y_k=np.array([0.0]),
            eta_x=1.0,
            eta_y=1.0,
        )
        g_x, g_y = aux.gradients(np.array([1.0]), np.array([3.0]))
        assert g_x[0] == pytest.approx(6.0)
        assert g_y[0] == pytest.approx(-2.0)  # 1 - 0 - (3 - 0)/1

    def test_gradients_match_finite_differences(self, rng):
        problem, spec, _, _ = random_quadratic_instance(rng, 3, 4, 2.0, 1.0, 3.0, 0.7, 2.0)
        tuning = tune_parameters(spec)
        x_k = rng.standard_normal(3)
        y_k = rng.standard_normal(4)
        aux = build_auxiliary(problem, _state(problem, x_k, y_k, tuning), tuning)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(4)
            g_x, g_y = aux.gradients(x, y)
            fd_x = central_diff(lambda u: aux.value(u, y), x)
            fd_y = central_diff(lambda v: aux.value(x, v), y)
            assert np.linalg.norm(fd_x - g_x) <= 1e-6 * (1 + np.linalg.norm(g_x))
            assert np.linalg.norm(fd_y - g_y) <= 1e-6 * (1 + np.linalg.norm(g_y))

    def test_dimension_mismatch(self):
        problem = CompositeSaddleProblem(
            d_x=2, d_y=2,
            grad_p=lambda x: np.zeros(2),
            grad_q=lambda y: np.zeros(2),
            grad_R=lambda x, y: (np.zeros(2), np.zeros(2)),
        )
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        bad = OuterState(
            k=0,
            z=PointPair(np.zeros(2), np.zeros(2)),
            z_f=PointPair(np.zeros(2), np.zeros(2)),
            z_g=PointPair(np.zeros(2), np.zeros(2)),
            grad_p_g=np.zeros(3),
            grad_q_g=np.zeros(2),
        )
        with pytest.raises(DimensionMismatch):
            build_auxiliary(problem, bad, tuning)

    def test_single_coupling_call_per_gradient(self):
        calls = {"n": 0}

        def grad_R(x, y):
            calls["n"] += 1
            return np.zeros(1), np.zeros(1)

        aux = AuxiliaryProblem(
            grad_R=grad_R,
            grad_p_anchor=np.zeros(1), grad_q_anchor=np.zeros(1),
            x_k=np.zeros(1), y_k=np.zeros(1), eta_x=1.0, eta_y=1.0,
        )
        aux.gradients(np.ones(1), np.ones(1))
        assert calls["n"] == 1


class TestRescaling:
    def test_wide_x_step(self):
        t = SolverTuning(alpha=0.5, eta_x=4.0, eta_y=1.0, branch=X_DOMINANT)
        r = compute_rescaling(t)
        assert r.alpha_scale**2 == pytest.approx(2.0)
        assert r.beta_scale == 1.0

    def test_symmetric_steps(self):
        t = SolverTuning(alpha=0.5, eta_x=0.3, eta_y=0.3, branch=X_DOMINANT)
        r = compute_rescaling(t)
        assert r.alpha_scale == 1.0 and r.beta_scale == 1.0

    def test_wide_y_step(self):
        t = SolverTuning(alpha=0.5, eta_x=1.0, eta_y=9.0, branch=X_DOMINANT)
        r = compute_rescaling(t)
        assert r.alpha_scale == 1.0
        assert r.beta_scale**2 == pytest.approx(3.0)

    def test_non_positive_step(self):
        t = SolverTuning(alpha=0.5, eta_x=-1.0, eta_y=1.0, branch=X_DOMINANT)
        with pytest.raises(NonPositiveStep):
            compute_rescaling(t)

    def test_scaled_constant_law(self, rng):
        # The rescaled coupling operator's per-pair Lipschitz ratio never
        # exceeds max(a^2, b^2) times the exact unscaled constant.
        d_x, d_y = 3, 5
        Hx = random_sym_psd(rng, d_x, 0.4, 1.5)
        Hy = random_sym_psd(rng, d_y, 0.3, 1.2)
        B = rng.standard_normal((d_x, d_y))
        jac = np.block([[Hx, B], [B.T, -Hy]])
        L_exact = float(np.linalg.norm(jac, 2))

        def grad_R(x, y):
            return Hx @ x + B @ y, B.T @ x - Hy @ y

        for a, b in [(1.7, 1.0), (1.0, 2.3), (0.6, 1.0)]:
            bound = max(a**2, b**2) * L_exact
            for _ in range(100):
                u1, u2 = rng.standard_normal((2, d_x))
                v1, v2 = rng.standard_normal((2, d_y))
                r1x, r1y = grad_R(a * u1, b * v1)
                r2x, r2y = grad_R(a * u2, b * v2)
                # Rescaled operator values (a * dR/dx, b * dR/dy).
                num = np.sqrt(
                    np.sum((a * (r1x - r2x)) ** 2) + np.sum((b * (r1y - r2y)) ** 2)
                )
                den = np.sqrt(np.sum((u1 - u2) ** 2) + np.sum((v1 - v2) ** 2))
                assert num <= bound * den * (1 + 1e-6)


def _identity_operator_aux():
    # Subproblem whose gradients are g_x = x and g_y = -y: from the anchor
    # (1, 1) with unit steps, a frozen x gradient of 1 and a frozen y
    # gradient of 1, with no coupling.
    return AuxiliaryProblem(
        grad_R=lambda x, y: (np.zeros(1), np.zeros(1)),
        grad_p_anchor=np.array([1.0]),
        grad_q_anchor=np.array([1.0]),
        x_k=np.array([1.0]),
        y_k=np.array([1.0]),
        eta_x=1.0,
        eta_y=1.0,
    )


class TestSolveAuxiliary:
    SPEC = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)

    def test_zero_iterations_when_start_degenerate(self):
        aux = AuxiliaryProblem(
            grad_R=lambda x, y: (np.zeros(2), np.zeros(2)),
            grad_p_anchor=np.zeros(2), grad_q_anchor=np.zeros(2),
            x_k=np.zeros(2), y_k=np.zeros(2), eta_x=1.0, eta_y=1.0,
        )
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        result = solve_auxiliary(aux, self.SPEC, tuning, InnerConfig())
        assert result.iterations == 0
        assert np.all(result.pair.x == 0.0)

    def test_extragradient_update_by_hand(self):
        # Identity operator, step 1/2, start 1: the half step lands at 0.5
        # and the full step at 1 - 0.5 * 0.5 = 0.75.
        aux = _identity_operator_aux()
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        config = InnerConfig(step=0.5, max_inner=50, floor_tol=0.0)
        iterates = itertools.islice(extragradient_iterates(aux, self.SPEC, tuning, config), 3)
        seen = [(t, x[0], y[0]) for t, (x, y, *_) in enumerate(iterates)]
        assert seen[0][1] == pytest.approx(1.0)
        assert seen[1][1] == pytest.approx(0.75)
        assert seen[1][2] == pytest.approx(0.75)
        assert seen[2][1] == pytest.approx(0.75 - 0.5 * (0.75 - 0.5 * 0.75))

    def test_non_finite_coupling_raises_divergence(self):
        # The start is fine; the first extragradient step turns NaN.
        calls = []

        def grad_R(x, y):
            calls.append(None)
            bad = np.full(1, np.nan if len(calls) > 1 else 0.0)
            return bad, bad

        aux = dataclasses.replace(_identity_operator_aux(), grad_R=grad_R)
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        with pytest.raises(DivergenceDetected):
            solve_auxiliary(aux, self.SPEC, tuning, InnerConfig())

    def test_random_quadratic_matches_subproblem_kkt(self, rng):
        problem, spec, _, data = random_quadratic_instance(
            rng, 4, 4, 2.0, 1.0, 2.0, 1.0, 1.8
        )
        tuning = tune_parameters(spec)
        x_k = rng.standard_normal(4)
        y_k = rng.standard_normal(4)
        aux = build_auxiliary(problem, _state(problem, x_k, y_k, tuning), tuning)
        result = solve_auxiliary(aux, spec, tuning, InnerConfig(floor_tol=0.0))
        # Re-assert the acceptance test at the returned point.
        assert check_inner_criterion(
            result.grad_x, result.grad_y,
            result.pair.x - x_k, result.pair.y - y_k, tuning, 0.0,
        )
        # Exact subproblem solution by direct linear algebra.
        P, Q, B = data["P"], data["Q"], data["B"]
        mat = np.block([
            [(1 / tuning.eta_x + 1.0) * np.eye(4), B],
            [B.T, -(1 / tuning.eta_y + 1.0) * np.eye(4)],
        ])
        rhs = np.concatenate([
            x_k / tuning.eta_x - aux.grad_p_anchor,
            aux.grad_q_anchor - y_k / tuning.eta_y,
        ])
        exact = np.linalg.solve(mat, rhs)
        start_dist = np.linalg.norm(np.concatenate([x_k, y_k]) - exact)
        end_dist = np.linalg.norm(
            np.concatenate([result.pair.x, result.pair.y]) - exact
        )
        assert end_dist <= start_dist

    def test_monotone_contraction_toward_exact_solution(self, rng):
        # Symmetric steps: extragradient distance to the exact subproblem
        # solution never increases with the default step size.
        problem, spec, _, data = random_quadratic_instance(
            rng, 3, 3, 2.0, 1.0, 2.0, 1.0, 2.5
        )
        tuning = tune_parameters(spec)
        assert tuning.eta_x == tuning.eta_y
        x_k = rng.standard_normal(3)
        y_k = rng.standard_normal(3)
        aux = build_auxiliary(problem, _state(problem, x_k, y_k, tuning), tuning)
        B = data["B"]
        mat = np.block([
            [(1 / tuning.eta_x + 1.0) * np.eye(3), B],
            [B.T, -(1 / tuning.eta_y + 1.0) * np.eye(3)],
        ])
        rhs = np.concatenate([
            x_k / tuning.eta_x - aux.grad_p_anchor,
            aux.grad_q_anchor - y_k / tuning.eta_y,
        ])
        exact = np.linalg.solve(mat, rhs)
        config = InnerConfig(floor_tol=0.0)
        result = solve_auxiliary(aux, spec, tuning, config)
        iterates = extragradient_iterates(aux, spec, tuning, config)
        dists = [
            np.linalg.norm(np.concatenate([x, y]) - exact)
            for x, y, *_ in itertools.islice(iterates, result.iterations + 1)
        ]
        assert len(dists) >= 2
        for before, after in zip(dists, dists[1:]):
            assert after <= before * (1 + 1e-12)

    def test_rescaling_round_trip(self, rng):
        # The substitution is equivalent to block-scaled extragradient steps
        # in the original coordinates; both must accept the same point.
        problem, spec, _, _ = random_quadratic_instance(
            rng, 3, 2, 4.0, 2.0, 1.0, 0.5, 1.5
        )
        tuning = tune_parameters(spec)
        assert tuning.eta_x != tuning.eta_y
        x_k = rng.standard_normal(3)
        y_k = rng.standard_normal(2)
        aux = build_auxiliary(problem, _state(problem, x_k, y_k, tuning), tuning)
        result = solve_auxiliary(aux, spec, tuning, InnerConfig(floor_tol=0.0))

        rescaling = compute_rescaling(tuning)
        a2 = rescaling.alpha_scale**2
        b2 = rescaling.beta_scale**2
        step = 1.0 / (2.0 * rescaled_smoothness_bound(spec, tuning, rescaling))
        x, y = x_k.copy(), y_k.copy()
        for _ in range(result.iterations):
            g_x, g_y = aux.gradients(x, y)
            xh = x - step * a2 * g_x
            yh = y + step * b2 * g_y
            gh_x, gh_y = aux.gradients(xh, yh)
            x = x - step * a2 * gh_x
            y = y + step * b2 * gh_y
        assert np.linalg.norm(x - result.pair.x) <= 1e-10
        assert np.linalg.norm(y - result.pair.y) <= 1e-10

    def test_inner_call_accounting_and_growth(self, rng):
        # Coupling calls are exactly 2 per iteration plus the acceptance
        # check, and iteration counts grow at most linearly in the coupling
        # constant times the geometric-mean step.
        totals = {}
        for sigma in [5.0, 50.0]:
            problem, spec, saddle, _ = random_quadratic_instance(
                rng, 6, 6, 4.0, 1.0, 4.0, 1.0, sigma
            )
            wrapped, counters = wrap_counting(problem)
            tuning = tune_parameters(spec)
            x_k = rng.standard_normal(6)
            y_k = rng.standard_normal(6)
            aux = build_auxiliary(wrapped, _state(problem, x_k, y_k, tuning), tuning)
            result = solve_auxiliary(aux, spec, tuning, InnerConfig())
            assert counters.calls_grad_R == 2 * result.iterations + 1
            totals[sigma] = result.iterations
            geo_step = np.sqrt(tuning.eta_x * tuning.eta_y)
            totals[f"pred{sigma}"] = 1.0 + spec.L_R * geo_step
        measured = totals[50.0] / max(totals[5.0], 1)
        predicted = totals["pred50.0"] / totals["pred5.0"]
        assert measured <= 2.0 * predicted


def test_inner_config_rejects_empty_stall_window_and_negative_budget():
    # A window of 0 would accept the untouched start as a stall.
    with pytest.raises(NonPositiveInput):
        InnerConfig(stall_window=0)
    with pytest.raises(NonPositiveInput):
        InnerConfig(max_inner=-1)


def _extragradient_case(rng):
    problem, spec, _, _ = random_quadratic_instance(rng, 4, 3, 2.0, 1.0, 2.0, 1.0, 3.0)
    wrapped, counters = wrap_counting(problem)
    tuning = tune_parameters(spec)
    state = _state(problem, rng.standard_normal(4), rng.standard_normal(3), tuning)
    aux = build_auxiliary(wrapped, state, tuning)
    return solve_auxiliary, aux, spec, tuning, counters


def _conjugate_gradient_case(rng):
    B = rng.standard_normal((4, 3))
    B *= 20.0 / np.linalg.svd(B, compute_uv=False)[0]
    bp = BilinearProblem(
        grad_p=lambda x: x + 1.0, grad_q=lambda y: y - 1.0,
        L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
        coupling=CouplingOperator.from_dense(B),
    )
    wrapped, counters = wrap_counting_bilinear(bp)
    composite, spec = split_bilinear(bp)
    tuning = tune_parameters(spec)
    state = _state(composite, rng.standard_normal(4), rng.standard_normal(3), tuning)
    aux = build_auxiliary(composite, state, tuning)
    return make_bilinear_inner_solver(wrapped), aux, spec, tuning, counters


@pytest.mark.parametrize(
    "case, budget_calls", [(_extragradient_case, 1), (_conjugate_gradient_case, 4)]
)
class TestInnerExits:
    """The criterion, stall and budget exits, shared by both inner solvers."""

    def test_criterion(self, rng, case, budget_calls):
        solver, aux, spec, tuning, _ = case(rng)
        assert solver(aux, spec, tuning, InnerConfig()).accepted_by == "criterion"

    def test_stall(self, rng, case, budget_calls):
        solver, aux, spec, tuning, _ = case(rng)
        config = InnerConfig(stall_window=1, stall_rtol=1.0)
        assert solver(aux, spec, tuning, config).accepted_by == "stall"

    def test_budget(self, rng, case, budget_calls):
        # Only the start is checked: one coupling call for extragradient;
        # the linear term, B^T x, B B^T x and the check's B y for CG.
        solver, aux, spec, tuning, counters = case(rng)
        with pytest.raises(InnerBudgetExhausted):
            solver(aux, spec, tuning, InnerConfig(max_inner=0))
        assert counters.calls_grad_R == budget_calls


class TestGammaTarget:
    TUNING = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)

    def test_unit_example(self):
        spec = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)
        value = gamma_target(self.TUNING, spec, np.array([1.0]), np.array([1.0]))
        assert value == pytest.approx(1 / 12)

    def test_zero_displacement(self):
        spec = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)
        assert gamma_target(self.TUNING, spec, np.zeros(3), np.zeros(2)) == 0.0

    def test_third_steps_example(self):
        tuning = SolverTuning(alpha=1.0, eta_x=1 / 3, eta_y=1 / 3, branch=X_DOMINANT)
        spec = SmoothnessSpec(L_p=1, L_q=1, L_R=3, mu_x=1, mu_y=1)
        value = gamma_target(tuning, spec, np.array([1.0]), np.array([0.0]))
        assert value == pytest.approx(1 / 24)

    def test_non_positive_step(self):
        tuning = SolverTuning(alpha=1.0, eta_x=0.0, eta_y=1.0, branch=X_DOMINANT)
        spec = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)
        with pytest.raises(NonPositiveStep):
            gamma_target(tuning, spec, np.ones(1), np.ones(1))
