import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleslide import (
    AuxiliaryProblem,
    BilinearProblem,
    CompositeSaddleProblem,
    CouplingOperator,
    InnerConfig,
    PointPair,
    SmoothnessSpec,
    check_inner_criterion,
    solve_auxiliary,
    split_bilinear,
    tune_parameters,
    wrap_counting,
    wrap_counting_bilinear,
)
from saddleslide.bench.generators import gen_bilinear, gen_quadratic_spp
from saddleslide.bilinear import (
    _cg_iterates,
    eliminate_y,
    make_bilinear_inner_solver,
    solve_bilinear,
)
from saddleslide.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InnerBudgetExhausted,
    NonPositiveInput,
)
from saddleslide.inner import InnerResult, fbf_iterates
from saddleslide.outer import SolveConfig, SolverTuning, X_DOMINANT, solve

from conftest import central_diff, random_quadratic_instance, random_sym_psd


def _aux(problem, x, y, tuning, coupled=None):
    # Anchored at (x, y) with the composite gradients of ``problem`` there;
    # the coupling oracle comes from ``coupled`` (a counting wrapper, say).
    coupled = problem if coupled is None else coupled
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return AuxiliaryProblem(
        coupled.grad_R, problem.grad_p(x), problem.grad_q(y), x, y,
        tuning.eta_x, tuning.eta_y, coupled.value_R,
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
        aux = _aux(problem, np.zeros(2), np.zeros(2), tuning)
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
        aux = _aux(problem, x_k, y_k, tuning)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(4)
            g_x, g_y = aux.gradients(x, y)
            fd_x = central_diff(lambda u: aux.value(u, y), x)
            fd_y = central_diff(lambda v: aux.value(x, v), y)
            assert np.linalg.norm(fd_x - g_x) <= 1e-6 * (1 + np.linalg.norm(g_x))
            assert np.linalg.norm(fd_y - g_y) <= 1e-6 * (1 + np.linalg.norm(g_y))

    # The outer loop builds the subproblem from the composite gradients and
    # takes back the inner solver's pair; a wrong shape in either is caught.
    SPEC = SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=1, mu_y=1)

    def test_dimension_mismatch(self):
        problem = CompositeSaddleProblem(
            d_x=2, d_y=2,
            grad_p=lambda x: np.zeros(3),
            grad_q=lambda y: np.zeros(2),
            grad_R=lambda x, y: (np.zeros(2), np.zeros(2)),
        )
        start = PointPair(np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            solve(problem, self.SPEC, start, SolveConfig(eps=1e-6, max_outer=3))

    def test_inner_result_dimension_mismatch(self):
        problem = CompositeSaddleProblem(
            d_x=2, d_y=2,
            grad_p=lambda x: np.zeros(2),
            grad_q=lambda y: np.zeros(2),
            grad_R=lambda x, y: (np.zeros(2), np.zeros(2)),
        )

        def short_pair(aux, spec, tuning, config):
            return InnerResult(PointPair(np.zeros(1), np.zeros(2)), 0,
                               np.zeros(1), np.zeros(2))

        start = PointPair(np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            solve(problem, self.SPEC, start, SolveConfig(eps=1e-6, max_outer=3),
                  inner_solver=short_pair)

    def test_coupling_gradient_shape_checked(self):
        # A (1,)-shaped x-gradient broadcasts through the subproblem
        # gradients: unchecked, this run certified x = arange(4) - 0.75
        # against the saddle's arange(4) / 2.
        problem = CompositeSaddleProblem(
            d_x=4, d_y=4,
            grad_p=lambda x: x - np.arange(4.0),
            grad_q=lambda y: y,
            grad_R=lambda x, y: (np.array([x.mean()]), -y),
        )
        start = PointPair(np.zeros(4), np.zeros(4))
        config = SolveConfig(eps=1e-8, max_outer=100, use_residual_stop=True)
        with pytest.raises(DimensionMismatch):
            solve(problem, self.SPEC, start, config)

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

    def test_fbf_update_by_hand(self):
        # SPEC declares mu = 1 for a coupling that is zero, so the forward
        # operator is B'(z) = -z, the step s = 0.9/(1 + 0) = 9/10 and the
        # resolvent divides by 1 + s/eta + s*mu = 14/5.  From x = 1:
        # x_h = (1 + 9/10 - 9/10 + 9/10) / (14/5) = 19/28, and the
        # correction x+ = x_h - (9/10)(-x_h + 1) = 109/280.  The update is
        # linear, so every step multiplies by 109/280, in y alike.
        aux = _identity_operator_aux()
        seen = [(x[0], y[0]) for x, y, *_ in
                itertools.islice(fbf_iterates(aux, self.SPEC), 3)]
        assert seen[0] == (1.0, 1.0)
        for t, (x, y) in enumerate(seen):
            assert x == pytest.approx((109 / 280) ** t)
            assert y == pytest.approx((109 / 280) ** t)

    def test_non_finite_coupling_raises_divergence(self):
        # The start is fine; the first forward-backward-forward step turns NaN.
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
        aux = _aux(problem, x_k, y_k, tuning)
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
        # FBF is Fejer monotone: the distance to the exact subproblem
        # solution never increases at a step below 1/Lip(B').
        problem, spec, _, data = random_quadratic_instance(
            rng, 3, 3, 2.0, 1.0, 2.0, 1.0, 2.5
        )
        tuning = tune_parameters(spec)
        assert tuning.eta_x == tuning.eta_y
        x_k = rng.standard_normal(3)
        y_k = rng.standard_normal(3)
        aux = _aux(problem, x_k, y_k, tuning)
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
        iterates = fbf_iterates(aux, spec)
        dists = [
            np.linalg.norm(np.concatenate([x, y]) - exact)
            for x, y, *_ in itertools.islice(iterates, result.iterations + 1)
        ]
        assert len(dists) >= 2
        for before, after in zip(dists, dists[1:]):
            assert after <= before * (1 + 1e-12)

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
            aux = _aux(problem, x_k, y_k, tuning, coupled=wrapped)
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


@settings(max_examples=60, deadline=None)
@given(
    d_x=st.integers(1, 4),
    d_y=st.integers(1, 4),
    log_mu_ratio=st.floats(-3.0, 3.0),
    log_gain=st.floats(0.0, 3.0),
    curv_x=st.floats(0.0, 1.0),
    curv_y=st.floats(0.0, 1.0),
    coupling=st.floats(0.0, 1.0),
    cond_p=st.floats(0.0, 100.0),
    cond_q=st.floats(0.0, 100.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_fbf_step_bound_accepts_by_criterion(
    d_x, d_y, log_mu_ratio, log_gain, curv_x, curv_y, coupling, cond_p, cond_q, seed
):
    # R = x'Hx x/2 + x'By - y'Hy y/2 with spectrum(Hx) in [mu_x, top],
    # spectrum(Hy) in [mu_y, top] and ||B|| <= top, top = 10^log_gain max(mu),
    # so R's curvature may exceed its declared moduli and B' need not be
    # skew: only L_R + |mu_x - mu_y| bounds it.  All of curv_x, curv_y and
    # coupling at 0 is the edge where B' vanishes and L_R = max(mu).
    rng = np.random.default_rng(seed)
    mu_x, mu_y = 1.0, 10.0 ** -log_mu_ratio
    top = 10.0 ** log_gain * max(mu_x, mu_y)
    Hx = random_sym_psd(rng, d_x, mu_x, mu_x + curv_x * (top - mu_x))
    Hy = random_sym_psd(rng, d_y, mu_y, mu_y + curv_y * (top - mu_y))
    B = rng.standard_normal((d_x, d_y))
    B *= coupling * top / np.linalg.norm(B, 2)
    L_R = max(float(np.linalg.norm(np.block([[Hx, B], [B.T, -Hy]]), 2)), mu_x, mu_y)
    remainder = np.block([[Hx - mu_x * np.eye(d_x), B], [-B.T, Hy - mu_y * np.eye(d_y)]])
    assert np.linalg.norm(remainder, 2) <= (L_R + abs(mu_x - mu_y)) * (1.0 + 1e-12)
    spec = SmoothnessSpec(L_p=cond_p * mu_x, L_q=cond_q * mu_y, L_R=L_R, mu_x=mu_x, mu_y=mu_y)
    tuning = tune_parameters(spec)
    calls = []

    def grad_R(x, y):
        calls.append(None)
        return Hx @ x + B @ y, B.T @ x - Hy @ y

    x_k, y_k = rng.standard_normal(d_x), rng.standard_normal(d_y)
    aux = AuxiliaryProblem(grad_R, rng.standard_normal(d_x), rng.standard_normal(d_y),
                           x_k, y_k, tuning.eta_x, tuning.eta_y)
    result = solve_auxiliary(aux, spec, tuning, InnerConfig())
    assert result.accepted_by == "criterion"
    assert len(calls) == 2 * result.iterations + 1

    # Dense KKT solve of the subproblem: its operator (g_x, -g_y) is
    # F(z) = K z - rhs with K = [[Hx, B], [-B', Hy]] + diag(1/eta).
    w = np.concatenate([np.full(d_x, 1.0 / tuning.eta_x), np.full(d_y, 1.0 / tuning.eta_y)])
    K = np.block([[Hx, B], [-B.T, Hy]]) + np.diag(w)
    z_k = np.concatenate([x_k, y_k])
    rhs = w * z_k - np.concatenate([aux.grad_p_anchor, aux.grad_q_anchor])
    z_star = np.linalg.solve(K, rhs)
    z = np.concatenate([result.pair.x, result.pair.y])
    F = np.concatenate([result.grad_x, -result.grad_y])
    assert np.linalg.norm(F - (K @ z - rhs)) <= 1e-6 * (
        np.linalg.norm(K, 2) * np.linalg.norm(z) + np.linalg.norm(rhs))
    # The criterion eta_x ||g_x||^2 + eta_y ||g_y||^2 <= ||d||_W^2 / 6 and
    # the subproblem's 1/eta strong monotonicity put the accepted point within
    # ||d||_W / sqrt(6) of the solution in the norm ||v||_W^2 = sum ||v_i||^2/eta_i.
    dist = math.sqrt(float(w @ (z - z_star) ** 2))
    assert dist <= math.sqrt(float(w @ (z - z_k) ** 2) / 6.0) * (1.0 + 1e-6) + 1e-12


def _extragradient_case(rng):
    # Forward-backward-forward, Tseng's modified extragradient; its
    # coupling is stiff enough that the criterion waits five steps, so
    # test_stall's window of one is reached first.
    problem, spec, _, _ = random_quadratic_instance(rng, 4, 3, 2.0, 1.0, 2.0, 1.0, 20.0)
    wrapped, counters = wrap_counting(problem)
    tuning = tune_parameters(spec)
    aux = _aux(problem, rng.standard_normal(4), rng.standard_normal(3), tuning,
               coupled=wrapped)
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
    aux = _aux(composite, rng.standard_normal(4), rng.standard_normal(3), tuning)
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
        # Only the start is checked: one coupling call for FBF;
        # the linear term, B^T x, B B^T x and the check's B y for CG.
        solver, aux, spec, tuning, counters = case(rng)
        with pytest.raises(InnerBudgetExhausted):
            solver(aux, spec, tuning, InnerConfig(max_inner=0))
        assert counters.calls_grad_R == budget_calls


# ---------------------------------------------------------------------------
# Reference copies of the inner loops in their plain form: the stall rule by
# np.linalg.norm, the displacement recomputed for the criterion and the FBF
# resolvent written out as a function.  The library's loops must produce the
# same floating-point results bit for bit.


def _reference_accept_first(iterates, aux, tuning, config):
    stalled, previous = 0, None
    for t, (x, y, g_x, g_y, blocks) in enumerate(iterates):
        if previous is not None:
            moved = [
                float(np.linalg.norm(new - old)) / max(float(np.linalg.norm(old)), 1.0)
                for new, old in zip(blocks, previous)
            ]
            stalled = stalled + 1 if all(m <= config.stall_rtol for m in moved) else 0
        previous = blocks
        if check_inner_criterion(
            g_x, g_y, x - aux.x_k, y - aux.y_k, tuning, config.floor_tol
        ):
            return InnerResult(PointPair(x, y), t, g_x, g_y)
        if stalled >= config.stall_window:
            break
        if t >= config.max_inner:
            raise InnerBudgetExhausted(f"criterion unmet after {t} inner iterations")
    return InnerResult(PointPair(x, y), t, g_x, g_y, accepted_by="stall")


def _reference_fbf(aux, spec, tuning, config):
    s = 0.9 / (spec.L_R + abs(spec.mu_x - spec.mu_y))

    def resolvent(w, grad_anchor, z_k, eta, mu):
        return (w - s * grad_anchor + (s / eta) * z_k) / (1.0 + s / eta + s * mu)

    def iterates():
        x, y = aux.x_k, aux.y_k
        r_x, r_y = aux.grad_R(x, y)
        while True:
            g_x = aux.grad_p_anchor + (x - aux.x_k) / aux.eta_x + r_x
            g_y = r_y - aux.grad_q_anchor - (y - aux.y_k) / aux.eta_y
            yield x, y, g_x, g_y, (x, y)
            b_x, b_y = r_x - spec.mu_x * x, -r_y - spec.mu_y * y
            x_h = resolvent(x - s * b_x, aux.grad_p_anchor, aux.x_k, aux.eta_x, spec.mu_x)
            y_h = resolvent(y - s * b_y, aux.grad_q_anchor, aux.y_k, aux.eta_y, spec.mu_y)
            rh_x, rh_y = aux.grad_R(x_h, y_h)
            x = x_h - s * ((rh_x - spec.mu_x * x_h) - b_x)
            y = y_h - s * ((-rh_y - spec.mu_y * y_h) - b_y)
            r_x, r_y = aux.grad_R(x, y)

    return _reference_accept_first(iterates(), aux, tuning, config)


def _reference_bilinear_inner(bp):
    def inner(aux, spec, tuning, config):
        qf = eliminate_y(bp, aux)

        def iterates():
            for x, bt_x, _ in _cg_iterates(qf.matvec, qf.rmatvec, qf.kappa, -qf.b, aux.x_k):
                y = qf.recover_y(x, bt_x)
                g_x = (aux.grad_p_anchor + (x - aux.x_k) / tuning.eta_x
                       + bp.mu_p * x + bp.coupling.matvec(y))
                g_y = (bt_x - bp.mu_q * y - (y - aux.y_k) / tuning.eta_y
                       - aux.grad_q_anchor)
                yield x, y, g_x, g_y, (x,)

        return _reference_accept_first(iterates(), aux, tuning, config)

    return inner


def _same_result(got, want):
    return (
        got.iterations == want.iterations
        and got.accepted_by == want.accepted_by
        and all(
            np.array_equal(g, w)
            for g, w in [
                (got.pair.x, want.pair.x), (got.pair.y, want.pair.y),
                (got.grad_x, want.grad_x), (got.grad_y, want.grad_y),
            ]
        )
    )


REFERENCE_CONFIGS = {
    "default": InnerConfig(),
    "stall-heavy": InnerConfig(stall_window=1, stall_rtol=1.0),
}


class TestReferenceEquivalence:
    """Bit-equal results against the reference loops over whole solves."""

    # Unequal moduli give unequal steps eta_x != eta_y and a step s that
    # pays |mu_x - mu_y|.  Odd dimensions put the y block of the stacked
    # iterate 56 bytes in, off the 16-byte alignment of a fresh array.
    @pytest.mark.parametrize("d_x, d_y, mu_x, mu_y", [
        pytest.param(10, 8, 1.0, 1.0, id="1.0-1.0"),
        pytest.param(10, 8, 1.0, 0.01, id="1.0-0.01"),
        pytest.param(10, 8, 0.01, 1.0, id="0.01-1.0"),
        pytest.param(7, 9, 1.0, 1.0, id="odd-dims"),
    ])
    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    def test_fbf_matches_reference(self, d_x, d_y, mu_x, mu_y, config_name):
        config = REFERENCE_CONFIGS[config_name]
        inst = gen_quadratic_spp(
            d_x, d_y, 4.0 * mu_x, mu_x, 4.0 * mu_y, mu_y, 10.0 * math.sqrt(mu_x * mu_y), 1
        )
        problem, spec = inst.problem(), inst.spec()
        exits = set()

        def checked_inner(aux, spec_, tuning, config_):
            got = solve_auxiliary(aux, spec_, tuning, config_)
            assert _same_result(got, _reference_fbf(aux, spec_, tuning, config_))
            exits.add(got.accepted_by)
            return got

        start = PointPair(np.zeros(d_x), np.zeros(d_y))
        solve(problem, spec, start, SolveConfig(eps=1e-8, max_outer=40, inner=config),
              inner_solver=checked_inner)
        assert ("stall" if config_name == "stall-heavy" else "criterion") in exits

    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    def test_bilinear_matches_reference(self, config_name):
        config = REFERENCE_CONFIGS[config_name]
        bp = gen_bilinear(30, 20, 4.0, 1.0, 0.04, 0.01, 2.0, 1).bilinear_problem()
        start = PointPair(np.zeros(30), np.zeros(20))
        solve_config = SolveConfig(eps=1e-8, max_outer=60, inner=config)
        got = solve_bilinear(bp, start, solve_config)

        wrapped, counters = wrap_counting_bilinear(bp)
        composite, spec = split_bilinear(bp)
        want = solve(composite, spec, start, solve_config,
                     inner_solver=_reference_bilinear_inner(wrapped), counters=counters)
        assert np.array_equal(got.final_pair.x, want.final_pair.x)
        assert np.array_equal(got.final_pair.y, want.final_pair.y)
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.inner_iterations == want.inner_iterations
