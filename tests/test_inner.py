import dataclasses
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
    PointPair,
    SmoothnessSpec,
    check_inner_criterion,
    solve_auxiliary,
    split_bilinear,
    tune_parameters,
    wrap_counting,
    wrap_counting_bilinear,
)
from saddleslide import bilinear
from saddleslide import inner as inner_module
from saddleslide.bench.generators import (
    gen_bilinear,
    gen_consensus,
    gen_linear_bilinear,
    gen_quadratic_spp,
)
from saddleslide.bilinear import (
    _cg_start,
    _cg_step,
    eliminate_y,
    make_bilinear_inner_solver,
    solve_affine_constrained,
    solve_bilinear,
    solve_bilinear_linear_composites,
)
from saddleslide.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InnerBudgetExhausted,
)
from saddleslide.inner import InnerResult, fbf_iterates, fbf_start, fbf_step
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

        def short_pair(aux, spec, tuning):
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


def _fbf_walk(aux, spec, n):
    # The first n iterates of FBF on aux.
    it, run = fbf_iterates(aux, spec)
    walk = [it]
    while len(walk) < n:
        walk.append(fbf_step(run, walk[-1]))
    return walk


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
        result = solve_auxiliary(aux, self.SPEC, tuning)
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
        seen = [(x[0], y[0]) for x, y, *_ in _fbf_walk(aux, self.SPEC, 3)]
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
            solve_auxiliary(aux, self.SPEC, tuning)

    def test_later_coupling_output_shape_checked(self):
        # The start and the first step's midpoint get outputs of the right
        # shapes; the iterate after them gets a (1,)-shaped x block, which
        # the gradient sum would broadcast.
        calls = []

        def grad_R(x, y):
            calls.append(None)
            return (np.zeros(1) if len(calls) == 3 else np.zeros(2)), np.zeros(2)

        aux = AuxiliaryProblem(
            grad_R=grad_R, grad_p_anchor=np.ones(2), grad_q_anchor=np.ones(2),
            x_k=np.ones(2), y_k=np.ones(2), eta_x=1.0, eta_y=1.0,
        )
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        with pytest.raises(DimensionMismatch):
            solve_auxiliary(aux, self.SPEC, tuning)
        assert len(calls) == 3

    def test_midpoint_coupling_output_shape_checked(self):
        # The first step's midpoint gets outputs of the wrong shapes whose
        # lengths still add up to d_x + d_y, so stacking them would pass.
        calls = []

        def grad_R(x, y):
            calls.append(None)
            if len(calls) == 2:
                return np.zeros(1), np.zeros(3)
            return np.zeros(2), np.zeros(2)

        aux = AuxiliaryProblem(
            grad_R=grad_R, grad_p_anchor=np.ones(2), grad_q_anchor=np.ones(2),
            x_k=np.ones(2), y_k=np.ones(2), eta_x=1.0, eta_y=1.0,
        )
        tuning = SolverTuning(alpha=1.0, eta_x=1.0, eta_y=1.0, branch=X_DOMINANT)
        with pytest.raises(DimensionMismatch):
            solve_auxiliary(aux, self.SPEC, tuning)
        assert len(calls) == 2

    def test_random_quadratic_matches_subproblem_kkt(self, rng, monkeypatch):
        problem, spec, _, data = random_quadratic_instance(
            rng, 4, 4, 2.0, 1.0, 2.0, 1.0, 1.8
        )
        tuning = tune_parameters(spec)
        x_k = rng.standard_normal(4)
        y_k = rng.standard_normal(4)
        aux = _aux(problem, x_k, y_k, tuning)
        monkeypatch.setattr(inner_module, "FLOOR_TOL", 0.0)
        result = solve_auxiliary(aux, spec, tuning)
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

    def test_monotone_contraction_toward_exact_solution(self, rng, monkeypatch):
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
        monkeypatch.setattr(inner_module, "FLOOR_TOL", 0.0)
        result = solve_auxiliary(aux, spec, tuning)
        dists = [
            np.linalg.norm(np.concatenate([x, y]) - exact)
            for x, y, *_ in _fbf_walk(aux, spec, result.iterations + 1)
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
            result = solve_auxiliary(aux, spec, tuning)
            assert counters.calls_grad_R == 2 * result.iterations + 1
            totals[sigma] = result.iterations
            geo_step = np.sqrt(tuning.eta_x * tuning.eta_y)
            totals[f"pred{sigma}"] = 1.0 + spec.L_R * geo_step
        measured = totals[50.0] / max(totals[5.0], 1)
        predicted = totals["pred50.0"] / totals["pred5.0"]
        assert measured <= 2.0 * predicted


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
    result = solve_auxiliary(aux, spec, tuning)
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
        assert solver(aux, spec, tuning).accepted_by == "criterion"

    def test_stall(self, rng, monkeypatch, case, budget_calls):
        solver, aux, spec, tuning, _ = case(rng)
        monkeypatch.setattr(inner_module, "STALL_WINDOW", 1)
        monkeypatch.setattr(inner_module, "STALL_RTOL", 1.0)
        assert solver(aux, spec, tuning).accepted_by == "stall"

    def test_budget(self, rng, monkeypatch, case, budget_calls):
        # Only the start is checked: one coupling call for FBF;
        # the linear term, B^T x, B B^T x and the check's B y for CG.
        solver, aux, spec, tuning, counters = case(rng)
        monkeypatch.setattr(inner_module, "MAX_INNER", 0)
        with pytest.raises(InnerBudgetExhausted):
            solver(aux, spec, tuning)
        assert counters.calls_grad_R == budget_calls


# ---------------------------------------------------------------------------
# Reference copies of the inner loops in their plain form: the stall rule by
# np.linalg.norm, the displacement recomputed for the criterion and the FBF
# resolvent and warm start written out blockwise as functions.  The
# library's loops must produce the same floating-point results bit for bit.


def _reference_accept_first(iterates, aux, tuning):
    stalled, previous = 0, None
    for t, (x, y, g_x, g_y, blocks, b) in enumerate(iterates):
        if previous is not None:
            moved = [
                float(np.linalg.norm(new - old)) / max(float(np.linalg.norm(old)), 1.0)
                for new, old in zip(blocks, previous)
            ]
            stalled = stalled + 1 if all(m <= inner_module.STALL_RTOL for m in moved) else 0
        previous = blocks
        if check_inner_criterion(
            g_x, g_y, x - aux.x_k, y - aux.y_k, tuning, inner_module.FLOOR_TOL
        ):
            return InnerResult(PointPair(x, y), t, g_x, g_y, remainder=b)
        if stalled >= inner_module.STALL_WINDOW:
            break
        if t >= inner_module.MAX_INNER:
            raise InnerBudgetExhausted(f"criterion unmet after {t} inner iterations")
    return InnerResult(PointPair(x, y), t, g_x, g_y, accepted_by="stall", remainder=b)


def _reference_fbf(aux, spec, tuning):
    s = 0.9 / (spec.L_R + abs(spec.mu_x - spec.mu_y))

    def resolvent(w, grad_anchor, z_k, eta, mu):
        return (w - s * grad_anchor + (s / eta) * z_k) / (1.0 + s / eta + s * mu)

    def warm_start(b, grad_anchor, z_k, eta, mu):
        # The resolvent with B' frozen at b and the step taken to infinity.
        return ((s / eta) * z_k - s * grad_anchor - s * b) / (s / eta + s * mu)

    def iterates():
        x, y = aux.x_k, aux.y_k
        if aux.remainder is not None:
            # The previous step's remainder, its y block signed as the library's.
            d_x = len(aux.x_k)
            b_x, b_y = aux.remainder[:d_x], -aux.remainder[d_x:]
            x = warm_start(b_x, aux.grad_p_anchor, aux.x_k, aux.eta_x, spec.mu_x)
            y = warm_start(b_y, aux.grad_q_anchor, aux.y_k, aux.eta_y, spec.mu_y)
        r_x, r_y = aux.grad_R(x, y)
        while True:
            g_x = aux.grad_p_anchor + (x - aux.x_k) / aux.eta_x + r_x
            g_y = r_y - aux.grad_q_anchor - (y - aux.y_k) / aux.eta_y
            b_x, b_y = r_x - spec.mu_x * x, -r_y - spec.mu_y * y
            yield x, y, g_x, g_y, (x, y), np.concatenate([b_x, -b_y])
            x_h = resolvent(x - s * b_x, aux.grad_p_anchor, aux.x_k, aux.eta_x, spec.mu_x)
            y_h = resolvent(y - s * b_y, aux.grad_q_anchor, aux.y_k, aux.eta_y, spec.mu_y)
            rh_x, rh_y = aux.grad_R(x_h, y_h)
            x = x_h - s * ((rh_x - spec.mu_x * x_h) - b_x)
            y = y_h - s * ((-rh_y - spec.mu_y * y_h) - b_y)
            r_x, r_y = aux.grad_R(x, y)

    return _reference_accept_first(iterates(), aux, tuning)


def _reference_bilinear_inner(bp):
    def inner(aux, spec, tuning):
        qf = eliminate_y(bp, aux)
        s = 0.9 / (spec.L_R + abs(spec.mu_x - spec.mu_y))

        def iterates():
            x_0 = aux.x_k
            if aux.remainder is not None:
                # FBF's warm start in x: its resolvent with B y frozen at the
                # previous remainder's x block and the step taken to infinity.
                b_x = aux.remainder[: len(aux.x_k)]
                x_0 = ((s / aux.eta_x) * aux.x_k - s * aux.grad_p_anchor - s * b_x) / (
                    s / aux.eta_x + s * spec.mu_x
                )
            state = _cg_start(qf.matvec, qf.rmatvec, qf.kappa, -qf.b, x_0)
            while state is not None:
                x, bt_x = state[:2]
                y = (bt_x + (aux.y_k / aux.eta_y - aux.grad_q_anchor)) / qf.shift
                b_y = bp.coupling.matvec(y)
                g_x = (aux.grad_p_anchor + (x - aux.x_k) / tuning.eta_x
                       + bp.mu_p * x + b_y)
                # y maximizes given CG's running B^T x: its gradient is zero.
                g_y = np.zeros(len(y))
                # The remainder r - M z of the split coupling is (B y, B^T x).
                yield x, y, g_x, g_y, (x,), np.concatenate([b_y, bt_x])
                state = _cg_step(qf.matvec, qf.rmatvec, qf.kappa, *state)

        return _reference_accept_first(iterates(), aux, tuning)

    return inner


def _same_result(got, want, aux):
    # Any stacked terms the library hands `solve` must equal their blockwise
    # forms: the pair, the gradients, the displacement from (x_k, y_k) and
    # that displacement over (eta_x, -eta_y), whose y block is negated.
    blockwise = []
    if got._terms is not None:
        x, y, eta_x, eta_y = want.pair.x, want.pair.y, aux.eta_x, aux.eta_y
        dx, dy = x - aux.x_k, y - aux.y_k
        blockwise = zip(got._terms, [
            np.concatenate([x, y]), np.concatenate([want.grad_x, want.grad_y]),
            np.concatenate([dx, dy]), np.concatenate([dx / eta_x, -(dy / eta_y)]),
        ])
    return (
        got.iterations == want.iterations
        and got.accepted_by == want.accepted_by
        and all(
            np.array_equal(g, w)
            for g, w in [
                (got.pair.x, want.pair.x), (got.pair.y, want.pair.y),
                (got.grad_x, want.grad_x), (got.grad_y, want.grad_y),
                (got.remainder, want.remainder), *blockwise,
            ]
        )
    )


def _regularized_run(inst, eps):
    # run_single's sliding route for a consensus or linear-bilinear instance.
    if inst.kind == "consensus":
        grad, _ = inst.local_objective()
        return solve_affine_constrained(
            grad, inst.constants["local_L"], inst.constants["local_mu"],
            inst.coupling(), inst.arrays["c"], inst.constants["D_y"], eps,
        )
    return solve_bilinear_linear_composites(
        inst.arrays["d"], inst.arrays["c"], inst.coupling(),
        inst.constants["D_x"], inst.constants["D_y"], eps,
    )


# The affine-constrained reduction's y block has a tiny modulus and a
# large step; the linear-composite one's stages restart their solves.
REGULARIZED_CASES = [
    pytest.param(lambda: gen_consensus(10, "ring", 1.0, 4.0, 0), 1e-6, id="ring10"),
    pytest.param(lambda: gen_consensus(8, "path", 1.0, 4.0, 0), 1e-6, id="path8"),
    pytest.param(lambda: gen_linear_bilinear(8, 4), 1e-3, id="lb8-1e-3"),
    pytest.param(lambda: gen_linear_bilinear(8, 4), 1e-7, id="lb8-1e-7"),
]


# Inner settings the reference loops are checked under, as the values of
# `inner`'s module constants that differ from the defaults.
REFERENCE_CONFIGS = {
    "default": {},
    "stall-heavy": {"STALL_WINDOW": 1, "STALL_RTOL": 1.0},
}


class TestReferenceEquivalence:
    """Bit-equal results against the reference loops over whole solves."""

    # Unequal moduli give unequal steps eta_x != eta_y and a step s that
    # pays |mu_x - mu_y|.  Odd dimensions put the y block of the stacked
    # iterate 56 bytes in, off the 16-byte alignment of a fresh array.
    # L_R = 10 max(mu) couples the blocks at unequal moduli too: at
    # L_R = max(mu) the generator builds B = 0, whose subproblems the warm
    # start solves exactly, so no step there is ever rejected or stalls.
    @pytest.mark.parametrize("d_x, d_y, mu_x, mu_y", [
        pytest.param(10, 8, 1.0, 1.0, id="1.0-1.0"),
        pytest.param(10, 8, 1.0, 0.01, id="1.0-0.01"),
        pytest.param(10, 8, 0.01, 1.0, id="0.01-1.0"),
        pytest.param(7, 9, 1.0, 1.0, id="odd-dims"),
    ])
    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    def test_fbf_matches_reference(self, d_x, d_y, mu_x, mu_y, config_name, monkeypatch):
        for name, value in REFERENCE_CONFIGS[config_name].items():
            monkeypatch.setattr(inner_module, name, value)
        inst = gen_quadratic_spp(
            d_x, d_y, 4.0 * mu_x, mu_x, 4.0 * mu_y, mu_y, 10.0 * max(mu_x, mu_y), 1
        )
        problem, spec = inst.problem(), inst.spec()
        exits = set()
        starts = []

        def checked_inner(aux, spec_, tuning):
            got = solve_auxiliary(aux, spec_, tuning)
            assert got._terms is not None
            assert _same_result(got, _reference_fbf(aux, spec_, tuning), aux)
            exits.add(got.accepted_by)
            starts.append(aux.remainder is not None)
            return got

        start = PointPair(np.zeros(d_x), np.zeros(d_y))
        solve(problem, spec, start, SolveConfig(eps=1e-8, max_outer=40),
              inner_solver=checked_inner)
        assert ("stall" if config_name == "stall-heavy" else "criterion") in exits
        # Cold at the first step only: every later one starts warm.
        assert starts == [False] + [True] * (len(starts) - 1)

    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    def test_bilinear_matches_reference(self, config_name, monkeypatch):
        for name, value in REFERENCE_CONFIGS[config_name].items():
            monkeypatch.setattr(inner_module, name, value)
        bp = gen_bilinear(30, 20, 4.0, 1.0, 0.04, 0.01, 2.0, 1).bilinear_problem()
        start = PointPair(np.zeros(30), np.zeros(20))
        solve_config = SolveConfig(eps=1e-8, max_outer=60)
        got = solve_bilinear(bp, start, solve_config)

        wrapped, counters = wrap_counting_bilinear(bp)
        composite, spec = split_bilinear(bp)
        want = solve(composite, spec, start, solve_config,
                     inner_solver=_reference_bilinear_inner(wrapped), counters=counters)
        assert np.array_equal(got.final_pair.x, want.final_pair.x)
        assert np.array_equal(got.final_pair.y, want.final_pair.y)
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.inner_iterations == want.inner_iterations

    @pytest.mark.parametrize("make, eps", REGULARIZED_CASES)
    def test_regularized_matches_reference(self, make, eps, monkeypatch):
        inst = make()
        got = _regularized_run(inst, eps)
        monkeypatch.setattr(bilinear, "make_bilinear_inner_solver", _reference_bilinear_inner)
        want = _regularized_run(inst, eps)
        assert got.termination == want.termination == "residual-met"
        assert np.array_equal(got.final_pair.x, want.final_pair.x)
        assert np.array_equal(got.final_pair.y, want.final_pair.y)
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.inner_iterations == want.inner_iterations

    @pytest.mark.parametrize("make, eps", [
        *REGULARIZED_CASES,
        *[pytest.param(lambda s=s: gen_consensus(10, "ring", 1.0, 4.0, s), 1e-6,
                       id=f"ring10-seed{s}") for s in range(1, 10)],
    ])
    def test_y_gradient_from_definition_is_rounding(self, make, eps, monkeypatch):
        # The returned g_y is an exact zero.  From its definition, with a
        # dense B^T x in place of CG's running product, it is rounding and
        # CG's drift, relative to the two terms that cancel in it:
        # B^T x and y_k/eta_y - grad_q_anchor.  Worst measured over these
        # cases: 1.9e-10 (ring 10, seed 7).
        inst = make()
        B = inst.arrays["B"] if "B" in inst.arrays else inst.arrays["W"]
        seen = []

        def recording(bp):
            inner = make_bilinear_inner_solver(bp)

            def solver(aux, spec, tuning):
                result = inner(aux, spec, tuning)
                seen.append((bp.mu_q, aux, result))
                return result

            return solver

        monkeypatch.setattr(bilinear, "make_bilinear_inner_solver", recording)
        _regularized_run(inst, eps)
        assert seen
        for mu_q, aux, result in seen:
            assert not np.any(result.grad_y) and not result.grad_y.flags.writeable
            x, y = result.pair.x, result.pair.y
            bt_x = B.T @ x
            offset = aux.y_k / aux.eta_y - aux.grad_q_anchor
            g_y = bt_x - mu_q * y - (y - aux.y_k) / aux.eta_y - aux.grad_q_anchor
            scale = np.linalg.norm(bt_x) + np.linalg.norm(offset)
            assert np.linalg.norm(g_y) <= 1e-9 * scale


def _without_remainder(inner):
    # A custom inner solver: the library's, with the remainder dropped.
    def solver(aux, spec, tuning):
        return dataclasses.replace(inner(aux, spec, tuning), remainder=None)

    return solver


class TestConjugateGradientWarmStart:
    """Each CG solve after a run's first starts from FBF's warm start in x."""

    def _run(self, inner_of):
        inst = gen_bilinear(30, 20, 4.0, 1.0, 0.04, 0.01, 2.0, 1)
        wrapped, counters = wrap_counting_bilinear(inst.bilinear_problem())
        composite, spec = split_bilinear(inst.bilinear_problem())
        start = PointPair(np.zeros(30), np.zeros(20))
        config = SolveConfig(eps=1e-8, psi_0=100.0, use_residual_stop=True)
        report = solve(composite, spec, start, config,
                       inner_solver=inner_of(wrapped), counters=counters)
        assert report.termination == "residual-met"
        c = report.counters
        assert c.calls_grad_R == 4 * c.outer_iterations + 3 * c.inner_iterations
        return inst, report

    def test_engages_after_first_step(self):
        steps = []

        def recording(wrapped):
            inner = make_bilinear_inner_solver(wrapped)

            def solver(aux, spec, tuning):
                result = inner(aux, spec, tuning)
                steps.append((aux.remainder, result))
                return result

            return solver

        inst, report = self._run(recording)
        assert [r is None for r, _ in steps] == [True] + [False] * (len(steps) - 1)
        # Each step hands on FBF's remainder r - M z = (B y, B^T x) at its
        # pair; B^T x is CG's running product, so it agrees to rounding.
        B = inst.arrays["B"]
        for (_, previous), (remainder, _) in zip(steps, steps[1:]):
            assert remainder is previous.remainder
            x, y = previous.pair.x, previous.pair.y
            np.testing.assert_allclose(
                remainder, np.concatenate([B @ y, B.T @ x]), rtol=1e-9, atol=1e-12
            )
        c = report.counters
        # 534 products over 134 inner steps starting cold.
        assert (c.outer_iterations, c.inner_iterations, c.calls_grad_R) == (33, 72, 348)

    def test_custom_solver_without_remainder_stays_cold(self):
        remainders = []

        def cold(wrapped):
            inner = _without_remainder(make_bilinear_inner_solver(wrapped))

            def solver(aux, spec, tuning):
                remainders.append(aux.remainder)
                return inner(aux, spec, tuning)

            return solver

        _, got = self._run(cold)
        assert remainders == [None] * got.counters.outer_iterations
        c = got.counters
        assert (c.outer_iterations, c.inner_iterations, c.calls_grad_R) == (33, 134, 534)
        _, want = self._run(lambda w: _without_remainder(_reference_bilinear_inner(w)))
        assert np.array_equal(got.final_pair.x, want.final_pair.x)
        assert np.array_equal(got.final_pair.y, want.final_pair.y)

    @pytest.mark.parametrize("by_hand", [False, True], ids=["from-solve", "by-hand"])
    def test_start_is_fbf_start_x_block(self, by_hand):
        # CG's start, the first B^T argument, is the x block of FBF's warm
        # start bit for bit, also on a subproblem built by hand from its
        # blocks, without the stacked iterate or the per-entry vectors.
        inst = gen_bilinear(30, 20, 4.0, 1.0, 0.04, 0.01, 2.0, 1)
        bp = inst.bilinear_problem()
        subproblems = []

        def recording(wrapped):
            inner = make_bilinear_inner_solver(wrapped)

            def solver(aux, spec, tuning):
                subproblems.append((aux, spec, tuning))
                return inner(aux, spec, tuning)

            return solver

        self._run(recording)
        aux, spec, tuning = subproblems[5]
        assert aux.remainder is not None and aux.vectors is not None
        if by_hand:
            aux = AuxiliaryProblem(
                aux.grad_R, aux.grad_p_anchor, aux.grad_q_anchor, aux.x_k.copy(),
                aux.y_k.copy(), aux.eta_x, aux.eta_y, remainder=aux.remainder,
            )
        starts = []

        def rmatvec(x):
            starts.append(x.copy())
            return bp.coupling.rmatvec(x)

        coupling = dataclasses.replace(bp.coupling, rmatvec=rmatvec)
        inner = make_bilinear_inner_solver(dataclasses.replace(bp, coupling=coupling))
        got = inner(aux, spec, tuning)
        assert np.array_equal(starts[0], fbf_start(aux, spec)[0][:30])
        want = _reference_bilinear_inner(bp)(aux, spec, tuning)
        assert _same_result(got, want, aux)
