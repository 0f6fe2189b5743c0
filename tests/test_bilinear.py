import dataclasses
import itertools
import math

import numpy as np
import pytest

from saddleslide import (
    BilinearProblem,
    CouplingOperator,
    InnerConfig,
    PointPair,
    agd_quadratic,
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
from saddleslide.bilinear import _cg_iterates, _eliminate_from_parts
from saddleslide.errors import (
    BudgetExhausted,
    DivergenceDetected,
    InconsistentConstants,
    InfeasibleTarget,
    InnerBudgetExhausted,
    NonPositiveInput,
    NonPositiveModulus,
)
from saddleslide.outer import SolverTuning, X_DOMINANT

from conftest import random_sym_psd


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
        qf = _eliminate_from_parts(
            bp, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), tuning
        )
        assert qf.apply_A(np.ones(1))[0] == pytest.approx(2.5)

    def test_zero_data_gives_zero_saddle(self):
        bp = BilinearProblem(
            grad_p=lambda x: x, grad_q=lambda y: y,
            L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(np.array([[1.0, 0.5]])),
        )
        tuning = SolverTuning(alpha=1.0, eta_x=0.5, eta_y=0.5, branch=X_DOMINANT)
        qf = _eliminate_from_parts(
            bp, np.zeros(1), np.zeros(2), np.zeros(1), np.zeros(2), tuning
        )
        assert np.all(qf.b == 0.0)
        x_hat = agd_quadratic(qf, 1.0, 5.0, np.ones(1), tol=1e-12)
        assert np.linalg.norm(x_hat) <= 1e-10
        assert np.linalg.norm(qf.recover_y(x_hat)) <= 1e-10

    def test_public_wrapper_uses_state_fields(self, rng):
        from saddleslide.outer import OuterState

        bp, _, _ = _random_bilinear(rng, 2, 2)
        tuning = tune_parameters(split_bilinear(bp)[1])
        gp, gq = rng.standard_normal(2), rng.standard_normal(2)
        x_k, y_k = rng.standard_normal(2), rng.standard_normal(2)
        state = OuterState(
            k=0, z=PointPair(x_k, y_k), z_f=PointPair(x_k, y_k),
            z_g=PointPair(x_k, y_k), grad_p_g=gp, grad_q_g=gq,
        )
        via_state = eliminate_y(bp, state, tuning)
        direct = _eliminate_from_parts(bp, gp, gq, x_k, y_k, tuning)
        assert np.array_equal(via_state.b, direct.b)
        assert via_state.kappa == direct.kappa
        assert via_state.c == direct.c

    def test_matches_direct_kkt_on_random_instance(self, rng):
        bp, data, _ = _random_bilinear(rng, 3, 2)
        tuning = tune_parameters(split_bilinear(bp)[1])
        gp = rng.standard_normal(3)
        gq = rng.standard_normal(2)
        x_k = rng.standard_normal(3)
        y_k = rng.standard_normal(2)
        qf = _eliminate_from_parts(bp, gp, gq, x_k, y_k, tuning)
        lam = np.linalg.eigvalsh(data["B"] @ data["B"].T)
        x_hat = agd_quadratic(
            qf, 0.5 * (qf.kappa + max(lam[0], 0.0)), 0.5 * (qf.kappa + lam[-1]),
            x_k.copy(), tol=1e-13,
        )
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
            qf = _eliminate_from_parts(bp, gp, gq, x_k, y_k, tuning)
            lam = np.linalg.eigvalsh(data["B"] @ data["B"].T)
            x_hat = agd_quadratic(
                qf, 0.5 * (qf.kappa + max(lam[0], 0.0)), 0.5 * (qf.kappa + lam[-1]),
                x_k.copy(), tol=1e-12,
            )
            y_hat = qf.recover_y(x_hat)
            x_ref, y_ref = _aux_saddle_direct(data, bp, gp, gq, x_k, y_k, tuning)
            err = max(
                np.linalg.norm(x_hat - x_ref), np.linalg.norm(y_hat - y_ref)
            )
            assert err <= 1e-8, f"trial {trial}: {err}"

    def test_spectral_sandwich(self, rng):
        bp, data, _ = _random_bilinear(rng, 5, 3, sigma=3.0)
        tuning = tune_parameters(split_bilinear(bp)[1])
        qf = _eliminate_from_parts(
            bp, np.zeros(5), np.zeros(3), np.zeros(5), np.zeros(3), tuning
        )
        dense_A = np.column_stack([qf.apply_A(e) for e in np.eye(5)])
        eigs = np.linalg.eigvalsh(0.5 * (dense_A + dense_A.T))
        lam = np.linalg.eigvalsh(data["B"] @ data["B"].T)
        lo = 0.5 * (qf.kappa + max(lam[0], 0.0))
        hi = 0.5 * (qf.kappa + lam[-1])
        assert eigs[0] >= lo * (1 - 1e-6)
        assert eigs[-1] <= hi * (1 + 1e-6)

    def test_matvec_counts_per_apply(self, rng):
        bp, _, _ = _random_bilinear(rng, 3, 2)
        wrapped, counters = wrap_counting_bilinear(bp)
        tuning = tune_parameters(split_bilinear(bp)[1])
        before = counters.calls_grad_R
        qf = _eliminate_from_parts(
            wrapped, np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(2), tuning
        )
        assert counters.calls_grad_R == before + 1  # one product to build b
        qf.apply_A(np.ones(3))
        assert counters.calls_grad_R == before + 3  # plus B^T and B


class TestAgdQuadratic:
    def _simple_qf(self, B, kappa, b):
        coupling = CouplingOperator.from_dense(B)
        return __import__("saddleslide").QuadraticForm(
            matvec=coupling.matvec,
            rmatvec=coupling.rmatvec,
            kappa=kappa,
            shift=1.0,
            b=np.asarray(b, float),
            c=0.0,
            eta_y=1.0,
            y_anchor=np.zeros(B.shape[1]),
            grad_q_anchor=np.zeros(B.shape[1]),
        )

    def test_zero_linear_term(self, rng):
        B = rng.standard_normal((4, 4))
        qf = self._simple_qf(B, kappa=2.0, b=np.zeros(4))
        lam = np.linalg.eigvalsh(B @ B.T)
        x = agd_quadratic(qf, 0.5 * (2 + max(lam[0], 0)), 0.5 * (2 + lam[-1]),
                          rng.standard_normal(4), tol=1e-12)
        assert np.linalg.norm(x) <= 1e-10

    def test_one_dimensional_minimizer(self):
        # A = I (kappa=1, B=[1] gives A = (1 + 1)/2 = 1), b = -2: the
        # gradient 2x - 2 vanishes at x = 1.
        qf = self._simple_qf(np.array([[1.0]]), kappa=1.0, b=np.array([-2.0]))
        x = agd_quadratic(qf, 1.0, 1.0, np.zeros(1), tol=1e-12)
        assert x[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_solve(self, rng):
        B = rng.standard_normal((5, 5))
        b = rng.standard_normal(5)
        qf = self._simple_qf(B, kappa=1.3, b=b)
        lam = np.linalg.eigvalsh(B @ B.T)
        x = agd_quadratic(qf, 0.5 * (1.3 + max(lam[0], 0)), 0.5 * (1.3 + lam[-1]),
                          np.zeros(5), tol=1e-12)
        dense_hessian = 1.3 * np.eye(5) + B @ B.T
        x_ref = np.linalg.solve(dense_hessian, -b)
        assert np.linalg.norm(x - x_ref) <= 1e-9

    def test_budget_exhausted(self, rng):
        B = rng.standard_normal((4, 4))
        qf = self._simple_qf(B, kappa=0.01, b=rng.standard_normal(4))
        lam = np.linalg.eigvalsh(B @ B.T)
        with pytest.raises(BudgetExhausted):
            agd_quadratic(qf, 0.5 * (0.01 + max(lam[0], 0)), 0.5 * (0.01 + lam[-1]),
                          np.zeros(4), tol=1e-14, max_iter=2)

    def test_validates_spectrum_bounds(self):
        qf = self._simple_qf(np.array([[1.0]]), kappa=1.0, b=np.array([1.0]))
        with pytest.raises(NonPositiveInput):
            agd_quadratic(qf, 0.0, 1.0, np.zeros(1), tol=1e-8)


class TestSolveBilinear:
    def test_pure_moduli_converges_to_origin(self, rng):
        B = rng.standard_normal((3, 4))
        bp = BilinearProblem(
            grad_p=lambda x: 1.5 * x, grad_q=lambda y: 0.7 * y,
            L_p=1.5, mu_p=1.5, L_q=0.7, mu_q=0.7,
            coupling=CouplingOperator.from_dense(B),
        )
        start = PointPair(rng.standard_normal(3), rng.standard_normal(4))
        report = solve_bilinear(bp, start, 1e-10, psi_0=100.0)
        origin = PointPair(np.zeros(3), np.zeros(4))
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, origin, t.eta_x, t.eta_y) <= 1e-10

    def test_one_dimensional_closed_form(self):
        bp = BilinearProblem(
            grad_p=lambda x: x + 1.0, grad_q=lambda y: y,
            L_p=1.0, mu_p=1.0, L_q=1.0, mu_q=1.0,
            coupling=CouplingOperator.from_dense(np.array([[1.0]])),
        )
        report = solve_bilinear(bp, PointPair([0.0], [0.0]), 1e-12, psi_0=10.0)
        assert report.final_pair.x[0] == pytest.approx(-0.5, abs=1e-6)
        assert report.final_pair.y[0] == pytest.approx(-0.5, abs=1e-6)

    def test_random_instance_matches_kkt(self, rng):
        bp, _, saddle = _random_bilinear(rng, 10, 10, sigma=5.0)
        start = PointPair(np.zeros(10), np.zeros(10))
        composite, spec = split_bilinear(bp)
        psi0 = initial_potential(composite, spec, start, saddle)
        report = solve_bilinear(bp, start, 1e-8, psi_0=psi0)
        t = report.tuning
        assert weighted_distance_sq(report.final_pair, saddle, t.eta_x, t.eta_y) <= 1e-8

    def test_counters_report_matvecs(self, rng):
        bp, _, saddle = _random_bilinear(rng, 4, 4)
        report = solve_bilinear(bp, PointPair(np.zeros(4), np.zeros(4)), 1e-6,
                                psi_0=50.0)
        c = report.counters
        assert c.calls_grad_p == c.outer_iterations
        assert c.calls_grad_q == c.outer_iterations
        # Per outer step: one product to build the linear term, then three
        # per checked CG iterate (two for the start's residual or the CG
        # step, one for the acceptance check), one iterate beyond the steps.
        assert c.calls_grad_R == c.outer_iterations * 4 + 3 * c.inner_iterations

    def test_stall_rule_follows_inner_config(self, rng):
        # stall_rtol = 1 counts every CG step as a stall, so with a window
        # of one some outer step must be accepted by the stall rule.
        bp, _, _ = _random_bilinear(rng, 6, 5, sigma=20.0)
        report = solve_bilinear(
            bp, PointPair(np.zeros(6), np.zeros(5)), 1e-6, psi_0=50.0,
            inner=InnerConfig(stall_window=1, stall_rtol=1.0),
            track_inner_details=True,
        )
        assert any(log["accepted_by"] == "stall" for log in report.inner_logs)

    def test_inner_budget_raises_named_error(self, rng):
        bp, _, _ = _random_bilinear(rng, 6, 5, sigma=20.0)
        with pytest.raises(InnerBudgetExhausted):
            solve_bilinear(
                bp, PointPair(np.ones(6), np.ones(5)), 1e-6, psi_0=50.0,
                inner=InnerConfig(max_inner=0),
            )

    def test_non_finite_composite_raises_divergence(self, rng):
        # A NaN composite gradient poisons the conjugate-gradient iterates;
        # the inner criterion must name it instead of exhausting the budget.
        bp, _, _ = _random_bilinear(rng, 6, 5)
        calls = []

        def grad_p(x):
            calls.append(None)
            return bp.grad_p(x) * (np.nan if len(calls) > 3 else 1.0)

        with pytest.raises(DivergenceDetected):
            solve_bilinear(
                dataclasses.replace(bp, grad_p=grad_p),
                PointPair(np.zeros(6), np.zeros(5)), 1e-6, psi_0=50.0,
                inner=InnerConfig(max_inner=1000),
            )

    def test_potential_tracking_leaves_tallies_unchanged(self, rng):
        bp, _, saddle = _random_bilinear(rng, 5, 4)
        start = PointPair(np.zeros(5), np.zeros(4))
        plain = solve_bilinear(bp, start, 1e-6, psi_0=50.0)
        tracked = solve_bilinear(bp, start, 1e-6, psi_0=50.0,
                                 track_potential=True, known_solution=saddle)
        assert len(tracked.potentials) == tracked.counters.outer_iterations > 0
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
            report = solve_bilinear(bp, start, 1e-8, psi_0=1e4)
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
        grad, value = inst.local_objective()
        report = solve_affine_constrained(
            grad_p=grad,
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(),
            c=inst.arrays["c"],
            D_y=inst.constants["D_y"],
            eps=1e-6,
            value_p=value,
        )
        x = report.final_pair.x
        assert np.max(np.abs(x - x.mean())) <= 1e-3
        centralized = reference_solution(inst)
        assert np.sum((x - centralized.x) ** 2) <= 1e-6

    def test_long_path_needs_no_spectral_floor(self):
        # The path Laplacian's smallest nonzero eigenvalue shrinks like
        # 1/n^2; an inner solver whose rate depends on it exhausts 400
        # steps here.
        from saddleslide.bench import gen_consensus, reference_solution

        eps = 1e-6
        inst = gen_consensus(40, "path", 1.0, 4.0, seed=0)
        grad, value = inst.local_objective()
        report = solve_affine_constrained(
            grad_p=grad,
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(),
            c=inst.arrays["c"],
            D_y=inst.constants["D_y"],
            eps=eps,
            value_p=value,
            inner=InnerConfig(max_inner=400),
        )
        x_ref = reference_solution(inst).x
        assert np.sum((report.final_pair.x - x_ref) ** 2) <= eps
        assert report.constraint_residual <= math.sqrt(eps)

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

    def test_validates_inputs(self):
        B = np.eye(2)
        with pytest.raises(NonPositiveInput):
            solve_affine_constrained(
                grad_p=lambda x: x, L_p=1.0, mu_p=1.0,
                coupling=CouplingOperator.from_dense(B),
                c=np.zeros(2), D_y=1.0, eps=-1.0,
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

    def test_rejects_singular_coupling(self):
        B = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InconsistentConstants):
            solve_bilinear_linear_composites(
                d=np.zeros(2), c=np.zeros(2),
                coupling=CouplingOperator.from_dense(B),
                D_x=1.0, D_y=1.0, eps=1e-3,
            )


class TestSpectralEstimation:
    def test_estimates_match_exact_eigenvalues(self, rng):
        B = rng.standard_normal((5, 7))
        lam = np.linalg.eigvalsh(B @ B.T)
        lmax, lmin, used = estimate_spectral_bounds(
            lambda v: B @ v, lambda v: B.T @ v, 5, 7, seed=4
        )
        assert lmax == pytest.approx(lam[-1], rel=1e-3)
        assert lmin == pytest.approx(lam[0], rel=2e-2, abs=1e-8)
        assert used > 0

    def test_singular_coupling_floor(self, rng):
        B = np.zeros((3, 2))
        B[0, 0] = 2.0
        lmax, lmin, _ = estimate_spectral_bounds(
            lambda v: B @ v, lambda v: B.T @ v, 3, 2, seed=1
        )
        assert lmax == pytest.approx(4.0, rel=1e-4)
        assert lmin <= 1e-6


    def test_rank_deficient_coupling_cost(self):
        B = np.random.default_rng(0).standard_normal((30, 20))
        lam = np.linalg.eigvalsh(B @ B.T)
        lmax, lmin, used = estimate_spectral_bounds(
            lambda v: B @ v, lambda v: B.T @ v, 30, 20
        )
        assert used <= 20_000
        assert lmax == pytest.approx(lam[-1], rel=1e-3)
        assert lmin <= 1e-6


class TestConjugateGradients:
    def test_zero_residual_ends_iteration(self):
        # (1 + 1) x = 4 is solved exactly by the first step.
        one = lambda v: v.copy()
        iterates = list(itertools.islice(
            _cg_iterates(one, one, 1.0, np.array([4.0]), np.zeros(1)), 10))
        assert len(iterates) == 2
        x, bt_x, r = iterates[-1]
        assert x[0] == 2.0 and bt_x[0] == 2.0 and r[0] == 0.0

    def test_nonpositive_curvature_ends_iteration(self):
        zero = lambda v: np.zeros_like(v)
        iterates = list(itertools.islice(
            _cg_iterates(zero, zero, -1.0, np.ones(2), np.zeros(2)), 10))
        assert len(iterates) == 1

    def test_tracks_coupling_image_and_residual(self, rng):
        B = rng.standard_normal((6, 4))
        rhs = rng.standard_normal(6)
        for x, bt_x, r in itertools.islice(
            _cg_iterates(lambda v: B @ v, lambda v: B.T @ v, 0.5, rhs, np.ones(6)), 51
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
