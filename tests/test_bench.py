import json
import math
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddleslide import (
    BilinearProblem,
    PointPair,
    plan_cc,
    tune_parameters,
    unweighted_distance_sq,
    weighted_distance_sq,
)
from saddleslide.bench import (
    CSV_COLUMNS,
    Instance,
    baseline_extragradient,
    determinism_digest,
    gen_bilinear,
    gen_consensus,
    gen_linear_bilinear,
    gen_quadratic_spp,
    graph_laplacian,
    reference_solution,
    run_experiment,
    run_single,
    verify_instance,
)
from saddleslide.bench import matio, runner
from saddleslide.bench.baselines import agd_joint_baseline
from saddleslide.bench.cli import main
from saddleslide.bilinear import _solve_regularized, split_bilinear
from saddleslide.errors import (
    BudgetExhausted,
    DivergenceDetected,
    InfeasibleConstants,
    ManifestError,
    SingularSystem,
)

from conftest import planned_run


class TestGenerators:
    def test_quadratic_spectrum_hits_declared_top(self):
        inst = gen_quadratic_spp(8, 6, L_p=4.0, mu_x=1.0, L_q=2.0, mu_y=1.0,
                                 L_R=7.0, seed=0)
        eigs = np.linalg.eigvalsh(inst.arrays["P"])
        assert 3.99 <= eigs[-1] <= 4.0 + 1e-9
        assert eigs[0] >= -1e-12

    def test_seed_determinism_is_bitwise(self):
        a = gen_quadratic_spp(5, 5, 3.0, 1.0, 3.0, 1.0, 5.0, seed=7)
        b = gen_quadratic_spp(5, 5, 3.0, 1.0, 3.0, 1.0, 5.0, seed=7)
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key])

    def test_recorded_saddle_satisfies_kkt(self):
        inst = gen_quadratic_spp(6, 4, 3.0, 0.7, 2.0, 1.1, 6.0, seed=3)
        P, Q, B = inst.arrays["P"], inst.arrays["Q"], inst.arrays["B"]
        a, e = inst.arrays["a"], inst.arrays["e"]
        x, y = inst.arrays["x_star"], inst.arrays["y_star"]
        res_x = P @ x + a + 0.7 * x + B @ y
        res_y = B.T @ x - 1.1 * y - (Q @ y + e)
        assert np.linalg.norm(np.concatenate([res_x, res_y])) <= 1e-10

    def test_declared_coupling_constant_is_realized(self):
        inst = gen_quadratic_spp(7, 5, 4.0, 1.0, 4.0, 2.0, 9.0, seed=5)
        mu_x, mu_y = 1.0, 2.0
        B = inst.arrays["B"]
        jac = np.block([
            [mu_x * np.eye(7), B],
            [B.T, -mu_y * np.eye(5)],
        ])
        assert np.linalg.norm(jac, 2) == pytest.approx(9.0, rel=1e-9)

    def test_single_row_bilinear_coupling_builds(self):
        # One singular value: the declared floor and top agree up to rounding.
        coupling = gen_bilinear(1, 3, 1.0, 1.0, 1.0, 1.0, 1.0, seed=1).coupling()
        assert coupling.lambda_min_BBt <= coupling.lambda_max_BBt

    def test_infeasible_constants_rejected(self):
        with pytest.raises(InfeasibleConstants):
            gen_quadratic_spp(3, 3, 1.0, 2.0, 1.0, 2.0, 1.0, seed=0)

    def test_coupling_norm_at_the_larger_modulus_builds(self):
        # L_R = max(mu_x, mu_y) is feasible with B = 0; at moduli near 1e3
        # the squares in the inversion for B's scale round below 0.
        inst = gen_quadratic_spp(1, 3, 0.0, 1000.0, 0.0, 10.0**1.5, 1000.0, seed=0)
        assert not inst.arrays["B"].any()
        verify_instance(inst)

    def test_path_laplacian_matches_textbook(self):
        W = graph_laplacian("path", 3)
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(W, expected)

    def test_star_spectrum_closed_form(self):
        n = 7
        eigs = np.linalg.eigvalsh(graph_laplacian("star", n))
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(eigs[1:-1], 1.0)
        assert eigs[-1] == pytest.approx(float(n))

    def test_consensus_solution_is_weighted_average(self):
        inst = gen_consensus(5, "ring", 0.5, 2.0, seed=4, spread=0.3)
        a, b = inst.arrays["local_a"], inst.arrays["local_b"]
        x_bar = float(a @ b) / float(a.sum())
        assert np.allclose(inst.arrays["x_star"], x_bar)
        # Centralized oracle agrees.
        ref = reference_solution(inst)
        assert np.allclose(ref.x, x_bar)

    def test_linear_bilinear_orthogonal_case(self):
        inst = gen_linear_bilinear(4, seed=2, cond=1.0)
        c = inst.constants
        assert c["lambda_max_BBt"] == pytest.approx(c["lambda_min_BBt"])
        B = inst.arrays["B"]
        assert np.allclose(B @ B.T, np.eye(4), atol=1e-12)


class TestReferenceSolution:
    def test_zero_shift_instance_has_origin_saddle(self):
        inst = gen_quadratic_spp(4, 4, 2.0, 1.0, 2.0, 1.0, 4.0, seed=9)
        inst.arrays["a"] = np.zeros(4)
        inst.arrays["e"] = np.zeros(4)
        ref = reference_solution(inst)
        assert np.linalg.norm(ref.x) <= 1e-12
        assert np.linalg.norm(ref.y) <= 1e-12

    def test_one_dimensional_bilinear(self):
        inst = gen_bilinear(1, 1, 1.0, 1.0, 1.0, 1.0, 1.0, seed=0)
        inst.arrays["Hp"] = np.array([[1.0]])
        inst.arrays["Hq"] = np.array([[1.0]])
        inst.arrays["B"] = np.array([[1.0]])
        inst.arrays["d"] = np.array([1.0])
        inst.arrays["c"] = np.array([0.0])
        ref = reference_solution(inst)
        assert ref.x[0] == pytest.approx(-0.5)
        assert ref.y[0] == pytest.approx(-0.5)

    def test_residuals_small_across_random_instances(self):
        for seed in range(100):
            inst = gen_quadratic_spp(4, 3, 3.0, 0.9, 2.0, 1.2, 5.0, seed=seed)
            ref = reference_solution(inst)
            mu_x, mu_y = 0.9, 1.2
            P, Q, B = inst.arrays["P"], inst.arrays["Q"], inst.arrays["B"]
            res_x = P @ ref.x + inst.arrays["a"] + mu_x * ref.x + B @ ref.y
            res_y = B.T @ ref.x - mu_y * ref.y - (Q @ ref.y + inst.arrays["e"])
            rhs = np.linalg.norm(np.concatenate([inst.arrays["a"], inst.arrays["e"]]))
            assert np.linalg.norm(np.concatenate([res_x, res_y])) <= 1e-10 * (1 + rhs)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["quadratic-spp", "bilinear", "linear-bilinear"]),
        d_x=st.integers(1, 12), d_y=st.integers(1, 12),
        L_p=st.floats(0.0, 1e3), L_q=st.floats(0.0, 1e3),
        log_mu=st.floats(-3.0, 3.0), log_other=st.floats(-3.0, 3.0),
        gain=st.floats(1.0, 100.0),
        seed=st.integers(0, 2**31 - 1),
    )
    # d_x = d_y = 1, whose blocks are scalars.
    @example(kind="bilinear", d_x=1, d_y=1, L_p=1.0, L_q=0.0, log_mu=0.0,
             log_other=0.0, gain=1.0, seed=0)
    def test_reference_finds_the_planted_saddle(
        self, kind, d_x, d_y, L_p, L_q, log_mu, log_other, gain, seed
    ):
        # The check perfbench's set-up makes on every instance it builds.
        mu, other = 10.0**log_mu, 10.0**log_other
        make = {
            "quadratic-spp": lambda: gen_quadratic_spp(
                d_x, d_y, L_p, mu, L_q, other, gain * max(mu, other), seed),
            "bilinear": lambda: gen_bilinear(
                d_x, d_y, gain * mu, mu, gain * other, other, L_p, seed),
            "linear-bilinear": lambda: gen_linear_bilinear(d_x, seed, scale=mu, cond=gain),
        }
        inst = make[kind]()
        ref, planted = reference_solution(inst), inst.saddle()
        err = math.hypot(np.linalg.norm(ref.x - planted.x), np.linalg.norm(ref.y - planted.y))
        assert err <= 1e-8 * (1.0 + math.hypot(np.linalg.norm(planted.x),
                                               np.linalg.norm(planted.y)))

    @pytest.mark.parametrize("make", [
        lambda: gen_quadratic_spp(200, 200, 100.0, 1.0, 100.0, 1.0, 10.0, seed=0),
        lambda: gen_bilinear(200, 200, 100.0, 1.0, 100.0, 1.0, 10.0, seed=3),
        lambda: gen_linear_bilinear(200, seed=0),
    ], ids=["quadratic-spp", "bilinear", "linear-bilinear"])
    def test_no_joint_sized_array(self, make):
        # The (d_x + d_y)^2 joint matrix is four d x d blocks; the
        # elimination holds at most three at once.
        inst = make()
        tracemalloc.start()
        try:
            reference_solution(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400**2 * 8

    def test_singular_hq_raises(self):
        inst = gen_bilinear(4, 3, 2.0, 1.0, 2.0, 1.0, 1.0, seed=0)
        inst.arrays["Hq"] = np.zeros((3, 3))
        with pytest.raises(SingularSystem):
            reference_solution(inst)

    @pytest.mark.parametrize("B", [np.zeros((4, 4)), np.outer(np.arange(1.0, 5.0), np.ones(4))],
                             ids=["zero", "rank-one"])
    def test_singular_coupling_raises(self, B):
        inst = gen_linear_bilinear(4, seed=0)
        inst.arrays["B"] = B
        with pytest.raises(SingularSystem):
            reference_solution(inst)


class TestBaselineExtragradient:
    def test_per_iteration_oracle_deltas(self):
        inst = gen_quadratic_spp(4, 4, 2.0, 1.0, 2.0, 1.0, 4.0, seed=1)
        report = baseline_extragradient(
            inst.problem(), inst.spec(),
            PointPair(np.zeros(4), np.zeros(4)), eps=1e-6, max_iter=7,
        )
        c = report.counters
        assert c.outer_iterations == 7
        assert (c.calls_grad_p, c.calls_grad_q, c.calls_grad_R) == (14, 14, 14)

    def test_eg_update_by_hand(self):
        # L_p = 3 != L_q = 1 and L_R = 5, so the step 1/(2 (max(3, 1) + 5))
        # = 1/16 differs from one built on L_p + L_q or on L_q alone.
        # One iteration: z_h = z - s F(z), z+ = z - s F(z_h), with
        # F(x, y) = (P x + a + mu_x x + B y, Q y + e - (B'x - mu_y y)).
        inst = gen_quadratic_spp(3, 2, 3.0, 1.0, 1.0, 1.0, 5.0, seed=4)
        P, Q, B, a, e = (inst.arrays[k] for k in ("P", "Q", "B", "a", "e"))

        def F(x, y):
            r_x, r_y = 1.0 * x + B @ y, B.T @ x - 1.0 * y
            return P @ x + a + r_x, Q @ y + e - r_y

        x, y = np.array([1.0, -2.0, 0.5]), np.array([0.25, 3.0])
        step = 1.0 / 16.0
        f_x, f_y = F(x, y)
        fh_x, fh_y = F(x - step * f_x, y - step * f_y)
        report = baseline_extragradient(
            inst.problem(), inst.spec(), PointPair(x, y), eps=1e-6, max_iter=1,
        )
        assert np.array_equal(report.final_pair.x, x - step * fh_x)
        assert np.array_equal(report.final_pair.y, y - step * fh_y)
        c = report.counters
        assert (c.calls_grad_p, c.calls_grad_q, c.calls_grad_R) == (2, 2, 2)

    def test_converges_to_reference_on_mild_instance(self):
        # The stop weighs the distance by the sliding solver's steps.
        inst = gen_quadratic_spp(5, 5, 2.0, 1.0, 2.0, 1.0, 3.0, seed=2)
        ref = reference_solution(inst)
        report = baseline_extragradient(
            inst.problem(), inst.spec(),
            PointPair(np.zeros(5), np.zeros(5)), eps=1e-8, max_iter=100_000,
            reference=ref,
        )
        t = tune_parameters(inst.spec())
        assert report.termination == "residual-met"
        assert weighted_distance_sq(report.final_pair, ref, t.eta_x, t.eta_y) <= 1e-8

    def test_budget_exhaustion_raises_with_report(self):
        inst = gen_quadratic_spp(5, 5, 2.0, 1.0, 2.0, 1.0, 3.0, seed=2)
        ref = reference_solution(inst)
        with pytest.raises(BudgetExhausted) as info:
            baseline_extragradient(
                inst.problem(), inst.spec(),
                PointPair(np.zeros(5), np.zeros(5)), eps=1e-12, max_iter=3,
                reference=ref,
            )
        assert info.value.report.counters.outer_iterations == 3

    def test_rotation_dominated_coupling_stays_bounded(self, rng):
        from saddleslide import CompositeSaddleProblem, SmoothnessSpec

        theta = 0.01
        problem = CompositeSaddleProblem(
            d_x=2, d_y=2,
            grad_p=lambda x: np.zeros(2),
            grad_q=lambda y: np.zeros(2),
            grad_R=lambda x, y: (theta * x + y, x - theta * y),
        )
        spec = SmoothnessSpec(L_p=0, L_q=0, L_R=math.hypot(1, theta),
                              mu_x=theta, mu_y=theta)
        report = baseline_extragradient(
            problem, spec, PointPair([1.0, 0.0], [0.0, 1.0]),
            eps=1e-8, max_iter=500,
        )
        assert np.all(np.isfinite(report.final_pair.x))
        assert np.linalg.norm(report.final_pair.x) <= 2.0


# Moduli ratios mu_x/mu_y from 1e-3 to 1e3, at both ends among them.
log_ratios = st.floats(-3.0, 3.0)


def _joint_norm(Hp, Hq, B):
    J = np.block([[Hp, B], [-B.T, Hq]])
    return float(np.linalg.norm(J, 2))


class TestExtragradientStepBound:
    """``max(L_p, L_q) + L_R`` bounds the joint operator's Lipschitz constant.

    ``F``'s Jacobian is ``diag(grad^2 p, grad^2 q)``, of norm at most
    ``max(L_p, L_q)``, plus the coupling part, of norm at most ``L_R``;
    ``baseline_extragradient``'s step rests on the sum.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.integers(1, 6), d_y=st.integers(1, 6),
        log_ratio=log_ratios,
        L_p=st.floats(0.0, 50.0), L_q=st.floats(0.0, 50.0),
        coupling_gain=st.floats(1.0, 20.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(d_x=3, d_y=4, log_ratio=3.0, L_p=10.0, L_q=1.0,
             coupling_gain=1.0, seed=0)
    @example(d_x=4, d_y=3, log_ratio=-3.0, L_p=0.0, L_q=30.0,
             coupling_gain=2.0, seed=1)
    def test_quadratic_spp(self, d_x, d_y, log_ratio, L_p, L_q, coupling_gain, seed):
        if L_p == L_q:
            L_q += 1.0
        mu_x, mu_y = 10.0 ** (log_ratio / 2), 10.0 ** (-log_ratio / 2)
        L_R = coupling_gain * max(mu_x, mu_y)
        inst = gen_quadratic_spp(d_x, d_y, L_p, mu_x, L_q, mu_y, L_R, seed)
        # saddle_blocks gives P + mu_x I and Q + mu_y I.
        Hp, Hq, B, _, _ = inst.saddle_blocks()
        assert _joint_norm(Hp, Hq, B) <= (max(L_p, L_q) + L_R) * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.integers(1, 6), d_y=st.integers(1, 6),
        log_ratio=log_ratios,
        cond_p=st.floats(1.0, 50.0), cond_q=st.floats(1.0, 50.0),
        sigma_max=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(d_x=3, d_y=4, log_ratio=3.0, cond_p=1.0, cond_q=4.0,
             sigma_max=5.0, seed=0)
    def test_split_bilinear(self, d_x, d_y, log_ratio, cond_p, cond_q, sigma_max, seed):
        mu_p, mu_q = 10.0 ** (log_ratio / 2), 10.0 ** (-log_ratio / 2)
        L_p, L_q = cond_p * mu_p, cond_q * mu_q
        if L_p == L_q:
            L_q *= 2.0
        inst = gen_bilinear(d_x, d_y, L_p, mu_p, L_q, mu_q, sigma_max, seed)
        _, spec = split_bilinear(inst.bilinear_problem())
        Hp, Hq, B, _, _ = inst.saddle_blocks()
        bound = max(spec.L_p, spec.L_q) + spec.L_R
        assert _joint_norm(Hp, Hq, B) <= bound * (1 + 1e-12)


class TestAgdJointBaseline:
    def test_converges_on_quadratic_instance(self):
        inst = gen_quadratic_spp(5, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=6)
        ref = reference_solution(inst)
        report = agd_joint_baseline(inst, eps=1e-8)
        assert unweighted_distance_sq(report.final_pair, ref) <= 1e-8

    def test_rejects_unsupported_kind(self):
        inst = gen_consensus(4, "path", 1.0, 2.0, seed=0)
        with pytest.raises(ManifestError):
            agd_joint_baseline(inst, eps=1e-6)

    def test_tallies_per_reduced_gradient(self):
        # Each reduced gradient costs one call of each composite oracle and
        # one B and one B^T product.
        inst = gen_bilinear(6, 5, 4.0, 1.0, 3.0, 0.5, 2.0, seed=2)
        c = agd_joint_baseline(inst, eps=1e-8).counters
        assert c.calls_grad_p == c.calls_grad_q > c.outer_iterations
        assert c.calls_grad_R == 2 * c.calls_grad_p

    def test_budget_exhaustion_raises_with_report(self):
        # Two steps evaluate three reduced gradients, far from 1e-8.
        inst = gen_bilinear(6, 5, 4.0, 1.0, 3.0, 0.5, 2.0, seed=2)
        with pytest.raises(BudgetExhausted) as info:
            agd_joint_baseline(inst, eps=1e-8, max_iter=2)
        counters = info.value.report.counters
        assert counters.outer_iterations == 2
        assert counters.calls_grad_p == 3


class TestMatio:
    def test_matrix_round_trip_is_bitwise(self, tmp_path, rng):
        arr = rng.standard_normal((5, 3))
        path = tmp_path / "m.bin"
        matio.write_matrix(path, arr)
        back = matio.read_matrix(path)
        assert np.array_equal(arr, back)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.bin"
        matio.write_matrix(path, np.array([[1.0, 2.0]]))
        raw = path.read_bytes()
        assert raw[:16] == (1).to_bytes(8, "little") + (2).to_bytes(8, "little")
        assert len(raw) == 16 + 2 * 8

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        matio.write_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ManifestError):
            matio.read_matrix(path)

    def test_manifest_requires_schema_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema_version": "2"}))
        with pytest.raises(ManifestError):
            matio.load_manifest(path)


class TestInstanceRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        inst = gen_quadratic_spp(4, 3, 3.0, 1.0, 2.0, 1.0, 5.0, seed=11)
        manifest_path = inst.save(tmp_path / "inst")
        loaded = Instance.load(manifest_path)
        for key in inst.arrays:
            assert np.array_equal(inst.arrays[key], loaded.arrays[key])
        assert loaded.instance_id == inst.instance_id

    def test_loaded_arrays_are_read_only(self, tmp_path):
        inst = gen_quadratic_spp(4, 3, 3.0, 1.0, 2.0, 1.0, 5.0, seed=11)
        loaded = Instance.load(inst.save(tmp_path / "inst"))
        for name, arr in loaded.arrays.items():
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr += 1.0

    def test_verification_catches_tampered_constants(self, tmp_path):
        inst = gen_quadratic_spp(4, 3, 3.0, 1.0, 2.0, 1.0, 5.0, seed=11)
        inst.manifest["constants"]["L_p"] = 30.0
        manifest_path = inst.save(tmp_path / "inst")
        with pytest.raises(ManifestError):
            Instance.load(manifest_path)

    def test_verification_passes_for_all_kinds(self, tmp_path):
        instances = [
            gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=1),
            gen_bilinear(3, 4, 3.0, 1.0, 2.0, 0.5, 2.0, seed=1),
            gen_consensus(5, "path", 1.0, 3.0, seed=1),
            gen_linear_bilinear(3, seed=1),
        ]
        for inst in instances:
            verify_instance(inst)
            path = inst.save(tmp_path / inst.instance_id)
            Instance.load(path, verify=True)

    @pytest.mark.parametrize("make, name", [
        (lambda: gen_bilinear(6, 5, 4.0, 1.0, 3.0, 0.5, 2.0, seed=2), "mu_p"),
        (lambda: gen_consensus(6, "path", 1.0, 4.0, seed=2), "lambda_min_plus_BBt"),
        (lambda: gen_linear_bilinear(6, seed=2, cond=100.0), "lambda_min_BBt"),
        (lambda: gen_bilinear(6, 5, 4.0, 1.0, 3.0, 0.5, 2.0, seed=2), "L_p"),
        (lambda: gen_consensus(6, "path", 1.0, 4.0, seed=2), "lambda_max_BBt"),
        (lambda: gen_linear_bilinear(6, seed=2, cond=100.0), "lambda_max_BBt"),
    ], ids=["bilinear", "consensus", "linear-bilinear",
            "bilinear-top", "consensus-top", "linear-bilinear-top"])
    def test_verification_catches_tampered_bottom(self, tmp_path, make, name):
        inst = make()
        inst.manifest["constants"][name] *= 2.0
        manifest_path = inst.save(tmp_path / "inst")
        with pytest.raises(ManifestError, match=name):
            Instance.load(manifest_path)

    @pytest.mark.parametrize("name", ["L_p", "L_q"])
    def test_verification_catches_declared_zero(self, tmp_path, name):
        # A declared 0 is checked like any other value; doubling it, as the
        # tampering above does, would leave it unchanged.
        inst = gen_quadratic_spp(10, 10, 100.0, 1.0, 100.0, 1.0, 10.0, seed=0)
        inst.manifest["constants"][name] = 0.0
        with pytest.raises(ManifestError, match=name):
            Instance.load(inst.save(tmp_path / "inst"))

    @pytest.mark.parametrize("make, name", [
        (lambda: gen_quadratic_spp(20, 20, 4.0, 1.0, 4.0, 0.01, 10.0, seed=2), "L_p"),
        (lambda: gen_quadratic_spp(20, 20, 4.0, 1.0, 4.0, 0.01, 10.0, seed=2), "L_q"),
        (lambda: gen_quadratic_spp(20, 20, 4.0, 1.0, 4.0, 0.01, 10.0, seed=2), "L_R"),
        (lambda: gen_bilinear(20, 20, 4.0, 1.0, 4.0, 1.0, 5.0, seed=2), "lambda_max_BBt"),
    ], ids=["L_p", "L_q", "L_R", "lambda_max_BBt"])
    def test_verification_refutes_a_top_below_its_ritz_value(self, tmp_path, make, name):
        # 2% low lies inside the 5% band, but a Ritz value never exceeds
        # the top it estimates, so a declared top below it is wrong.
        inst = make()
        inst.manifest["constants"][name] *= 0.98
        with pytest.raises(ManifestError, match=name):
            Instance.load(inst.save(tmp_path / "inst"))

    def test_verification_refutes_a_nan_matrix(self, tmp_path):
        # Refuted before any product: Lanczos on a NaN matrix would warn
        # first, which under warnings as errors hides the ManifestError.
        inst = gen_quadratic_spp(5, 5, 4.0, 1.0, 4.0, 1.0, 10.0, seed=0)
        inst.arrays["P"] = inst.arrays["P"].copy()
        inst.arrays["P"][0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError, match="stored P holds inf or NaN"):
                Instance.load(inst.save(tmp_path / "inst"))

    @pytest.mark.parametrize("make, name", [
        (lambda: gen_quadratic_spp(5, 5, 4.0, 1.0, 4.0, 1.0, 10.0, seed=0), "P"),
        (lambda: gen_quadratic_spp(5, 5, 4.0, 1.0, 4.0, 1.0, 10.0, seed=0), "B"),
        (lambda: gen_bilinear(5, 4, 4.0, 1.0, 4.0, 1.0, 2.0, seed=0), "Hq"),
        (lambda: gen_consensus(4, "path", 1.0, 4.0, seed=0), "W"),
        (lambda: gen_linear_bilinear(4, seed=0), "B"),
        (lambda: gen_linear_bilinear(4, seed=0), "c"),
    ], ids=["quadratic-P", "quadratic-B", "bilinear-Hq", "consensus-W",
            "linear-bilinear-B", "linear-bilinear-c"])
    def test_verification_refutes_an_inf_array(self, make, name):
        inst = make()
        inst.arrays[name] = inst.arrays[name].copy()
        inst.arrays[name].flat[1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError, match=f"stored {name} holds inf or NaN"):
                verify_instance(inst)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["quadratic-spp", "bilinear", "consensus", "linear-bilinear"]),
        d_x=st.integers(1, 12), d_y=st.integers(1, 12),
        L_p=st.floats(0.0, 1e3), L_q=st.floats(0.0, 1e3),
        log_mu=st.floats(-3.0, 3.0), log_other=st.floats(-3.0, 3.0),
        gain=st.floats(1.0, 100.0),
        topology=st.sampled_from(["path", "ring", "star"]),
        seed=st.integers(0, 2**31 - 1),
    )
    # A one-dimensional Hessian has the single eigenvalue L_p.
    @example(kind="bilinear", d_x=1, d_y=3, L_p=5.0, L_q=0.0, log_mu=0.0,
             log_other=0.0, gain=4.0, topology="path", seed=0)
    # L_R = max(mu_x, mu_y) at moduli near 1e3, feasible with B = 0.
    @example(kind="quadratic-spp", d_x=1, d_y=1, L_p=0.0, L_q=0.0, log_mu=3.0,
             log_other=1.5, gain=1.0, topology="path", seed=0)
    def test_verification_accepts_generated_instances(
        self, kind, d_x, d_y, L_p, L_q, log_mu, log_other, gain, topology, seed
    ):
        mu, other = 10.0**log_mu, 10.0**log_other
        make = {
            "quadratic-spp": lambda: gen_quadratic_spp(
                d_x, d_y, L_p, mu, L_q, other, gain * max(mu, other), seed),
            "bilinear": lambda: gen_bilinear(
                d_x, d_y, gain * mu, mu, gain * other, other, L_p, seed),
            "consensus": lambda: gen_consensus(d_x + 1, topology, mu, gain * mu, seed),
            "linear-bilinear": lambda: gen_linear_bilinear(d_x, seed, scale=mu, cond=gain),
        }
        verify_instance(make[kind]())

    def test_verification_accepts_zero_composites(self, tmp_path):
        # With L_p = L_q = 0 the stored P and Q are exactly zero, and
        # Lanczos reads them as 0 after one product.
        inst = gen_quadratic_spp(10, 10, 0.0, 1.0, 0.0, 1000.0, 1001.0, seed=0)
        assert not inst.arrays["P"].any() and not inst.arrays["Q"].any()
        Instance.load(inst.save(tmp_path / "inst"), verify=True)

    @pytest.mark.parametrize("make", [
        lambda: gen_consensus(4, "path", 1.0, 4.0, seed=0),
        lambda: gen_consensus(8, "path", 1.0, 4.0, seed=0),
        lambda: gen_consensus(12, "path", 1.0, 4.0, seed=0),
        lambda: gen_bilinear(200, 200, 100.0, 1.0, 100.0, 1.0, 10.0, seed=3),
        lambda: gen_linear_bilinear(50, seed=0, cond=100.0),
    ], ids=["path4", "path8", "path12", "bilinear200", "linear-bilinear50"])
    def test_verification_accepts_slowly_converging_bottoms(self, tmp_path, make):
        # Spectra whose bottom eigenvalues lie close together, where a
        # shifted power iteration stops far from the smallest one.
        inst = make()
        Instance.load(inst.save(tmp_path / "inst"), verify=True)

    @pytest.mark.parametrize("make, constant, array", [
        (lambda: gen_quadratic_spp(4, 3, 3.0, 1.0, 2.0, 1.0, 5.0, seed=11), "mu_y", "e"),
        (lambda: gen_bilinear(3, 4, 3.0, 1.0, 2.0, 0.5, 2.0, seed=1), "mu_q", "d"),
        (lambda: gen_consensus(5, "path", 1.0, 3.0, seed=1), "D_y", "local_b"),
        (lambda: gen_linear_bilinear(3, seed=1), "D_x", "c"),
    ], ids=["quadratic-spp", "bilinear", "consensus", "linear-bilinear"])
    def test_manifest_missing_a_name_is_an_error(
        self, tmp_path, capsys, make, constant, array
    ):
        inst = make()
        for section, name in (("constants", constant), ("files", array)):
            path = inst.save(tmp_path / name)
            manifest = json.loads(path.read_text())
            del manifest[section][name]
            path.write_text(json.dumps(manifest))
            for verify in (True, False):
                with pytest.raises(ManifestError, match=repr(name)):
                    Instance.load(path, verify=verify)
            assert main(["solve", "--manifest", str(path)]) == 1
            assert repr(name) in capsys.readouterr().err


class TestSaddleBlocks:
    @pytest.mark.parametrize("make", [
        lambda: gen_quadratic_spp(6, 4, 3.0, 0.7, 2.0, 1.1, 6.0, seed=3),
        lambda: gen_bilinear(5, 7, 4.0, 1.0, 3.0, 0.5, 2.0, seed=2),
        lambda: gen_linear_bilinear(6, seed=2, cond=100.0),
    ], ids=["quadratic-spp", "bilinear", "linear-bilinear"])
    def test_blocks_match_solver_oracles(self, make, rng):
        # One dense description, Hp x + B y + d and B'x - Hq y - c, against
        # the gradients of the oracles the solvers are handed.
        inst = make()
        Hp, Hq, B, d, c = inst.saddle_blocks()
        if inst.kind == "quadratic-spp":
            # The shifted diagonal keeps every bit of P + mu I, which
            # agd-joint's rows in the CSV digests rest on.
            a, k = inst.arrays, inst.constants
            assert np.array_equal(Hp, a["P"] + k["mu_x"] * np.eye(6))
            assert np.array_equal(Hq, a["Q"] + k["mu_y"] * np.eye(4))
        for _ in range(3):
            x, y = rng.standard_normal(B.shape[0]), rng.standard_normal(B.shape[1])
            if inst.kind == "quadratic-spp":
                problem = inst.problem()
                r_x, r_y = problem.grad_R(x, y)
                g_x, g_y = problem.grad_p(x) + r_x, r_y - problem.grad_q(y)
            elif inst.kind == "bilinear":
                bp = inst.bilinear_problem()
                g_x = bp.grad_p(x) + bp.coupling.matvec(y)
                g_y = bp.coupling.rmatvec(x) - bp.grad_q(y)
            else:
                op = inst.coupling()
                g_x = inst.arrays["d"] + op.matvec(y)
                g_y = op.rmatvec(x) - inst.arrays["c"]
            for block, oracle in ((Hp @ x + B @ y + d, g_x), (B.T @ x - Hq @ y - c, g_y)):
                assert np.linalg.norm(block - oracle) <= 1e-12 * np.linalg.norm(oracle)


class TestRunExperiment:
    def test_empty_grid_emits_header_only(self, tmp_path):
        reports = run_experiment({"instances": []}, tmp_path / "out")
        assert reports == []
        csv_text = (tmp_path / "out" / "aggregate.csv").read_text()
        assert csv_text.strip() == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("config, message", [
        ({"instance": []}, "unknown grid config keys"),
        ({"instances": [], "solver": ["sliding"]}, "unknown grid config keys"),
        ({"solvers": ["sliding"]}, "names no 'instances'"),
        ({"instances": "inst/manifest.json"}, "'instances' must be a list"),
        ({"instances": [], "solvers": "sliding"}, "'solvers' must be a list"),
        ({"instances": [], "eps": 1e-6}, "'eps' must be a list"),
        ({"instances": [], "max_outer": "lots"}, "'max_outer'"),
        ({"instances": [], "max_outer": 2.5}, "'max_outer'"),
        ({"instances": [], "max_outer": 0}, "'max_outer'"),
        ({"instances": [], "max_outer": True}, "'max_outer'"),
        (["inst/manifest.json"], "is an object"),
    ], ids=["instance-typo", "solver-typo", "no-instances", "instances-string",
            "solvers-string", "eps-number", "max-outer-string", "max-outer-float",
            "max-outer-zero", "max-outer-bool", "not-an-object"])
    def test_malformed_config_raises(self, tmp_path, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ManifestError, match=message):
            run_experiment(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"instances": [1]}, "instance 1 is not a path string"),
        ({"solvers": ["sliding", "newton"]}, "unknown solver 'newton'"),
        ({"eps": ["lots"]}, "eps 'lots' is not a finite number"),
        ({"eps": [True]}, "eps True is not a finite number"),
        ({"eps": [1e-6, 0]}, "eps 0 is not a finite number"),
        ({"eps": [math.inf]}, "eps inf is not a finite number"),
    ], ids=["instance-number", "unknown-solver", "eps-string", "eps-bool", "eps-zero",
            "eps-inf"])
    def test_bad_grid_entry_raises_before_any_load(self, tmp_path, monkeypatch, entry,
                                                   message):
        # A bad entry used to surface only once a worker reached it: after
        # its manifest had been loaded and KKT-solved (an unknown solver),
        # as a raw ValueError (eps "lots"), or not at all (eps true ran at
        # eps 1.0).
        manifest = str(gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=2)
                       .save(tmp_path / "inst"))
        loads = []
        load = Instance.load

        def counting_load(cls, path, verify=True):
            loads.append(path)
            return load(path, verify)

        monkeypatch.setattr(Instance, "load", classmethod(counting_load))
        config = {"instances": [manifest], "solvers": ["sliding"], "eps": [1e-6], **entry}
        with pytest.raises(ManifestError, match=message):
            run_experiment(config, tmp_path / "out")
        assert loads == []
        assert not (tmp_path / "out").exists()

    def test_two_solvers_two_rows(self, tmp_path):
        inst = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=2)
        manifest = inst.save(tmp_path / "inst")
        config = {
            "instances": [str(manifest)],
            "solvers": ["sliding", "eg"],
            "eps": [1e-6],
        }
        reports = run_experiment(config, tmp_path / "out")
        assert len(reports) == 2
        csv_lines = (tmp_path / "out" / "aggregate.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3
        assert (tmp_path / "out" / "run_0000.json").exists()

    def test_determinism_across_parallelism(self, tmp_path):
        inst = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=2)
        manifest = inst.save(tmp_path / "inst")
        config = {
            "instances": [str(manifest)],
            "solvers": ["sliding", "eg", "agd-joint"],
            "eps": [1e-6, 1e-8],
        }
        r1 = run_experiment(config, tmp_path / "a", parallel=1)
        r2 = run_experiment(config, tmp_path / "b", parallel=3)
        d1 = determinism_digest((tmp_path / "a" / "aggregate.csv").read_text())
        d2 = determinism_digest((tmp_path / "b" / "aggregate.csv").read_text())
        assert d1 == d2
        assert len(r1) == len(r2) == 6

    @pytest.mark.parametrize("parallel", [1, 3])
    def test_each_manifest_prepared_once(self, tmp_path, monkeypatch, parallel):
        manifests = [
            str(gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=s)
                .save(tmp_path / f"inst{s}"))
            for s in (2, 3)
        ]
        config = {"instances": manifests, "solvers": ["sliding", "eg"],
                  "eps": [1e-6, 1e-8]}

        def without_wall(row):
            fields = asdict(row)
            del fields["wall_ms"]
            return fields

        fresh = [
            without_wall(run_single(Instance.load(m), solver, eps))
            for m in manifests for solver in config["solvers"] for eps in config["eps"]
        ]

        loads, references = [], []
        load, reference = Instance.load, runner.reference_solution

        def counting_load(cls, path, verify=True):
            loads.append(path)
            return load(path, verify)

        def counting_reference(inst):
            references.append(inst.instance_id)
            return reference(inst)

        monkeypatch.setattr(Instance, "load", classmethod(counting_load))
        monkeypatch.setattr(runner, "reference_solution", counting_reference)
        reports = run_experiment(config, tmp_path / "out", parallel=parallel)
        assert sorted(loads) == manifests
        assert sorted(references) == ["quadratic-spp-d4x4-seed2", "quadratic-spp-d4x4-seed3"]
        assert [without_wall(r) for r in reports] == fresh

    @pytest.mark.parametrize("parallel", [1, 3])
    def test_tampered_manifest_raises(self, tmp_path, parallel):
        good = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=2)
        bad = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=3)
        bad.manifest["constants"]["L_p"] = 30.0
        config = {
            "instances": [str(good.save(tmp_path / "good")), str(bad.save(tmp_path / "bad"))],
            "solvers": ["sliding", "eg"],
            "eps": [1e-6],
        }
        with pytest.raises(ManifestError, match="L_p"):
            run_experiment(config, tmp_path / "out", parallel=parallel)

    def test_stale_run_files_removed(self, tmp_path, capsys):
        manifest = str(gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=2)
                       .save(tmp_path / "inst"))
        out = tmp_path / "out"
        run_experiment({"instances": [manifest], "solvers": ["sliding", "eg", "agd-joint"],
                        "eps": [1e-6]}, out)
        run_experiment({"instances": [manifest], "solvers": ["sliding"],
                        "eps": [1e-4]}, out)
        assert sorted(p.name for p in out.glob("run_*.json")) == ["run_0000.json"]
        assert main(["report", "--out", str(out)]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and ",sliding,0.0001," in lines[1]

    def test_coupling_sweep_separates_counts(self):
        reports = [
            planned_run(gen_quadratic_spp(6, 6, 4.0, 1.0, 4.0, 1.0, L_R, seed=13), 1e-6)[0]
            for L_R in [2.0, 20.0]
        ]
        counts = [report.counters for report in reports]
        # Coupling calls grow with the coupling constant while composite
        # calls stay flat (up to the tiny budget change from the per-instance
        # potential bound) over the whole planned budget.
        assert counts[1].calls_grad_R > counts[0].calls_grad_R
        assert abs(counts[1].calls_grad_p - counts[0].calls_grad_p) <= max(
            3, 0.1 * counts[0].calls_grad_p
        )


class TestRunSingle:
    def test_consensus_dispatch(self, tmp_path):
        from saddleslide.bench import run_single

        inst = gen_consensus(5, "star", 1.0, 3.0, seed=8)
        row = run_single(inst, "sliding", 1e-5)
        assert row.solver == "sliding"
        assert row.calls_grad_R > 0
        assert np.isfinite(row.dist_weighted) and np.isfinite(row.dist_unweighted)

    def test_linear_bilinear_dispatch(self):
        from saddleslide.bench import run_single

        inst = gen_linear_bilinear(3, seed=4, cond=2.0)
        row = run_single(inst, "sliding", 1e-3)
        assert row.dist_unweighted <= 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_stops_before_overflow(self):
        # One regularization around the origin at eps = 1e-8, far below its
        # float64 floor (eps/D^2 about 1e-5), diverges; the inner criterion
        # names it before a norm overflows.  The reduction itself restarts
        # its regularization and never runs such a stage.
        inst = gen_linear_bilinear(8, seed=3)
        eps = 1e-8
        D_x, D_y = inst.constants["D_x"], inst.constants["D_y"]
        plan = plan_cc(eps, D_x, D_y)
        mu_p, mu_q = 2.0 * plan.coeff_x, 2.0 * plan.coeff_y
        d, c = inst.arrays["d"], inst.arrays["c"]
        bp = BilinearProblem(
            grad_p=lambda x: d + mu_p * x, grad_q=lambda y: c + mu_q * y,
            L_p=mu_p, mu_p=mu_p, L_q=mu_q, mu_q=mu_q, coupling=inst.coupling(),
        )
        origin = PointPair(np.zeros(8), np.zeros(8))
        root = math.sqrt(eps)
        with pytest.raises(DivergenceDetected):
            _solve_regularized(bp, origin, plan.inner_target, D_x + root, D_y + root,
                               200_000)

    @pytest.mark.parametrize("make, eps, distance", [
        (lambda: gen_quadratic_spp(10, 10, 100.0, 1.0, 100.0, 1.0, 10.0, 0),
         1e-8, "dist_weighted"),
        (lambda: gen_bilinear(20, 20, 4.0, 1.0, 4.0, 1.0, 5.0, 0), 1e-6, "dist_weighted"),
        (lambda: gen_consensus(10, "ring", 1.0, 4.0, 0), 1e-6, "dist_unweighted"),
        (lambda: gen_linear_bilinear(8, 4), 1e-3, "dist_unweighted"),
    ], ids=["quadratic-spp", "bilinear", "consensus", "linear-bilinear"])
    def test_sliding_stops_on_certificate(self, monkeypatch, make, eps, distance):
        # Each route's guarantee: the step-weighted distance on the SCSC
        # routes, the plain one (which bounds the primal's) on the
        # reductions.  The quadratic cell took 228 outer steps against the
        # plan's 763.
        reports = []
        sliding_run = runner._sliding_run

        def recording(*args):
            reports.append(sliding_run(*args))
            return reports[-1]

        monkeypatch.setattr(runner, "_sliding_run", recording)
        row = run_single(make(), "sliding", eps)
        (report,) = reports
        assert row.termination == "residual-met"
        assert getattr(row, distance) <= eps
        assert runner.run_succeeded(row)
        assert row.outer_iters == report.counters.outer_iterations < report.planned_outer

    def test_uncertified_budget_run_fails(self):
        # One outer step cannot certify eps = 1e-8: the run ends its budget
        # at about 4.4e8 eps from the reference, and the row must not pass.
        row = run_single(gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, 2), "sliding",
                         1e-8, max_outer=1)
        assert row.termination == "budget-exhausted"
        assert row.dist_weighted > row.eps
        assert not runner.run_succeeded(row)

    def test_uncertified_reduction_budget_run_fails(self):
        # Consensus rows are judged by the primal distance: one outer step
        # leaves this run far from the reference.
        row = run_single(gen_consensus(8, "path", 1.0, 4.0, 0), "sliding", 1e-6,
                         max_outer=1)
        assert row.termination == "budget-exhausted"
        assert row.dist_primal > row.eps
        assert not runner.run_succeeded(row)

    def test_consensus_budget_run_judged_on_primal(self):
        # The affine route promises ||x - x*||^2 <= eps alone: a run that
        # ends its budget with x within eps passes, while its uncertified y
        # puts the joint distance above eps.
        row = runner.RunReport(
            instance=gen_consensus(20, "path", 1.0, 4.0, 2).instance_id,
            solver="sliding", eps=1e-4, calls_grad_p=300, calls_grad_q=300,
            calls_grad_R=3000, outer_iters=300, inner_iters=600,
            dist_weighted=1.0, dist_unweighted=2e-4, wall_ms=0.0,
            termination="budget-exhausted", dist_primal=3e-8,
        )
        assert runner.run_succeeded(row)
        assert not runner.run_succeeded(replace(row, dist_primal=2e-4))

    @pytest.mark.parametrize("make, eps, tallies", [
        (lambda: gen_consensus(8, "path", 1.0, 4.0, 0), 1e-6, (8, 8, 203)),
        (lambda: gen_consensus(10, "ring", 1.0, 4.0, 0), 1e-6, (10, 10, 193)),
        (lambda: gen_bilinear(200, 200, 100.0, 1.0, 100.0, 1.0, 10.0, 3), 1e-6,
         (131, 131, 527)),
        (lambda: gen_linear_bilinear(8, 4), 1e-3, (4, 4, 103)),
        (lambda: gen_linear_bilinear(8, 4), 1e-7, (6, 6, 156)),
    ], ids=["path8", "ring10", "bilinear200", "lb8-1e-3", "lb8-1e-7"])
    def test_conjugate_gradient_route_tallies(self, make, eps, tallies):
        # The instances and tallies the CLI round trip pins on the
        # conjugate-gradient routes, whose solves start warm after each
        # stage's first, so a change to that start shows here too.
        row = run_single(make(), "sliding", eps)
        assert row.termination == "residual-met"
        assert (row.calls_grad_p, row.calls_grad_q, row.calls_grad_R) == tallies

    def test_unknown_solver_rejected(self):
        from saddleslide.bench import run_single

        inst = gen_linear_bilinear(3, seed=4)
        with pytest.raises(ManifestError):
            run_single(inst, "mystery", 1e-3)


class TestCli:
    def test_gen_solve_report_flow(self, tmp_path, capsys):
        assert main([
            "gen", "--kind", "quadratic-spp", "--out", str(tmp_path / "i"),
            "--seed", "3", "--dx", "4", "--dy", "4", "--lr", "5.0",
        ]) == 0
        manifest = tmp_path / "i" / "manifest.json"
        assert main([
            "solve", "--manifest", str(manifest), "--solver", "sliding",
            "--eps", "1e-6", "--out", str(tmp_path / "runs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "termination=" in out

    def test_bench_and_report(self, tmp_path, capsys):
        main(["gen", "--kind", "linear-bilinear", "--out", str(tmp_path / "i"),
              "--seed", "1", "--dx", "3", "--cond", "2.0"])
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "instances": [str(tmp_path / "i" / "manifest.json")],
            "solvers": ["sliding"],
            "eps": [1e-3],
        }))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert main(["report", "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "aggregate.csv").exists()

    def test_report_loads_runs_without_primal_distance(self, tmp_path, capsys):
        # Run files written before dist_primal was recorded still load; the
        # column reads nan for them.
        inst = gen_consensus(4, "ring", 1.0, 4.0, seed=0)
        fields = asdict(run_single(inst, "sliding", 1e-4))
        del fields["dist_primal"]
        out = tmp_path / "o"
        out.mkdir()
        (out / "run_0000.json").write_text(json.dumps(fields))
        assert main(["report", "--out", str(out)]) == 0
        header, row = (out / "aggregate.csv").read_text().strip().splitlines()
        assert header.endswith(",dist_primal")
        assert row.endswith(",nan")

    def test_uncertified_solve_exit_code(self, tmp_path, capsys):
        # One outer step leaves the run far from the reference (dist_w about
        # 4.4 at eps 1e-8), with no certificate.
        manifest = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, 2).save(tmp_path / "q4")
        assert main([
            "solve", "--manifest", str(manifest), "--solver", "sliding",
            "--eps", "1e-8", "--max-outer", "1",
        ]) == 2
        assert "termination=budget-exhausted" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path):
        assert main(["solve", "--manifest", str(tmp_path / "missing.json")]) == 1

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"instance": []}))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "unknown grid config keys ['instance']" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["lots", True])
    def test_bad_eps_exit_code(self, tmp_path, capsys, eps):
        manifest = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, 2).save(tmp_path / "q4")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"instances": [str(manifest)], "eps": [eps]}))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid config eps") and "Traceback" not in err

    def test_budget_exit_code(self, tmp_path):
        inst = gen_quadratic_spp(4, 4, 3.0, 1.0, 2.0, 1.0, 5.0, seed=2)
        manifest = inst.save(tmp_path / "inst")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "instances": [str(manifest)],
            "solvers": ["eg"],
            "eps": [1e-10],
            "max_outer": 5,
        }))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
