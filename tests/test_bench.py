import json
import math

import numpy as np
import pytest

from saddleslide import PointPair, unweighted_distance_sq
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
from saddleslide.bench import matio
from saddleslide.bench.baselines import agd_joint_baseline
from saddleslide.bench.cli import main
from saddleslide.errors import (
    BudgetExhausted,
    DivergenceDetected,
    InfeasibleConstants,
    ManifestError,
)


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

    def test_converges_to_reference_on_mild_instance(self):
        inst = gen_quadratic_spp(5, 5, 2.0, 1.0, 2.0, 1.0, 3.0, seed=2)
        ref = reference_solution(inst)
        report = baseline_extragradient(
            inst.problem(), inst.spec(),
            PointPair(np.zeros(5), np.zeros(5)), eps=1e-8, max_iter=100_000,
            reference=ref,
        )
        assert unweighted_distance_sq(report.final_pair, ref) <= 1e-8

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
    ], ids=["bilinear", "consensus", "linear-bilinear"])
    def test_verification_catches_tampered_bottom(self, tmp_path, make, name):
        inst = make()
        inst.manifest["constants"][name] *= 2.0
        manifest_path = inst.save(tmp_path / "inst")
        with pytest.raises(ManifestError, match=name):
            Instance.load(manifest_path)

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


class TestRunExperiment:
    def test_empty_grid_emits_header_only(self, tmp_path):
        reports = run_experiment({"instances": []}, tmp_path / "out")
        assert reports == []
        csv_text = (tmp_path / "out" / "aggregate.csv").read_text()
        assert csv_text.strip() == ",".join(CSV_COLUMNS)

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

    def test_coupling_sweep_separates_counts(self, tmp_path):
        manifests = []
        for L_R in [2.0, 20.0]:
            inst = gen_quadratic_spp(6, 6, 4.0, 1.0, 4.0, 1.0, L_R, seed=13)
            manifests.append(str(inst.save(tmp_path / f"lr{int(L_R)}")))
        config = {"instances": manifests, "solvers": ["sliding"], "eps": [1e-6]}
        reports = run_experiment(config, tmp_path / "out")
        # Coupling calls grow with the coupling constant while composite
        # calls stay flat (up to the tiny budget change from the per-instance
        # potential bound).
        assert reports[1].calls_grad_R > reports[0].calls_grad_R
        assert abs(reports[1].calls_grad_p - reports[0].calls_grad_p) <= max(
            3, 0.1 * reports[0].calls_grad_p
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
        # eps = 1e-8 is below the reduction's float64 floor and the run
        # diverges; the inner criterion names it before a norm overflows.
        inst = gen_linear_bilinear(8, seed=3)
        with pytest.raises(DivergenceDetected):
            run_single(inst, "sliding", 1e-8)

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

    def test_error_exit_code(self, tmp_path):
        assert main(["solve", "--manifest", str(tmp_path / "missing.json")]) == 1

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
