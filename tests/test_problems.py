import numpy as np
import pytest

from saddleslide import (
    CompositeSaddleProblem,
    PointPair,
    SmoothnessSpec,
    unweighted_distance_sq,
    validate_spec,
    weighted_distance_sq,
    wrap_counting,
)
from saddleslide.errors import (
    DimensionMismatch,
    InconsistentConstants,
    NonPositiveModulus,
    NonPositiveStep,
)
from saddleslide.bench import gen_quadratic_spp

from conftest import central_diff


class TestValidateSpec:
    def test_valid_spec_passes(self):
        validate_spec(SmoothnessSpec(L_p=4, L_q=1, L_R=2, mu_x=1, mu_y=1))

    def test_zero_modulus_rejected(self):
        with pytest.raises(NonPositiveModulus):
            validate_spec(SmoothnessSpec(L_p=1, L_q=1, L_R=1, mu_x=0, mu_y=1))

    def test_coupling_constant_below_modulus_rejected(self):
        with pytest.raises(InconsistentConstants):
            validate_spec(SmoothnessSpec(L_p=1, L_q=1, L_R=0.5, mu_x=1, mu_y=1))

    def test_negative_composite_constant_rejected(self):
        with pytest.raises(InconsistentConstants):
            validate_spec(SmoothnessSpec(L_p=-1, L_q=1, L_R=1, mu_x=1, mu_y=1))

    def test_non_finite_rejected(self):
        with pytest.raises(InconsistentConstants):
            validate_spec(SmoothnessSpec(L_p=np.nan, L_q=1, L_R=1, mu_x=1, mu_y=1))


class TestPointPair:
    def test_dims_and_copy(self):
        p = PointPair([1.0, 2.0], [3.0])
        assert p.dims == (2, 1)
        q = p.copy()
        q.x[0] = 9.0
        assert p.x[0] == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointPair([np.inf], [0.0])

    def test_check_dims(self):
        with pytest.raises(DimensionMismatch):
            PointPair([1.0], [2.0]).check_dims(2, 1)


def _toy_problem():
    return CompositeSaddleProblem(
        d_x=2,
        d_y=2,
        grad_p=lambda x: 2.0 * x,
        grad_q=lambda y: 3.0 * y,
        grad_R=lambda x, y: (x + y, x - y),
    )


class TestCounting:
    def test_fresh_wrapper_is_zero(self):
        _, counters = wrap_counting(_toy_problem())
        assert counters.as_dict() == {
            "calls_grad_p": 0,
            "calls_grad_q": 0,
            "calls_grad_R": 0,
            "outer_iterations": 0,
            "inner_iterations": 0,
        }

    def test_five_grad_p_calls(self):
        wrapped, counters = wrap_counting(_toy_problem())
        x = np.ones(2)
        for _ in range(5):
            wrapped.grad_p(x)
        assert counters.calls_grad_p == 5
        assert counters.calls_grad_q == 0

    def test_one_grad_R_call(self):
        wrapped, counters = wrap_counting(_toy_problem())
        wrapped.grad_R(np.ones(2), np.ones(2))
        assert counters.calls_grad_R == 1

    def test_delegation_preserves_outputs(self):
        problem = _toy_problem()
        wrapped, _ = wrap_counting(problem)
        x, y = np.array([1.0, -2.0]), np.array([0.5, 4.0])
        assert np.array_equal(wrapped.grad_p(x), problem.grad_p(x))
        rx, ry = wrapped.grad_R(x, y)
        ex, ey = problem.grad_R(x, y)
        assert np.array_equal(rx, ex) and np.array_equal(ry, ey)

    def test_interleaved_counts_exact(self, rng):
        wrapped, counters = wrap_counting(_toy_problem())
        x, y = np.ones(2), np.ones(2)
        tally = {"p": 0, "q": 0, "R": 0}
        for _ in range(500):
            which = rng.choice(["p", "q", "R"])
            if which == "p":
                wrapped.grad_p(x)
            elif which == "q":
                wrapped.grad_q(y)
            else:
                wrapped.grad_R(x, y)
            tally[which] += 1
        assert (counters.calls_grad_p, counters.calls_grad_q, counters.calls_grad_R) == (
            tally["p"], tally["q"], tally["R"]
        )

    def test_separate_wrappers_do_not_share(self):
        w1, c1 = wrap_counting(_toy_problem())
        w2, c2 = wrap_counting(_toy_problem())
        w1.grad_p(np.ones(2))
        assert c1.calls_grad_p == 1 and c2.calls_grad_p == 0


def test_oracle_determinism(rng):
    problem, _, _, _ = __import__("conftest").random_quadratic_instance(
        rng, 4, 3, 2.0, 1.0, 2.0, 1.0, 1.5
    )
    x = rng.standard_normal(4)
    y = rng.standard_normal(3)
    assert np.array_equal(problem.grad_p(x), problem.grad_p(x))
    rx1, ry1 = problem.grad_R(x, y)
    rx2, ry2 = problem.grad_R(x, y)
    assert np.array_equal(rx1, rx2) and np.array_equal(ry1, ry2)


class TestWeightedDistance:
    def test_identical_pairs(self):
        p = PointPair([1.0, 2.0], [3.0])
        assert weighted_distance_sq(p, p, 0.1, 0.2) == 0.0

    def test_unit_weights(self):
        a = PointPair([1.0, 0.0], [0.0, 2.0])
        b = PointPair([0.0, 0.0], [0.0, 0.0])
        assert weighted_distance_sq(a, b, 1.0, 1.0) == pytest.approx(5.0)

    def test_quarter_half_weights(self):
        a = PointPair([1.0], [1.0])
        b = PointPair([0.0], [0.0])
        assert weighted_distance_sq(a, b, 0.5, 0.25) == pytest.approx(6.0)

    def test_non_positive_step(self):
        p = PointPair([1.0], [1.0])
        with pytest.raises(NonPositiveStep):
            weighted_distance_sq(p, p, 0.0, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_distance_sq(PointPair([1.0], [1.0]), PointPair([1.0, 2.0], [1.0]), 1, 1)

    def test_unweighted(self):
        a = PointPair([3.0], [4.0])
        b = PointPair([0.0], [0.0])
        assert unweighted_distance_sq(a, b) == pytest.approx(25.0)


def test_finite_difference_consistency_on_builtin_problems(rng):
    inst = gen_quadratic_spp(5, 4, L_p=3.0, mu_x=0.8, L_q=2.0, mu_y=1.2, L_R=6.0, seed=42)
    problem = inst.problem()
    for _ in range(100):
        x = rng.standard_normal(5)
        y = rng.standard_normal(4)
        gp = problem.grad_p(x)
        fd_p = central_diff(problem.value_p, x)
        assert np.linalg.norm(fd_p - gp) <= 1e-5 * (1.0 + np.linalg.norm(gp))
        gq = problem.grad_q(y)
        fd_q = central_diff(problem.value_q, y)
        assert np.linalg.norm(fd_q - gq) <= 1e-5 * (1.0 + np.linalg.norm(gq))
        rx, ry = problem.grad_R(x, y)
        fd_rx = central_diff(lambda u: problem.value_R(u, y), x)
        fd_ry = central_diff(lambda v: problem.value_R(x, v), y)
        assert np.linalg.norm(fd_rx - rx) <= 1e-5 * (1.0 + np.linalg.norm(rx))
        assert np.linalg.norm(fd_ry - ry) <= 1e-5 * (1.0 + np.linalg.norm(ry))
