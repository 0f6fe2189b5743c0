"""Reference baselines the sliding solver is benchmarked against.

Deliberately plain implementations: classical extragradient on the joint
operator (which cannot separate oracle counts, every oracle is hit twice
per iteration) and accelerated gradient descent on the exactly reduced
primal where the instance structure allows it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import BudgetExhausted, DivergenceDetected, ManifestError
from ..outer import (
    TERMINATION_BUDGET,
    TERMINATION_RESIDUAL,
    ConvergenceReport,
    tune_parameters,
)
from ..problems import (
    CompositeSaddleProblem,
    OracleCounters,
    PointPair,
    SmoothnessSpec,
    count_calls,
    weighted_distance_sq,
    wrap_counting,
)
from .generators import KIND_BILINEAR, KIND_QUADRATIC, Instance


def baseline_extragradient(
    problem: CompositeSaddleProblem,
    spec: SmoothnessSpec,
    start: PointPair,
    eps: float,
    max_iter: int,
    reference: Optional[PointPair] = None,
) -> ConvergenceReport:
    """Plain extragradient on the joint operator, step 1/(2 L_F).

    ``L_F = max(L_p, L_q) + L_R`` bounds the Lipschitz constant of the
    joint operator ``F = (grad p + grad_x R, grad q - grad_y R)``: its
    composite part is block-diagonal, so Lipschitz with ``max(L_p, L_q)``,
    and its coupling part with ``L_R``.  Extragradient converges for any
    step below ``1/Lip(F)`` (Korpelevich 1976).  All three oracles are
    called twice per iteration.  With a reference solution the run stops
    once the weighted squared distance to it, with the sliding solver's
    steps from `tune_parameters` as weights, is at most ``eps``, and
    raises BudgetExhausted if that never happens; without a reference it
    runs exactly ``max_iter`` iterations.
    """
    tuning = tune_parameters(spec)
    start.check_dims(problem.d_x, problem.d_y)
    wrapped, counters = wrap_counting(problem)
    step = 1.0 / (2.0 * (max(spec.L_p, spec.L_q) + spec.L_R))

    def operator(x, y):
        r_x, r_y = wrapped.grad_R(x, y)
        return wrapped.grad_p(x) + r_x, wrapped.grad_q(y) - r_y

    x = start.x.copy()
    y = start.y.copy()
    report = ConvergenceReport(
        final_pair=start.copy(),
        counters=counters,
        termination=TERMINATION_BUDGET,
        planned_outer=max_iter,
        eps=eps,
    )
    for _ in range(max_iter):
        f_x, f_y = operator(x, y)
        xh = x - step * f_x
        yh = y - step * f_y
        fh_x, fh_y = operator(xh, yh)
        x = x - step * fh_x
        y = y - step * fh_y
        counters.outer_iterations += 1
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            exc = DivergenceDetected("non-finite extragradient iterate")
            exc.report = report
            raise exc
        report.final_pair = PointPair._unscanned(x, y)
        if reference is not None and weighted_distance_sq(
            report.final_pair, reference, tuning.eta_x, tuning.eta_y
        ) <= eps:
            report.termination = TERMINATION_RESIDUAL
            return report
    if reference is not None:
        exc = BudgetExhausted(
            f"extragradient did not reach eps={eps} in {max_iter} iterations"
        )
        exc.report = report
        raise exc
    return report


def _agd_loop(gradient_fn, mu_h, l_h, start, tol, max_iter):
    """Nesterov's method for mu_h-strongly convex, l_h-smooth objectives.

    Returns the first evaluation point whose gradient norm is <= tol, with
    the number of update steps taken.
    """
    momentum = (math.sqrt(l_h) - math.sqrt(mu_h)) / (math.sqrt(l_h) + math.sqrt(mu_h))
    x_prev = start.copy()
    y_pt = start.copy()
    for t in range(max_iter + 1):
        g = gradient_fn(y_pt)
        if np.linalg.norm(g) <= tol:
            return y_pt, t
        if t == max_iter:
            break
        x_new = y_pt - g / l_h
        y_pt = x_new + momentum * (x_new - x_prev)
        x_prev = x_new
    raise BudgetExhausted(f"gradient tolerance unmet after {max_iter} iterations")


def agd_joint_baseline(
    inst: Instance,
    eps: float,
    max_iter: int = 500_000,
) -> ConvergenceReport:
    """Joint accelerated gradient descent on the exactly reduced primal.

    Applies to quadratic-spp and bilinear instances, whose dual block can
    be maximized out in closed form with a cached dense factorization.
    Per gradient evaluation the tallies grow by one composite call each
    and two coupling products, mirroring what the reduction consumes.
    """
    if inst.kind not in (KIND_QUADRATIC, KIND_BILINEAR):
        raise ManifestError(f"agd-joint baseline does not support {inst.kind!r}")
    Hp, Hq, B, a, e = inst.saddle_blocks()
    d_x = Hp.shape[0]

    hq_inv = np.linalg.inv(Hq)
    reduced_hessian = Hp + B @ hq_inv @ B.T
    eigs = np.linalg.eigvalsh(reduced_hessian)
    mu_red, l_red = float(eigs[0]), float(eigs[-1])

    counters = OracleCounters()
    grad_p = count_calls(lambda x: Hp @ x + a, counters, "calls_grad_p")
    best_y = count_calls(lambda u: hq_inv @ (u - e), counters, "calls_grad_q")
    matvec = count_calls(lambda v: B @ v, counters, "calls_grad_R")
    rmatvec = count_calls(lambda v: B.T @ v, counters, "calls_grad_R")

    def gradient(x):
        return grad_p(x) + matvec(best_y(rmatvec(x)))

    # ||z - z*||^2 <= (1 + gain^2) ||x - x*||^2 with gain = |Hq^-1 B'|;
    # stop once the gradient certifies that much through strong convexity.
    gain = float(np.linalg.norm(hq_inv @ B.T, 2))
    tol = mu_red * np.sqrt(eps / (1.0 + gain**2))

    report = ConvergenceReport(
        final_pair=PointPair(np.zeros(d_x), hq_inv @ (-e)),
        counters=counters,
        termination=TERMINATION_BUDGET,
        planned_outer=max_iter,
        eps=eps,
    )
    try:
        x, steps = _agd_loop(
            gradient,
            mu_h=mu_red,
            l_h=l_red,
            start=np.zeros(d_x),
            tol=tol,
            max_iter=max_iter,
        )
    except BudgetExhausted as exc:
        counters.outer_iterations = max_iter
        failure = BudgetExhausted(f"agd-joint did not converge in {max_iter} iterations")
        failure.report = report
        raise failure from exc
    counters.outer_iterations = steps
    report.final_pair = PointPair(x, hq_inv @ (B.T @ x - e))
    report.termination = TERMINATION_RESIDUAL
    return report
