"""Quadratic regularization reductions for problems lacking strong curvature.

A convex-concave (or strongly-convex-concave) problem is wrapped with
small quadratic terms sized from the target accuracy and the solution
norm bounds, so the strongly monotone solver applies; solving the wrapped
problem to the plan's ``inner_target`` accuracy certifies an eps-solution
of the original.  Accuracies here are in the plain squared-distance sense.
The bilinear reductions run on these plans: `bilinear.solve_affine_constrained`
on `plan_scc`, `bilinear.solve_bilinear_linear_composites` on `plan_cc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import CaseMismatch, NonPositiveInput
from .problems import CompositeSaddleProblem, SmoothnessSpec

CASE_SCC = "scc"
CASE_CC = "cc"


@dataclass(frozen=True)
class RegularizationPlan:
    """Coefficients of the wrap and the accuracy to solve it to.

    ``coeff_x ||x||^2`` is added and ``coeff_y ||y||^2`` subtracted from
    the objective; a point within ``inner_target`` squared distance of the
    wrapped saddle is an ``eps``-solution of the original problem, given
    ``||x*|| <= D_x`` and ``||y*|| <= D_y``.  The distance is the joint one
    for ``CASE_CC`` and the x block's alone for ``CASE_SCC``.
    """

    case: str
    D_x: Optional[float]
    D_y: float
    eps: float
    coeff_x: float
    coeff_y: float
    inner_target: float


def plan_scc(eps: float, D_y: float) -> RegularizationPlan:
    """Plan for strongly-convex-concave problems (mu_x > 0, mu_y = 0).

    Only the dual gets a regularizer, ``eps/(12 D_y^2) ||y||^2``, and the
    wrapped problem must be solved to accuracy ``2 eps / 3`` in its primal
    block: the eps-solution is a statement about x, and a point's y plays
    no part in it (the original problem's dual solutions need not form a
    single point).  Raises NonPositiveInput unless ``eps`` and
    ``D_y`` are positive and finite.  `bilinear.solve_affine_constrained`
    takes its dual regularizer, planned on a ``D_y`` of at least
    ``sqrt(eps)/3``, its accuracy target and this input check from here,
    and certifies the primal block only.
    """
    if not (0.0 < eps < math.inf and 0.0 < D_y < math.inf):
        raise NonPositiveInput(f"eps={eps}, D_y={D_y} must be positive and finite")
    return RegularizationPlan(
        case=CASE_SCC,
        D_x=None,
        D_y=D_y,
        eps=eps,
        coeff_x=0.0,
        coeff_y=eps / (12.0 * D_y**2),
        inner_target=2.0 * eps / 3.0,
    )


def plan_cc(eps: float, D_x: float, D_y: float) -> RegularizationPlan:
    """Plan for convex-concave problems (mu_x = mu_y = 0).

    Both blocks get ``eps/(16 D^2) ||.||^2`` regularizers and the wrapped
    problem must be solved to accuracy ``eps / 2`` in both blocks together,
    the joint squared distance.  Raises
    NonPositiveInput unless ``eps``, ``D_x`` and ``D_y`` are positive and
    finite.  `bilinear.solve_bilinear_linear_composites` runs on this plan.
    """
    if not all(0.0 < v < math.inf for v in (eps, D_x, D_y)):
        raise NonPositiveInput(
            f"eps={eps}, D_x={D_x}, D_y={D_y} must be positive and finite"
        )
    return RegularizationPlan(
        case=CASE_CC,
        D_x=D_x,
        D_y=D_y,
        eps=eps,
        coeff_x=eps / 16.0 / D_x**2,
        coeff_y=eps / 16.0 / D_y**2,
        inner_target=eps / 2.0,
    )


def apply_plan(
    problem: CompositeSaddleProblem,
    spec: SmoothnessSpec,
    plan: RegularizationPlan,
) -> Tuple[CompositeSaddleProblem, SmoothnessSpec]:
    """Fold the plan's regularizers into the coupling term.

    Keeping the composites untouched preserves their plain convexity and
    puts the added strong curvature exactly where the solver assumes it.
    Under the ``(mu/2)||.||^2`` convention a ``coeff ||.||^2`` term
    contributes modulus ``2 * coeff``, so the returned spec has
    ``mu_x + 2 coeff_x``, ``mu_y + 2 coeff_y`` and
    ``L_R + 2 max(coeff_x, coeff_y)``.

    ``spec`` may carry zero moduli as declared by the plan's case; it is
    deliberately not validated here.
    """
    if plan.case == CASE_SCC and spec.mu_x <= 0.0:
        raise CaseMismatch(
            f"scc plan needs mu_x > 0 in the original problem, got {spec.mu_x}"
        )
    cx, cy = plan.coeff_x, plan.coeff_y
    base_R = problem.grad_R

    def grad_R(x, y):
        r_x, r_y = base_R(x, y)
        return r_x + 2.0 * cx * x, r_y - 2.0 * cy * y

    value_R = None
    if problem.value_R is not None:
        base_vR = problem.value_R
        value_R = lambda x, y: (
            base_vR(x, y) + cx * float(x @ x) - cy * float(y @ y)
        )

    wrapped = CompositeSaddleProblem(
        d_x=problem.d_x,
        d_y=problem.d_y,
        grad_p=problem.grad_p,
        grad_q=problem.grad_q,
        grad_R=grad_R,
        value_p=problem.value_p,
        value_q=problem.value_q,
        value_R=value_R,
    )
    new_spec = SmoothnessSpec(
        L_p=spec.L_p,
        L_q=spec.L_q,
        L_R=spec.L_R + 2.0 * max(cx, cy),
        mu_x=spec.mu_x + 2.0 * cx,
        mu_y=spec.mu_y + 2.0 * cy,
    )
    return wrapped, new_spec
