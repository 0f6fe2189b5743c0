"""Prox subproblem of the outer loop and its extragradient solver.

The subproblem freezes the composite gradients and adds proximal
quadratics around the current outer iterate, leaving a strongly
convex-concave saddle in the coupling term alone.  It is solved by
extragradient on a variable-rescaled formulation whose block curvatures
are balanced, with acceptance decided by the outer criterion evaluated in
the original coordinates at every iterate.  That stop rule, `accept_first`,
is shared with the bilinear conjugate-gradient solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InnerBudgetExhausted,
    MissingValueOracle,
    NonPositiveInput,
    NonPositiveStep,
)
from .outer import OuterState, SolverTuning, check_inner_criterion
from .problems import CompositeSaddleProblem, PointPair, SmoothnessSpec


@dataclass
class AuxiliaryProblem:
    """Prox-regularized saddle subproblem built around one outer state.

    Its gradients satisfy, by construction,

        g_x(x, y) = grad_p_anchor + (x - x_k)/eta_x + dR/dx(x, y)
        g_y(x, y) = dR/dy(x, y) - grad_q_anchor - (y - y_k)/eta_y

    where ``g_y`` is the gradient of the maximized objective.  The
    subproblem is (mu_x + 1/eta_x)-strongly convex in x and
    (mu_y + 1/eta_y)-strongly concave in y.
    """

    grad_R: Callable
    grad_p_anchor: np.ndarray
    grad_q_anchor: np.ndarray
    x_k: np.ndarray
    y_k: np.ndarray
    eta_x: float
    eta_y: float
    value_R: Optional[Callable] = None

    def gradients(self, x: np.ndarray, y: np.ndarray):
        """Both gradients at (x, y); makes exactly one coupling call."""
        r_x, r_y = self.grad_R(x, y)
        g_x = self.grad_p_anchor + (x - self.x_k) / self.eta_x + r_x
        g_y = r_y - self.grad_q_anchor - (y - self.y_k) / self.eta_y
        return g_x, g_y

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Objective value (diagnostics only; needs the R value oracle)."""
        if self.value_R is None:
            raise MissingValueOracle("auxiliary value needs a value oracle for R")
        dx = x - self.x_k
        dy = y - self.y_k
        return float(
            self.grad_p_anchor @ x
            + dx @ dx / (2.0 * self.eta_x)
            + self.value_R(x, y)
            - self.grad_q_anchor @ y
            - dy @ dy / (2.0 * self.eta_y)
        )


def build_auxiliary(
    problem: CompositeSaddleProblem, state: OuterState, tuning: SolverTuning
) -> AuxiliaryProblem:
    """Assemble the subproblem for the given outer state."""
    if state.grad_p_g.shape != (problem.d_x,) or state.grad_q_g.shape != (problem.d_y,):
        raise DimensionMismatch(
            f"cached gradients have shapes {state.grad_p_g.shape}/{state.grad_q_g.shape}, "
            f"expected ({problem.d_x},)/({problem.d_y},)"
        )
    state.z.check_dims(problem.d_x, problem.d_y)
    return AuxiliaryProblem(
        grad_R=problem.grad_R,
        grad_p_anchor=state.grad_p_g,
        grad_q_anchor=state.grad_q_g,
        x_k=state.z.x,
        y_k=state.z.y,
        eta_x=tuning.eta_x,
        eta_y=tuning.eta_y,
        value_R=problem.value_R,
    )


@dataclass(frozen=True)
class Rescaling:
    """Variable substitution x = alpha_scale * u, y = beta_scale * v.

    Under it a coupling with constants (L, mu_x, mu_y) becomes
    ``max(alpha_scale^2, beta_scale^2) * L``-smooth with moduli
    ``alpha_scale^2 * mu_x`` and ``beta_scale^2 * mu_y``.
    """

    alpha_scale: float
    beta_scale: float


def compute_rescaling(tuning: SolverTuning) -> Rescaling:
    """Balance the subproblem blocks through a variable substitution.

    For eta_x > eta_y uses alpha_scale^2 = sqrt(eta_x/eta_y) with
    beta_scale = 1; the opposite case is symmetric.
    """
    if tuning.eta_x <= 0.0 or tuning.eta_y <= 0.0:
        raise NonPositiveStep(f"eta_x={tuning.eta_x}, eta_y={tuning.eta_y}")
    if tuning.eta_x > tuning.eta_y:
        return Rescaling(alpha_scale=(tuning.eta_x / tuning.eta_y) ** 0.25, beta_scale=1.0)
    return Rescaling(alpha_scale=1.0, beta_scale=(tuning.eta_y / tuning.eta_x) ** 0.25)


@dataclass
class InnerConfig:
    """Inner-solver settings; ``step=None`` selects 1/(2 * smoothness bound).

    ``floor_tol`` is the absolute escape hatch of the acceptance test.
    ``stall_window``/``stall_rtol`` accept an iterate that has not moved
    by more than ``stall_rtol`` (relative) for that many consecutive
    steps: it is then the subproblem solution to machine precision and no
    further progress is representable in float64.  ``stall_window < 1``
    and ``max_inner < 0`` raise NonPositiveInput.
    """

    step: Optional[float] = None
    max_inner: int = 200_000
    floor_tol: float = 1e-24
    stall_window: int = 32
    stall_rtol: float = 1e-15

    def __post_init__(self):
        if self.stall_window < 1 or self.max_inner < 0:
            raise NonPositiveInput(
                f"stall_window={self.stall_window}, max_inner={self.max_inner}"
            )


def stall_count(stalled: int, config: InnerConfig, *steps) -> int:
    """Stall count after one step of an inner solver.

    ``steps`` holds the (new, old) iterate of each block.  The step stalls,
    extending the count of consecutive stalls, when no block moved by more
    than ``config.stall_rtol`` relative to ``max(||old||, 1)``; any other
    step resets the count to zero.
    """
    for new, old in steps:
        moved = float(np.linalg.norm(new - old)) / max(float(np.linalg.norm(old)), 1.0)
        if not moved <= config.stall_rtol:
            return 0
    return stalled + 1


def rescaled_smoothness_bound(
    spec: SmoothnessSpec, tuning: SolverTuning, rescaling: Rescaling
) -> float:
    """Upper bound on the Lipschitz constant of the rescaled subproblem operator.

    The subproblem adds (1/eta + mu)-quadratics to the coupling, so
    ``max(a^2, b^2) * L_R + max(a^2 (1/eta_x + mu_x), b^2 (1/eta_y + mu_y))``
    is safe.
    """
    a2 = rescaling.alpha_scale**2
    b2 = rescaling.beta_scale**2
    return max(a2, b2) * spec.L_R + max(
        a2 * (1.0 / tuning.eta_x + spec.mu_x),
        b2 * (1.0 / tuning.eta_y + spec.mu_y),
    )


ACCEPTED_CRITERION = "criterion"
ACCEPTED_STALL = "stall"


@dataclass
class InnerResult:
    """Accepted subproblem pair with its gradients and iteration count."""

    pair: PointPair
    iterations: int
    grad_x: np.ndarray
    grad_y: np.ndarray
    accepted_by: str = ACCEPTED_CRITERION


def accept_first(
    iterates, aux: AuxiliaryProblem, tuning: SolverTuning, config: InnerConfig
) -> InnerResult:
    """Stop rule of every inner solver: accept the first good iterate.

    ``iterates`` yields ``(x, y, g_x, g_y, blocks)``: an iterate, the
    subproblem gradients there and the arrays the stall rule compares
    between iterates.  Accepts by `check_inner_criterion`, else as a stall
    after ``stall_window`` stalled steps or on the last iterate if they end
    early; raises InnerBudgetExhausted after checking iterate ``max_inner``.
    """
    stalled, previous = 0, None
    for t, (x, y, g_x, g_y, blocks) in enumerate(iterates):
        if previous is not None:
            stalled = stall_count(stalled, config, *zip(blocks, previous))
        previous = blocks
        if check_inner_criterion(
            g_x, g_y, x - aux.x_k, y - aux.y_k, tuning, config.floor_tol
        ):
            return InnerResult(pair=PointPair(x, y), iterations=t, grad_x=g_x, grad_y=g_y)
        # An iterate pinned in place for many steps is the subproblem
        # solution to machine precision; nothing better is representable.
        if stalled >= config.stall_window:
            break
        if t >= config.max_inner:
            raise InnerBudgetExhausted(f"criterion unmet after {t} inner iterations")
    return InnerResult(PointPair(x, y), t, g_x, g_y, accepted_by=ACCEPTED_STALL)


def extragradient_iterates(
    aux: AuxiliaryProblem, spec: SmoothnessSpec, tuning: SolverTuning, config: InnerConfig
):
    """Extragradient iterates on the rescaled subproblem operator.

    Starts from the outer iterate (x_k, y_k) and yields, for `accept_first`,
    each iterate in original coordinates with its gradients and rescaled
    blocks ``(u, v)``.  The start costs one coupling call, each step two.
    """
    rescaling = compute_rescaling(tuning)
    a, b = rescaling.alpha_scale, rescaling.beta_scale
    step = config.step
    if step is None:
        step = 1.0 / (2.0 * rescaled_smoothness_bound(spec, tuning, rescaling))
    if step <= 0.0:
        raise NonPositiveStep(f"step={step}")

    u = aux.x_k / a
    v = aux.y_k / b
    while True:
        x, y = a * u, b * v
        g_x, g_y = aux.gradients(x, y)
        yield x, y, g_x, g_y, (u, v)
        # Monotone operator of the rescaled saddle: (a g_x, -b g_y).
        u_half = u - step * a * g_x
        v_half = v + step * b * g_y
        gh_x, gh_y = aux.gradients(a * u_half, b * v_half)
        u = u - step * a * gh_x
        v = v + step * b * gh_y


def solve_auxiliary(
    aux: AuxiliaryProblem,
    spec: SmoothnessSpec,
    tuning: SolverTuning,
    config: InnerConfig,
) -> InnerResult:
    """Extragradient on the rescaled subproblem operator until acceptance.

    `extragradient_iterates` under the stop rule of `accept_first`.  The
    acceptance check reuses the gradient already computed at the current
    iterate, so a run accepted after t iterations costs exactly 2t + 1
    coupling calls.
    """
    iterates = extragradient_iterates(aux, spec, tuning, config)
    return accept_first(iterates, aux, tuning, config)


def gamma_target(
    tuning: SolverTuning, spec: SmoothnessSpec, dx: np.ndarray, dy: np.ndarray
) -> float:
    """Diagnostic accuracy target for the subproblem, given the displacement.

    Returns
    ``(||dx||^2/(6 eta_x) + ||dy||^2/(6 eta_y))
    / max(eta_x (L_R + 1/eta_x)^2, eta_y (L_R + 1/eta_y)^2)``.

    It references the displacement of the accepted point itself, so it can
    only be evaluated after the fact; the online acceptance test is
    `check_inner_criterion`.
    """
    if tuning.eta_x <= 0.0 or tuning.eta_y <= 0.0:
        raise NonPositiveStep(f"eta_x={tuning.eta_x}, eta_y={tuning.eta_y}")
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    num = float(dx @ dx) / (6.0 * tuning.eta_x) + float(dy @ dy) / (6.0 * tuning.eta_y)
    den = max(
        tuning.eta_x * (spec.L_R + 1.0 / tuning.eta_x) ** 2,
        tuning.eta_y * (spec.L_R + 1.0 / tuning.eta_y) ** 2,
    )
    return num / den
