"""Outer accelerated sliding loop.

Each outer step extrapolates the iterates, freezes the composite gradients
there, hands a prox-regularized saddle subproblem to an inner solver, and
accepts the inner result once a fully computable gradient criterion holds.
The composite oracles are therefore called exactly once per outer step,
while coupling-oracle work is confined to the inner solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InconsistentConstants,
    MissingValueOracle,
    NonPositiveInput,
)
from .problems import (
    CompositeSaddleProblem,
    OracleCounters,
    PointPair,
    SmoothnessSpec,
    unweighted_distance_sq,
    validate_spec,
    weighted_distance_sq,
    wrap_counting,
)

if TYPE_CHECKING:
    from .inner import InnerConfig

X_DOMINANT = "x-dominant"
Y_DOMINANT = "y-dominant"

TERMINATION_BUDGET = "budget-exhausted"
TERMINATION_RESIDUAL = "residual-met"
TERMINATION_DIVERGED = "diverged"

# Slack for checking eta*mu >= alpha/3, which holds with equality in exact
# arithmetic and can be off by a few ulps in floating point.
_TUNING_SLACK = 1e-9


@dataclass(frozen=True)
class SolverTuning:
    """Step sizes and extrapolation weight of the outer loop."""

    alpha: float
    eta_x: float
    eta_y: float
    branch: str


def tune_parameters(spec: SmoothnessSpec) -> SolverTuning:
    """Derive (alpha, eta_x, eta_y) from the smoothness constants.

    The branch is chosen by comparing the composite condition numbers
    L_p/mu_x and L_q/mu_y; ties go to the x-dominant branch.  In either
    branch the returned tuning satisfies ``alpha in (0, 1]`` and
    ``eta_x * mu_x >= alpha / 3``, ``eta_y * mu_y >= alpha / 3`` up to
    rounding.
    """
    validate_spec(spec)
    if spec.L_p / spec.mu_x >= spec.L_q / spec.mu_y:
        alpha = 1.0 if spec.L_p <= spec.mu_x else math.sqrt(spec.mu_x / spec.L_p)
        cap = 1.0 / (3.0 * spec.mu_x)
        eta_x = cap if spec.L_p * alpha <= spec.mu_x else 1.0 / (3.0 * spec.L_p * alpha)
        eta_y = (spec.mu_x / spec.mu_y) * eta_x
        branch = X_DOMINANT
    else:
        alpha = 1.0 if spec.L_q <= spec.mu_y else math.sqrt(spec.mu_y / spec.L_q)
        cap = 1.0 / (3.0 * spec.mu_y)
        eta_y = cap if spec.L_q * alpha <= spec.mu_y else 1.0 / (3.0 * spec.L_q * alpha)
        eta_x = (spec.mu_y / spec.mu_x) * eta_y
        branch = Y_DOMINANT
    floor = alpha / 3.0 * (1.0 - _TUNING_SLACK)
    # Constants whose ratios under- or overflow float64 can break the
    # bounds, e.g. mu_x/L_p rounding to 0 gives alpha = 0.
    if not (
        0.0 < alpha <= 1.0 and eta_x * spec.mu_x >= floor and eta_y * spec.mu_y >= floor
    ):
        raise InconsistentConstants(
            f"constants {spec} give no valid tuning: alpha={alpha}, "
            f"eta_x={eta_x}, eta_y={eta_y}"
        )
    return SolverTuning(alpha=alpha, eta_x=eta_x, eta_y=eta_y, branch=branch)


def required_outer_iterations(spec: SmoothnessSpec, psi_0: float, eps: float) -> int:
    """Outer-iteration budget sufficient for weighted accuracy ``eps``.

    Returns ``ceil(3 * max(1, sqrt(L_p/mu_x), sqrt(L_q/mu_y)) * ln(psi_0/eps))``
    floored at 1, where ``psi_0`` upper-bounds the initial potential.
    """
    if psi_0 <= 0.0 or eps <= 0.0:
        raise NonPositiveInput(f"psi_0={psi_0} and eps={eps} must be positive")
    validate_spec(spec)
    factor = max(1.0, math.sqrt(spec.L_p / spec.mu_x), math.sqrt(spec.L_q / spec.mu_y))
    k = math.ceil(3.0 * factor * math.log(psi_0 / eps))
    return max(1, k)


def check_inner_criterion(
    g_x: np.ndarray,
    g_y: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    tuning: SolverTuning,
    floor_tol: float = 0.0,
) -> bool:
    """Acceptance test for an inner candidate.

    ``g_x, g_y`` are the subproblem gradients at the candidate and
    ``dx, dy`` its displacement from the outer iterate.  Accepts iff

        eta_x ||g_x||^2 + eta_y ||g_y||^2
            <= ||dx||^2 / (6 eta_x) + ||dy||^2 / (6 eta_y)

    or the left-hand side is already below ``floor_tol`` (absolute escape
    hatch for the degenerate case dx = dy = 0, where the right-hand side
    vanishes and exact satisfaction is impossible in floating point).

    It is also the divergence guard of every inner solver: it raises
    DivergenceDetected unless each of the four squared norms is below
    ``1e300`` (a NaN fails that test too).
    """
    g_x = np.asarray(g_x, dtype=float)
    g_y = np.asarray(g_y, dtype=float)
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if g_x.shape != dx.shape or g_y.shape != dy.shape:
        raise DimensionMismatch(
            f"gradient shapes {g_x.shape}/{g_y.shape} vs displacement "
            f"{dx.shape}/{dy.shape}"
        )
    gx2, gy2 = float(g_x @ g_x), float(g_y @ g_y)
    dx2, dy2 = float(dx @ dx), float(dy @ dy)
    if not (gx2 < 1e300 and gy2 < 1e300 and dx2 < 1e300 and dy2 < 1e300):
        raise DivergenceDetected("non-finite or huge inner iterate or gradient")
    lhs = tuning.eta_x * gx2 + tuning.eta_y * gy2
    rhs = dx2 / (6.0 * tuning.eta_x) + dy2 / (6.0 * tuning.eta_y)
    return lhs <= rhs or lhs <= floor_tol


@dataclass
class OuterState:
    """Snapshot of the outer loop entering step k."""

    k: int
    z: PointPair
    z_f: PointPair
    z_g: PointPair
    grad_p_g: np.ndarray
    grad_q_g: np.ndarray


@dataclass
class SolveConfig:
    """Knobs of a solve run.

    ``eps`` is the target for the weighted squared distance to the saddle.
    The outer budget is ``required_outer_iterations`` from ``psi_0`` when a
    bound is supplied or computable (known solution plus value oracles),
    capped by ``max_outer``.  ``use_residual_stop`` enables an optional
    early stop from a computable upper bound on the joint gradient residual
    (sufficient for eps/4 unweighted accuracy under strong monotonicity);
    it costs no extra oracle calls.
    """

    eps: float
    max_outer: int = 10_000
    inner: Optional["InnerConfig"] = None
    track_potential: bool = False
    known_solution: Optional[PointPair] = None
    psi_0: Optional[float] = None
    use_residual_stop: bool = False
    track_inner_details: bool = False


@dataclass
class ConvergenceReport:
    """Outcome of a solve run with per-iteration diagnostics.

    Per-iteration lists all have length ``counters.outer_iterations``;
    distance lists are empty when no known solution was given, and
    ``potentials`` is empty unless potential tracking ran.
    """

    final_pair: PointPair
    counters: OracleCounters
    termination: str
    planned_outer: int
    weighted_dist_sq: List[float] = field(default_factory=list)
    unweighted_dist_sq: List[float] = field(default_factory=list)
    potentials: List[float] = field(default_factory=list)
    psi_initial: Optional[float] = None
    inner_iterations: List[int] = field(default_factory=list)
    inner_logs: List[dict] = field(default_factory=list)
    constraint_residual: Optional[float] = None
    tuning: Optional[SolverTuning] = None
    eps: Optional[float] = None


def potential(
    problem: CompositeSaddleProblem, tuning: SolverTuning, solution: PointPair
) -> Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float]:
    """Distance-plus-Bregman potential relative to the saddle ``solution``.

    Returns ``psi(x, y, x_f, y_f) = (1/eta_x)||x - x*||^2
    + (1/eta_y)||y - y*||^2 + (2/alpha) D_p(x_f, x*) + (2/alpha) D_q(y_f, y*)``.
    The values and gradients of p and q at the saddle are evaluated here,
    once: one ``grad_p`` and one ``grad_q`` call.  Needs the value oracles
    of p and q.
    """
    if not problem.has_composite_values():
        raise MissingValueOracle("potential needs value oracles for p and q")
    x_star, y_star = solution.x, solution.y
    p_star = float(problem.value_p(x_star))
    q_star = float(problem.value_q(y_star))
    gp_star = problem.grad_p(x_star)
    gq_star = problem.grad_q(y_star)

    def psi(x, y, xf, yf):
        dx = x - x_star
        dy = y - y_star
        dist = float(dx @ dx) / tuning.eta_x + float(dy @ dy) / tuning.eta_y
        d_p = problem.value_p(xf) - p_star - gp_star @ (xf - x_star)
        d_q = problem.value_q(yf) - q_star - gq_star @ (yf - y_star)
        return dist + (2.0 / tuning.alpha) * (float(d_p) + float(d_q))

    return psi


def compute_potential(
    problem: CompositeSaddleProblem,
    spec: SmoothnessSpec,
    tuning: SolverTuning,
    state: OuterState,
    solution: PointPair,
) -> float:
    """`potential` of an outer state: its z and z_f against ``solution``."""
    validate_spec(spec)
    psi = potential(problem, tuning, solution)
    return psi(state.z.x, state.z.y, state.z_f.x, state.z_f.y)


def initial_potential(
    problem: CompositeSaddleProblem,
    spec: SmoothnessSpec,
    start: PointPair,
    solution: PointPair,
) -> float:
    """Potential of a fresh run started at ``start`` (where z_f = z).

    Handy as the caller-supplied bound feeding `required_outer_iterations`.
    Makes one ``grad_p`` and one ``grad_q`` call.
    """
    psi = potential(problem, tune_parameters(spec), solution)
    return psi(start.x, start.y, start.x, start.y)


def solve(
    problem: CompositeSaddleProblem,
    spec: SmoothnessSpec,
    start: PointPair,
    config: SolveConfig,
    inner_solver: Optional[Callable] = None,
    counters: Optional[OracleCounters] = None,
) -> ConvergenceReport:
    """Run the accelerated sliding loop on a composite saddle problem.

    Per outer step: extrapolate to the gradient point, evaluate the
    composite gradients there exactly once each, solve the prox
    subproblem to the acceptance criterion, then update the main and
    extrapolation sequences.  The coupling oracle is called only inside
    the inner solver; its final evaluation doubles as the one the main
    update needs.

    ``problem`` is wrapped here for counting; potential tracking uses it
    unwrapped, so diagnostics never perturb the tallies.

    Parameters
    ----------
    inner_solver : callable, optional
        ``(aux, spec, tuning, inner_config) -> InnerResult``.  Defaults to
        the extragradient subproblem solver.
    counters : OracleCounters, optional
        Tallies to count into, shared with oracles the caller counts
        itself (the bilinear path counts B/B^T products in its inner
        solver).  Fresh counters by default.
    """
    from .inner import InnerConfig, build_auxiliary, solve_auxiliary

    validate_spec(spec)
    if config.eps <= 0.0 or config.max_outer < 1:
        raise NonPositiveInput(
            f"need eps > 0 and max_outer >= 1, got {config.eps}, {config.max_outer}"
        )
    start.check_dims(problem.d_x, problem.d_y)
    tuning = tune_parameters(spec)
    inner_cfg = config.inner if config.inner is not None else InnerConfig()
    if inner_solver is None:
        inner_solver = solve_auxiliary

    counted, counters = wrap_counting(problem, counters)

    sol = config.known_solution
    psi = None
    psi_initial = None
    if config.track_potential and sol is not None:
        psi = potential(problem, tuning, sol)
        psi_initial = psi(start.x, start.y, start.x, start.y)

    x = start.x.copy()
    y = start.y.copy()
    xf = x.copy()
    yf = y.copy()

    psi_bound = config.psi_0
    if psi_bound is None:
        psi_bound = psi_initial
    if psi_bound is not None and psi_bound > 0.0:
        planned = min(
            config.max_outer, required_outer_iterations(spec, psi_bound, config.eps)
        )
    else:
        planned = config.max_outer

    report = ConvergenceReport(
        final_pair=start,
        counters=counters,
        termination=TERMINATION_BUDGET,
        planned_outer=planned,
        psi_initial=psi_initial,
        tuning=tuning,
        eps=config.eps,
    )

    alpha = tuning.alpha
    eta_x, eta_y = tuning.eta_x, tuning.eta_y
    mu_min = min(spec.mu_x, spec.mu_y)
    residual_threshold = mu_min * mu_min * config.eps / 4.0

    for k in range(planned):
        if alpha == 1.0:
            xg, yg = x.copy(), y.copy()
        else:
            xg = alpha * x + (1.0 - alpha) * xf
            yg = alpha * y + (1.0 - alpha) * yf
        gp = counted.grad_p(xg)
        gq = counted.grad_q(yg)

        state = OuterState(
            k=k,
            z=PointPair(x, y),
            z_f=PointPair(xf, yf),
            z_g=PointPair(xg, yg),
            grad_p_g=gp,
            grad_q_g=gq,
        )
        aux = build_auxiliary(counted, state, tuning)
        result = inner_solver(aux, spec, tuning, inner_cfg)
        x_hat, y_hat = result.pair.x, result.pair.y
        g_x, g_y = result.grad_x, result.grad_y

        # Main update; identical to stepping along the frozen composite
        # gradient plus the coupling gradient at the accepted pair.
        x_next = x_hat - eta_x * g_x
        y_next = y_hat + eta_y * g_y
        if alpha == 1.0:
            xf = x_hat.copy()
            yf = y_hat.copy()
        else:
            xf = xg + alpha * (x_hat - x)
            yf = yg + alpha * (y_hat - y)

        if config.track_inner_details:
            report.inner_logs.append(
                {
                    "k": k,
                    "grad_p_g": gp.copy(),
                    "grad_q_g": gq.copy(),
                    "x_k": x.copy(),
                    "y_k": y.copy(),
                    "x_hat": x_hat.copy(),
                    "y_hat": y_hat.copy(),
                    "g_x": g_x.copy(),
                    "g_y": g_y.copy(),
                    "inner_iterations": result.iterations,
                    "accepted_by": result.accepted_by,
                }
            )

        x, y = x_next, y_next
        counters.outer_iterations += 1
        counters.inner_iterations += result.iterations
        report.inner_iterations.append(result.iterations)

        # Guard against magnitudes whose squares overflow before the
        # growth rule below could catch them; a custom inner solver need
        # not pass its iterates through check_inner_criterion's guard.
        if not (np.all(np.abs(x) < 1e150) and np.all(np.abs(y) < 1e150)):
            raise DivergenceDetected(f"non-finite or huge iterate at outer step {k}")

        if sol is not None:
            current = PointPair(x, y)
            wd = weighted_distance_sq(current, sol, eta_x, eta_y)
            report.weighted_dist_sq.append(wd)
            report.unweighted_dist_sq.append(unweighted_distance_sq(current, sol))
            n = len(report.weighted_dist_sq)
            if n > 10:
                old = report.weighted_dist_sq[n - 11]
                # Growth below the target scale is floating-point jitter,
                # not divergence.
                if old > 0.0 and wd >= 10.0 * old and wd > config.eps:
                    raise DivergenceDetected(
                        f"weighted distance grew {wd / old:.1f}x over 10 steps"
                    )
        if psi is not None:
            report.potentials.append(psi(x, y, xf, yf))

        if config.use_residual_stop:
            # Upper bound on the joint residual at the accepted pair using
            # only quantities already in hand: the subproblem gradients give
            # the coupling part exactly, and L_p/L_q bound the gap between
            # the frozen and the exact composite gradients.
            rx = g_x - (x_hat - state.z.x) / eta_x
            ry = -g_y - (y_hat - state.z.y) / eta_y
            bx = np.linalg.norm(rx) + spec.L_p * np.linalg.norm(x_hat - xg)
            by = np.linalg.norm(ry) + spec.L_q * np.linalg.norm(y_hat - yg)
            if bx * bx + by * by <= residual_threshold:
                report.final_pair = PointPair(x_hat, y_hat)
                report.termination = TERMINATION_RESIDUAL
                return report

    report.final_pair = PointPair(x, y)
    report.termination = TERMINATION_BUDGET
    return report
