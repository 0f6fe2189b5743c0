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
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

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
    Raises NonPositiveInput unless both are positive and finite, and
    InconsistentConstants when the condition numbers overflow the budget.
    """
    if not (0.0 < psi_0 < math.inf and 0.0 < eps < math.inf):
        raise NonPositiveInput(f"psi_0={psi_0} and eps={eps} must be positive and finite")
    validate_spec(spec)
    factor = max(1.0, math.sqrt(spec.L_p / spec.mu_x), math.sqrt(spec.L_q / spec.mu_y))
    ratio = psi_0 / eps
    # A quotient that over- or underflows still has a finite logarithm.
    if 0.0 < ratio < math.inf:
        log_ratio = math.log(ratio)
    else:
        log_ratio = math.log(psi_0) - math.log(eps)
    budget = 3.0 * factor * log_ratio
    if not math.isfinite(budget):
        raise InconsistentConstants(f"constants {spec} give no finite outer budget")
    return max(1, math.ceil(budget))


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
    return _criterion_holds(g_x, g_y, dx, dy, tuning, floor_tol)


def _criterion_holds(g_x, g_y, dx, dy, tuning: SolverTuning, floor_tol: float) -> bool:
    # `check_inner_criterion` past its validation: the inner solvers' own
    # iterates are float 1-D arrays of matching shapes by construction.
    # ndarray.dot: the BLAS dot that @ calls on 1-D arrays, minus dispatch.
    gx2, gy2 = float(g_x.dot(g_x)), float(g_y.dot(g_y))
    dx2, dy2 = float(dx.dot(dx)), float(dy.dot(dy))
    if not (gx2 < 1e300 and gy2 < 1e300 and dx2 < 1e300 and dy2 < 1e300):
        raise DivergenceDetected("non-finite or huge inner iterate or gradient")
    lhs = tuning.eta_x * gx2 + tuning.eta_y * gy2
    rhs = dx2 / (6.0 * tuning.eta_x) + dy2 / (6.0 * tuning.eta_y)
    return lhs <= rhs or lhs <= floor_tol


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a real 1-D array, minus its dispatch.
    return math.sqrt(v.dot(v))


def residual_bounds(
    rx: float, ry: float, sx: float, sy: float, spec: SmoothnessSpec
) -> Tuple[float, float]:
    """Squared bounds on ``||D^-1/2 F||`` at the accepted pair and at zg.

    ``F = (grad_x f, -grad_y f)`` is the saddle operator and
    ``D = diag(mu_x I, mu_y I)``.  ``rx``, ``ry`` are the norms of the
    residual that pairs the composite gradients at the extrapolation point
    ``zg = (xg, yg)`` with the coupling gradient at the accepted pair
    ``z_hat = (x_hat, y_hat)``; ``sx``, ``sy`` are the norms of
    ``x_hat - xg`` and ``y_hat - yg``.  At ``z_hat`` the composite
    gradients are off by at most ``L_p sx`` and ``L_q sy``; at ``zg`` the
    coupling gradient is off by at most ``L_R ||(sx, sy)||``.  Returns the
    bounds at ``z_hat`` and at ``zg``, each at least ``||D^-1/2 F||^2``
    there.
    """
    bx = rx + spec.L_p * sx
    by = ry + spec.L_q * sy
    gap = spec.L_R * math.sqrt(sx * sx + sy * sy) / math.sqrt(min(spec.mu_x, spec.mu_y))
    b_g = math.sqrt(rx * rx / spec.mu_x + ry * ry / spec.mu_y) + gap
    return bx * bx / spec.mu_x + by * by / spec.mu_y, b_g * b_g


@dataclass
class SolveConfig:
    """Knobs of a solve run.

    ``eps`` is the target for the weighted squared distance to the saddle;
    `solve` rejects it unless positive and finite, and a supplied ``psi_0``
    unless finite and non-negative.  The outer budget is
    ``required_outer_iterations`` from a positive potential bound, capped
    by ``max_outer``: ``psi_0`` when supplied, else the initial potential
    when it is computed, which takes ``track_potential=True``, a
    ``known_solution`` and the value oracles of p and q.  Without either
    the budget is ``max_outer``.  ``use_residual_stop``
    stops the run, within that budget, once a computable bound certifies
    the weighted squared distance ``eps`` at the accepted inner pair or at
    the extrapolation point, and returns that point (see `solve`); it
    costs no extra oracle calls.
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
    composite gradients there exactly once each, build the step's
    `AuxiliaryProblem` (those gradients as anchors, the current iterate,
    ``eta_x``, ``eta_y``), solve it to the acceptance criterion, then
    update the main and extrapolation sequences.  The coupling oracle is
    called only inside the inner solver; its final evaluation doubles as
    the one the main update needs.  Composite gradients and inner results
    of the wrong shape raise DimensionMismatch.

    With ``config.use_residual_stop`` the run ends ``residual-met`` at the
    accepted pair ``z = (x_hat, y_hat)`` once bounds ``b_x >= ||F_x(z)||``,
    ``b_y >= ||F_y(z)||`` on the saddle operator ``F = (grad_x f, -grad_y f)``
    certify the weighted target.  Strong monotonicity with ``F(z*) = 0``
    and Cauchy-Schwarz plus Young give

        mu_x ||dx||^2 + mu_y ||dy||^2 <= <F(z), z - z*>
                                      <= b_x^2 / mu_x + b_y^2 / mu_y,

    and weighing block i by ``1/(eta_i mu_i)`` bounds the weighted squared
    distance ``||dx||^2/eta_x + ||dy||^2/eta_y`` by
    ``max(1/(eta_x mu_x), 1/(eta_y mu_y)) (b_x^2/mu_x + b_y^2/mu_y)``; the
    run stops once that is at most ``eps``.

    Failing that, the run ends ``residual-met`` at the extrapolation point
    ``zg = (xg, yg)`` of the same step, where the composite gradients are
    exact.  With ``(r_x, r_y)`` the residual pairing them with the
    coupling gradient at ``z``, ``s = z - zg`` and
    ``D = diag(mu_x I, mu_y I)``, ``F(zg) = (r_x, r_y) + B(zg) - B(z)``
    for the ``L_R``-Lipschitz ``B = (grad_x R, -grad_y R)``, so

        ||D^-1/2 F(zg)|| <= b_g = sqrt(||r_x||^2/mu_x + ||r_y||^2/mu_y)
                                  + L_R ||s|| / sqrt(min(mu_x, mu_y)).

    The same strong-monotonicity step gives
    ``||D^1/2 (zg - z*)|| <= ||D^-1/2 F(zg)||``, so the run stops at
    ``zg`` once ``max(1/(eta_x mu_x), 1/(eta_y mu_y)) b_g^2 <= eps``.
    `residual_bounds` computes both bounds; the stop returns the point
    it certified.

    ``problem`` is wrapped here for counting; potential tracking uses it
    unwrapped, so its oracle calls are never tallied.  The diagnostics
    leave the tallies unchanged only when ``config.psi_0`` is given:
    otherwise the tracked initial potential sizes the budget.

    Parameters
    ----------
    inner_solver : callable, optional
        ``(aux, spec, tuning, inner_config) -> InnerResult``.  Defaults to
        `inner.solve_auxiliary`, forward-backward-forward on the
        subproblem.
    counters : OracleCounters, optional
        Tallies to count into, shared with oracles the caller counts
        itself (the bilinear path counts B/B^T products in its inner
        solver).  Fresh counters by default.
    """
    from .inner import AuxiliaryProblem, InnerConfig, fbf_vectors, solve_auxiliary

    validate_spec(spec)
    if not 0.0 < config.eps < math.inf or config.max_outer < 1:
        raise NonPositiveInput(
            f"need finite eps > 0 and max_outer >= 1, got {config.eps}, {config.max_outer}"
        )
    if config.psi_0 is not None and not 0.0 <= config.psi_0 < math.inf:
        raise NonPositiveInput(f"need a finite psi_0 >= 0, got {config.psi_0}")
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
    weight = max(1.0 / (eta_x * spec.mu_x), 1.0 / (eta_y * spec.mu_y))
    d_x, d_y = problem.d_x, problem.d_y
    # One stacked state z = (x, y); x and y are its block views.  With
    # E = (eta_x, -eta_y) per entry, the main update is z_hat - E g and the
    # residual g - (z_hat - z)/E, entry by entry the blockwise formulas with
    # the y signs flipped, which IEEE arithmetic does exactly.
    signed_eta = np.concatenate((np.full(d_x, eta_x), np.full(d_y, -eta_y)))
    vectors = fbf_vectors(spec, eta_x, eta_y, d_x, d_y)
    z = np.concatenate((start.x, start.y))
    x, y = z[:d_x], z[d_x:]
    zf = z

    # The guards below catch squares that overflow, here or in an oracle;
    # they raise DivergenceDetected without numpy's warning first.
    with np.errstate(over="ignore"):
        for k in range(planned):
            zg = z if alpha == 1.0 else alpha * z + (1.0 - alpha) * zf
            xg, yg = zg[:d_x], zg[d_x:]
            gp = counted.grad_p(xg)
            gq = counted.grad_q(yg)
            if gp.shape != (d_x,) or gq.shape != (d_y,):
                raise DimensionMismatch(
                    f"composite gradients have shapes {gp.shape}/{gq.shape}, "
                    f"expected ({d_x},)/({d_y},)"
                )

            aux = AuxiliaryProblem(
                counted.grad_R, gp, gq, x, y, eta_x, eta_y, counted.value_R, z, vectors
            )
            result = inner_solver(aux, spec, tuning, inner_cfg)
            pair = result.pair
            pair.check_dims(d_x, d_y)
            x_hat, y_hat = pair.x, pair.y
            # The library's inner solvers hand their stacked iterate back;
            # a custom one's blocks are stacked here, once.
            z_hat = pair._stacked
            if z_hat is None:
                z_hat = np.concatenate((x_hat, y_hat))
            g = np.concatenate((result.grad_x, result.grad_y))
            # Displacement from the outer iterate, shared by the
            # extrapolation update and the residual stop.
            d = z_hat - z

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
                        "g_x": result.grad_x.copy(),
                        "g_y": result.grad_y.copy(),
                        "inner_iterations": result.iterations,
                        "accepted_by": result.accepted_by,
                    }
                )

            # Main update; identical to stepping along the frozen composite
            # gradient plus the coupling gradient at the accepted pair.
            z = z_hat - signed_eta * g
            zf = z_hat if alpha == 1.0 else zg + alpha * d
            x, y = z[:d_x], z[d_x:]
            counters.outer_iterations += 1
            counters.inner_iterations += result.iterations
            report.inner_iterations.append(result.iterations)

            # Guard against magnitudes whose squares overflow before the
            # growth rule below could catch them; a custom inner solver need
            # not pass its iterates through check_inner_criterion's guard.
            # A NaN fails the test too.
            if not (x.dot(x) < 1e300 and y.dot(y) < 1e300):
                raise DivergenceDetected(f"non-finite or huge iterate at outer step {k}")

            if sol is not None:
                current = PointPair(x, y)
                wd = weighted_distance_sq(current, sol, eta_x, eta_y)
                report.weighted_dist_sq.append(wd)
                report.unweighted_dist_sq.append(unweighted_distance_sq(current, sol))
                n = len(report.weighted_dist_sq)
                if n > 10:
                    old = report.weighted_dist_sq[n - 11]
                    # Growth below the target scale is floating-point
                    # jitter, not divergence.
                    if old > 0.0 and wd >= 10.0 * old and wd > config.eps:
                        raise DivergenceDetected(
                            f"weighted distance grew {wd / old:.1f}x over 10 steps"
                        )
            if psi is not None:
                report.potentials.append(psi(x, y, zf[:d_x], zf[d_x:]))

            if config.use_residual_stop:
                # The residual pairs the composite gradients at zg with the
                # coupling gradient at the accepted pair, both exact; its y
                # block is formed negated, which leaves its norm unchanged.
                r = g - d / signed_eta
                s = z_hat - zg
                at_hat, at_g = residual_bounds(
                    _norm(r[:d_x]), _norm(r[d_x:]), _norm(s[:d_x]), _norm(s[d_x:]), spec
                )
                if weight * at_hat <= config.eps:
                    report.final_pair = PointPair(x_hat, y_hat)
                elif weight * at_g <= config.eps:
                    report.final_pair = PointPair(xg, yg)
                else:
                    continue
                report.termination = TERMINATION_RESIDUAL
                return report

    report.final_pair = PointPair(x, y)
    report.termination = TERMINATION_BUDGET
    return report
