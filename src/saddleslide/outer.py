"""Outer accelerated sliding loop.

Each outer step extrapolates the iterates, freezes the composite gradients
there, hands a prox-regularized saddle subproblem to an inner solver, and
accepts the inner result once a fully computable gradient criterion holds.
The composite oracles are therefore called exactly once per outer step,
while coupling-oracle work is confined to the inner solver.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import inner
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

X_DOMINANT = "x-dominant"
Y_DOMINANT = "y-dominant"

TERMINATION_BUDGET = "budget-exhausted"
TERMINATION_RESIDUAL = "residual-met"

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


def _tune_dominant(L: float, mu: float, mu_other: float):
    """``(alpha, eta, eta_other)`` for the dominant block's ``(L, mu)``."""
    alpha = 1.0 if L <= mu else math.sqrt(mu / L)
    eta = 1.0 / (3.0 * mu) if L * alpha <= mu else 1.0 / (3.0 * L * alpha)
    return alpha, eta, (mu / mu_other) * eta


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
        alpha, eta_x, eta_y = _tune_dominant(spec.L_p, spec.mu_x, spec.mu_y)
        branch = X_DOMINANT
    else:
        alpha, eta_y, eta_x = _tune_dominant(spec.L_q, spec.mu_y, spec.mu_x)
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


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer of at least ``least``.

    Floats are refused, not rounded: a budget of nan compares false with
    every count, so it would switch the budget off.  So are bools, which
    `operator.index` would take as 0 and 1.
    """
    if isinstance(value, bool):
        return False
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a real 1-D array, minus its dispatch.
    return math.sqrt(v.dot(v))


def residual_bounds(
    rx: float, ry: float, sx: float, sy: float, spec: SmoothnessSpec
) -> Tuple[float, float]:
    """Squared bounds on ``||D^1/2 (z - z*)||`` at the accepted pair and at zg.

    ``D = diag(mu_x I, mu_y I)`` and ``z*`` is the saddle.  ``rx``, ``ry``
    are the norms of the residual that pairs the composite gradients at
    the extrapolation point ``zg = (xg, yg)`` with the coupling gradient at
    the accepted pair ``z_hat = (x_hat, y_hat)``; ``sx``, ``sy`` are the
    norms of ``x_hat - xg`` and ``y_hat - yg``, and
    ``rho = sqrt(rx^2/mu_x + ry^2/mu_y)``.  At ``z_hat`` the bound is the
    smaller of two (`solve` proves both):

    - ``b_x^2/mu_x + b_y^2/mu_y`` with ``b_x = rx + L_p sx`` and
      ``b_y = ry + L_q sy``, which bound the saddle operator there;
    - ``u^2`` with ``u = (rho + sqrt(rho^2 + 4c))/2`` and
      ``c = (L_p sx^2 + L_q sy^2)/4``, from co-coercivity of the convex
      composites.

    At ``zg`` the coupling gradient is off by at most ``L_R ||(sx, sy)||``,
    which gives ``b_g = rho + L_R ||(sx, sy)|| / sqrt(min(mu_x, mu_y))``.
    Returns ``(bound at z_hat, b_g^2)``.
    """
    bx = rx + spec.L_p * sx
    by = ry + spec.L_q * sy
    rho = math.sqrt(rx * rx / spec.mu_x + ry * ry / spec.mu_y)
    c = (spec.L_p * sx * sx + spec.L_q * sy * sy) / 4.0
    u = (rho + math.sqrt(rho * rho + 4.0 * c)) / 2.0
    gap = spec.L_R * math.sqrt(sx * sx + sy * sy) / math.sqrt(min(spec.mu_x, spec.mu_y))
    b_g = rho + gap
    return min(bx * bx / spec.mu_x + by * by / spec.mu_y, u * u), b_g * b_g


@dataclass
class SolveConfig:
    """Knobs of a solve run.

    ``eps`` is the target for the weighted squared distance to the saddle;
    `solve` rejects it unless positive and finite, ``max_outer`` unless a
    positive integer, and a supplied ``psi_0`` unless finite and
    non-negative.  The outer budget is ``required_outer_iterations`` from
    a positive ``psi_0``, capped by ``max_outer``, and ``max_outer``
    without one; the diagnostics (``track_potential``, ``known_solution``,
    ``track_inner_details``) never change it.  ``use_residual_stop`` stops
    the run, within that budget, once a computable bound certifies the
    weighted squared distance ``eps`` at the accepted inner pair or at the
    extrapolation point, and returns that point; it costs no extra oracle
    calls.  The pair's bound takes the smaller of a bound on the
    saddle operator there and one from co-coercivity of the convex,
    ``L_p``- and ``L_q``-smooth composites (both proofs are in `solve`).
    """

    eps: float
    max_outer: int = 10_000
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
    ``certificate_ratio`` is the residual stop's certified bound over
    ``eps`` at the step it fired, at most 1: ``weight * bound / eps`` with
    the weight and bound of `solve`'s proof.  It is None unless the run
    ended ``residual-met``.
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
    certificate_ratio: Optional[float] = None


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
    update the main and extrapolation sequences.  Each subproblem but the
    first also carries the previous `InnerResult`'s ``remainder``, from
    which FBF and the bilinear conjugate gradients start warm; a custom
    inner solver's result without one leaves the next subproblem cold.
    The coupling oracle is called only inside the inner solver; its final
    evaluation doubles as the one the main update needs.  FBF's results
    bring their stacked terms (`InnerResult._terms`); any other result is
    checked and stacked here.  Composite gradients and inner results of
    the wrong shape raise DimensionMismatch.

    With ``config.use_residual_stop`` the run ends ``residual-met`` at the
    accepted pair ``z = (x_hat, y_hat)`` or at the step's extrapolation
    point ``zg = (xg, yg)``, where the composite gradients are exact, once
    a bound ``U >= mu_x ||dx||^2 + mu_y ||dy||^2 = ||D^1/2 (dx, dy)||^2``
    at that point certifies the weighted target; ``(dx, dy)`` is the
    point's offset from the saddle ``z*`` and ``D = diag(mu_x I, mu_y I)``.
    Weighing block i by ``1/(eta_i mu_i)`` bounds the weighted squared
    distance ``||dx||^2/eta_x + ||dy||^2/eta_y`` by
    ``weight U = max(1/(eta_x mu_x), 1/(eta_y mu_y)) U``, and the run stops
    once that is at most ``eps``, at the pair if its bound does it.
    Write ``F = (grad_x f, -grad_y f) = H + B`` for the saddle operator,
    with ``H = (grad p, grad q)`` monotone and ``B = (grad_x R, -grad_y R)``
    strongly monotone with moduli ``(mu_x, mu_y)`` and ``L_R``-Lipschitz;
    ``F(z*) = 0``.  ``r = (r_x, r_y) = H(zg) + B(z)`` is the residual
    pairing the composite gradients at ``zg`` with the coupling gradient
    at ``z``, ``s = (s_x, s_y) = z - zg`` and
    ``rho = ||D^-1/2 r|| = sqrt(||r_x||^2/mu_x + ||r_y||^2/mu_y)``.

    At ``z`` two bounds hold, and ``U`` is the smaller.  First, the
    operator bound: ``F(z) = r + H(z) - H(zg)``, so ``b_x = ||r_x|| + L_p
    ||s_x|| >= ||F_x(z)||`` and ``b_y = ||r_y|| + L_q ||s_y|| >= ||F_y(z)||``,
    and strong monotonicity with Cauchy-Schwarz plus Young give

        mu_x ||dx||^2 + mu_y ||dy||^2 <= <F(z), z - z*>
                                      <= b_x^2 / mu_x + b_y^2 / mu_y.

    Second, co-coercivity of the convex ``L_p``-smooth p (Nesterov 2004,
    Thm 2.1.5) gives ``<h, xg - x*> >= ||h||^2/L_p`` for
    ``h = grad p(xg) - grad p(x*)``, so with ``a = ||h||``

        <h, x_hat - x*> = <h, xg - x*> + <h, s_x> >= a^2/L_p - a ||s_x||
                        >= -L_p ||s_x||^2 / 4,

    and the same for q.  With ``c = (L_p ||s_x||^2 + L_q ||s_y||^2)/4``
    and ``u = ||D^1/2 (z - z*)||``, strong monotonicity of B then gives

        u^2 <= <B(z) - B(z*), z - z*> = <r, z - z*> - <H(zg) - H(z*), z - z*>
            <= rho u + c,

    so ``u <= (rho + sqrt(rho^2 + 4c))/2``.  Neither bound dominates: the
    first is the smaller when, say, ``L_p < mu_x/4`` and ``rho`` is small.

    At ``zg``, ``F(zg) = r + B(zg) - B(z)``, so

        ||D^-1/2 F(zg)|| <= b_g = rho + L_R ||s|| / sqrt(min(mu_x, mu_y)),

    and the strong-monotonicity step gives
    ``||D^1/2 (zg - z*)|| <= ||D^-1/2 F(zg)|| <= b_g``.  `residual_bounds`
    computes both values; the stop returns the point it certified and
    records ``weight U / eps`` as the report's ``certificate_ratio``.

    ``problem`` is wrapped here for counting; potential tracking uses it
    unwrapped, so its oracle calls are never tallied, and no diagnostic
    sizes the budget: the tallies are the same with tracking on or off.

    Parameters
    ----------
    inner_solver : callable, optional
        ``(aux, spec, tuning) -> InnerResult``.  Defaults to
        `inner.solve_auxiliary`, forward-backward-forward on the
        subproblem.
    counters : OracleCounters, optional
        Tallies to count into, shared with oracles the caller counts
        itself (the bilinear path counts B/B^T products in its inner
        solver).  Fresh counters by default.
    """
    validate_spec(spec)
    if not (0.0 < config.eps < math.inf and _is_count(config.max_outer, 1)):
        raise NonPositiveInput(
            f"need finite eps > 0 and an integer max_outer >= 1, "
            f"got {config.eps}, {config.max_outer}"
        )
    if config.psi_0 is not None and not 0.0 <= config.psi_0 < math.inf:
        raise NonPositiveInput(f"need a finite psi_0 >= 0, got {config.psi_0}")
    start.check_dims(problem.d_x, problem.d_y)
    tuning = tune_parameters(spec)
    if inner_solver is None:
        # Looked up per call, so that a patched `inner.solve_auxiliary`
        # (a profiler's span, say) takes effect.
        inner_solver = inner.solve_auxiliary

    counted, counters = wrap_counting(problem, counters)

    sol = config.known_solution
    psi = None
    psi_initial = None
    if config.track_potential and sol is not None:
        psi = potential(problem, tuning, sol)
        psi_initial = psi(start.x, start.y, start.x, start.y)

    if config.psi_0 is not None and config.psi_0 > 0.0:
        planned = min(
            config.max_outer, required_outer_iterations(spec, config.psi_0, config.eps)
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
    vectors = inner.fbf_vectors(spec, eta_x, eta_y, d_x, d_y)
    signed_eta = vectors.signed_eta
    # alpha and 1 - alpha in every entry: the same products as the
    # scalars', which numpy takes more slowly.
    a_alpha = np.full(d_x + d_y, alpha)
    a_beta = np.full(d_x + d_y, 1.0 - alpha)
    z = np.concatenate((start.x, start.y))
    x, y = z[:d_x], z[d_x:]
    zf = z
    remainder = None

    # The guards below catch squares that overflow, here or in an oracle;
    # they raise DivergenceDetected without numpy's warning first.
    with np.errstate(over="ignore"):
        for k in range(planned):
            zg = z if alpha == 1.0 else a_alpha * z + a_beta * zf
            xg, yg = zg[:d_x], zg[d_x:]
            gp = counted.grad_p(xg)
            gq = counted.grad_q(yg)
            if gp.shape != (d_x,) or gq.shape != (d_y,):
                raise DimensionMismatch(
                    f"composite gradients have shapes {gp.shape}/{gq.shape}, "
                    f"expected ({d_x},)/({d_y},)"
                )

            aux = inner.AuxiliaryProblem(
                counted.grad_R, gp, gq, x, y, eta_x, eta_y, counted.value_R, z, vectors,
                remainder,
            )
            result = inner_solver(aux, spec, tuning)
            # The remainder at the accepted pair warm-starts the next step.
            remainder = result.remainder
            # FBF hands back the stacked pair, gradients, displacement from
            # z and displacement over E; they are formed here for any other
            # result, in the same operations.
            terms = result._terms
            if terms is None:
                pair = result.pair
                pair.check_dims(d_x, d_y)
                z_hat = np.concatenate((pair.x, pair.y))
                g = np.concatenate((result.grad_x, result.grad_y))
                d = z_hat - z
                terms = z_hat, g, d, d / signed_eta
            z_hat, g, d, q = terms

            if config.track_inner_details:
                report.inner_logs.append(
                    {
                        "k": k,
                        "grad_p_g": gp.copy(),
                        "grad_q_g": gq.copy(),
                        "x_k": x.copy(),
                        "y_k": y.copy(),
                        "x_hat": result.pair.x.copy(),
                        "y_hat": result.pair.y.copy(),
                        "g_x": result.grad_x.copy(),
                        "g_y": result.grad_y.copy(),
                        "inner_iterations": result.iterations,
                        "accepted_by": result.accepted_by,
                    }
                )

            # Main update; identical to stepping along the frozen composite
            # gradient plus the coupling gradient at the accepted pair.
            z = z_hat - signed_eta * g
            zf = z_hat if alpha == 1.0 else zg + a_alpha * d
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
                r = g - q
                s = z_hat - zg
                at_hat, at_g = residual_bounds(
                    _norm(r[:d_x]), _norm(r[d_x:]), _norm(s[:d_x]), _norm(s[d_x:]), spec
                )
                if weight * at_hat <= config.eps:
                    pair = result.pair
                    report.final_pair, bound = PointPair(pair.x, pair.y), at_hat
                elif weight * at_g <= config.eps:
                    report.final_pair, bound = PointPair(xg, yg), at_g
                else:
                    continue
                report.termination = TERMINATION_RESIDUAL
                report.certificate_ratio = weight * bound / config.eps
                return report

    report.final_pair = PointPair(x, y)
    report.termination = TERMINATION_BUDGET
    return report
