"""Bilinear specialization: coupling x^T B y, with analytic dual elimination.

For ``min_x max_y p(x) + x^T B y - q(y)`` with strongly convex composites,
the strong convexity is moved into the coupling term and the prox
subproblem of each outer step collapses, after maximizing out y in closed
form, to an unconstrained quadratic in x solved by conjugate gradients,
which needs no spectral bounds.  Every B or B^T product is counted
individually, so coupling cost is measured in matrix-vector products.

The reduced quadratic is ``x^T A x + b^T x`` (up to a constant) with

    A = (1/2) ((1/eta_x + mu_p)(1/eta_y + mu_q) I + B B^T)
    b = (1/eta_y + mu_q) (gp - x_k/eta_x) - B (gq - y_k/eta_y)

where gp, gq are the frozen split-composite gradients.  The whole
objective is scaled by (1/eta_y + mu_q) relative to the direct reduction,
which leaves the minimizer unchanged; b here comes from an independent
re-derivation verified against direct saddle solves (see the
elimination-consistency tests).

The two regularized reductions, affinely constrained minimization and
fully linear composites, size their regularizers and accuracy targets by
the plans of `regularization` and share one regularized solve; the
linear-composite reduction restarts it in stages around its last point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    BudgetExhausted,
    InconsistentConstants,
    InfeasibleTarget,
    NonPositiveModulus,
)
from .inner import AuxiliaryProblem, InnerConfig, InnerResult, accept_first
from .outer import (
    TERMINATION_RESIDUAL,
    ConvergenceReport,
    SolveConfig,
    SolverTuning,
    solve,
    tune_parameters,
)
from .problems import (
    CompositeSaddleProblem,
    OracleCounters,
    PointPair,
    SmoothnessSpec,
    check_shape,
    count_calls,
)
from .regularization import plan_cc, plan_scc

# Each stage of `solve_bilinear_linear_composites` aims at this fraction
# of the previous stage's target.
STAGE_RATIO = 1e-2


@dataclass(frozen=True)
class CouplingOperator:
    """Matrix-free coupling B with spectral bounds of B B^T.

    ``matvec`` maps y to B y (length d_x), ``rmatvec`` maps x to B^T x
    (length d_y).  ``lambda_max_BBt`` sets the coupling's smoothness
    constant; ``lambda_min_BBt`` is read only by the linear-composite
    reduction, which needs it positive.  Rank-deficient couplings such as
    graph Laplacians may declare it 0: the inner solver needs no floor.
    """

    matvec: Callable[[np.ndarray], np.ndarray]
    rmatvec: Callable[[np.ndarray], np.ndarray]
    d_x: int
    d_y: int
    lambda_max_BBt: float
    lambda_min_BBt: float

    def __post_init__(self):
        if not (self.lambda_max_BBt >= self.lambda_min_BBt >= 0.0):
            raise InconsistentConstants(
                f"need lambda_max >= lambda_min >= 0, got "
                f"{self.lambda_max_BBt}, {self.lambda_min_BBt}"
            )

    @classmethod
    def from_dense(cls, B: np.ndarray) -> "CouplingOperator":
        B = np.asarray(B, dtype=float)
        d_x, d_y = B.shape
        s = np.linalg.svd(B, compute_uv=False)
        lam_max = float(s[0] ** 2) if s.size else 0.0
        lam_min = float(s[-1] ** 2) if d_x <= d_y else 0.0
        return cls(
            matvec=lambda v, _B=B: _B @ v,
            rmatvec=lambda v, _B=B: _B.T @ v,
            d_x=d_x,
            d_y=d_y,
            lambda_max_BBt=lam_max,
            lambda_min_BBt=lam_min,
        )


def power_lambda_max(matvec, dim, seed=0, iters=100, tol=1e-6) -> float:
    """Top eigenvalue of a symmetric positive semidefinite operator.

    Power iteration from a random unit vector drawn from
    ``np.random.default_rng(seed)`` (a Generator is drawn from in place),
    stopped once successive Rayleigh quotients agree to relative ``tol``
    or after ``iters`` products.  Returns 0 when the operator maps the
    iterate to zero.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matvec(v)
        new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(new - lam) <= tol * max(abs(new), 1e-30):
            return new
        lam = new
    return lam


def _cg_iterates(matvec, rmatvec, shift, rhs, x):
    """Conjugate gradients on ``(shift I + B B^T) x = rhs``.

    Yields ``(x, B^T x, r)`` with residual ``r = rhs - (shift I + B B^T) x``
    for the start and then after each step.  The start costs one B^T and
    one B product, and so does each step; B^T x is advanced with the step
    length, not recomputed.  The iterates end on breakdown (zero residual
    or ``p^T M p <= 0``), where the last one solves the system to machine
    precision, and otherwise never: the caller owns the budget.
    """
    x = np.array(x, dtype=float)
    bt_x = rmatvec(x)
    r = rhs - shift * x - matvec(bt_x)
    p = r
    rr = float(r @ r)
    while True:
        yield x, bt_x, r
        if rr == 0.0:
            return
        bt_p = rmatvec(p)
        m_p = shift * p + matvec(bt_p)
        p_m_p = float(p @ m_p)
        if p_m_p <= 0.0:
            return
        alpha = rr / p_m_p
        x = x + alpha * p
        bt_x = bt_x + alpha * bt_p
        r = r - alpha * m_p
        rr_next = float(r @ r)
        p = r + (rr_next / rr) * p
        rr = rr_next


def estimate_spectral_bounds(
    matvec: Callable,
    rmatvec: Callable,
    d_x: int,
    d_y: int,
    iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> Tuple[float, float, int]:
    """Estimate (lambda_max, lambda_min) of B B^T without forming it.

    lambda_max comes from power iteration on B B^T; lambda_min from inverse
    power iteration on the slightly shifted B B^T + delta I, each inverse
    application computed by conjugate gradients to relative residual 1e-9
    (BudgetExhausted if one takes more than 50,000 steps).  Returns the
    estimates and the number of B/B^T products spent, which callers
    should log separately from solver oracle counts.
    """
    rng = np.random.default_rng(seed)
    used = OracleCounters()
    matvec = count_calls(matvec, used, "calls_grad_R")
    rmatvec = count_calls(rmatvec, used, "calls_grad_R")

    def bbt(v):
        return matvec(rmatvec(v))

    lam_max = power_lambda_max(bbt, d_x, seed=rng, iters=iters, tol=tol)
    if lam_max <= 0.0:
        return 0.0, 0.0, used.calls_grad_R

    delta = 1e-6 * lam_max
    u = rng.standard_normal(d_x)
    u /= np.linalg.norm(u)
    lam_min = lam_max
    for _ in range(iters):
        # z = (B B^T + delta I)^{-1} u
        stop = 1e-9 * np.linalg.norm(u)
        for t, (z, _, r) in enumerate(
            _cg_iterates(matvec, rmatvec, delta, u, u / (lam_max + delta))
        ):
            if np.linalg.norm(r) <= stop:
                break
            if t >= 50_000:
                raise BudgetExhausted("inverse power step unsolved after 50000 CG steps")
        nz = np.linalg.norm(z)
        if nz == 0.0:
            break
        u = z / nz
        lam = float(u @ bbt(u))
        if abs(lam - lam_min) <= tol * max(abs(lam), 1e-30):
            lam_min = lam
            break
        lam_min = lam
    return lam_max, max(lam_min, 0.0), used.calls_grad_R


@dataclass(frozen=True)
class BilinearProblem:
    """``min_x max_y p(x) + x^T B y - q(y)`` with strongly convex p and q."""

    grad_p: Callable[[np.ndarray], np.ndarray]
    grad_q: Callable[[np.ndarray], np.ndarray]
    L_p: float
    mu_p: float
    L_q: float
    mu_q: float
    coupling: CouplingOperator
    value_p: Optional[Callable] = None
    value_q: Optional[Callable] = None

    @property
    def d_x(self) -> int:
        return self.coupling.d_x

    @property
    def d_y(self) -> int:
        return self.coupling.d_y


def wrap_counting_bilinear(
    bp: BilinearProblem,
) -> Tuple[BilinearProblem, OracleCounters]:
    """Count composite gradients and individual B/B^T products.

    Each matvec or rmatvec adds one to ``calls_grad_R``.
    """
    counters = OracleCounters()
    coupling = dataclasses.replace(
        bp.coupling,
        matvec=count_calls(bp.coupling.matvec, counters, "calls_grad_R"),
        rmatvec=count_calls(bp.coupling.rmatvec, counters, "calls_grad_R"),
    )
    wrapped = dataclasses.replace(
        bp,
        grad_p=count_calls(bp.grad_p, counters, "calls_grad_p"),
        grad_q=count_calls(bp.grad_q, counters, "calls_grad_q"),
        coupling=coupling,
    )
    return wrapped, counters


def split_bilinear(bp: BilinearProblem) -> Tuple[CompositeSaddleProblem, SmoothnessSpec]:
    """Move the composite strong convexity into the coupling term.

    Returns the composite problem with ``p~(x) = p(x) - (mu_p/2)||x||^2``,
    ``q~(y) = q(y) - (mu_q/2)||y||^2`` and
    ``R(x, y) = (mu_p/2)||x||^2 + x^T B y - (mu_q/2)||y||^2``, together
    with its smoothness constants (``L_R`` uses the safe bound
    ``mu_p + mu_q + sqrt(lambda_max(B B^T))``).
    """
    if bp.mu_p <= 0.0 or bp.mu_q <= 0.0:
        raise NonPositiveModulus(f"mu_p={bp.mu_p}, mu_q={bp.mu_q} must be positive")
    mu_p, mu_q = bp.mu_p, bp.mu_q
    coupling = bp.coupling

    # A wrongly shaped gradient would broadcast against the modulus term.
    def grad_p_tilde(x):
        return check_shape(bp.grad_p(x), x, "grad_p") - mu_p * x

    def grad_q_tilde(y):
        return check_shape(bp.grad_q(y), y, "grad_q") - mu_q * y

    def grad_R(x, y):
        return mu_p * x + coupling.matvec(y), coupling.rmatvec(x) - mu_q * y

    value_p = value_q = value_R = None
    if bp.value_p is not None:
        value_p = lambda x: bp.value_p(x) - 0.5 * mu_p * float(x @ x)
    if bp.value_q is not None:
        value_q = lambda y: bp.value_q(y) - 0.5 * mu_q * float(y @ y)
    value_R = lambda x, y: (
        0.5 * mu_p * float(x @ x)
        + float(x @ coupling.matvec(y))
        - 0.5 * mu_q * float(y @ y)
    )

    problem = CompositeSaddleProblem(
        d_x=coupling.d_x,
        d_y=coupling.d_y,
        grad_p=grad_p_tilde,
        grad_q=grad_q_tilde,
        grad_R=grad_R,
        value_p=value_p,
        value_q=value_q,
        value_R=value_R,
    )
    spec = SmoothnessSpec(
        L_p=max(bp.L_p - mu_p, 0.0),
        L_q=max(bp.L_q - mu_q, 0.0),
        L_R=mu_p + mu_q + math.sqrt(coupling.lambda_max_BBt),
        mu_x=mu_p,
        mu_y=mu_q,
    )
    return problem, spec


@dataclass
class QuadraticForm:
    """Reduced objective ``x^T A x + b^T x`` with matrix-free A.

    ``A = (kappa I + B B^T)/2``, applied through ``matvec`` and
    ``rmatvec``.  ``recover_y`` maps an x-candidate to the exact inner
    maximizer of the underlying saddle.
    """

    matvec: Callable
    rmatvec: Callable
    kappa: float
    shift: float  # 1/eta_y + mu_q
    b: np.ndarray
    eta_y: float
    y_anchor: np.ndarray
    grad_q_anchor: np.ndarray

    def recover_y(self, x: np.ndarray, bt_x: Optional[np.ndarray] = None) -> np.ndarray:
        if bt_x is None:
            bt_x = self.rmatvec(x)
        return (bt_x - self.grad_q_anchor + self.y_anchor / self.eta_y) / self.shift


def eliminate_y(bp: BilinearProblem, aux: AuxiliaryProblem) -> QuadraticForm:
    """Reduce the bilinear prox subproblem to a quadratic in x.

    ``aux`` must carry the split-composite gradients as its anchors (the
    form the outer loop builds when running on `split_bilinear` output).
    The minimizer x of the returned form together with ``recover_y(x)`` is
    the unique saddle of the subproblem.
    """
    x_k, y_k, gq = aux.x_k, aux.y_k, aux.grad_q_anchor
    eta_x, eta_y = aux.eta_x, aux.eta_y
    shift = 1.0 / eta_y + bp.mu_q
    kappa = (1.0 / eta_x + bp.mu_p) * shift
    b = shift * (aux.grad_p_anchor - x_k / eta_x) - bp.coupling.matvec(gq - y_k / eta_y)
    return QuadraticForm(
        matvec=bp.coupling.matvec,
        rmatvec=bp.coupling.rmatvec,
        kappa=kappa,
        shift=shift,
        b=b,
        eta_y=eta_y,
        y_anchor=y_k,
        grad_q_anchor=gq,
    )


def make_bilinear_inner_solver(bp: BilinearProblem):
    """Inner solver closure: eliminate y, run CG until the outer criterion.

    The CG iterates, with their recovered y and subproblem gradients, go
    through the stop rule of `inner.accept_first`; a CG breakdown ends them
    and its last iterate is accepted as a stall.  Building the linear term
    costs one B product and every checked iterate three B/B^T products, so
    a run of t steps makes 3t + 4.  ``bp`` should be the counting-wrapped
    problem so the products land in ``calls_grad_R``.
    """

    def inner(
        aux: AuxiliaryProblem,
        spec: SmoothnessSpec,
        tuning: SolverTuning,
        config: InnerConfig,
    ) -> InnerResult:
        qf = eliminate_y(bp, aux)

        def iterates():
            # The reduced gradient is (kappa I + B B^T) x + b.
            cg = _cg_iterates(qf.matvec, qf.rmatvec, qf.kappa, -qf.b, aux.x_k)
            for x, bt_x, _ in cg:
                y = qf.recover_y(x, bt_x)
                dx = x - aux.x_k
                dy = y - aux.y_k
                # Evaluate the subproblem gradients from their definition
                # (one extra B product) rather than unscaling the reduced
                # gradient, which would amplify its rounding noise by 1/shift.
                g_x = (aux.grad_p_anchor + dx / tuning.eta_x
                       + bp.mu_p * x + bp.coupling.matvec(y))
                g_y = bt_x - bp.mu_q * y - dy / tuning.eta_y - aux.grad_q_anchor
                yield x, y, dx, dy, g_x, g_y, (x,), None

        return accept_first(iterates(), aux, tuning, config)

    return inner


def solve_bilinear(
    bp: BilinearProblem, start: PointPair, config: SolveConfig
) -> ConvergenceReport:
    """Sliding solver specialized to bilinear coupling.

    Splits the composites, then runs `solve` with ``config`` and the
    elimination-plus-CG inner solver.  ``counters.calls_grad_R`` in the
    report counts individual B/B^T products.
    """
    wrapped, counters = wrap_counting_bilinear(bp)
    composite, spec = split_bilinear(bp)
    return solve(
        composite,
        spec,
        start,
        config,
        inner_solver=make_bilinear_inner_solver(wrapped),
        counters=counters,
    )


def _solve_regularized(
    bp: BilinearProblem,
    start: PointPair,
    target: float,
    x_reach: float,
    y_reach: float,
    max_outer: int,
    use_residual_stop: bool,
) -> ConvergenceReport:
    """Solve a regularized reduction's saddle from ``start``.

    ``target`` is the plain squared distance to reach; the outer loop
    measures the step-weighted one, so it is scaled by
    ``max(1, eta_x, eta_y)``.  ``x_reach`` and ``y_reach`` bound the
    distances of the saddle's blocks from ``start`` and size the a priori
    potential bound, of which only the logarithm matters.
    ``use_residual_stop`` ends the run early once the outer loop's
    certificate proves that scaled target.
    """
    _, spec = split_bilinear(bp)
    tuning = tune_parameters(spec)
    psi_0 = 2.0 * (
        (1.0 / tuning.eta_x + spec.L_p / tuning.alpha) * (x_reach + 1.0) ** 2
        + (1.0 / tuning.eta_y) * (y_reach + 1.0) ** 2
    )
    config = SolveConfig(
        eps=target / max(1.0, tuning.eta_x, tuning.eta_y),
        max_outer=max_outer,
        psi_0=psi_0,
        use_residual_stop=use_residual_stop,
    )
    return solve_bilinear(bp, start, config)


def solve_affine_constrained(
    grad_p: Callable,
    L_p: float,
    mu_p: float,
    coupling: CouplingOperator,
    c: np.ndarray,
    D_y: float,
    eps: float,
    *,
    max_outer: int = 100_000,
    use_residual_stop: bool = False,
) -> ConvergenceReport:
    """Minimize p subject to ``B^T x = c`` through the regularized saddle.

    The equivalent saddle ``min_x max_y p(x) + x^T B y - y^T c`` gets
    `plan_scc`'s dual regularizer ``(eps/(12 D_y^2)) ||y||^2``; solving it
    to accuracy 2 eps / 3 certifies an eps-solution of the constrained
    problem.  The solve target is additionally tightened to
    ``eps / (4 lambda_max(BB^T))`` so the constraint residual of the final
    primal lands below ``sqrt(eps) (1 + ||c||)``.  ``D_y`` must bound the
    norm of some dual solution.

    ``use_residual_stop`` ends the solve once the outer loop certifies its
    target; the planned budget stays the cap.

    Raises
    ------
    InfeasibleTarget
        If the final constraint residual exceeds ``sqrt(eps)(1 + ||c||)``,
        signalling c outside range(B^T) or an underestimated D_y.
    """
    plan = plan_scc(eps, D_y)
    if mu_p <= 0.0:
        raise NonPositiveModulus(f"mu_p={mu_p}")
    c = np.asarray(c, dtype=float)
    mu_q = 2.0 * plan.coeff_y

    def grad_q(y):
        return c + mu_q * y

    bp = BilinearProblem(
        grad_p=grad_p,
        grad_q=grad_q,
        L_p=L_p,
        mu_p=mu_p,
        L_q=mu_q,
        mu_q=mu_q,
        coupling=coupling,
    )
    # The saddle's x-block is within ||grad p(0)||/mu_p
    # + sqrt(lambda_max) D_y / mu_p of the origin, its y-block within D_y.
    gp0 = np.linalg.norm(grad_p(np.zeros(coupling.d_x)))
    x_reach = gp0 / mu_p + math.sqrt(coupling.lambda_max_BBt) * D_y / mu_p
    target = min(plan.inner_target, eps / (4.0 * max(1.0, coupling.lambda_max_BBt)))
    origin = PointPair(np.zeros(coupling.d_x), np.zeros(coupling.d_y))
    report = _solve_regularized(
        bp, origin, target, x_reach, D_y, max_outer, use_residual_stop
    )
    residual = float(np.linalg.norm(coupling.rmatvec(report.final_pair.x) - c))
    report.constraint_residual = residual
    if residual > math.sqrt(eps) * (1.0 + np.linalg.norm(c)):
        raise InfeasibleTarget(
            f"constraint residual {residual:.3e} did not reach "
            f"{math.sqrt(eps) * (1.0 + np.linalg.norm(c)):.3e}; "
            "is c in range(B^T) and D_y large enough?"
        )
    return report


def solve_bilinear_linear_composites(
    d: np.ndarray,
    c: np.ndarray,
    coupling: CouplingOperator,
    D_x: float,
    D_y: float,
    eps: float,
    *,
    max_outer: int = 100_000,
    use_residual_stop: bool = False,
) -> ConvergenceReport:
    """Solve ``min_x max_y x^T d + x^T B y - y^T c`` by restarted regularization.

    Requires full row rank coupling (lambda_min(B B^T) > 0) and norm
    bounds ``||x*|| <= D_x``, ``||y*|| <= D_y`` on the solution.  The
    solve runs in stages, an inexact proximal-point scheme (Allen-Zhu &
    Hazan 2016; Lin, Mairal & Harchaoui 2015).  With ``T_0 = D_x^2 + D_y^2``,
    stage j aims at ``T_j = max(eps, STAGE_RATIO T_{j-1})`` and the stage
    whose target is eps is the last.  It puts ``(mu/2)||.||^2``
    regularizers on both blocks, centred on the point stage j - 1 returned
    (the origin for the first), starts there, and solves the regularized
    problem to unweighted squared distance ``T_j/2``.

    The regularized saddle is ``mu (mu I + M)^-1`` of the centre's error,
    ``M`` the skew coupling operator, so it is ``mu/sqrt(mu^2 +
    lambda_min(B B^T))`` times as far from the saddle as the centre.  ``mu``
    is `plan_cc`'s ``T_j/(8 T_{j-1})``, capped so that this factor is at
    most ``(1 - 1/sqrt(2)) sqrt(T_j/T_{j-1})``; the stage's point, within
    ``sqrt(T_j/2)`` of the regularized saddle, is then within ``sqrt(T_j)``
    of the saddle, the next stage's radius.  Every
    stage runs at a ratio ``T_j/T_{j-1}`` of at least ``STAGE_RATIO``, far
    above the float64 floor of one regularization around the origin, and
    the cost grows like ``log(1/eps)``.  The report sums the stages'
    tallies and planned budgets, lists their inner iterations in order, and
    holds the last stage's point and tuning.

    ``max_outer`` caps the outer steps of all stages together, and the
    last stage ends ``budget-exhausted`` when it runs out.
    ``use_residual_stop`` ends each stage once the outer loop certifies
    its target, with its planned budget as the cap; without it each stage
    runs its planned budget, which certifies the target a priori.

    Raises
    ------
    BudgetExhausted
        When a stage before the last ends without its certificate, since
        its point then proves no radius for the next stage: under
        ``use_residual_stop`` when it ends uncertified, and in either mode
        when ``max_outer`` runs out.
    """
    plan_cc(eps, D_x, D_y)  # rejects non-positive or non-finite inputs
    lambda_min = coupling.lambda_min_BBt
    if lambda_min <= 0.0:
        raise InconsistentConstants(
            f"lambda_min(B B^T)={lambda_min} must be positive"
        )
    d = np.asarray(d, dtype=float)
    c = np.asarray(c, dtype=float)
    center = PointPair(np.zeros(coupling.d_x), np.zeros(coupling.d_y))
    previous = D_x**2 + D_y**2
    budget = max_outer
    stages = []
    while True:
        target = max(eps, STAGE_RATIO * previous)
        radius = math.sqrt(previous)
        plan = plan_cc(target, radius, radius)
        mu = 2.0 * plan.coeff_x
        shrink = (1.0 - math.sqrt(0.5)) * math.sqrt(target / previous)
        if shrink < 1.0:
            mu = min(mu, shrink * math.sqrt(lambda_min / (1.0 - shrink**2)))
        x_c, y_c = center.x, center.y
        # Re-centring the regularizers moves no data through B.
        bp = BilinearProblem(
            grad_p=lambda x: d + mu * (x - x_c),
            grad_q=lambda y: c + mu * (y - y_c),
            L_p=mu,
            mu_p=mu,
            L_q=mu,
            mu_q=mu,
            coupling=coupling,
        )
        reach = radius + math.sqrt(target)
        report = _solve_regularized(
            bp, center, plan.inner_target, reach, reach, budget, use_residual_stop
        )
        stages.append(report)
        budget -= report.counters.outer_iterations
        if target == eps:
            break
        if use_residual_stop and report.termination != TERMINATION_RESIDUAL:
            raise BudgetExhausted(
                f"stage {len(stages)} (target {target:.3e}) ended "
                f"{report.termination} without its certificate"
            )
        if budget == 0:
            raise BudgetExhausted(
                f"max_outer={max_outer} ran out at stage {len(stages)} "
                f"(target {target:.3e}), before the last"
            )
        center = report.final_pair
        previous = target

    totals = OracleCounters()
    for name in totals.as_dict():
        setattr(totals, name, sum(getattr(s.counters, name) for s in stages))
    return dataclasses.replace(
        report,
        counters=totals,
        planned_outer=sum(s.planned_outer for s in stages),
        inner_iterations=[n for s in stages for n in s.inner_iterations],
    )
