"""Bilinear specialization: coupling x^T B y, with analytic dual elimination.

For ``min_x max_y p(x) + x^T B y - q(y)`` with strongly convex composites,
the strong convexity is moved into the coupling term and the prox
subproblem of each outer step collapses, after maximizing out y in closed
form, to an unconstrained quadratic in x solved by conjugate gradients,
which needs no spectral bounds.  Each CG run after a solve's first starts
from the x block of FBF's warm start.  Every B or B^T product is counted
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
the plans of `regularization` and share one regularized solve, which
certifies the primal block alone for the first and both blocks for the
second.  The affine reduction measures its constraint residual and resumes
the solve at a tightened target only when the residual misses its bound;
the linear-composite reduction restarts it in stages around its last
point.  Both report the tallies of all their runs summed.
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
from .inner import AuxiliaryProblem, InnerResult, accept_first, fbf_start
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
        lam_min = float(s[-1] ** 2) if s.size and d_x <= d_y else 0.0
        return cls(
            matvec=lambda v, _B=B: _B @ v,
            rmatvec=lambda v, _B=B: _B.T @ v,
            d_x=d_x,
            d_y=d_y,
            lambda_max_BBt=lam_max,
            lambda_min_BBt=lam_min,
        )


# The tridiagonal eigh runs after LANCZOS_CHECK steps, at each doubling of them,
# and at an invariant subspace: beta <= LANCZOS_ZERO max|alpha|.
LANCZOS_CHECK = 10
LANCZOS_TOL = 1e-6
LANCZOS_ZERO = 1e-10


def lanczos_extremes(matvec, dim, steps, *, seed=0):
    """Extreme eigenvalues of a symmetric operator by Lanczos.

    Starts from a random unit vector of ``np.random.default_rng(seed)`` (a
    Generator is drawn from in place); each new vector is orthogonalized
    against its two predecessors, then once against the whole basis, of up
    to ``n = min(steps, dim)`` vectors.  Stops at an invariant subspace,
    after n steps, or once each extreme Ritz residual ``beta_k |s_k|`` is at
    most ``LANCZOS_TOL`` of its own Ritz value.  Returns ``(lo, hi, res_lo,
    res_hi, products)``, all 0 if n is 0.  By interlacing, ``[lo, hi]`` lies
    inside the spectrum's range up to rounding; a residual bounds how far
    inside only given a gap to the rest.
    """
    n = min(steps, dim)
    if n == 0:
        return 0.0, 0.0, 0.0, 0.0, 0
    start = np.random.default_rng(seed).standard_normal((1, dim))
    basis = start / np.linalg.norm(start)
    alpha, beta, check = np.zeros(n), np.zeros(n), LANCZOS_CHECK
    for k in range(1, n + 1):
        known = basis[:k]
        w = matvec(known[-1])
        h = known[-2:] @ w
        alpha[k - 1] = h[-1]
        w = w - known[-2:].T @ h
        w = w - known.T @ (known @ w)
        size = np.max(np.abs(w))  # scaled, so that tiny entries' squares do not underflow
        beta[k - 1] = size * np.linalg.norm(w / size) if size > 0.0 else 0.0
        invariant = beta[k - 1] <= LANCZOS_ZERO * np.max(np.abs(alpha[:k]))
        if invariant or k == check or k == n:
            off = np.diag(beta[: k - 1], 1)
            theta, s = np.linalg.eigh(np.diag(alpha[:k]) + off + off.T)
            ends, res = theta[[0, -1]], beta[k - 1] * np.abs(s[-1, [0, -1]])
            if invariant or k == n or np.all(res <= LANCZOS_TOL * np.abs(ends)):
                return float(ends[0]), float(ends[1]), float(res[0]), float(res[1]), k
            check = 2 * k
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[k] = w / beta[k - 1]


def _cg_start(matvec, rmatvec, shift, rhs, x):
    """State of conjugate gradients on ``(shift I + B B^T) x = rhs`` at ``x``.

    The state is ``(x, B^T x, r, p, r^T r)``, with residual
    ``r = rhs - (shift I + B B^T) x`` and search direction ``p``, here
    ``r``; it costs one B^T and one B product.
    """
    bt_x = rmatvec(x)
    r = rhs - shift * x - matvec(bt_x)
    return x, bt_x, r, r, float(r.dot(r))


def _cg_step(matvec, rmatvec, shift, x, bt_x, r, p, rr):
    """The CG state one step after the given one, or None on breakdown.

    A step costs one B^T and one B product; B^T x is advanced with the
    step length, not recomputed.  Breakdown is a zero residual or
    ``p^T M p <= 0``, where the given state solves the system to machine
    precision; a zero residual ends without a product.  With ``shift > 0``
    the matrix is positive definite, so ``p^T M p <= 0`` means the product
    underflowed; the step length, a ratio, is then taken on ``r``, ``p``
    and ``M p`` divided by p's largest entry, and only a step that still
    fails there is a breakdown, with its two products made.
    """
    if rr == 0.0:
        return None
    bt_p = rmatvec(p)
    m_p = shift * p + matvec(bt_p)
    p_m_p = float(p.dot(m_p))
    if p_m_p <= 0.0:
        scale = float(np.max(np.abs(p)))
        if scale == 0.0:
            return None
        p_m_p = float((p / scale).dot(m_p / scale))
        if p_m_p <= 0.0:
            return None
        r_s = r / scale
        alpha = float(r_s.dot(r_s)) / p_m_p
    else:
        alpha = rr / p_m_p
    x = x + alpha * p
    bt_x = bt_x + alpha * bt_p
    r = r - alpha * m_p
    rr_next = float(r.dot(r))
    return x, bt_x, r, r + (rr_next / rr) * p, rr_next


def estimate_spectral_bounds(
    matvec: Callable, rmatvec: Callable, d_x: int, *, seed: int = 0
) -> Tuple[float, float, int]:
    """Estimate (lambda_max, lambda_min) of B B^T without forming it.

    Both ends come from one `lanczos_extremes` run on B B^T of up to
    ``d_x`` steps, with a basis of up to ``d_x`` vectors of length ``d_x``:
    exact but for rounding at ``d_x`` steps or an invariant subspace, else
    within about 1e-6 of themselves given a gap; lambda_min is floored at 0.
    Returns them and the B/B^T products, to log apart from oracle counts.
    """
    lo, hi, _, _, k = lanczos_extremes(lambda v: matvec(rmatvec(v)), d_x, d_x, seed=seed)
    return hi, max(lo, 0.0), 2 * k


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
    maximizer of the underlying saddle, ``(B^T x + y_offset)/shift`` with
    ``y_offset = y_k/eta_y - grad_q_anchor``.
    """

    matvec: Callable
    rmatvec: Callable
    kappa: float
    shift: float  # 1/eta_y + mu_q
    b: np.ndarray
    y_offset: np.ndarray

    def recover_y(self, x: np.ndarray, bt_x: Optional[np.ndarray] = None) -> np.ndarray:
        if bt_x is None:
            bt_x = self.rmatvec(x)
        return (bt_x + self.y_offset) / self.shift


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
        y_offset=y_k / eta_y - gq,
    )


def _cg_iterate(run, x, bt_x, r, p, rr):
    # The `accept_first` iterate at a CG state; one B product, for g_x.
    # The remainder slot carries the state itself, from which the next
    # step goes on and the accepted one's remainder is formed.
    qf, mu_p, aux, zero_y = run
    y = qf.recover_y(x, bt_x)
    dx = x - aux.x_k
    # g_x from its definition, rather than from the reduced gradient, whose
    # rounding noise unscaling would amplify by 1/shift.
    b_y = qf.matvec(y)
    g_x = aux.grad_p_anchor + dx / aux.eta_x + mu_p * x + b_y
    return x, y, dx, y - aux.y_k, g_x, zero_y, (x,), (b_y, bt_x, r, p, rr), None


def _cg_advance(run, it):
    # `accept_first`'s advance: the iterate one CG step after ``it``.
    qf = run[0]
    state = _cg_step(qf.matvec, qf.rmatvec, qf.kappa, it[0], *it[7][1:])
    return None if state is None else _cg_iterate(run, *state)


def make_bilinear_inner_solver(bp: BilinearProblem):
    """Inner solver closure: eliminate y, run CG until the outer criterion.

    The CG iterates, with their recovered y and subproblem gradients, go
    through the stop rule of `inner.accept_first`, stepped by `_cg_step`;
    a CG breakdown ends them and its last iterate is accepted as a stall.
    Building the linear term costs one B product and every checked iterate
    three B/B^T products, so a run of t steps makes 3t + 4.  ``bp`` should
    be the counting-wrapped problem so the products land in
    ``calls_grad_R``.

    Each iterate's y is the subproblem's exact maximizer given x, computed
    from CG's running ``B^T x``, so its y-gradient, ``B^T x - mu_q y -
    (y - y_k)/eta_y - grad_q_anchor`` on that same product, is zero but for
    rounding; it is returned as an exact zero, a read-only array shared by
    every run.

    On the split problem FBF's remainder ``b = r - M z`` is
    ``(B y, B^T x)``, both products every iterate has at hand; the result
    carries it at its pair, stacked once the run ends.  CG starts at the
    x block of FBF's start (`inner.fbf_start`): with ``aux.remainder`` set,
    the subproblem's exact minimizer in x with ``B y`` held at the
    previous accepted pair, and otherwise ``x_k``; the start costs the
    same two products either way.
    """
    zero_y = np.zeros(bp.d_y)
    zero_y.flags.writeable = False

    def inner(
        aux: AuxiliaryProblem, spec: SmoothnessSpec, tuning: SolverTuning
    ) -> InnerResult:
        qf = eliminate_y(bp, aux)
        x_0 = fbf_start(aux, spec)[0][: len(aux.x_k)]
        # The reduced gradient is (kappa I + B B^T) x + b.
        run = (qf, bp.mu_p, aux, zero_y)
        first = _cg_iterate(run, *_cg_start(qf.matvec, qf.rmatvec, qf.kappa, -qf.b, x_0))
        result = accept_first(first, _cg_advance, run, tuning)
        result.remainder = np.concatenate(result.remainder[:2])
        return result

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
    primal_only: bool = False,
) -> ConvergenceReport:
    """Solve a regularized reduction's saddle from ``start``.

    ``target`` is the plain squared distance to reach.  The outer loop
    bounds the step-weighted ``W = ||x - x_r||^2/eta_x + ||y - y_r||^2/eta_y``
    to the regularized saddle ``(x_r, y_r)``, both by its planned budget
    and by its residual certificate, so ``target`` is scaled to a bound on
    ``W``.  By default it is divided by ``max(1, eta_x, eta_y)``, which
    certifies the joint distance, both blocks together, to ``target``.
    With ``primal_only`` it is divided by ``max(1, eta_x)`` only: since
    ``W >= ||x - x_r||^2/eta_x``, that certifies the x block alone, and
    says nothing about y.  The run stops once the certificate proves the
    scaled target, with the planned budget, capped by ``max_outer``, as
    its cap.  ``x_reach`` and ``y_reach`` bound the distances of the
    saddle's blocks from ``start`` and size the a priori potential bound,
    of which only the logarithm matters.
    """
    _, spec = split_bilinear(bp)
    tuning = tune_parameters(spec)
    psi_0 = 2.0 * (
        (1.0 / tuning.eta_x + spec.L_p / tuning.alpha) * (x_reach + 1.0) ** 2
        + (1.0 / tuning.eta_y) * (y_reach + 1.0) ** 2
    )
    # The y block's step enters the scale only when y is certified too.
    eta_y = 0.0 if primal_only else tuning.eta_y
    config = SolveConfig(
        eps=target / max(1.0, tuning.eta_x, eta_y),
        max_outer=max_outer,
        psi_0=psi_0,
        use_residual_stop=True,
    )
    return solve_bilinear(bp, start, config)


def _summed(reports) -> ConvergenceReport:
    """The last of consecutive runs, with the tallies of all of them.

    The tallies and planned budgets are summed; point, termination,
    tuning and target are the last run's.
    """
    totals = OracleCounters()
    for name in totals.as_dict():
        setattr(totals, name, sum(getattr(r.counters, name) for r in reports))
    return dataclasses.replace(
        reports[-1],
        counters=totals,
        planned_outer=sum(r.planned_outer for r in reports),
    )


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
) -> ConvergenceReport:
    """Minimize p subject to ``B^T x = c`` through the regularized saddle.

    The equivalent saddle ``min_x max_y p(x) + x^T B y - y^T c`` gets
    `plan_scc`'s dual regularizer ``(eps/(12 D^2)) ||y||^2`` with
    ``D = max(D_y, sqrt(eps)/3)``; an x within squared distance 2 eps / 3
    of the regularized saddle's x is an eps-solution of the constrained
    problem, whatever y goes with it.  ``D_y`` must bound the norm of some
    dual solution ``y+``, and so does any larger D.  The solve certifies
    the primal block only (`_solve_regularized`'s ``primal_only``): the
    report's y is the regularized dual iterate and carries no accuracy
    guarantee.

    The constraint residual ``||B^T x - c||`` of the returned x is then
    measured, with one B^T product outside the tallies, and the solve
    returns once it is within ``sqrt(eps) (1 + ||c||)``.  Otherwise it
    resumes from the returned pair at the tightened target
    ``min(2 eps/3, eps/(4 max(1, lambda_max(BB^T))))``, with what is left
    of ``max_outer`` and reach bounds taken from the new start by the
    triangle inequality, and measures the residual again, one more B^T
    product outside the tallies.  The report is the resumed run's, with
    both runs' tallies summed and their inner iterations listed in order.
    A first run that used up ``max_outer`` is not resumed.

    The tightened target provably meets the residual bound.  The
    regularized saddle ``(x_r, y_r)`` has ``B^T x_r - c = 2 coeff_y y_r``
    and, as the maximizer of the dual function minus the regularizer,
    ``||y_r|| <= ||y+|| <= D``, so its residual is at most
    ``eps/(6 D) <= sqrt(eps)/2``.  A point within ``eps/(4 max(1,
    lambda_max))`` of ``x_r`` adds at most ``sqrt(lambda_max) sqrt(eps/(4
    max(1, lambda_max))) <= sqrt(eps)/2``.  Without the floor on D the
    first term is unbounded as D_y shrinks.

    Each run ends once the outer loop certifies its target; the planned
    budget stays the cap.

    Raises
    ------
    InfeasibleTarget
        If the residual still exceeds ``sqrt(eps)(1 + ||c||)`` after the
        tightened run, or after a first run that used up ``max_outer``:
        c lies outside range(B^T), D_y underestimates the dual norm, or
        the budget ran out.
    """
    plan_scc(eps, D_y)  # rejects non-positive or non-finite inputs
    D_y = max(D_y, math.sqrt(eps) / 3.0)
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
    bound = math.sqrt(eps) * (1.0 + np.linalg.norm(c))
    origin = PointPair(np.zeros(coupling.d_x), np.zeros(coupling.d_y))
    runs = [
        _solve_regularized(
            bp, origin, plan.inner_target, x_reach, D_y, max_outer, primal_only=True
        )
    ]
    residual = float(np.linalg.norm(coupling.rmatvec(runs[0].final_pair.x) - c))
    budget = max_outer - runs[0].counters.outer_iterations
    if residual > bound and budget > 0:
        start = runs[0].final_pair
        target = min(plan.inner_target, eps / (4.0 * max(1.0, coupling.lambda_max_BBt)))
        runs.append(
            _solve_regularized(
                bp, start, target, x_reach + np.linalg.norm(start.x),
                D_y + np.linalg.norm(start.y), budget, primal_only=True,
            )
        )
        residual = float(np.linalg.norm(coupling.rmatvec(runs[1].final_pair.x) - c))
    if residual > bound:
        raise InfeasibleTarget(
            f"constraint residual {residual:.3e} did not reach {bound:.3e}; "
            "is c in range(B^T) and D_y large enough?"
        )
    report = _summed(runs)
    report.constraint_residual = residual
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

    Each stage ends once the outer loop certifies its target, with its
    planned budget as the cap.  ``max_outer`` caps the outer steps of all
    stages together, and the last stage ends ``budget-exhausted`` when it
    runs out.

    Raises
    ------
    BudgetExhausted
        When a stage before the last ends without its certificate, since
        its point then proves no radius for the next stage, or uses up
        ``max_outer``, which leaves the next stage no step.
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
        report = _solve_regularized(bp, center, plan.inner_target, reach, reach, budget)
        stages.append(report)
        budget -= report.counters.outer_iterations
        if target == eps:
            break
        if report.termination != TERMINATION_RESIDUAL or budget == 0:
            raise BudgetExhausted(
                f"stage {len(stages)} (target {target:.3e}) ended "
                f"{report.termination} with {budget} of max_outer={max_outer} "
                "left, before the last"
            )
        center = report.final_pair
        previous = target

    return _summed(stages)
