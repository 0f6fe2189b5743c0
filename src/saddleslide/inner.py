"""Prox subproblem of the outer loop and its forward-backward-forward solver.

The subproblem, `AuxiliaryProblem`, freezes the composite gradients and
adds proximal quadratics around the current outer iterate, leaving a
strongly convex-concave saddle in the coupling term alone; `outer.solve`
builds one per outer step and hands it to an inner solver.  It is solved by
Tseng's forward-backward-forward splitting, his modified extragradient
method (Tseng 2000, SIAM J. Control Optim. 38(2)): the prox quadratics and
R's declared moduli are taken by their exact resolvent, a per-coordinate
division, and only the monotone remainder of the coupling gradient takes
forward steps.  Each solve but a run's first starts from the previous
accepted pair's remainder, as gradient sliding starts each inner phase
from the last one's output (Lan 2016, Math. Program. 159).  Acceptance is
decided at every iterate by the outer loop's criterion,
`check_inner_criterion`.  That stop rule, `accept_first`, and that warm
start, `fbf_start`, are shared with the bilinear conjugate-gradient solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InnerBudgetExhausted,
    MissingValueOracle,
)
from .problems import PointPair, SmoothnessSpec, check_shape

if TYPE_CHECKING:
    from .outer import SolverTuning


@dataclass
class AuxiliaryProblem:
    """Prox-regularized saddle subproblem of one outer step.

    It holds everything an inner solver reads: the composite gradients
    frozen at the extrapolated point (the anchors), the outer iterate
    ``(x_k, y_k)`` and the steps ``eta_x``, ``eta_y``.  Its gradients
    satisfy, by construction,

        g_x(x, y) = grad_p_anchor + (x - x_k)/eta_x + dR/dx(x, y)
        g_y(x, y) = dR/dy(x, y) - grad_q_anchor - (y - y_k)/eta_y

    where ``g_y`` is the gradient of the maximized objective.  The
    subproblem is (mu_x + 1/eta_x)-strongly convex in x and
    (mu_y + 1/eta_y)-strongly concave in y.

    `outer.solve` also hands over its stacked iterate ``z_k = (x_k, y_k)``,
    of which ``x_k`` and ``y_k`` are the block views, and the per-entry
    vectors of `fbf_vectors`, built once per solve.  Without them
    `fbf_iterates` builds both itself, so a subproblem built by hand from
    its blocks runs the same code.  ``remainder`` is the `InnerResult`
    remainder of the previous outer step, ``b = r - M z`` at its accepted
    pair in `FBFVectors`' notation; `fbf_iterates` starts from it (and the
    bilinear conjugate-gradient solver from the x block of that start),
    and without it (a run's first step, a custom inner solver's result, a
    subproblem built by hand) at ``z_k``.
    """

    grad_R: Callable
    grad_p_anchor: np.ndarray
    grad_q_anchor: np.ndarray
    x_k: np.ndarray
    y_k: np.ndarray
    eta_x: float
    eta_y: float
    value_R: Optional[Callable] = None
    z_k: Optional[np.ndarray] = None
    vectors: Optional["FBFVectors"] = None
    remainder: Optional[np.ndarray] = None

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


# Settings of `accept_first`, read at each call.  ``FLOOR_TOL`` is the
# absolute escape hatch of the acceptance test.  An iterate that has not
# moved by more than ``STALL_RTOL`` (relative) for ``STALL_WINDOW``
# consecutive steps is accepted: it is then the subproblem solution to
# machine precision and no further progress is representable in float64.
# ``MAX_INNER`` is the iterate budget of one run.
MAX_INNER = 200_000
FLOOR_TOL = 1e-24
STALL_WINDOW = 32
STALL_RTOL = 1e-15


def stall_count(stalled: int, *steps) -> int:
    """Stall count after one step of an inner solver.

    ``steps`` holds the (new, old) iterate of each block.  The step stalls,
    extending the count of consecutive stalls, when no block moved by more
    than ``STALL_RTOL`` relative to ``max(||old||, 1)``; any other step
    resets the count to zero.
    """
    for new, old in steps:
        # Norms exactly as np.linalg.norm computes them, minus its dispatch.
        d = new - old
        moved = math.sqrt(float(d.dot(d))) / max(math.sqrt(float(old.dot(old))), 1.0)
        if not moved <= STALL_RTOL:
            return 0
    return stalled + 1


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


ACCEPTED_CRITERION = "criterion"
ACCEPTED_STALL = "stall"


@dataclass
class InnerResult:
    """Accepted subproblem pair with its gradients and iteration count.

    ``remainder``, from the library's two inner solvers, is FBF's
    ``b = r - M z`` at the accepted pair (see `fbf_iterates`); `outer.solve`
    hands it to the next step's `AuxiliaryProblem`.
    """

    pair: PointPair
    iterations: int
    grad_x: np.ndarray
    grad_y: np.ndarray
    accepted_by: str = ACCEPTED_CRITERION
    remainder: Optional[np.ndarray] = None

    # From FBF, the terms `outer.solve` needs at the pair, stacked as
    # ``(z, g, d, q)``: ``z = (x, y)``, whose block views the pair holds,
    # ``g = (grad_x, grad_y)``, the displacement ``d = z - z_k`` and
    # ``q = d / (eta_x, -eta_y)``.  `solve` forms them itself for any other
    # result.  Not a field, so neither __init__ nor dataclasses.replace
    # carries it over.
    _terms = None


def accept_first(first, advance: Callable, run, tuning: SolverTuning) -> InnerResult:
    """Stop rule of every inner solver: accept the first good iterate.

    ``first`` is a solver's first iterate and ``advance(run, it)`` the one
    after ``it``, or None once there is none; ``run`` is whatever the
    solver steps from.  ``advance`` is called only on a rejected iterate,
    so a run accepted at its start takes no step.  An iterate is a tuple
    ``(x, y, dx, dy, g_x, g_y, blocks, b, terms)``: the pair, its
    displacement ``(x - x_k, y - y_k)`` from the outer iterate, the
    subproblem gradients there, the arrays the stall rule compares between
    iterates, and the pair's `InnerResult` ``remainder`` and ``_terms``,
    each None if the solver has none.  The remainder slot may instead hold
    what the solver forms it from, once, at the iterate it gets back.  The
    solver builds ``dx``, ``g_x`` and ``dy``, ``g_y`` as float 1-D arrays
    of matching shapes, so the criterion takes them without re-validating.
    Accepts by the test of `check_inner_criterion`, else as a stall after
    ``STALL_WINDOW`` stalled steps or on the last iterate if they end
    early; raises InnerBudgetExhausted after checking iterate
    ``MAX_INNER``.  Every returned iterate has passed the criterion's
    finiteness guard (``dx``, ``dy`` finite, so ``x``, ``y`` are too), so
    its pair skips `PointPair`'s scan.
    """
    stalled, previous, t, it = 0, None, 0, first
    while True:
        x, y, dx, dy, g_x, g_y, blocks, b, terms = it
        if _criterion_holds(g_x, g_y, dx, dy, tuning, FLOOR_TOL):
            accepted_by = ACCEPTED_CRITERION
            break
        accepted_by = ACCEPTED_STALL
        # The stall count only decides about rejected iterates, and every
        # iterate before this one was rejected, so it is counted here.
        if previous is not None:
            stalled = stall_count(stalled, *zip(blocks, previous))
        previous = blocks
        # An iterate pinned in place for many steps is the subproblem
        # solution to machine precision; nothing better is representable.
        if stalled >= STALL_WINDOW:
            break
        if t >= MAX_INNER:
            raise InnerBudgetExhausted(f"criterion unmet after {t} inner iterations")
        it = advance(run, it)
        if it is None:
            break
        t += 1
    # Positional arguments: keywords slow the dataclass's __init__, which
    # runs once per outer step, by a third or more.
    result = InnerResult(PointPair._unscanned(x, y), t, g_x, g_y, accepted_by, b)
    result._terms = terms
    return result


@dataclass(frozen=True)
class FBFVectors:
    """Per-entry constants of `fbf_iterates` on a stacked ``z = (x, y)``.

    ``step`` is ``S = (s, -s)`` and ``mu`` is ``M = (mu_x, -mu_y)``, the
    y entries negated so that one formula steps both blocks; ``s_eta``
    holds ``s/eta`` and ``divisor`` the resolvent's ``1 + s/eta + s mu``
    per block, ``s_modulus`` the warm start's ``s/eta + s mu``, and
    ``signed_eta`` the steps ``E = (eta_x, -eta_y)``; ``s`` is the FBF
    step, in every entry.  Multiplying by a vector gives the products of
    multiplying by its scalar, and numpy takes a vector faster.
    """

    s: np.ndarray
    step: np.ndarray
    mu: np.ndarray
    s_eta: np.ndarray
    divisor: np.ndarray
    s_modulus: np.ndarray
    signed_eta: np.ndarray


def fbf_vectors(
    spec: SmoothnessSpec, eta_x: float, eta_y: float, d_x: int, d_y: int
) -> FBFVectors:
    """The `FBFVectors` of a solve; see `fbf_iterates` for the step ``s``."""
    mu_x, mu_y = spec.mu_x, spec.mu_y
    s = 0.9 / (spec.L_R + abs(mu_x - mu_y))

    def blocks(v_x, v_y):
        return np.concatenate((np.full(d_x, v_x), np.full(d_y, v_y)))

    return FBFVectors(
        s=blocks(s, s),
        step=blocks(s, -s),
        mu=blocks(mu_x, -mu_y),
        s_eta=blocks(s / eta_x, s / eta_y),
        divisor=blocks(1.0 + s / eta_x + s * mu_x, 1.0 + s / eta_y + s * mu_y),
        s_modulus=blocks(s / eta_x + s * mu_x, s / eta_y + s * mu_y),
        signed_eta=blocks(eta_x, -eta_y),
    )


def fbf_start(aux: AuxiliaryProblem, spec: SmoothnessSpec):
    """Start of an FBF run on ``aux`` and the constants its steps share.

    Returns the stacked start ``z`` and the run ``(aux, v, z_k, s_g, s_k,
    d_x)``: the stacked outer iterate ``z_k``, the `FBFVectors`, the
    resolvent terms ``s g`` and ``(s/eta) z_k``, which do not change
    between steps, and the length of the x block.  ``z`` is the warm start
    of `fbf_iterates` when ``aux.remainder`` is set, else ``z_k`` itself;
    the bilinear conjugate-gradient solver starts from its x block.
    """
    z_k = aux.z_k if aux.z_k is not None else np.concatenate((aux.x_k, aux.y_k))
    v = aux.vectors
    if v is None:
        v = fbf_vectors(spec, aux.eta_x, aux.eta_y, len(aux.x_k), len(aux.y_k))
    s_g = v.s * np.concatenate((aux.grad_p_anchor, aux.grad_q_anchor))
    s_k = v.s_eta * z_k
    z = z_k
    if aux.remainder is not None:
        z = (s_k - s_g - v.step * aux.remainder) / v.s_modulus
    return z, (aux, v, z_k, s_g, s_k, len(aux.x_k))


def fbf_iterates(aux: AuxiliaryProblem, spec: SmoothnessSpec):
    """Tseng's forward-backward-forward iterates on the subproblem.

    Write ``z = (x, y)`` and ``D = diag(mu_x I, mu_y I)``.  The subproblem
    operator ``(g_x, -g_y)`` splits into ``A + B'``: ``A`` holds the prox
    quadratics and R's declared moduli,

        A(z) = (grad_p_anchor + (x - x_k)/eta_x + mu_x x,
                grad_q_anchor + (y - y_k)/eta_y + mu_y y),

    and ``B'(z) = (dR/dx - mu_x x, -dR/dy - mu_y y)`` is the monotone
    remainder.  ``A`` is diagonal, so its resolvent ``J = (I + s A)^-1`` is
    a per-coordinate division, and each step is

        z_h = J(z - s B'(z)),    z+ = z_h - s (B'(z_h) - B'(z)).

    FBF converges for any ``s < 1/Lip(B')``.  ``B(z) = (dR/dx, -dR/dy)`` is
    L_R-Lipschitz and m-strongly monotone with ``m = min(mu_x, mu_y)``, so
    with ``u = z - z'`` and ``v = B(z) - B(z')``,

        ||v - m u||^2 = ||v||^2 - 2m <v, u> + m^2 ||u||^2
                     <= (L_R^2 - m^2) ||u||^2,

    and ``B' = (B - mI) - (D - mI)`` with ``||D - mI|| = |mu_x - mu_y|``
    gives ``Lip(B') <= sqrt(L_R^2 - m^2) + |mu_x - mu_y|
    <= L_R + |mu_x - mu_y|``; the step is 0.9 over that bound.  L_R alone
    does not bound ``B'`` when the moduli differ: ``B = [[0.5, 1], [-1, 1]]``
    with ``D = diag(0.5, 0)`` has ``||B|| = 1.5`` but ``||B - D|| = 1.618``.

    The iterate is one stacked array ``z``.  With the oracle's output
    ``r = (dR/dx, dR/dy)`` packed alike, ``b = r - M z`` is ``B'(z)`` with
    its y entries negated, and a step is

        h = (z - S b - s g + (s/eta) z_k) / DIV,    z+ = h - S (r(h) - M h - b)

    in `FBFVectors`' notation, ``g`` the stacked anchors: per entry the
    operations of the blockwise formulas, with the y signs flipped, which
    IEEE arithmetic does exactly.  The oracle gets the block views of
    ``h`` and ``z+``.  At each iterate ``d = z - z_k`` and ``q = d / E``
    are stacked too, ``q``'s y block ``-(y - y_k)/eta_y``; the gradients
    stay two block sums, ``g_x = (grad_p_anchor + q_x) + r_x`` and
    ``g_y = (r_y - grad_q_anchor) + q_y``, since their terms associate
    differently in x and in y, written into one stacked array.  Adding
    ``q_y`` is subtracting ``(y - y_k)/eta_y``: IEEE defines ``a - b`` as
    ``a + (-b)``.

    FBF converges from any start.  With the previous outer step's
    remainder ``b_prev`` (``aux.remainder``) it starts at

        w = (s_k - s g - S b_prev) / (s/eta + s mu),

    the exact resolvent of ``A`` with ``B'`` held at the previous accepted
    pair, ``A(w) = -B'(z_prev)``: per entry, ``h`` with the step taken to
    infinity, which drops its ``z`` and its ``1``.  Consecutive
    subproblems differ only in their anchors and ``z_k``, so ``w`` lands
    near the new solution and is often accepted at once.  Without a
    remainder it starts from the outer iterate (x_k, y_k).

    Returns, for `accept_first`, the first iterate and the run of
    `fbf_start`, from which `fbf_step` takes an iterate one step on.  An
    iterate holds its block views with their displacement views, its
    subproblem gradients, the blocks again for the stall rule, its ``b``,
    which is also the next step's, and its stacked ``(z, g, d, q)``.  The
    start costs one coupling call, each step two: at ``h`` and at ``z+``,
    whose gradient serves both the acceptance check and the next forward
    step.  No generator or closure is made per run: on the warm path most
    runs end at their start, where one would cost more than a vector
    operation.
    """
    z, run = fbf_start(aux, spec)
    return _fbf_iterate(run, z), run


def _fbf_iterate(run, z):
    # The iterate at z; one coupling call.
    aux, v, z_k, _, _, d_x = run
    x, y = z[:d_x], z[d_x:]
    r_x, r_y = aux.grad_R(x, y)
    # The gradient sums would broadcast a wrongly shaped output.  Arrays
    # of the right shapes, the usual output, pass without a call.
    if not (type(r_x) is type(r_y) is np.ndarray
            and r_x.shape == x.shape and r_y.shape == y.shape):
        check_shape(r_x, x, "dR/dx")
        check_shape(r_y, y, "dR/dy")
    d = z - z_k
    q = d / v.signed_eta
    g = np.empty(len(z))
    g_x, g_y = g[:d_x], g[d_x:]
    np.add(aux.grad_p_anchor, q[:d_x], g_x)
    g_x += r_x
    np.subtract(r_y, aux.grad_q_anchor, g_y)
    g_y += q[d_x:]
    b = np.concatenate((r_x, r_y)) - v.mu * z
    return x, y, d[:d_x], d[d_x:], g_x, g_y, (x, y), b, (z, g, d, q)


def fbf_step(run, it):
    """The iterate one FBF step after ``it`` in the run of `fbf_start`."""
    aux, v, _, s_g, s_k, d_x = run
    z, b = it[8][0], it[7]
    h = (z - v.step * b - s_g + s_k) / v.divisor
    x_h, y_h = h[:d_x], h[d_x:]
    rh_x, rh_y = aux.grad_R(x_h, y_h)
    # Outputs of the wrong shapes could stack to the right length.
    if not (type(rh_x) is type(rh_y) is np.ndarray
            and rh_x.shape == x_h.shape and rh_y.shape == y_h.shape):
        check_shape(rh_x, x_h, "dR/dx")
        check_shape(rh_y, y_h, "dR/dy")
    return _fbf_iterate(run, h - v.step * (np.concatenate((rh_x, rh_y)) - v.mu * h - b))


def solve_auxiliary(
    aux: AuxiliaryProblem, spec: SmoothnessSpec, tuning: SolverTuning
) -> InnerResult:
    """Forward-backward-forward on the subproblem until acceptance.

    `fbf_iterates` under the stop rule of `accept_first`, warm-started
    from ``aux.remainder`` when it is set; the result carries the remainder
    at its pair for the next step's subproblem.  The acceptance check
    reuses the gradient already computed at the current iterate, so a run
    accepted after t iterations costs exactly 2t + 1 coupling calls, warm
    or cold.
    ``spec`` must pass `validate_spec`, as `outer.solve` checks.
    """
    first, run = fbf_iterates(aux, spec)
    return accept_first(first, fbf_step, run, tuning)
