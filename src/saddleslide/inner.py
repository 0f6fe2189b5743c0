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
decided by the outer criterion at every iterate.  That stop rule,
`accept_first`, is shared with the bilinear conjugate-gradient solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InnerBudgetExhausted, MissingValueOracle, NonPositiveInput
from .outer import SolverTuning, _criterion_holds
from .problems import PointPair, SmoothnessSpec, check_shape


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


@dataclass
class InnerConfig:
    """Inner-solver settings.

    ``floor_tol`` is the absolute escape hatch of the acceptance test.
    ``stall_window``/``stall_rtol`` accept an iterate that has not moved
    by more than ``stall_rtol`` (relative) for that many consecutive
    steps: it is then the subproblem solution to machine precision and no
    further progress is representable in float64.  ``stall_window < 1``
    and ``max_inner < 0`` raise NonPositiveInput.
    """

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
        # Norms exactly as np.linalg.norm computes them, minus its dispatch.
        d = new - old
        moved = math.sqrt(float(d.dot(d))) / max(math.sqrt(float(old.dot(old))), 1.0)
        if not moved <= config.stall_rtol:
            return 0
    return stalled + 1


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


def accept_first(
    iterates, aux: AuxiliaryProblem, tuning: SolverTuning, config: InnerConfig
) -> InnerResult:
    """Stop rule of every inner solver: accept the first good iterate.

    ``iterates`` yields ``(x, y, dx, dy, g_x, g_y, blocks, z, b)``: an
    iterate, its displacement ``(x - x_k, y - y_k)`` from the outer
    iterate, the subproblem gradients there, the arrays the stall rule
    compares between iterates, either a stacked array holding ``(x, y)``
    or None, and the iterate's `InnerResult` ``remainder`` or None.  The
    generator builds ``dx``, ``g_x`` and ``dy``, ``g_y`` as float 1-D
    arrays of matching shapes, so the criterion takes them without
    re-validating.  Accepts by the test of
    `check_inner_criterion`, else as a stall after ``stall_window``
    stalled steps or on the last iterate if they end early; raises
    InnerBudgetExhausted after checking iterate ``max_inner``.  Every
    returned iterate has passed the criterion's finiteness guard (``dx``,
    ``dy`` finite, so ``x``, ``y`` are too), so its pair skips
    `PointPair`'s scan; the pair carries ``z`` back to `outer.solve`.
    """
    stalled, previous = 0, None
    for t, (x, y, dx, dy, g_x, g_y, blocks, z, b) in enumerate(iterates):
        if _criterion_holds(g_x, g_y, dx, dy, tuning, config.floor_tol):
            return InnerResult(PointPair._unscanned(x, y, z), t, g_x, g_y, remainder=b)
        # The stall count only decides about rejected iterates, and every
        # iterate before this one was rejected, so it is counted here.
        if previous is not None:
            stalled = stall_count(stalled, config, *zip(blocks, previous))
        previous = blocks
        # An iterate pinned in place for many steps is the subproblem
        # solution to machine precision; nothing better is representable.
        if stalled >= config.stall_window:
            break
        if t >= config.max_inner:
            raise InnerBudgetExhausted(f"criterion unmet after {t} inner iterations")
    return InnerResult(
        PointPair._unscanned(x, y, z), t, g_x, g_y, ACCEPTED_STALL, remainder=b
    )


@dataclass(frozen=True)
class FBFVectors:
    """Per-entry constants of `fbf_iterates` on a stacked ``z = (x, y)``.

    ``step`` is ``S = (s, -s)`` and ``mu`` is ``M = (mu_x, -mu_y)``, the
    y entries negated so that one formula steps both blocks; ``s_eta``
    holds ``s/eta`` and ``divisor`` the resolvent's ``1 + s/eta + s mu``
    per block, ``s_modulus`` the warm start's ``s/eta + s mu``, and ``eta``
    the steps ``(eta_x, eta_y)``; ``s`` is the FBF step.
    """

    s: float
    step: np.ndarray
    mu: np.ndarray
    s_eta: np.ndarray
    divisor: np.ndarray
    s_modulus: np.ndarray
    eta: np.ndarray


def fbf_vectors(
    spec: SmoothnessSpec, eta_x: float, eta_y: float, d_x: int, d_y: int
) -> FBFVectors:
    """The `FBFVectors` of a solve; see `fbf_iterates` for the step ``s``."""
    mu_x, mu_y = spec.mu_x, spec.mu_y
    s = 0.9 / (spec.L_R + abs(mu_x - mu_y))

    def blocks(v_x, v_y):
        return np.concatenate((np.full(d_x, v_x), np.full(d_y, v_y)))

    return FBFVectors(
        s=s,
        step=blocks(s, -s),
        mu=blocks(mu_x, -mu_y),
        s_eta=blocks(s / eta_x, s / eta_y),
        divisor=blocks(1.0 + s / eta_x + s * mu_x, 1.0 + s / eta_y + s * mu_y),
        s_modulus=blocks(s / eta_x + s * mu_x, s / eta_y + s * mu_y),
        eta=blocks(eta_x, eta_y),
    )


def fbf_start(aux: AuxiliaryProblem, spec: SmoothnessSpec):
    """Start of an FBF run on ``aux`` and the terms its steps share.

    Returns the stacked start ``z``, the stacked outer iterate ``z_k``,
    the `FBFVectors` and the resolvent terms ``s g`` and ``(s/eta) z_k``,
    which do not change between steps.  ``z`` is the warm start of
    `fbf_iterates` when ``aux.remainder`` is set, else ``z_k`` itself;
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
    return z, z_k, v, s_g, s_k


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
    ``h`` and ``z+``; the gradients ``g_x``, ``g_y`` stay two block sums,
    since their terms associate differently in x and in y.

    FBF converges from any start.  With the previous outer step's
    remainder ``b_prev`` (``aux.remainder``) it starts at

        w = (s_k - s g - S b_prev) / (s/eta + s mu),

    the exact resolvent of ``A`` with ``B'`` held at the previous accepted
    pair, ``A(w) = -B'(z_prev)``: per entry, ``h`` with the step taken to
    infinity, which drops its ``z`` and its ``1``.  Consecutive
    subproblems differ only in their anchors and ``z_k``, so ``w`` lands
    near the new solution and is often accepted at once.  Without a
    remainder it starts from the outer iterate (x_k, y_k).

    Yields, for `accept_first`, each iterate as its block views with their
    displacement views, its subproblem gradients, the blocks again for the
    stall rule, the stacked ``z`` and its ``b``, which is also the next
    step's.  The start costs one coupling call, each step two: at ``h``
    and at ``z+``, whose gradient serves both the acceptance check and the
    next forward step.
    """
    z, z_k, v, s_g, s_k = fbf_start(aux, spec)
    d_x, step, mu, divisor, eta = len(aux.x_k), v.step, v.mu, v.divisor, v.eta
    grad_R, gp, gq = aux.grad_R, aux.grad_p_anchor, aux.grad_q_anchor
    x, y = z[:d_x], z[d_x:]
    r_x, r_y = grad_R(x, y)
    # The gradient sums below would broadcast a wrongly shaped output.
    check_shape(r_x, x, "dR/dx")
    check_shape(r_y, y, "dR/dy")
    while True:
        d = z - z_k
        q = d / eta
        g_x = gp + q[:d_x] + r_x
        g_y = r_y - gq - q[d_x:]
        b = np.concatenate((r_x, r_y)) - mu * z
        yield x, y, d[:d_x], d[d_x:], g_x, g_y, (x, y), z, b
        h = (z - step * b - s_g + s_k) / divisor
        rh_x, rh_y = grad_R(h[:d_x], h[d_x:])
        z = h - step * (np.concatenate((rh_x, rh_y)) - mu * h - b)
        x, y = z[:d_x], z[d_x:]
        r_x, r_y = grad_R(x, y)


def solve_auxiliary(
    aux: AuxiliaryProblem,
    spec: SmoothnessSpec,
    tuning: SolverTuning,
    config: InnerConfig,
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
    return accept_first(fbf_iterates(aux, spec), aux, tuning, config)
