"""Composite saddle point problems, oracle counting, and basic diagnostics.

A problem ``min_x max_y p(x) + R(x, y) - q(y)`` is represented by its
first-order oracles only.  Function-value oracles are optional and feed
diagnostics (potential tracking); the solvers never need them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentConstants,
    NonPositiveModulus,
    NonPositiveStep,
)

Vector = np.ndarray
ValueOracle = Callable[[np.ndarray], float]
GradOracle = Callable[[np.ndarray], np.ndarray]
CouplingGradOracle = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def check_shape(value, like: np.ndarray, name: str):
    """Return ``value`` once it has the shape of ``like``.

    Oracle outputs of the wrong shape would otherwise broadcast silently
    against the iterates; raises DimensionMismatch.
    """
    if np.shape(value) != like.shape:
        raise DimensionMismatch(
            f"{name} has shape {np.shape(value)}, expected {like.shape}"
        )
    return value


@dataclass(frozen=True)
class PointPair:
    """A primal/dual pair (x, y) with finite entries."""

    x: np.ndarray
    y: np.ndarray

    # A stacked array holding ``(x, y)``, when the library built the pair
    # from one (see `_unscanned`); not a field.
    _stacked = None

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x))
        object.__setattr__(self, "y", _as_vector(self.y))
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("PointPair entries must be finite")

    @property
    def dims(self) -> Tuple[int, int]:
        return self.x.size, self.y.size

    @classmethod
    def _unscanned(
        cls, x: np.ndarray, y: np.ndarray, stacked: Optional[np.ndarray] = None
    ) -> "PointPair":
        """Pair of float 1-D arrays the caller has proved finite; no scan.

        ``stacked``, when given, is an array holding ``(x, y)``, usually
        the one whose block views they are; `outer.solve` reads it back
        instead of stacking the pair again.
        """
        pair = object.__new__(cls)
        object.__setattr__(pair, "x", x)
        object.__setattr__(pair, "y", y)
        object.__setattr__(pair, "_stacked", stacked)
        return pair

    def copy(self) -> "PointPair":
        return PointPair(self.x.copy(), self.y.copy())

    def check_dims(self, d_x: int, d_y: int) -> None:
        if self.x.size != d_x or self.y.size != d_y:
            raise DimensionMismatch(
                f"pair has dims {self.dims}, expected ({d_x}, {d_y})"
            )


@dataclass(frozen=True)
class CompositeSaddleProblem:
    """First-order oracles of ``min_x max_y p(x) + R(x, y) - q(y)``.

    ``grad_R`` returns the pair ``(d/dx R, d/dy R)`` in one call.  Oracles
    must be deterministic: identical inputs produce identical outputs.
    Value oracles are optional and used only by diagnostics.
    """

    d_x: int
    d_y: int
    grad_p: GradOracle
    grad_q: GradOracle
    grad_R: CouplingGradOracle
    value_p: Optional[ValueOracle] = None
    value_q: Optional[ValueOracle] = None
    value_R: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def has_composite_values(self) -> bool:
        return self.value_p is not None and self.value_q is not None


@dataclass(frozen=True)
class SmoothnessSpec:
    """Smoothness and strong convexity/concavity constants of a problem.

    ``L_p``, ``L_q`` bound the composite gradients, ``L_R`` the coupling
    gradient; ``mu_x``/``mu_y`` are the moduli of R in x and y.  Values may
    be stored freely; `validate_spec` is the gate the solvers use.
    """

    L_p: float
    L_q: float
    L_R: float
    mu_x: float
    mu_y: float


def validate_spec(spec: SmoothnessSpec) -> None:
    """Check SmoothnessSpec invariants, raising on the first violation.

    Raises
    ------
    NonPositiveModulus
        If ``mu_x <= 0`` or ``mu_y <= 0``.
    InconsistentConstants
        If any constant is non-finite, ``L_p < 0``, ``L_q < 0``, or
        ``L_R < max(mu_x, mu_y)`` (an L-smooth mu-strongly convex function
        has ``L >= mu``).
    """
    values = (spec.L_p, spec.L_q, spec.L_R, spec.mu_x, spec.mu_y)
    if not all(np.isfinite(v) for v in values):
        raise InconsistentConstants(f"non-finite constant in {spec}")
    if spec.mu_x <= 0.0 or spec.mu_y <= 0.0:
        raise NonPositiveModulus(
            f"moduli must be positive, got mu_x={spec.mu_x}, mu_y={spec.mu_y}"
        )
    if spec.L_p < 0.0 or spec.L_q < 0.0:
        raise InconsistentConstants(
            f"composite constants must be non-negative, got L_p={spec.L_p}, L_q={spec.L_q}"
        )
    if spec.L_R < max(spec.mu_x, spec.mu_y):
        raise InconsistentConstants(
            f"L_R={spec.L_R} is below max(mu_x, mu_y)={max(spec.mu_x, spec.mu_y)}"
        )


@dataclass
class OracleCounters:
    """Monotone per-oracle call tallies for one solver run.

    ``calls_grad_R`` counts coupling-gradient calls, or individual B/B^T
    matrix-vector products when the bilinear wrapper is used.
    """

    calls_grad_p: int = 0
    calls_grad_q: int = 0
    calls_grad_R: int = 0
    outer_iterations: int = 0
    inner_iterations: int = 0

    def as_dict(self) -> dict:
        return {
            "calls_grad_p": self.calls_grad_p,
            "calls_grad_q": self.calls_grad_q,
            "calls_grad_R": self.calls_grad_R,
            "outer_iterations": self.outer_iterations,
            "inner_iterations": self.inner_iterations,
        }


def count_calls(oracle: Callable, counters: OracleCounters, tally: str) -> Callable:
    """``oracle`` with every call added to the ``tally`` field of ``counters``."""
    # The instance dict holds the field, so one item update bumps it.
    fields = vars(counters)

    def counted(*args):
        fields[tally] += 1
        return oracle(*args)

    return counted


def wrap_counting(
    problem: CompositeSaddleProblem,
    counters: Optional[OracleCounters] = None,
) -> Tuple[CompositeSaddleProblem, OracleCounters]:
    """Wrap a problem so every gradient-oracle call bumps a counter.

    The wrapped problem delegates to the original oracles unchanged.  The
    tallies go to ``counters`` when given (so several wrappers can share
    them, as the bilinear path does for composites and B/B^T products),
    otherwise to fresh counters that belong to this wrapper alone, so
    concurrent runs on separate wrappers never share tallies.  Value
    oracles pass through uncounted (they are diagnostics).
    """
    if counters is None:
        counters = OracleCounters()
    wrapped = dataclasses.replace(
        problem,
        grad_p=count_calls(problem.grad_p, counters, "calls_grad_p"),
        grad_q=count_calls(problem.grad_q, counters, "calls_grad_q"),
        grad_R=count_calls(problem.grad_R, counters, "calls_grad_R"),
    )
    return wrapped, counters


def weighted_distance_sq(
    a: PointPair, b: PointPair, eta_x: float, eta_y: float
) -> float:
    """Squared distance ``(1/eta_x)||a.x - b.x||^2 + (1/eta_y)||a.y - b.y||^2``."""
    if eta_x <= 0.0 or eta_y <= 0.0:
        raise NonPositiveStep(f"eta_x={eta_x}, eta_y={eta_y} must be positive")
    if a.dims != b.dims:
        raise DimensionMismatch(f"pairs have dims {a.dims} and {b.dims}")
    dx = a.x - b.x
    dy = a.y - b.y
    return float(dx @ dx / eta_x + dy @ dy / eta_y)


def unweighted_distance_sq(a: PointPair, b: PointPair) -> float:
    """Plain squared distance ``||a.x - b.x||^2 + ||a.y - b.y||^2``."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"pairs have dims {a.dims} and {b.dims}")
    dx = a.x - b.x
    dy = a.y - b.y
    return float(dx @ dx + dy @ dy)
