"""Shared helpers: independent oracles the solver tests are checked against."""

import dataclasses

import numpy as np
import pytest

from saddleslide import (
    CompositeSaddleProblem,
    PointPair,
    SmoothnessSpec,
    SolveConfig,
    initial_potential,
    solve,
    solve_bilinear,
    weighted_distance_sq,
)
from saddleslide import bilinear
from saddleslide.outer import potential
from saddleslide.bench.generators import reference_solution
from saddleslide.bench.runner import _scsc_problem


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def solve_saddle_kkt(P, a, Q, e, B, mu_x, mu_y):
    """Direct solve of the quadratic saddle stationarity system.

    For p = x'Px/2 + a'x, q = y'Qy/2 + e'y and
    R = (mu_x/2)||x||^2 + x'By - (mu_y/2)||y||^2.
    """
    d_x, d_y = P.shape[0], Q.shape[0]
    mat = np.block([
        [P + mu_x * np.eye(d_x), B],
        [B.T, -(Q + mu_y * np.eye(d_y))],
    ])
    rhs = np.concatenate([-a, e])
    z = np.linalg.solve(mat, rhs)
    return PointPair(z[:d_x], z[d_x:])


def quadratic_problem(P, a, Q, e, B, mu_x, mu_y):
    """Composite problem with full value oracles for the same data."""
    P = np.asarray(P, float)
    Q = np.asarray(Q, float)
    B = np.asarray(B, float)
    a = np.asarray(a, float)
    e = np.asarray(e, float)
    return CompositeSaddleProblem(
        d_x=P.shape[0],
        d_y=Q.shape[0],
        grad_p=lambda x: P @ x + a,
        grad_q=lambda y: Q @ y + e,
        grad_R=lambda x, y: (mu_x * x + B @ y, B.T @ x - mu_y * y),
        value_p=lambda x: 0.5 * float(x @ (P @ x)) + float(a @ x),
        value_q=lambda y: 0.5 * float(y @ (Q @ y)) + float(e @ y),
        value_R=lambda x, y: (
            0.5 * mu_x * float(x @ x)
            + float(x @ (B @ y))
            - 0.5 * mu_y * float(y @ y)
        ),
    )


def random_sym_psd(rng, n, lo, hi):
    """Symmetric matrix with eigenvalues spread over [lo, hi]."""
    if n == 1:
        eigs = np.array([hi])
    else:
        eigs = np.sort(rng.uniform(lo, hi, size=n))
        eigs[0], eigs[-1] = lo, hi
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def random_quadratic_instance(rng, d_x, d_y, L_p, mu_x, L_q, mu_y, sigma_max):
    """Random quadratic SCSC problem with its spec and exact saddle."""
    P = random_sym_psd(rng, d_x, 0.0, L_p)
    Q = random_sym_psd(rng, d_y, 0.0, L_q)
    B = rng.standard_normal((d_x, d_y))
    if sigma_max > 0:
        B *= sigma_max / np.linalg.svd(B, compute_uv=False)[0]
    else:
        B = np.zeros((d_x, d_y))
    a = rng.standard_normal(d_x)
    e = rng.standard_normal(d_y)
    problem = quadratic_problem(P, a, Q, e, B, mu_x, mu_y)
    half_gap = abs(mu_x - mu_y) / 2.0
    half_sum = (mu_x + mu_y) / 2.0
    L_R = half_gap + np.sqrt(half_sum**2 + sigma_max**2)
    spec = SmoothnessSpec(L_p=L_p, L_q=L_q, L_R=L_R, mu_x=mu_x, mu_y=mu_y)
    saddle = solve_saddle_kkt(P, a, Q, e, B, mu_x, mu_y)
    data = {"P": P, "Q": Q, "B": B, "a": a, "e": e}
    return problem, spec, saddle, data


def planned_run(inst, eps):
    """A quadratic-spp or bilinear instance's sliding run, planned budget whole.

    `solve`, or `solve_bilinear` on a bilinear instance, from the origin
    with the budget planned from the initial potential against the KKT
    reference: the route `run_single` takes, without its certified stop.
    Returns the report and the reference.
    """
    reference = reference_solution(inst)
    problem, spec, bp = _scsc_problem(inst)
    start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
    config = SolveConfig(
        eps=eps, psi_0=initial_potential(problem, spec, start, reference),
        use_residual_stop=False,
    )
    if bp is None:
        return solve(problem, spec, start, config), reference
    return solve_bilinear(bp, start, config), reference


def recording(inner_solver):
    """``(solver, steps)``: ``inner_solver`` wrapped to record each call.

    Pass ``solver`` as `solve`'s ``inner_solver``; every call appends its
    subproblem and the result it returned, ``(aux, result)``, to ``steps``.
    """
    steps = []

    def solver(aux, spec, tuning):
        result = inner_solver(aux, spec, tuning)
        steps.append((aux, result))
        return result

    return solver, steps


def step_trace(steps, tuning, solution, problem=None):
    """Per-step weighted distances and potentials of one `solve` run.

    ``steps`` is the run's `recording` list.  Each step's iterate
    ``z = z_hat - E g``, with ``E = (eta_x, -eta_y)`` per entry, and its
    extrapolation sequence ``zf = zg + alpha (z_hat - z_k)`` (``z_hat``
    itself when alpha is 1), with ``zg = alpha z_k + (1 - alpha) zf``, are
    rebuilt from the accepted results in `solve`'s own operations, so they
    are its values bit for bit.  Returns ``(dists, potentials)``: the
    iterates' weighted squared distances to the saddle ``solution`` and
    their `potential` values (empty without ``problem``, which needs value
    oracles).  Each step's inner iterations are its result's.
    """
    psi = None if problem is None else potential(problem, tuning, solution)
    alpha = tuning.alpha
    dists, potentials = [], []
    zf = steps[0][0].z_k if steps else None
    for aux, result in steps:
        d_x = aux.x_k.size
        zg = aux.z_k if alpha == 1.0 else alpha * aux.z_k + (1.0 - alpha) * zf
        z_hat = np.concatenate((result.pair.x, result.pair.y))
        g = np.concatenate((result.grad_x, result.grad_y))
        z = z_hat - aux.vectors.signed_eta * g
        zf = z_hat if alpha == 1.0 else zg + alpha * (z_hat - aux.z_k)
        x, y = z[:d_x], z[d_x:]
        dists.append(weighted_distance_sq(PointPair(x, y), solution, tuning.eta_x, tuning.eta_y))
        if psi is not None:
            potentials.append(psi(x, y, zf[:d_x], zf[d_x:]))
    return dists, potentials


def recording_bilinear(monkeypatch):
    """Record the steps of every bilinear inner solver made from now on.

    Returns a list that gains one `recording` ``steps`` list per solver
    `bilinear.make_bilinear_inner_solver` makes, one per `solve_bilinear`.
    """
    runs = []
    make = bilinear.make_bilinear_inner_solver

    def making(bp):
        solver, steps = recording(make(bp))
        runs.append(steps)
        return solver

    monkeypatch.setattr(bilinear, "make_bilinear_inner_solver", making)
    return runs


def kick_first_run(monkeypatch, kick):
    """Make the affine route's first regularized run return ``x + kick``.

    Every call's start, positional arguments and report are recorded; the
    report recorded for the first run is the kicked one the route sees.
    """
    runs = []
    real = bilinear._solve_regularized

    def double(bp, start, *args, **kwargs):
        report = real(bp, start, *args, **kwargs)
        if not runs:
            x = report.final_pair.x
            report = dataclasses.replace(
                report, final_pair=PointPair(x + kick, report.final_pair.y)
            )
        runs.append((start, args, report))
        return report

    monkeypatch.setattr(bilinear, "_solve_regularized", double)
    return runs


def off_constraint(coupling, residual):
    """A vector in range(B) whose B^T image has norm ``residual``."""
    w = coupling.matvec(np.random.default_rng(1).standard_normal(coupling.d_y))
    return w * (residual / np.linalg.norm(coupling.rmatvec(w)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
