"""The benchmark's workloads: instance sets, timed operations and checks.

An operation is one ``run_single`` solve (scsc-small, consensus-graph) or
one ``run_experiment`` call over a saved manifest (grid-dense), which
counts as one *cell* per (solver, eps) it runs.  Every cell's row is
checked against the guarantee its route states, by the benchmark itself:
``run_succeeded`` is not used, because it trusts consensus and
linear-bilinear rows by their name prefix.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from saddleslide.errors import ManifestError
from saddleslide.bench import generators, runner
from saddleslide.bench.generators import (
    KIND_BILINEAR,
    KIND_CONSENSUS,
    KIND_LINEAR_BILINEAR,
    KIND_QUADRATIC,
)

SLIDING, EG, AGD = runner.SOLVER_SLIDING, runner.SOLVER_EG, runner.SOLVER_AGD_JOINT

# Library defects the benchmark counts as failed cells instead of dodging
# them by re-seeding or resizing.  A failure of any other cell makes the
# run incorrect.
DEFECT_LB_FLOOR = (
    "linear-bilinear eps=1e-7 reports success with dist_unweighted far above eps"
)
DEFECT_VERIFY = (
    "verify_instance rejects a valid bilinear instance at load: 100 shifted power "
    "iterations do not converge to mu_p"
)


def _known_load_defect(error) -> str:
    # Hits gen_bilinear(200, 200, 100, 1, 100, 1, 10, seed) on most seeds and
    # the 50x40 instance on about one seed in ten.
    if isinstance(error, ManifestError) and "declared mu_" in str(error):
        return DEFECT_VERIFY
    return ""


@dataclass
class Cell:
    kind: str
    solver: str
    eps: float
    known_defect: str = ""


@dataclass
class Op:
    """One timed operation; ``run`` returns one RunReport per cell."""

    label: str
    cells: List[Cell]
    run: Callable[[], list]
    cal_repeats: Optional[int]
    out_dir: Optional[Path] = None  # grid-dense: holds aggregate.csv


@dataclass
class Outcome:
    op: Op
    wall_s: float
    scaled_s: float  # wall_s at the reference host speed (see measure)
    rows: Optional[list]  # None when the operation raised
    failures: List[Optional[str]] = field(default_factory=list)  # per cell
    known: List[str] = field(default_factory=list)  # per cell, "" if unexpected


def kind_of(instance_id: str) -> str:
    for kind in (KIND_QUADRATIC, KIND_BILINEAR, KIND_CONSENSUS, KIND_LINEAR_BILINEAR):
        if instance_id.startswith(kind + "-"):
            return kind
    raise ValueError(f"unknown instance id {instance_id!r}")


# --------------------------------------------------------------------------
# Instance sets.  Each entry is (generator thunk, [(solver, eps, defect)]).


def _scsc_small(seed):
    # One instance's iteration counts vary by about 6% from seed to seed;
    # the median of sixteen moves by about 2%.
    return [
        (lambda s=seed * 100 + i: generators.gen_quadratic_spp(
            10, 10, 100.0, 1.0, 100.0, 1.0, 10.0, s), [(SLIDING, 1e-8, "")])
        for i in range(16)
    ]


# One ring's product count varies by about 17% (ring 10) to 21% (ring 11)
# between seeds, so the set holds twenty rings of the cheapest size, and a
# pass runs each once or twice.  The rings share one size so that the
# median lands among instances of like cost; the one path is the dearest
# operation, and a path Laplacian varies more in cost from seed to seed
# than a ring.
_GRAPHS = [("ring", 10)] * 20 + [("path", 8)]


def _consensus(seed):
    return [
        (lambda s=seed * 100 + i, t=topo, n=n: generators.gen_consensus(
            n, t, 1.0, 4.0, s), [(SLIDING, 1e-6, "")])
        for i, (topo, n) in enumerate(_GRAPHS)
    ]


def _grid_dense(seed):
    all_solvers = [(SLIDING, 1e-6, ""), (EG, 1e-6, ""), (AGD, 1e-6, "")]
    s = seed * 100
    return [
        # Three d = 1000 instances.  eg's iteration count on one varies by
        # about 10% from seed to seed and dominates the composite tally;
        # and with nine of the fifteen cells at d = 1000 the median cell
        # is one of them, not the midpoint between a d = 1000 cell and a
        # small one, which moved with every seed.
        *[(lambda i=i: generators.gen_quadratic_spp(
            1000, 1000, 100.0, 1.0, 100.0, 1.0, 10.0, s + i), all_solvers)
          for i in (0, 1, 5)],
        # The CLI's default constants.
        (lambda: generators.gen_bilinear(50, 40, 4.0, 1.0, 4.0, 1.0, 5.0, s + 2),
         all_solvers),
        (lambda: generators.gen_bilinear(200, 200, 100.0, 1.0, 100.0, 1.0, 10.0, s + 3),
         [(SLIDING, 1e-6, "")]),
        (lambda: generators.gen_linear_bilinear(8, s + 4),
         [(SLIDING, 1e-3, ""), (SLIDING, 1e-7, DEFECT_LB_FLOOR)]),
    ]


INSTANCE_SETS = {
    "scsc-small": _scsc_small,
    "consensus-graph": _consensus,
    "grid-dense": _grid_dense,
}


# --------------------------------------------------------------------------
# Set-up: generate, save, load back, solve the reference, compare it with
# the planted saddle.


def setup(workload: str, seed: int, work: Path) -> List[Op]:
    """Build the workload's operations under ``work``; untimed by the pass."""
    ops = []
    grid = workload == "grid-dense"
    parallel = len(os.sched_getaffinity(0))
    cal_repeats = CALIBRATION_REPEATS[workload]
    for i, (make, solves) in enumerate(INSTANCE_SETS[workload](seed)):
        inst = make()
        manifest = inst.save(work / f"inst{i:02d}")
        # The grid's own load verifies the declared constants; here the
        # instance is only read back, since one of them is a known
        # verification defect.
        loaded = generators.Instance.load(manifest, verify=False)
        reference = generators.reference_solution(loaded)
        planted = inst.saddle()
        err = math.sqrt(
            float(np.sum((reference.x - planted.x) ** 2)
                  + np.sum((reference.y - planted.y) ** 2))
        )
        scale = 1.0 + math.sqrt(float(planted.x @ planted.x + planted.y @ planted.y))
        if not err <= 1e-8 * scale:
            raise AssertionError(
                f"{loaded.instance_id}: reference misses the planted saddle by {err:.3e}"
            )
        cells = [Cell(loaded.kind, s, e, d) for s, e, d in solves]
        if grid:
            out = work / f"grid{i:02d}"
            config = {"instances": [str(manifest)],
                      "solvers": sorted({c.solver for c in cells}, key=[SLIDING, EG, AGD].index),
                      "eps": sorted({c.eps for c in cells}, reverse=True)}
            run = (lambda config=config, out=out:
                   runner.run_experiment(config, out, parallel=parallel))
            ops.append(Op(loaded.instance_id, cells, run, cal_repeats, out))
        else:
            (solver, eps, _), = solves
            run = (lambda inst=loaded, solver=solver, eps=eps:
                   [runner.run_single(inst, solver, eps)])
            ops.append(Op(loaded.instance_id, cells, run, cal_repeats))
    return ops


# --------------------------------------------------------------------------
# Checks.


def check_row(cell: Cell, row) -> Optional[str]:
    """The guarantee the cell's route states, or None when the row meets it.

    - sliding on quadratic-spp and bilinear runs the planned budget, which
      guarantees the step-weighted distance ``dist_weighted <= eps``;
    - eg and agd-joint stop on a distance (eg) or a gradient certificate
      (agd-joint) and must end with ``residual-met`` and
      ``dist_unweighted <= eps`` (eg's weights 1/eta are at least 3 here);
    - consensus certifies ``||x - x*||^2 <= eps``; the row holds only the
      joint distance, which is checked instead and bounds it from above;
    - linear-bilinear solves the regularized problem to ``eps/2`` and
      states an eps-solution of the original: ``dist_unweighted <= eps``.
    """
    if (row.solver, row.eps) != (cell.solver, cell.eps) or kind_of(row.instance) != cell.kind:
        return f"row {row.instance}/{row.solver}/{row.eps} is not cell {cell}"
    if not (math.isfinite(row.dist_weighted) and math.isfinite(row.dist_unweighted)):
        return "non-finite distance"
    if cell.solver == SLIDING and cell.kind in (KIND_QUADRATIC, KIND_BILINEAR):
        dist, name = row.dist_weighted, "dist_weighted"
    else:
        dist, name = row.dist_unweighted, "dist_unweighted"
    if cell.solver in (EG, AGD) and row.termination != "residual-met":
        return f"termination {row.termination}"
    if not dist <= cell.eps:
        return f"{name}={dist:.3e} > eps={cell.eps:g}"
    return None


def accounting_error(cell: Cell, row) -> Optional[str]:
    """The library's own tally identities on sliding rows."""
    if cell.solver != SLIDING:
        return None
    p, q, r = row.calls_grad_p, row.calls_grad_q, row.calls_grad_R
    outer, inner = row.outer_iters, row.inner_iters
    if not p == q == outer:
        return f"calls_grad_p={p}, calls_grad_q={q}, outer={outer}"
    want = 2 * inner + outer if cell.kind == KIND_QUADRATIC else 4 * outer + 3 * inner
    if r != want:
        return f"calls_grad_R={r}, identity gives {want}"
    return None


def wrapper_tallies(cell: Cell, row):
    """Composite and coupling calls the traced instance oracles must see.

    Differences from the library's counters, route by route:
    - SCSC sliding (quadratic-spp, bilinear): +2 composite calls, the
      uncounted ``initial_potential`` that sizes the budget;
    - consensus: the instance hands out ``grad_p`` only (``grad_q`` is the
      reduction's dual regularizer), seen once more than counted
      (``grad_p(0)`` in the a-priori potential bound), and one coupling
      product more than counted (the final constraint-residual check);
    - linear-bilinear: the composites are the reduction's own closures, so
      the instance hands out no composite oracle;
    - eg on bilinear: each counted ``grad_R`` call is a B and a B' product;
    - agd-joint factors the instance's arrays and calls no oracle.
    """
    comp = row.calls_grad_p + row.calls_grad_q
    coup = row.calls_grad_R
    if cell.solver == AGD:
        return 0, 0
    if cell.solver == EG:
        return comp, coup * (2 if cell.kind == KIND_BILINEAR else 1)
    if cell.kind == KIND_CONSENSUS:
        return row.calls_grad_p + 1, coup + 1
    if cell.kind == KIND_LINEAR_BILINEAR:
        return 0, coup
    return comp + 2, coup


# --------------------------------------------------------------------------
# Host-speed calibration.
#
# On a host whose cores are shared with other tenants, Python-bound solves
# on small arrays take anywhere from 1x to 2x their fastest time, in phases
# of seconds to minutes, so raw medians of two runs of the same code differ
# by up to 40%.  On scsc-small and consensus-graph every timed operation is
# therefore bracketed by a fixed kernel of the benchmark's own, shaped like
# their solvers' inner loops, and its time is reported scaled by the
# kernel's: in seconds at a host speed where the kernel takes CAL_REF_S.
# Each side runs the kernel a few percent of the operation's time, so that
# it samples the host over a similar stretch.  The kernel calls nothing of
# the library, so a change to the library moves only the operation.
#
# grid-dense's BLAS-bound cells, run on nproc threads, are not slowed in
# step with the kernel: scaling by it, or by a dense-product kernel on one
# or two threads, made its 30 s window medians spread four to six times as
# much as its raw times did, so it reports those.

CAL_REF_S = 2.5e-3  # the kernel's time on a quiet 2-vCPU Xeon VM at 2.1 GHz
# Kernel calls on each side of an operation; None reports raw wall time.
CALIBRATION_REPEATS = {"scsc-small": 2, "consensus-graph": 10, "grid-dense": None}
_CAL_P = (lambda a: a @ a.T / 10 + np.eye(10))(np.random.default_rng(0).standard_normal((10, 10)))


def _calibration_kernel():
    """300 extragradient steps on a fixed 10-d quadratic game."""
    x, y = np.ones(10), np.zeros(10)
    for _ in range(300):
        gx, gy = _CAL_P @ x + y, x - y
        xh, yh = x - 0.05 * gx, y + 0.05 * gy
        gx, gy = _CAL_P @ xh + yh, xh - yh
        x, y = x - 0.05 * gx, y + 0.05 * gy
    return x


def _calibration_s(repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        _calibration_kernel()
    return (time.perf_counter() - start) / repeats


def measure(repeats: Optional[int], fn):
    """(fn(), wall seconds, seconds scaled to the reference host speed)."""
    before = _calibration_s(repeats) if repeats else None
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    if not repeats:
        return result, wall, wall
    return result, wall, wall / ((before + _calibration_s(repeats)) / 2) * CAL_REF_S


# --------------------------------------------------------------------------
# Passes.


def _guarded(run):
    try:
        return run(), None
    except Exception as exc:  # a raising call fails all its cells
        return None, exc


def run_op(op: Op) -> Outcome:
    (rows, error), wall, scaled_s = measure(op.cal_repeats, lambda: _guarded(op.run))
    out = Outcome(op, wall, scaled_s, rows)
    if rows is None:
        out.failures = [f"{type(error).__name__}: {error}"] * len(op.cells)
        out.known = [_known_load_defect(error)] * len(op.cells)
    elif len(rows) != len(op.cells):
        out.failures = [f"{len(rows)} rows for {len(op.cells)} cells"] * len(op.cells)
        out.known = [""] * len(op.cells)
    else:
        out.failures = [check_row(c, r) for c, r in zip(op.cells, rows)]
        out.known = [c.known_defect for c in op.cells]
    return out


def run_pass(ops: List[Op], seconds: float, count: Optional[int] = None):
    """Run ops in order, cycling, for ``seconds`` (at least one full sweep)
    or for exactly ``count`` ops."""
    outcomes = []
    start = time.perf_counter()
    while True:
        n = len(outcomes)
        if count is not None:
            if n == count:
                break
        elif n >= len(ops) and time.perf_counter() - start >= seconds:
            break
        outcomes.append(run_op(ops[n % len(ops)]))
    return outcomes
