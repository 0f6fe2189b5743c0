"""Experiment grid runner with machine-readable reports.

A config names instances, solvers, and accuracies; every (instance,
solver, eps) cell becomes one run whose distances are always measured
against the direct KKT reference, never against another solver.  Each run
emits a JSON report; the grid emits one aggregate CSV.  Identical config
plus seeds give byte-identical output apart from the wall_ms column,
which `determinism_digest` excludes.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Union

import numpy as np

from ..bilinear import (
    solve_affine_constrained,
    solve_bilinear,
    solve_bilinear_linear_composites,
    split_bilinear,
)
from ..errors import ManifestError
from ..outer import (
    TERMINATION_BUDGET,
    TERMINATION_RESIDUAL,
    ConvergenceReport,
    SolveConfig,
    initial_potential,
    solve,
    tune_parameters,
)
from ..problems import (
    PointPair,
    unweighted_distance_sq,
    weighted_distance_sq,
)
from .baselines import agd_joint_baseline, baseline_extragradient
from .generators import (
    KIND_BILINEAR,
    KIND_CONSENSUS,
    KIND_LINEAR_BILINEAR,
    KIND_QUADRATIC,
    Instance,
    reference_solution,
)

SOLVER_SLIDING = "sliding"
SOLVER_EG = "eg"
SOLVER_AGD_JOINT = "agd-joint"

CSV_COLUMNS = [
    "instance",
    "solver",
    "eps",
    "calls_grad_p",
    "calls_grad_q",
    "calls_grad_R",
    "outer_iters",
    "inner_iters",
    "dist_weighted",
    "dist_unweighted",
    "wall_ms",
    "termination",
]


@dataclass
class RunReport:
    """One row of the aggregate CSV."""

    instance: str
    solver: str
    eps: float
    calls_grad_p: int
    calls_grad_q: int
    calls_grad_R: int
    outer_iters: int
    inner_iters: int
    dist_weighted: float
    dist_unweighted: float
    wall_ms: float
    termination: str

    def to_row(self) -> List[str]:
        return [
            self.instance,
            self.solver,
            repr(float(self.eps)),
            str(self.calls_grad_p),
            str(self.calls_grad_q),
            str(self.calls_grad_R),
            str(self.outer_iters),
            str(self.inner_iters),
            repr(float(self.dist_weighted)),
            repr(float(self.dist_unweighted)),
            repr(float(self.wall_ms)),
            self.termination,
        ]


def _sliding_run(
    inst: Instance, eps: float, max_outer: int, reference: PointPair
) -> ConvergenceReport:
    if inst.kind == KIND_QUADRATIC:
        problem = inst.problem()
        spec = inst.spec()
        start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
        psi_0 = initial_potential(problem, spec, start, reference)
        config = SolveConfig(eps=eps, max_outer=max_outer, psi_0=psi_0)
        return solve(problem, spec, start, config)
    if inst.kind == KIND_BILINEAR:
        bp = inst.bilinear_problem()
        start = PointPair(np.zeros(bp.d_x), np.zeros(bp.d_y))
        composite, spec = split_bilinear(bp)
        psi_0 = initial_potential(composite, spec, start, reference)
        return solve_bilinear(bp, start, eps, max_outer=max_outer, psi_0=psi_0)
    if inst.kind == KIND_CONSENSUS:
        grad, value = inst.local_objective()
        return solve_affine_constrained(
            grad_p=grad,
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(),
            c=inst.arrays["c"],
            D_y=inst.constants["D_y"],
            eps=eps,
            value_p=value,
            max_outer=max_outer,
        )
    if inst.kind == KIND_LINEAR_BILINEAR:
        return solve_bilinear_linear_composites(
            d=inst.arrays["d"],
            c=inst.arrays["c"],
            coupling=inst.coupling(),
            D_x=inst.constants["D_x"],
            D_y=inst.constants["D_y"],
            eps=eps,
            max_outer=max_outer,
        )
    raise ManifestError(f"no sliding route for kind {inst.kind!r}")


def _eg_run(
    inst: Instance, eps: float, max_outer: int, reference: PointPair
) -> ConvergenceReport:
    if inst.kind == KIND_QUADRATIC:
        problem = inst.problem()
        spec = inst.spec()
    elif inst.kind == KIND_BILINEAR:
        problem, spec = split_bilinear(inst.bilinear_problem())
    else:
        raise ManifestError(f"eg baseline needs an SCSC instance, got {inst.kind!r}")
    tuning = tune_parameters(spec)
    start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
    return baseline_extragradient(
        problem,
        spec,
        start,
        eps,
        max_iter=max_outer,
        reference=reference,
        eta_x=tuning.eta_x,
        eta_y=tuning.eta_y,
    )


def run_single(
    inst: Instance, solver: str, eps: float, max_outer: int = 200_000
) -> RunReport:
    """Execute one (instance, solver, eps) cell and measure it."""
    reference = reference_solution(inst)
    started = time.perf_counter()
    if solver == SOLVER_SLIDING:
        report = _sliding_run(inst, eps, max_outer, reference)
    elif solver == SOLVER_EG:
        report = _eg_run(inst, eps, max_outer, reference)
    elif solver == SOLVER_AGD_JOINT:
        report = agd_joint_baseline(inst, eps, max_iter=max_outer)
    else:
        raise ManifestError(f"unknown solver {solver!r}")
    wall_ms = (time.perf_counter() - started) * 1e3

    if report.tuning is not None:
        dist_w = weighted_distance_sq(
            report.final_pair, reference, report.tuning.eta_x, report.tuning.eta_y
        )
    else:
        dist_w = unweighted_distance_sq(report.final_pair, reference)
    counters = report.counters
    return RunReport(
        instance=inst.instance_id,
        solver=solver,
        eps=eps,
        calls_grad_p=counters.calls_grad_p,
        calls_grad_q=counters.calls_grad_q,
        calls_grad_R=counters.calls_grad_R,
        outer_iters=counters.outer_iterations,
        inner_iters=counters.inner_iterations,
        dist_weighted=dist_w,
        dist_unweighted=unweighted_distance_sq(report.final_pair, reference),
        wall_ms=wall_ms,
        termination=report.termination,
    )


def run_succeeded(row: RunReport) -> bool:
    """Whether a run met its target in the sense its route certifies."""
    if row.termination == TERMINATION_RESIDUAL:
        return True
    if row.termination != TERMINATION_BUDGET:
        return False
    # Planned-budget completion: the reduction routes certify internally
    # (they raise on failure), the SCSC routes are checked by distance.
    if row.instance.startswith((KIND_CONSENSUS, KIND_LINEAR_BILINEAR)):
        return True
    return row.dist_weighted <= row.eps


def _expand_grid(config: dict) -> List[dict]:
    runs = []
    for manifest in config.get("instances", []):
        for solver in config.get("solvers", [SOLVER_SLIDING]):
            for eps in config.get("eps", [1e-6]):
                runs.append({"manifest": manifest, "solver": solver, "eps": eps})
    return runs


def run_experiment(
    config: Union[dict, str, Path],
    out_dir: Union[str, Path],
    parallel: int = 1,
) -> List[RunReport]:
    """Execute a config grid; write one JSON per run and an aggregate CSV.

    Runs are independent and may execute concurrently up to ``parallel``;
    all output is written serially afterwards in grid order, so the CSV
    byte stream is deterministic for a fixed config (apart from wall_ms).
    """
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = _expand_grid(config)
    max_outer = int(config.get("max_outer", 200_000))

    def execute(run_spec):
        inst = Instance.load(run_spec["manifest"])
        return run_single(
            inst, run_spec["solver"], float(run_spec["eps"]), max_outer=max_outer
        )

    if parallel > 1 and len(runs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            reports = list(pool.map(execute, runs))
    else:
        reports = [execute(r) for r in runs]

    for i, report in enumerate(reports):
        path = out_dir / f"run_{i:04d}.json"
        with open(path, "w") as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    write_csv(out_dir / "aggregate.csv", reports)
    return reports


def write_csv(path, reports: List[RunReport]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        lines.append(",".join(report.to_row()))
    Path(path).write_text("\n".join(lines) + "\n")


def determinism_digest(csv_text: str) -> str:
    """SHA-256 of a CSV with the wall_ms column blanked out."""
    wall_idx = CSV_COLUMNS.index("wall_ms")
    rows = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        if len(cells) == len(CSV_COLUMNS):
            cells[wall_idx] = ""
        rows.append(",".join(cells))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
