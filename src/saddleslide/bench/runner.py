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
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple, Union

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
    _is_count,
    initial_potential,
    solve,
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
SOLVERS = (SOLVER_SLIDING, SOLVER_EG, SOLVER_AGD_JOINT)

# The keys of a grid config; `run_experiment` refuses any other.
GRID_KEYS = ("instances", "solvers", "eps", "max_outer")


@dataclass
class RunReport:
    """One row of the aggregate CSV, its fields the columns in order.

    ``dist_primal`` is ``||x - x*||^2``, the x block's share of
    ``dist_unweighted``; run files written before it was recorded load
    with NaN there.
    """

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
    dist_primal: float = math.nan

    def to_row(self) -> List[str]:
        # Floats print with repr, so the CSV carries every bit of the JSON.
        return [
            repr(float(getattr(self, f.name))) if f.type == "float"
            else str(getattr(self, f.name))
            for f in fields(self)
        ]


CSV_COLUMNS = [f.name for f in fields(RunReport)]


def _scsc_problem(inst: Instance):
    """An SCSC instance's ``(problem, spec, bilinear problem or None)``."""
    if inst.kind == KIND_QUADRATIC:
        return inst.problem(), inst.spec(), None
    if inst.kind == KIND_BILINEAR:
        bp = inst.bilinear_problem()
        return (*split_bilinear(bp), bp)
    raise ManifestError(f"no SCSC route for kind {inst.kind!r}")


def _sliding_run(
    inst: Instance,
    eps: float,
    max_outer: int,
    reference: PointPair,
) -> ConvergenceReport:
    if inst.kind == KIND_CONSENSUS:
        grad, _ = inst.local_objective()
        return solve_affine_constrained(
            grad_p=grad,
            L_p=inst.constants["local_L"],
            mu_p=inst.constants["local_mu"],
            coupling=inst.coupling(),
            c=inst.arrays["c"],
            D_y=inst.constants["D_y"],
            eps=eps,
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
    # The SCSC routes size their planned budget, the cap of a certified
    # run, from the reference's initial potential.
    problem, spec, bp = _scsc_problem(inst)
    start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
    config = SolveConfig(
        eps=eps, max_outer=max_outer,
        psi_0=initial_potential(problem, spec, start, reference),
        use_residual_stop=True,
    )
    if bp is None:
        return solve(problem, spec, start, config)
    return solve_bilinear(bp, start, config)


def _eg_run(
    inst: Instance, eps: float, max_outer: int, reference: PointPair
) -> ConvergenceReport:
    problem, spec, _ = _scsc_problem(inst)
    start = PointPair(np.zeros(problem.d_x), np.zeros(problem.d_y))
    return baseline_extragradient(
        problem, spec, start, eps, max_iter=max_outer, reference=reference
    )


def run_single(
    inst: Instance,
    solver: str,
    eps: float,
    max_outer: int = 200_000,
    reference: Optional[PointPair] = None,
) -> RunReport:
    """Execute one (instance, solver, eps) cell and measure it.

    ``reference`` is the instance's KKT reference when the caller has
    already solved it; otherwise it is solved here.  A sliding run stops
    ``residual-met`` once its certificate proves its route's target, with
    the planned budget as its cap.
    """
    if reference is None:
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
        dist_primal=float(np.sum((report.final_pair.x - reference.x) ** 2)),
    )


def run_succeeded(row: RunReport) -> bool:
    """Whether a run met its target in the sense its route certifies.

    A ``residual-met`` run carries its certificate.  A run that used up its
    planned budget passes only when the reference shows its route's
    guarantee: ``dist_weighted <= eps`` on the SCSC routes,
    ``dist_primal <= eps`` on consensus, which promises the primal block
    alone, and ``dist_unweighted <= eps`` on the linear-composite
    reduction.
    """
    if row.termination == TERMINATION_RESIDUAL:
        return True
    if row.termination != TERMINATION_BUDGET:
        return False
    if row.instance.startswith(KIND_CONSENSUS):
        return row.dist_primal <= row.eps
    if row.instance.startswith(KIND_LINEAR_BILINEAR):
        return row.dist_unweighted <= row.eps
    return row.dist_weighted <= row.eps


def _read_grid(config) -> Tuple[List[dict], int]:
    """A grid config's cells, in grid order, and its ``max_outer``.

    Raises ManifestError unless the config is an object of the keys
    `GRID_KEYS` that names ``instances``, with ``instances``, ``solvers``
    and ``eps`` lists and ``max_outer`` an integer of at least 1.  Each
    instance must be a manifest path string, each solver one of `SOLVERS`
    and each eps a finite number above 0, not a bool, so that a bad entry
    fails here rather than after manifests have been loaded and solved.
    """
    if not isinstance(config, dict):
        raise ManifestError(f"a grid config is an object, got {config!r}")
    unknown = sorted(set(config).difference(GRID_KEYS))
    if unknown:
        raise ManifestError(f"unknown grid config keys {unknown}; known: {list(GRID_KEYS)}")
    if "instances" not in config:
        raise ManifestError("grid config names no 'instances'")
    axes = [config["instances"], config.get("solvers", [SOLVER_SLIDING]),
            config.get("eps", [1e-6])]
    for key, axis in zip(("instances", "solvers", "eps"), axes):
        if not isinstance(axis, list):
            raise ManifestError(f"grid config {key!r} must be a list, got {axis!r}")
    instances, solvers, eps_list = axes
    for manifest in instances:
        if not isinstance(manifest, str):
            raise ManifestError(f"grid config instance {manifest!r} is not a path string")
    for solver in solvers:
        if solver not in SOLVERS:
            raise ManifestError(f"unknown solver {solver!r}; known: {list(SOLVERS)}")
    for eps in eps_list:
        number = isinstance(eps, (int, float)) and not isinstance(eps, bool)
        if not (number and 0 < eps < math.inf):
            raise ManifestError(f"grid config eps {eps!r} is not a finite number > 0")
    max_outer = config.get("max_outer", 200_000)
    if not _is_count(max_outer, 1):
        raise ManifestError(f"grid config 'max_outer' must be an integer >= 1, got {max_outer!r}")
    runs = [
        {"manifest": manifest, "solver": solver, "eps": eps}
        for manifest in instances for solver in solvers for eps in eps_list
    ]
    return runs, max_outer


class _PreparedManifests:
    """Each manifest of a grid loaded, verified and KKT-solved once.

    The first cell to need a manifest prepares it under that manifest's
    lock while its other cells wait.  A failed preparation is not kept, so
    every cell of that manifest raises the same error, as it would alone.
    The entry is dropped when the manifest's last cell finishes, so about
    ``parallel`` instances are alive at a time.
    """

    def __init__(self, runs: List[dict]):
        self._cells_left = Counter(r["manifest"] for r in runs)
        self._locks = {m: threading.Lock() for m in self._cells_left}
        self._entries = {}  # manifest -> (instance, KKT reference)
        self._count_lock = threading.Lock()

    @contextmanager
    def use(self, manifest: str):
        try:
            with self._locks[manifest]:
                if manifest not in self._entries:
                    inst = Instance.load(manifest)
                    self._entries[manifest] = (inst, reference_solution(inst))
                entry = self._entries[manifest]
            yield entry
        finally:
            with self._count_lock:
                self._cells_left[manifest] -= 1
                if not self._cells_left[manifest]:
                    self._entries.pop(manifest, None)


def run_experiment(
    config: Union[dict, str, Path],
    out_dir: Union[str, Path],
    parallel: int = 1,
) -> List[RunReport]:
    """Execute a config grid; write one JSON per run and an aggregate CSV.

    Each distinct manifest is loaded, verified and solved for its KKT
    reference once; its cells share the instance.  Runs are independent and
    may execute concurrently up to ``parallel`` threads; all output is
    written serially afterwards in grid order, so the CSV byte stream is
    deterministic for a fixed config (apart from wall_ms).  ``run_*.json``
    files in ``out_dir`` that this call did not write are removed.  A
    malformed config raises ManifestError before anything is written.
    """
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    runs, max_outer = _read_grid(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    prepared = _PreparedManifests(runs)

    def execute(run_spec):
        with prepared.use(run_spec["manifest"]) as (inst, reference):
            return run_single(
                inst,
                run_spec["solver"],
                float(run_spec["eps"]),
                max_outer=max_outer,
                reference=reference,
            )

    if parallel > 1 and len(runs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            reports = list(pool.map(execute, runs))
    else:
        reports = [execute(r) for r in runs]

    paths = [out_dir / f"run_{i:04d}.json" for i in range(len(reports))]
    for stale in set(out_dir.glob("run_*.json")).difference(paths):
        stale.unlink()
    for path, report in zip(paths, reports):
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
