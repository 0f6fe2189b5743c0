"""Benchmark of saddleslide: time to a checked solve and oracle tallies.

    python3 perfbench/run.py --workload scsc-small --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  ``--trace 0`` runs the untraced pass and prints the end-to-end
metrics; ``--trace 1`` runs an untraced half pass, then a traced pass over
the same operations, and prints the per-layer metrics and the tracing
overhead.  Every metric is printed as ``name value unit``; the last line
is one JSON object.  With no ``--workload`` every workload runs, both
passes, each in its own process.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per solver thread, set before numpy loads, so that
# grid-dense's nproc runner threads use at most nproc cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scsc-small", "consensus-graph", "grid-dense")
# Set-up repeats until both bounds are met (capped), and reports the median.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 2.0, 60


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import saddleslide
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import saddleslide from {src}: {exc}")
    if not Path(saddleslide.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: saddleslide imported from {saddleslide.__file__}, not {src}")


def _environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} seed={seed}")


def _tally_errors(outcomes, W):
    """Library identities, and identical tallies for repeats of one cell."""
    errors, first = [], {}
    for out in outcomes:
        for cell, row in zip(out.op.cells, out.rows or []):
            err = W.accounting_error(cell, row)
            if err:
                errors.append(f"{row.instance}/{row.solver}: {err}")
            key = (row.instance, row.solver, row.eps)
            tally = (row.calls_grad_p, row.calls_grad_q, row.calls_grad_R,
                     row.outer_iters, row.inner_iters, row.dist_weighted)
            if first.setdefault(key, tally) != tally:
                errors.append(f"{key}: tallies changed between repeats")
    return errors


def _digest_errors(outcomes):
    """determinism_digest of every aggregate.csv equals its first repeat's."""
    from saddleslide.bench import determinism_digest

    errors, first = [], {}
    for out in outcomes:
        if out.op.out_dir is None or out.rows is None:
            continue
        digest = determinism_digest((out.op.out_dir / "aggregate.csv").read_text())
        if first.setdefault(out.op.label, digest) != digest:
            errors.append(f"{out.op.label}: aggregate.csv digest changed")
    return errors


def _failures(outcomes, sweep):
    """(attempted, failed, unexpected failure messages) over the first sweep.

    Every pass makes the first sweep, however long it runs, so the counts
    depend on the seed alone.  Repeats must pass and fail the same cells.
    """
    attempted = failed = 0
    unexpected = []
    for out in outcomes[:sweep]:
        for cell, why, known in zip(out.op.cells, out.failures, out.known):
            attempted += 1
            if why is not None:
                failed += 1
                if not known:
                    unexpected.append(f"{out.op.label}/{cell.solver}/{cell.eps:g}: {why}")
    first = {id(out.op): [why is None for why in out.failures] for out in outcomes[:sweep]}
    for out in outcomes[sweep:]:
        if [why is None for why in out.failures] != first[id(out.op)]:
            unexpected.append(f"{out.op.label}: a repeat passed or failed other cells")
    return attempted, failed, unexpected


def _op_seconds(outcomes, ops, seconds):
    """Each operation's median over its repeats of ``seconds(outcome)``."""
    repeats = {}
    for out in outcomes:
        repeats.setdefault(id(out.op), []).append(seconds(out))
    return [statistics.median(repeats[id(op)]) for op in ops]


def _cell_ms(op_seconds, ops):
    """One sample per cell: its operation's time over the operation's cells."""
    return [t * 1e3 / len(op.cells) for t, op in zip(op_seconds, ops) for _ in op.cells]


def _end_to_end(outcomes, ops, setup_times):
    # Times are scaled to the reference host speed (workloads.measure).
    # Failed cells keep their measured time, so which cells fail on a seed
    # does not move the median; failed_share carries the failures.
    op_s = _op_seconds(outcomes, ops, lambda out: out.scaled_s)
    samples = _cell_ms(op_s, ops)
    first_sweep = outcomes[: len(ops)]
    passed = sum(why is None for out in first_sweep for why in out.failures)
    rows = [row for out in first_sweep for row in out.rows or []]
    metrics = {
        "solve_ms.p50": (statistics.median(samples), "ms"),
        # Cells that pass, per second of one sweep at the median times.
        "solves_per_s": (passed / sum(op_s), "1/s"),
        "composite_calls": (sum(r.calls_grad_p + r.calls_grad_q for r in rows), "count"),
        "coupling_calls": (sum(r.calls_grad_R for r in rows), "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, samples


def _per_layer(tracer, cells, untraced_s, traced_s):
    from spans import (BASELINES, BILINEAR_INNER, CELL, COMPOSITE, COUPLING, INNER,
                       LOAD, OUTER, REDUCTIONS, REFERENCE, WRITE_CSV)

    totals = tracer.totals()
    extras = tracer.extras()
    ms = 1e-6 / cells

    def calls(name):
        return totals.get(name, [0, 0, 0])[0] / cells

    def self_ms(*names):
        return sum(totals.get(n, [0, 0, 0])[2] for n in names) * ms

    def share(prefix):
        results = extras[prefix + ".results"]
        return extras[prefix + ".stalls"] / results if results else 0.0

    wait = sum(r.wait_ns for r in tracer.roots() if r.name in (CELL, LOAD))
    return {
        "outer.solve.self_ms": (self_ms(OUTER), "ms/op"),
        "outer.iterations": (extras["outer.iterations"] / cells, "iters/op"),
        "outer.planned_iterations": (extras["outer.planned_iterations"] / cells, "iters/op"),
        "inner.solve_auxiliary.self_ms": (self_ms(INNER), "ms/op"),
        "inner.solve_auxiliary.iterations": (extras[INNER + ".iterations"] / cells, "iters/op"),
        "inner.solve_auxiliary.stall_share": (share(INNER), "share"),
        "bilinear.inner.self_ms": (self_ms(BILINEAR_INNER), "ms/op"),
        "bilinear.inner.iterations": (extras[BILINEAR_INNER + ".iterations"] / cells, "iters/op"),
        "bilinear.inner.stall_share": (share(BILINEAR_INNER), "share"),
        "bilinear.reduction.self_ms": (self_ms(*REDUCTIONS), "ms/op"),
        "problems.coupling.calls": (calls(COUPLING), "calls/op"),
        "problems.coupling.self_ms": (self_ms(COUPLING), "ms/op"),
        "problems.composite.calls": (calls(COMPOSITE), "calls/op"),
        "problems.composite.self_ms": (self_ms(COMPOSITE), "ms/op"),
        "bench.reference.calls": (calls(REFERENCE), "calls/op"),
        "bench.reference.self_ms": (self_ms(REFERENCE), "ms/op"),
        "bench.load.calls": (calls(LOAD), "calls/op"),
        "bench.load.self_ms": (self_ms(LOAD), "ms/op"),
        "bench.baselines.self_ms": (self_ms(*BASELINES), "ms/op"),
        "bench.runner.write_ms": (totals.get(WRITE_CSV, [0, 0, 0])[1] * ms, "ms/op"),
        "bench.runner.wait_ms": (wait * ms, "ms/op"),
        "trace.overhead_share": (traced_s / untraced_s - 1.0, "share"),
    }


def _traced_tally_errors(tracer, W):
    """Wrapper tallies of every traced cell against the library's counters."""
    from spans import CELL, COMPOSITE, COUPLING

    errors = []
    for root in tracer.roots():
        if root.name != CELL or root.error is not None:
            continue
        row = root.result
        cell = W.Cell(W.kind_of(row.instance), row.solver, row.eps)
        want = W.wrapper_tallies(cell, row)
        got = (root.tally[COMPOSITE], root.tally[COUPLING])
        if got != want:
            errors.append(f"{row.instance}/{row.solver}/{row.eps:g}: traced "
                          f"(composite, coupling)={got}, library tallies imply {want}")
    return errors


def run_workload(workload, seed, seconds, trace):
    import workloads as W

    print(f"# {workload} trace={trace} " + _environment(seed), flush=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    try:
        setup_times, spent = [], 0.0
        while len(setup_times) < SETUP_MAX_REPEATS and (
                len(setup_times) < SETUP_MIN_REPEATS or spent < SETUP_MIN_SECONDS):
            # Every repeat rewrites the same files: creating and deleting
            # thousands of fresh ones makes set-up time swing threefold
            # from run to run on a disk that discards freed blocks.
            ops, wall, scaled_s = W.measure(W.CALIBRATION_REPEATS[workload],
                                            lambda: W.setup(workload, seed, work / "setup"))
            spent += wall
            setup_times.append(scaled_s)

        if trace:
            import spans as T

            outcomes = W.run_pass(ops, seconds / 2)
            tracer = T.Tracer()
            with T.traced(tracer):
                traced = W.run_pass(ops, 0, count=len(outcomes))
            errors = _traced_tally_errors(tracer, W)
            metrics = _per_layer(tracer, sum(len(o.op.cells) for o in traced),
                                 sum(o.scaled_s for o in outcomes),
                                 sum(o.scaled_s for o in traced))
            outcomes += traced
        else:
            outcomes = W.run_pass(ops, seconds)
            errors = []
            metrics, samples = _end_to_end(outcomes, ops, setup_times)
            wall_ms = _cell_ms(_op_seconds(outcomes, ops, lambda out: out.wall_s), ops)
            print(f"# unscaled wall time: solve_ms.p50 {statistics.median(wall_ms):.6g} ms")
        errors += _tally_errors(outcomes, W) + _digest_errors(outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, unexpected = _failures(outcomes, len(ops))
    known = Counter(k for o in outcomes[: len(ops)]
                    for why, k in zip(o.failures, o.known) if why and k)
    for defect, count in sorted(known.items()):
        print(f"# known defect, {count} failed cells: {defect}")
    for msg in sorted(set(unexpected + errors)):
        print(f"# CHECK FAILED: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} share")
    if not trace:
        p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else None
        beyond = sum(s > p90 for s in samples) if p90 is not None else 0
        if beyond >= 10:
            print(f"solve_ms.p90 {p90:.6g} ms")
        print(f"# solve_ms samples: {len(samples)} cells over {len(outcomes)} operations; "
              f"p90 is printed only with at least 10 samples beyond it ({beyond} here)")
    result = {
        "correct": not (unexpected or errors),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        status = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                status |= subprocess.run(
                    [sys.executable, __file__, "--workload", workload, "--seed",
                     str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                ).returncode
        return status
    _import_library()
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
