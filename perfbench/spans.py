"""Spans around saddleslide's public entry points, patched in from outside.

`traced(tracer)` replaces each traced name in the module that looks it up
(``runner`` and ``bilinear`` both import ``solve`` by name, for example)
and restores the originals on exit.  Spans are folded into per-thread
totals as they close, so a pass with millions of oracle calls keeps a
few dictionaries, not millions of records.  Each open span knows its
parent through the thread's span stack; a span's self time is its
duration minus the durations of its children.  Root spans (a
``run_single`` cell, an ``Instance.load``) also keep a tally of every
span opened under them, which is how oracle calls are attributed to the
grid cell that made them when cells run in parallel threads.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter
from contextlib import contextmanager

COMPOSITE = "problems.composite"
COUPLING = "problems.coupling"
OUTER = "outer.solve"
INNER = "inner.solve_auxiliary"
BILINEAR_INNER = "bilinear.inner"
REDUCTIONS = (
    "bilinear.solve_bilinear",
    "bilinear.solve_affine_constrained",
    "bilinear.solve_bilinear_linear_composites",
)
REFERENCE = "bench.reference"
LOAD = "bench.load"
BASELINES = ("bench.baselines.extragradient", "bench.baselines.agd_joint")
WRITE_CSV = "bench.runner.write_csv"
CELL = "bench.run_single"


@dataclasses.dataclass
class RootRecord:
    """One root span: what it returned and every span opened under it."""

    name: str
    result: object
    error: BaseException | None
    tally: Counter
    wait_ns: int  # wall time minus the thread's CPU time


class Tracer:
    """Span aggregation with per-thread stacks and totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (totals, extras, roots) of every thread seen

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, Counter(), [])
            with self._lock:
                self._threads.append(state[1:])
        return state

    def wrap(self, name, fn, note=None, root=False):
        """``fn`` inside a span; ``note(result, extras)`` adds layer counts."""

        def span(*args, **kwargs):
            stack, totals, extras, roots = self._state()
            tally = Counter() if root else (stack[-1][1] if stack else None)
            frame = [0, tally]  # child ns, root tally
            stack.append(frame)
            cpu = time.thread_time_ns() if root else 0
            start = time.perf_counter_ns()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = totals.get(name)
                if rec is None:
                    rec = totals[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if tally is not None:
                    tally[name] += 1
                if note is not None and error is None:
                    note(result, extras)
                if root:
                    wait = dur - (time.thread_time_ns() - cpu)
                    roots.append(RootRecord(name, result, error, tally, wait))

        return span

    def totals(self):
        """Merged ``{name: [calls, total_ns, self_ns]}`` over all threads."""
        merged = {}
        for totals, _, _ in self._threads:
            for name, (calls, total, own) in totals.items():
                rec = merged.setdefault(name, [0, 0, 0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
        return merged

    def extras(self):
        merged = Counter()
        for _, extras, _ in self._threads:
            merged.update(extras)
        return merged

    def roots(self):
        return [r for _, _, roots in self._threads for r in roots]


def _note_outer(report, extras):
    extras["outer.iterations"] += report.counters.outer_iterations
    extras["outer.planned_iterations"] += report.planned_outer


def _note_inner(prefix):
    def note(result, extras):
        extras[prefix + ".iterations"] += result.iterations
        extras[prefix + ".results"] += 1
        extras[prefix + ".stalls"] += result.accepted_by == "stall"

    return note


@contextmanager
def traced(tracer):
    """Patch every traced entry point for the duration of the block."""
    from saddleslide import bilinear, inner, outer
    from saddleslide.bench import generators, runner

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    wrap = tracer.wrap
    Instance = generators.Instance
    problem, coupling = Instance.problem, Instance.coupling
    bilinear_problem, local_objective = Instance.bilinear_problem, Instance.local_objective

    def traced_problem(self):
        p = problem(self)
        return dataclasses.replace(
            p,
            grad_p=wrap(COMPOSITE, p.grad_p),
            grad_q=wrap(COMPOSITE, p.grad_q),
            grad_R=wrap(COUPLING, p.grad_R),
        )

    def traced_coupling(self):
        op = coupling(self)
        return dataclasses.replace(
            op, matvec=wrap(COUPLING, op.matvec), rmatvec=wrap(COUPLING, op.rmatvec)
        )

    def traced_bilinear_problem(self):
        # The original builds its coupling through self.coupling(), which
        # is already the traced one.
        bp = bilinear_problem(self)
        return dataclasses.replace(
            bp, grad_p=wrap(COMPOSITE, bp.grad_p), grad_q=wrap(COMPOSITE, bp.grad_q)
        )

    def traced_local_objective(self):
        grad, value = local_objective(self)
        return wrap(COMPOSITE, grad), value

    load = wrap(LOAD, Instance.load, root=True)
    make_inner = bilinear.make_bilinear_inner_solver
    solve = wrap(OUTER, outer.solve, note=_note_outer)
    solve_bilinear = wrap(REDUCTIONS[0], bilinear.solve_bilinear)
    try:
        patch(Instance, "problem", traced_problem)
        patch(Instance, "coupling", traced_coupling)
        patch(Instance, "bilinear_problem", traced_bilinear_problem)
        patch(Instance, "local_objective", traced_local_objective)
        patch(Instance, "load", classmethod(lambda cls, *a, **k: load(*a, **k)))
        patch(runner, "solve", solve)
        patch(bilinear, "solve", solve)
        patch(inner, "solve_auxiliary",
              wrap(INNER, inner.solve_auxiliary, note=_note_inner(INNER)))
        patch(bilinear, "make_bilinear_inner_solver",
              lambda bp: wrap(BILINEAR_INNER, make_inner(bp),
                              note=_note_inner(BILINEAR_INNER)))
        patch(runner, "solve_bilinear", solve_bilinear)
        patch(bilinear, "solve_bilinear", solve_bilinear)
        patch(runner, "solve_affine_constrained",
              wrap(REDUCTIONS[1], runner.solve_affine_constrained))
        patch(runner, "solve_bilinear_linear_composites",
              wrap(REDUCTIONS[2], runner.solve_bilinear_linear_composites))
        patch(runner, "reference_solution", wrap(REFERENCE, runner.reference_solution))
        patch(runner, "baseline_extragradient",
              wrap(BASELINES[0], runner.baseline_extragradient))
        patch(runner, "agd_joint_baseline", wrap(BASELINES[1], runner.agd_joint_baseline))
        patch(runner, "write_csv", wrap(WRITE_CSV, runner.write_csv))
        patch(runner, "run_single", wrap(CELL, runner.run_single, root=True))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
