"""Command-line harness: generate instances, run solvers, emit reports.

Exit codes: 0 on success, 2 when any run exhausted its budget without
meeting its target, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from ..errors import BudgetExhausted, InnerBudgetExhausted, SaddleSlideError
from . import generators, runner

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddleslide",
        description="Benchmark harness for the composite saddle point solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance")
    gen.add_argument("--kind", required=True, choices=[
        generators.KIND_QUADRATIC, generators.KIND_BILINEAR,
        generators.KIND_CONSENSUS, generators.KIND_LINEAR_BILINEAR,
    ])
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dx", type=int, default=10)
    gen.add_argument("--dy", type=int, default=10)
    gen.add_argument("--lp", type=float, default=4.0)
    gen.add_argument("--lq", type=float, default=4.0)
    gen.add_argument("--mux", type=float, default=1.0)
    gen.add_argument("--muy", type=float, default=1.0)
    gen.add_argument("--lr", type=float, default=10.0)
    gen.add_argument("--mup", type=float, default=1.0)
    gen.add_argument("--muq", type=float, default=1.0)
    gen.add_argument("--sigma", type=float, default=5.0,
                     help="top singular value of the coupling (bilinear)")
    gen.add_argument("--nodes", type=int, default=5)
    gen.add_argument("--topology", choices=["path", "ring", "star"], default="path")
    gen.add_argument("--local-mu", type=float, default=1.0)
    gen.add_argument("--local-l", type=float, default=4.0)
    gen.add_argument("--spread", type=float, default=0.1)
    gen.add_argument("--cond", type=float, default=10.0,
                     help="coupling condition number (linear-bilinear)")

    solve_p = sub.add_parser("solve", help="run one solver on one instance")
    solve_p.add_argument("--manifest", required=True)
    solve_p.add_argument("--solver", default=runner.SOLVER_SLIDING,
                         choices=runner.SOLVERS)
    solve_p.add_argument("--eps", type=float, default=1e-6)
    solve_p.add_argument("--max-outer", type=int, default=200_000)
    solve_p.add_argument("--out", default=None, help="directory for the JSON report")

    bench = sub.add_parser("bench", help="run a config grid")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--parallel", type=int, default=1)
    bench.add_argument("--max-outer", type=int, default=None)

    report = sub.add_parser("report", help="aggregate run JSONs into a CSV")
    report.add_argument("--out", required=True,
                        help="directory holding run_*.json files")
    return parser


def _cmd_gen(args) -> int:
    if args.kind == generators.KIND_QUADRATIC:
        inst = generators.gen_quadratic_spp(
            args.dx, args.dy, args.lp, args.mux, args.lq, args.muy,
            args.lr, args.seed,
        )
    elif args.kind == generators.KIND_BILINEAR:
        inst = generators.gen_bilinear(
            args.dx, args.dy, args.lp, args.mup, args.lq, args.muq,
            args.sigma, args.seed,
        )
    elif args.kind == generators.KIND_CONSENSUS:
        inst = generators.gen_consensus(
            args.nodes, args.topology, args.local_mu, args.local_l,
            args.seed, spread=args.spread,
        )
    else:
        inst = generators.gen_linear_bilinear(
            args.dx, args.seed, cond=args.cond,
        )
    manifest_path = inst.save(args.out)
    print(f"wrote {manifest_path}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = generators.Instance.load(args.manifest)
    try:
        row = runner.run_single(inst, args.solver, args.eps, max_outer=args.max_outer)
    except (BudgetExhausted, InnerBudgetExhausted) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{inst.instance_id}_{args.solver}.json", "w") as fh:
            json.dump(asdict(row), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"{row.instance} solver={row.solver} eps={row.eps:g} "
        f"grad_p={row.calls_grad_p} grad_q={row.calls_grad_q} "
        f"grad_R={row.calls_grad_R} dist_w={row.dist_weighted:.3e} "
        f"termination={row.termination}"
    )
    return EXIT_OK if runner.run_succeeded(row) else EXIT_BUDGET


def _cmd_bench(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    if args.max_outer is not None:
        config["max_outer"] = args.max_outer
    try:
        reports = runner.run_experiment(config, args.out, parallel=args.parallel)
    except (BudgetExhausted, InnerBudgetExhausted) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"wrote {len(reports)} runs to {args.out}")
    return EXIT_OK if all(runner.run_succeeded(r) for r in reports) else EXIT_BUDGET


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    rows = []
    for path in sorted(out_dir.glob("run_*.json")):
        with open(path) as fh:
            rows.append(runner.RunReport(**json.load(fh)))
    runner.write_csv(out_dir / "aggregate.csv", rows)
    for row in rows:
        print(
            f"{row.instance:40s} {row.solver:10s} eps={row.eps:<9g} "
            f"p={row.calls_grad_p:<7d} q={row.calls_grad_q:<7d} "
            f"R={row.calls_grad_R:<9d} dw={row.dist_weighted:.3e} {row.termination}"
        )
    print(f"{len(rows)} runs -> {out_dir / 'aggregate.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_report(args)
    except SaddleSlideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
