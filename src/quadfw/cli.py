"""Command-line entry point.

``quadfw solve <path>`` runs the portfolio on an instance, its workers
one after the other, and emits a JSON run report (exit code 0 when a
feasible solution was found, 2 when none was, 1 on error).
``quadfw metrics <reports...>`` aggregates report files into a Found /
TTF / Gap / PI table using shifted geometric means with shift 1.
"""

from __future__ import annotations

import argparse
import sys

from .config import DEFAULT_ELL_GRID, DEFAULT_P_GRID, Config
from .ingest import ParseError, build_report, parse_canonical, parse_qplib, read_report, write_report
from .metrics import aggregate_table
from .portfolio import run_portfolio


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadfw")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one instance with the portfolio")
    s.add_argument("path")
    s.add_argument("--format", choices=("canonical", "qplib"), default="canonical")
    s.add_argument("--time-limit", type=float, default=300.0)
    s.add_argument("--workers", type=int, default=8)
    s.add_argument("--p", type=_float_list, default=None, metavar="LIST",
                   help="comma-separated penalty exponents")
    s.add_argument("--ell", type=_float_list, default=None, metavar="LIST",
                   help="comma-separated convexification proportions")
    s.add_argument("--fw-iter", type=int, default=10)
    s.add_argument("--restart", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--node-limit", type=int, default=None)
    s.add_argument("--ref", type=float, default=None,
                   help="reference objective for gap / primal integral")
    s.add_argument("--no-asens", action="store_true")
    s.add_argument("--no-undercover", action="store_true")
    s.add_argument("--no-rins", action="store_true")
    s.add_argument("--no-ftg", action="store_true")
    s.add_argument("--qubo-bipartite", action="store_true")
    s.add_argument("--out", default=None, help="write the report here instead of stdout")

    m = sub.add_parser("metrics", help="aggregate run reports")
    m.add_argument("reports", nargs="+")
    return parser


def _solve(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        problem = parse_qplib(text) if args.format == "qplib" else parse_canonical(text)
        config = Config(
            time_limit=args.time_limit,
            workers=args.workers,
            p_grid=args.p if args.p else DEFAULT_P_GRID,
            ell_grid=args.ell if args.ell else DEFAULT_ELL_GRID,
            fw_iter=args.fw_iter,
            restart_interval=args.restart,
            seed=args.seed,
            node_limit=args.node_limit,
            reference=args.ref,
            enable_asens=not args.no_asens,
            enable_undercover=not args.no_undercover,
            enable_rins=not args.no_rins,
            enable_ftg=not args.no_ftg,
            enable_qubo_bipartite=args.qubo_bipartite,
        )
        report = run_portfolio(problem, config)
    except (ParseError, OSError, ValueError) as exc:
        error_report = build_report(
            instance=args.path,
            status="error",
            events=[],
            config={},
            time_limit=getattr(args, "time_limit", 0.0),
            termination=str(exc),
        )
        sys.stderr.write(write_report(error_report) + "\n")
        return 1
    text = write_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if report.status == "feasible" else 2


def _metrics(args: argparse.Namespace) -> int:
    rows = []
    for path in args.reports:
        with open(path, "r", encoding="utf-8") as handle:
            data = read_report(handle.read())
        metrics = data.get("metrics", {})
        rows.append(
            {
                "instance": data.get("instance", path),
                "found": data.get("status") == "feasible",
                "ttf": metrics.get("ttf"),
                "gap": metrics.get("gap"),
                "pi": metrics.get("primal_integral"),
            }
        )
    print(aggregate_table(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _solve(args)
    return _metrics(args)


if __name__ == "__main__":
    sys.exit(main())
