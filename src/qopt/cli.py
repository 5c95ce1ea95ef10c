"""Command-line interface.

Exit codes: 0 success, 1 verification check failure, 2 configuration error,
3 numerical failure (partial trace flushed with a failure marker row).
"""

from __future__ import annotations

import argparse
import sys

from .checks import available_checks, verify
from .errors import ConfigError, NumericalFailureError
from .harness import load_config, run_experiment, sweep

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _cmd_run(args):
    config = load_config(args.config)
    path = args.output or config.output_path
    if path is None:
        raise ConfigError("output_path", "missing (set it in the config or pass --output)")
    trace = run_experiment(config, output_path=path)
    gap = trace.final_gap
    gap_part = "" if gap is None else f", gap={gap:.6g}"
    print(f"wrote {path}: {len(trace.iteration)} rows, oracle_calls={trace.final_oracle_calls}, "
          f"f={trace.f_value[-1]:.9g}{gap_part}")
    return EXIT_OK


def _cmd_verify(args):
    if args.list:
        for name in available_checks():
            print(name)
        return EXIT_OK
    suite = None if args.suite is None else [s.strip() for s in args.suite.split(",")]
    report = verify(suite)
    width = max(len(c.name) for c in report.checks)
    print(f"{'check':<{width}}  {'worst':>12}  {'tol':>9}  {'n':>6}  status")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {c.max_violation:>12.3e}  {c.tolerance:>9.0e}  "
              f"{c.samples:>6}  {status}" + (f"  ({c.note})" if c.note else ""))
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return EXIT_OK if report.overall else EXIT_CHECK_FAILURE


def _cmd_sweep(args):
    summary = sweep(load_config(args.config), args.grid, args.out_dir)
    print(f"wrote {len(summary['runs'])} traces to {args.out_dir}")
    for algorithm, fit in summary["fits"].items():
        print(f"fit[{algorithm}]: slope={fit['slope']:.4f} intercept={fit['intercept']:.4f}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qopt",
        description="Constrained quasar-convex optimization experiments and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument("--output", help="trace CSV path (overrides config output_path)")

    p_verify = sub.add_parser("verify", help="run the property-verification suite")
    p_verify.add_argument("--suite", help="comma-separated check names or groups")
    p_verify.add_argument("--list", action="store_true", help="list available checks")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and fit scaling laws")
    p_sweep.add_argument("config", help="path to the base config JSON")
    p_sweep.add_argument("--grid", required=True, help="path to the grid JSON")
    p_sweep.add_argument("--out-dir", default="sweep_out", help="trace output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
