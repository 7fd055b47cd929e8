"""Command line front end.

Subcommands: train (one experiment), sweep (a grid with paired references),
gradcheck (finite-difference validation), plot (CSV to SVG). Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure (a diverged run
included). train runs the one-cell sweep of its config.
"""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (SWEEP_AXES, SweepResult, choose_sweep_axis,
                          plot_drop_curve, read_results, run_sweep,
                          write_results)
from .gradcheck import REL_TOL, run_gradient_checks


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="splitfedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def run_parser(name, what, out):
        p = sub.add_parser(name, help=what)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config field")
        p.add_argument("--out", default=out, help="summary CSV path")
        return p

    run_parser("train", "run one experiment", "results.csv").set_defaults(
        axis=[], jobs=1)
    p_sweep = run_parser("sweep", "run a grid of experiments", "sweep.csv")
    p_sweep.add_argument("--axis", action="append", default=[],
                         metavar="NAME=V1,V2,...",
                         help=f"sweep axis, one of {sorted(SWEEP_AXES)}")
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--count", type=int, default=24)
    p_grad.add_argument("--seed", type=int, default=0)

    p_plot = sub.add_parser("plot", help="draw an accuracy-drop chart from a CSV")
    p_plot.add_argument("--in", dest="in_path", required=True)
    p_plot.add_argument("--out", dest="out_path", required=True)
    p_plot.add_argument("--axis", choices=("cut", "frac", "defense"))
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.set:
        from .config import parse_config_text
        cfg = parse_config_text("\n".join(args.set), cfg)
    return cfg.validate()


def _parse_axes(pairs: list[str]) -> dict[str, list]:
    axes: dict[str, list] = {}
    for raw in pairs:
        if "=" not in raw:
            raise ConfigError(f"axis {raw!r} is not NAME=V1,V2,...")
        name, _, values = raw.partition("=")
        name = name.strip()
        if name not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {name!r}")
        vals: list = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"axis {name!r} has no values")
        if name == "frac":
            vals = [float(v) for v in vals]
        elif name == "seed":
            vals = [int(v) for v in vals]
        axes[name] = vals
    return axes


def _print_result(result: SweepResult) -> None:
    for desc, reason in result.skipped:
        print(f"skipped {desc}: {reason}")
    for r in result.rows:
        where = f"{r.mode}/{r.cut}" if r.cut else r.mode
        print(f"{where} defense={r.defense} attack={r.attack} "
              f"frac={r.frac_malicious:g} seed={r.seed} "
              f"acc={r.acc:.2f} attacked={r.acc_attack:.2f} drop={r.acc_drop:.2f}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    try:
        if args.command in ("train", "sweep"):
            cfg = _load_config(args)
            axes = _parse_axes(args.axis)
            result = run_sweep(cfg, axes, n_jobs=max(1, args.jobs))
            write_results(result, args.out)
            _print_result(result)
            print(f"wrote {args.out}")
            return 0
        if args.command == "gradcheck":
            results = run_gradient_checks(args.count, args.seed)
            worst = max(r.max_rel_err for r in results)
            for r in results:
                mark = "ok" if r.passed else "FAIL"
                print(f"{mark:4s} {r.description:20s} max rel err {r.max_rel_err:.3e}")
            print(f"worst {worst:.3e} (tolerance {REL_TOL:g})")
            return 0 if all(r.passed for r in results) else 2
        if args.command == "plot":
            rows = read_results(args.in_path)
            if not rows:
                print("no rows to plot", file=sys.stderr)
                return 2
            axis = args.axis or choose_sweep_axis(rows)
            plot_drop_curve(rows, axis, args.out_path)
            print(f"wrote {args.out_path}")
            return 0
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
