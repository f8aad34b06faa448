"""Command line interface.

Exit codes: 0 success, 1 configuration problem, 2 numerical failure,
3 file system problem.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConfigurationError, NumericalError
from .experiment import emit_report, run_experiment
from .network import od_label
from .scenario import MODELS, load_scenario, packaged_scenario_path


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the configuration code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_scenario(value: str):
    """A path to a scenario file, or the bare name of a packaged preset."""
    if os.path.exists(value):
        return load_scenario(value)
    if os.sep not in value and not value.endswith(".scenario"):
        try:
            return load_scenario(packaged_scenario_path(value))
        except (KeyError, FileNotFoundError):
            pass
    # let the open() raise the real error for the exit code mapping
    return load_scenario(value)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario)
    models = None
    if args.models:
        models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    report = run_experiment(cfg, models=models, seed=args.seed)
    emit_report(report, args.out, include_profiles=args.emit_profiles)

    print(f"scenario {report.scenario!r} seed {report.seed} ({report.runtime_s:.2f} s)")
    print(f"{'model':<6} {'rmse_od':>12} {'rmse_link':>12} {'impr_od%':>10} {'impr_link%':>10}")
    failed = False
    for row in report.rows:
        if row.status != "ok":
            failed = True
            print(f"{row.model:<6} failed: {row.error}")
            continue
        impr_od = "-" if row.model == "seed" or row.impr_od_pct is None else f"{row.impr_od_pct:.2f}"
        impr_link = (
            "-" if row.model == "seed" or row.impr_link_pct is None else f"{row.impr_link_pct:.2f}"
        )
        print(
            f"{row.model:<6} {row.rmse_od:>12.4f} {row.rmse_link:>12.4f} "
            f"{impr_od:>10} {impr_link:>10}"
        )
    print(f"report written to {os.path.join(args.out, 'report.csv')}")
    return 2 if failed else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario)
    problems = cfg.validate()
    if problems:
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        return 1
    print(f"scenario {cfg.name!r} is valid: {len(cfg.network.od_index)} ODs, "
          f"{len(cfg.legs)} legs, {cfg.grid.n_intervals} intervals")
    return 0


def _cmd_show_network(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario)
    net = cfg.network
    print(f"network for scenario {cfg.name!r}")
    print(f"zones ({len(net.zones)}):")
    for zid in sorted(net.zones):
        print(f"  {zid} ({net.zones[zid].kind})")
    print(f"links ({len(net.links)}):")
    for lid in sorted(net.links):
        ln = net.links[lid]
        print(
            f"  {lid}: {ln.from_node}->{ln.to_node} "
            f"fft={ln.free_flow_time:g} cap={ln.capacity:g}"
        )
    print(f"paths ({len(net.paths)}):")
    for od in net.od_index:
        print(f"  {od_label(od)}: {' '.join(net.paths[od].links)}")
    print(f"detectors: {' '.join(net.detectors)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="odchain",
        description="Online OD demand estimation with trip chaining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write the report")
    run.add_argument("--scenario", required=True, help="scenario file or packaged preset name")
    run.add_argument("--models", help=f"comma-separated subset of {','.join(MODELS)}")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--out", default="out", help="output directory (default: ./out)")
    run.add_argument(
        "--emit-profiles", action="store_true", help="also write per-OD profile CSVs"
    )
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a scenario file and report problems")
    val.add_argument("--scenario", required=True)
    val.set_defaults(func=_cmd_validate)

    show = sub.add_parser("show-network", help="print zones, links, paths and detectors")
    show.add_argument("--scenario", required=True)
    show.set_defaults(func=_cmd_show_network)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, ConfigurationError, ValueError, OSError) as exc:
        # a line per line of the message, so a scenario's problems read one per line
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 3 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
