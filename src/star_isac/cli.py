"""Command-line entry point: run / sweep.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .experiments import (SWEEP_AXES, ConfigError, ScenarioConfig,
                          load_config, parse_value, run_scenario, sweep)


# option -> the config key it sets, its value parsed as in a config file
OPTIONS = {"algo": "algorithm", "protocol": "protocol", "baseline": "baseline",
           "seeds": "seeds", "episodes": "episodes"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="flat dotted-key config file")
    p.add_argument("--out", metavar="DIR", default="results", help="output directory")
    for option, key in OPTIONS.items():
        p.add_argument(f"--{option}",
                       help=f"sets {key}, written as in a config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-isac",
        description="STAR-RIS aided ISAC secure-communication experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one scenario")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one config axis")
    _add_common(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    return parser


def resolve_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    return replace(cfg, **dict(
        parse_value(key, getattr(args, option))
        for option, key in OPTIONS.items()
        if getattr(args, option) is not None))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            *per_seed, mean = run_scenario(cfg, args.out)
            spread = np.std([r["final_return"] for r in per_seed])
            print(f"scenario {cfg.scenario_id()}: "
                  f"final return {mean['final_return']:.4g} ± {spread:.4g}, "
                  f"secrecy {mean['final_secrecy']:.4g} bps/Hz")
        else:  # sweep
            values = [value.strip() for value in args.values.split(",")]
            results = sweep(cfg, args.axis, values, args.out)
            for r in results:
                if r["seed"] == "mean":
                    print(f"{args.axis}={r['value']}: "
                          f"return {r['final_return']:.4g}, "
                          f"secrecy {r['final_secrecy']:.4g}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
