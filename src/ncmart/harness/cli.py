"""Command-line runner.

Subcommands: verify | ratios | kolmogorov | refine.  Exit codes: 0 when
every check passes, 1 on a check failure, 2 on a configuration error,
an output path that cannot be written included.  An output path whose
directory is missing, or that is a directory, is rejected before the
command runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from ..errors import ConfigError
from .commands import COMMANDS
from .config import LAYOUT, PRESETS, load_config, preset, read_config


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncmart",
        description="Identity suites and inequality sweeps on finite tracial algebras.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text in (
            ("verify", "run the exact-identity suite"),
            ("ratios", "sweep square-function and dual Doob ratios"),
            ("kolmogorov", "emit uniform-bound projection certificates"),
            ("refine", "partition-chain decay and gap diagnostics")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON experiment config")
        p.add_argument("--preset", metavar="NAME",
                       help=f"built-in config; one of {sorted(PRESETS)}")
        p.add_argument("--seed", type=int, metavar="N", help="override the seed")
        p.add_argument("--instances", type=int, metavar="N",
                       help="override the instance count")
        p.add_argument("--p", metavar="LIST", help="override p values, e.g. 3,4,8")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       help="output format (default from config: json)")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """The raw config dict with the command-line overrides applied."""
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        data = read_config(args.config)
    elif args.preset:
        data = preset(args.preset)
    else:
        raise ConfigError("a config is required: pass --config PATH or --preset NAME")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.instances is not None:
        data["instances"] = args.instances
    if args.p is not None:
        try:
            data["p_values"] = [float(tok) for tok in args.p.split(",") if tok]
        except ValueError:
            raise ConfigError(f"cannot parse p list {args.p!r}", "p_values")
    output = {key: value for key, value in (("format", args.fmt), ("path", args.out))
              if value is not None}
    current = data.get("output")
    if output and (current is None or isinstance(current, dict)):  # else load_config rejects it
        data["output"] = {**(current or {}), **output}
    return data


def check_output_path(path: str | None) -> None:
    """Raise the ConfigError of an output path that cannot be written, as
    far as that can be told without writing it."""
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"{path!r} is a directory", LAYOUT["output_path"])
    if not target.parent.is_dir():
        raise ConfigError(f"directory {str(target.parent)!r} does not exist",
                          LAYOUT["output_path"])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(resolve_config(args))
        check_output_path(config.output_path)
        report = COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.output_path:
        try:
            report.write(config.output_path, config.output_format)
        except OSError as exc:
            print(f"config error: {LAYOUT['output_path']}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report.render(config.output_format))
    if not report.all_passed:
        for r in [r for r in report.records if not r.passed][:10]:
            print(f"FAIL {r.check} (instance {r.instance}): residual {r.residual:.3e} "
                  f"> {r.tolerance:g} [{r.formula}]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
