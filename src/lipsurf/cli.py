"""Command line interface.

Subcommands: sample, surface, cover, tails, bounds, brw, existence, oracle.
Shared flags (--d, --p, --seed, ...) may also come from a JSON config file
via --config; explicit flags win over config values.  Exit codes: 0 success,
1 invalid config or usage, 2 bound-hypothesis violation, 3 certification
budget exhausted beyond the configured threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import HypothesisError, constants_summary
from .harness import (TAIL_KINDS, BudgetExceededError, ConfigError, _base_ball,
                      _config_dict, oracle_suite, run_experiment)
from .lattice import BoxRegion, ExplicitConfig, PercolationField
from .reach import Budget
from .surface import COVER_BUDGET, build_surface, minimal_cover

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # usage errors share the invalid-config exit code, keeping 2 and 3 for
    # the documented semantic failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--d", type=int, default=None, help="lattice dimension (>= 2)")
    sp.add_argument("--p", type=float, default=None, help="open-site probability")
    sp.add_argument("--seed", type=int, default=None, help="master seed")
    sp.add_argument("--replicates", type=int, default=None)
    sp.add_argument("--kmax", type=int, default=None, help="largest tail level")
    sp.add_argument("--box-margin", type=int, default=None)
    sp.add_argument("--box-height", type=int, default=None)
    sp.add_argument("--growth-cap", type=int, default=None)
    sp.add_argument("--step-set", choices=["full", "no-straight-down"], default=None)
    sp.add_argument("--out", type=str, default=None, help="output file path")
    sp.add_argument("--format", choices=["csv", "json"], default=None)
    sp.add_argument("--config", type=str, default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lipsurf",
                     description="Lipschitz surfaces in site percolation")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", parents=[], help="emit an explicit configuration")
    _add_common(sp)
    sp.add_argument("--replicate", type=int, default=0)

    sp = sub.add_parser("surface", help="build a surface patch")
    _add_common(sp)
    sp.add_argument("--base-radius", type=int, default=None)

    sp = sub.add_parser("cover", help="minimal local cover at the origin")
    _add_common(sp)

    sp = sub.add_parser("tails", help="Monte Carlo tail curve vs closed-form bound")
    _add_common(sp)
    sp.add_argument("--kind", choices=TAIL_KINDS, default=None)

    sp = sub.add_parser("bounds", help="print all closed-form constants as JSON")
    _add_common(sp)

    sp = sub.add_parser("brw", help="branching random walk martingale/survival table")
    _add_common(sp)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--generations", type=int, default=None)

    sp = sub.add_parser("existence", help="certified-surface fraction across a p grid")
    _add_common(sp)
    sp.add_argument("--p-grid", type=str, default=None,
                    help="comma separated p values, ascending")
    sp.add_argument("--base-radius", type=int, default=None)

    sp = sub.add_parser("oracle", help="run the exhaustive oracle sweeps")
    _add_common(sp)
    return parser


_FLAG_TO_FIELD = {
    "d": "d", "p": "p", "seed": "seed", "replicates": "replicates",
    "kmax": "k_max", "box_margin": "box_margin", "box_height": "box_height",
    "growth_cap": "growth_cap", "step_set": "step_mode", "out": "out",
    "format": "format", "kind": "kind", "base_radius": "base_radius",
    "mu": "mu", "runs": "runs", "generations": "generations",
}


def _gather_config(args: argparse.Namespace) -> dict:
    config = _config_dict(args.config) if args.config else {}
    for flag, field_name in _FLAG_TO_FIELD.items():
        val = getattr(args, flag, None)
        if val is not None:
            config[field_name] = val
    if getattr(args, "p_grid", None):
        try:
            config["p_grid"] = [float(x) for x in args.p_grid.split(",")]
        except ValueError as e:
            raise ConfigError("p_grid", f"cannot parse: {e}") from e
    return config


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budget(config: dict, default: Budget) -> Budget:
    return Budget(config.get("box_margin", default.margin),
                  config.get("box_height", default.height),
                  config.get("growth_cap", default.growth_cap))


def _cmd_sample(args, config: dict) -> int:
    d = config.get("d", 2)
    p = config.get("p", 0.99)
    m = config.get("box_margin", 4)
    h = config.get("box_height", 4)
    field = PercolationField(d, p, config.get("seed", 0), args.replicate)
    box = BoxRegion(tuple([-m] * (d - 1) + [0]), tuple([m] * (d - 1) + [h]))
    states = tuple(0 if field.is_closed(s) else 1 for s in box.sites())
    explicit = ExplicitConfig(box, states)
    if config.get("format", "json") == "csv":
        lines = ["site,state"]
        for site, st in zip(box.sites(), explicit.states):
            lines.append("%s,%d" % (" ".join(map(str, site)), st))
        _emit("\n".join(lines) + "\n", config.get("out"))
    else:
        _emit(json.dumps(explicit.to_json(), sort_keys=True) + "\n", config.get("out"))
    return EXIT_OK


def _cmd_surface(args, config: dict) -> int:
    d = config.get("d", 2)
    radius = config.get("base_radius", 5)
    field = PercolationField(d, config.get("p", 0.99), config.get("seed", 0))
    patch = build_surface(field, _base_ball(d, radius), _budget(config, Budget()))
    if config.get("format", "json") == "csv":
        lines = ["column,value,status"]
        for col in patch.columns:
            lines.append("%s,%d,%s" % (" ".join(map(str, col)),
                                       patch.values[col], patch.status[col].value))
        _emit("\n".join(lines) + "\n", config.get("out"))
    else:
        _emit(patch.to_json_str() + "\n", config.get("out"))
    return EXIT_OK


def _cmd_cover(args, config: dict) -> int:
    d = config.get("d", 2)
    field = PercolationField(d, config.get("p", 0.99), config.get("seed", 0))
    cover = minimal_cover(field, (0,) * (d - 1), _budget(config, COVER_BUDGET))
    _emit(json.dumps(cover.to_json(), sort_keys=True) + "\n", config.get("out"))
    return EXIT_OK


def _cmd_run(args, config: dict, kind: str | None = None) -> int:
    """tails, brw and existence: one run_experiment call; `kind` is fixed by
    the subcommand, or for tails taken from --kind or the config file."""
    if kind is not None:
        config["kind"] = kind
    elif "kind" not in config:
        raise ConfigError("kind", "required: one of " + ", ".join(TAIL_KINDS))
    out = config.pop("out", None)
    result = run_experiment(config, out_path=out)
    if not out:
        sys.stdout.write(result["csv"] if config.get("format", "csv") == "csv"
                         else json.dumps(result["payload"], sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_bounds(args, config: dict) -> int:
    summary = constants_summary(config.get("d", 2), config.get("p", 0.99),
                                config.get("step_mode") == "no-straight-down")
    _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", config.get("out"))
    return EXIT_OK


def _cmd_oracle(args, config: dict) -> int:
    suite = oracle_suite(p=config.get("p", 0.99))
    _emit(json.dumps(suite, sort_keys=True, indent=2) + "\n", config.get("out"))
    return EXIT_OK if suite["all_passed"] else EXIT_CONFIG


_COMMANDS = {
    "sample": _cmd_sample, "surface": _cmd_surface, "cover": _cmd_cover,
    "tails": _cmd_run, "bounds": _cmd_bounds,
    "brw": functools.partial(_cmd_run, kind="brw"),
    "existence": functools.partial(_cmd_run, kind="existence_curve"),
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, _gather_config(args))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as e:
        print(f"error: bound hypothesis violated: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
