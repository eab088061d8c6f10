"""Command line interface.

Subcommands: sample, surface, cover, tails, bounds, brw, existence, oracle.
Shared flags (--d, --p, --seed, ...) may also come from a JSON config file
via --config; explicit flags win over config values.  A flag or field the
subcommand does not read, an unknown, mistyped or out-of-range one, or an
--out naming a directory or outside a writable one stops the run before any
work.  Exit codes: 0 success, 1 invalid config or usage or an unwritable
output path, 2 bound-hypothesis violation, 3 certification budget exhausted
beyond the configured threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import HypothesisError, constants_summary
from .harness import (_BOX_READS, _FIELD_TYPES, TAIL_KINDS, BudgetExceededError,
                      ConfigError, _base_ball, _config_dict, _rows_to_csv,
                      check_fields, check_values, oracle_suite, run_experiment)
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
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def _p_grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _add_common(sp: argparse.ArgumentParser) -> None:
    # each dest is the config field the flag sets
    sp.add_argument("--d", type=int, help="lattice dimension (>= 2)")
    sp.add_argument("--p", type=float, help="open-site probability")
    sp.add_argument("--seed", type=int, help="master seed")
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--kmax", dest="k_max", type=int, help="largest tail level")
    sp.add_argument("--box-margin", type=int)
    sp.add_argument("--box-height", type=int)
    sp.add_argument("--growth-cap", type=int)
    sp.add_argument("--step-set", dest="step_mode", choices=["full", "no-straight-down"])
    sp.add_argument("--out", type=str, help="output file path")
    sp.add_argument("--format", choices=["csv", "json"])
    sp.add_argument("--config", type=str, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lipsurf",
                     description="Lipschitz surfaces in site percolation")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", parents=[], help="emit an explicit configuration")
    _add_common(sp)
    sp.add_argument("--replicate", type=int, default=0)

    sp = sub.add_parser("surface", help="build a surface patch")
    _add_common(sp)
    sp.add_argument("--base-radius", type=int)

    sp = sub.add_parser("cover", help="minimal local cover at the origin")
    _add_common(sp)

    sp = sub.add_parser("tails", help="Monte Carlo tail curve vs closed-form bound")
    _add_common(sp)
    sp.add_argument("--kind", choices=TAIL_KINDS)

    sp = sub.add_parser("bounds", help="print all closed-form constants as JSON")
    _add_common(sp)

    sp = sub.add_parser("brw", help="branching random walk martingale/survival table")
    _add_common(sp)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--runs", type=int)
    sp.add_argument("--generations", type=int)

    sp = sub.add_parser("existence", help="certified-surface fraction across a p grid")
    _add_common(sp)
    sp.add_argument("--p-grid", type=_p_grid, help="comma separated p values, ascending")
    sp.add_argument("--base-radius", type=int)

    sp = sub.add_parser("oracle", help="run the exhaustive oracle sweeps")
    _add_common(sp)
    return parser


def _gather_config(args: argparse.Namespace) -> dict:
    config = _config_dict(args.config) if args.config else {}
    config.update((k, v) for k, v in vars(args).items()
                  if k in _FIELD_TYPES and v is not None)
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
    # 1 for open; the mask's C order is the lexicographic site order
    states = (~field.closed_mask(box)).ravel().astype(int)
    explicit = ExplicitConfig(box, tuple(states.tolist()))
    if config.get("format", "json") == "csv":
        rows = [{"site": " ".join(map(str, site)), "state": st}
                for site, st in zip(box.sites(), explicit.states)]
        _emit(_rows_to_csv(rows), config.get("out"))
    else:
        _emit(json.dumps(explicit.to_json(), sort_keys=True) + "\n", config.get("out"))
    return EXIT_OK


def _cmd_surface(args, config: dict) -> int:
    d = config.get("d", 2)
    radius = config.get("base_radius", 5)
    field = PercolationField(d, config.get("p", 0.99), config.get("seed", 0))
    patch = build_surface(field, _base_ball(d, radius), _budget(config, Budget()))
    if config.get("format", "json") == "csv":
        rows = [{"column": " ".join(map(str, col)), "value": patch.values[col],
                 "status": patch.status[col].value} for col in patch.columns]
        _emit(_rows_to_csv(rows), config.get("out"))
    else:
        _emit(json.dumps(patch.to_json(), sort_keys=True) + "\n", config.get("out"))
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
    result = run_experiment(config)
    if not config.get("out"):
        sys.stdout.write(result["csv"] if config.get("format", "csv") == "csv"
                         else json.dumps(result["payload"], sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_bounds(args, config: dict) -> int:
    summary = constants_summary(config.get("d", 2), config.get("p", 0.99),
                                config.get("step_mode") == "no-straight-down",
                                config.get("k_max", 5))
    _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", config.get("out"))
    return EXIT_OK


def _cmd_oracle(args, config: dict) -> int:
    suite = oracle_suite(p=config.get("p", 0.99))
    _emit(json.dumps(suite, sort_keys=True, indent=2) + "\n", config.get("out"))
    return EXIT_OK if suite["all_passed"] else EXIT_CONFIG


# subcommand -> (handler, the config fields it reads); tails, brw and
# existence hand theirs to run_experiment, which checks them by kind
_COMMANDS = {
    "sample": (_cmd_sample, ("d", "p", "seed", "box_margin", "box_height",
                             "format", "out")),
    "surface": (_cmd_surface, ("d", "p", "seed", "base_radius", "step_mode",
                               *_BOX_READS, "format", "out")),
    "cover": (_cmd_cover, ("d", "p", "seed", "step_mode", *_BOX_READS, "out")),
    "tails": (_cmd_run, None),
    "bounds": (_cmd_bounds, ("d", "p", "step_mode", "k_max", "out")),
    "brw": (functools.partial(_cmd_run, kind="brw"), None),
    "existence": (functools.partial(_cmd_run, kind="existence_curve"), None),
    "oracle": (_cmd_oracle, ("p", "out")),
}
_READS = {cmd: frozenset(reads) for cmd, (_, reads) in _COMMANDS.items() if reads}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        config = _gather_config(args)
        if args.command in _READS:
            check_fields(config, args.command, _READS[args.command])
            check_values(config, args.command)
        return _COMMANDS[args.command][0](args, config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as e:
        print(f"error: bound hypothesis violated: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:  # an OSError names the path it failed on
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
