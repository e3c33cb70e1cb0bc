"""Command-line driver.

One flat JSON config per run is the source of truth; any top-level scalar
key can be overridden by a flag of the same name. Exit codes: 0 success,
1 usage or configuration error, 2 smallness-gate refusal, 3 iteration cap
without convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields

from .counterexample import CounterexampleSpec
from .experiments import (
    run_continuity,
    run_inequality_scan,
    run_nonuniform,
    run_norms,
    run_rlcheck,
    run_solve,
)
from .grid import DEFAULT_DEALIAS_FRACTION
from .solver import ConfigError, ConvergenceError, SmallnessError, SolverConfig

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems by raising instead of exiting with 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _float(text) -> float:
    """Parse a number of a flag or a JSON config; NaN and infinities are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _length(text: str) -> float:
    """Parse a length; accepts plain numbers and pi multiples like '16pi'."""
    s = str(text).strip().lower()
    if s.endswith("pi"):
        return _float(_float(s[:-2] or 1.0) * math.pi)
    return _float(s)


def _defaults(cls) -> dict:
    """Schema entries (type, default) of the scalar fields of cls that have a default."""
    scalar = {"float": _float, "int": int}
    return {f.name: (scalar[f.type], f.default) for f in fields(cls) if f.type in scalar and f.default is not MISSING}


# One schema per experiment: key -> (type, default), MISSING for keys
# without a default. The scalar solver settings and h_xi, with their types
# and defaults, come from SolverConfig and CounterexampleSpec (n_schedule is
# not a scalar and stays a library argument); alpha has no default there, so
# each experiment sets one.
_SOLVER = _defaults(SolverConfig)
_SPEC = _defaults(CounterexampleSpec)
_GRID = {"K": (int, 128), "L": (_length, math.pi), "dealias_fraction": (_float, MISSING)}

_EXPERIMENTS = {
    "solve": (run_solve, {
        **_GRID, **_SOLVER, "alpha": (_float, 0.4), "force": (str, "single_mode"), "force_file": (str, MISSING),
        "amplitude": (_float, 1e-2), "outdir": (str, "out_solve"),
    }),
    "continuity": (run_continuity, {
        **_GRID, **_SOLVER, "alpha": (_float, 0.4), "force": (str, "two_mode"), "amplitude": (_float, 1e-2),
        "perturbation": (str, "single_mode"), "perturbation_amplitude": (_float, 1e-2), "j_min": (int, 1),
        "j_max": (int, 6), "outdir": (str, "out_continuity"),
    }),
    "nonuniform": (run_nonuniform, {
        **_GRID, **_SOLVER, **_SPEC, "K": (int, 1024), "L": (_length, 16.0 * math.pi),
        "alpha": (_float, 0.4), "delta": (_float, 0.02), "n_min": (int, 3), "n_max": (int, 10),
        "torus": (bool, False), "outdir": (str, "out_nonuniform"),
    }),
    "rlcheck": (run_rlcheck, {
        **_SPEC, "alpha": (_float, 0.4), "n_min": (int, 1), "n_max": (int, 12),
        "outdir": (str, "out_rlcheck"),
    }),
    "ineq-scan": (run_inequality_scan, {
        **_GRID, "alpha": (_float, 0.4), "seed": (int, 42), "samples": (int, 200), "interp_samples": (int, 100),
        "cancel_samples": (int, 50), "outdir": (str, "out_ineq"),
    }),
}

# list-valued keys settable only through the JSON config, never by flag
_JSON_ONLY_KEYS = {
    "ineq-scan": ("product_exponents", "commutator_exponents"),
}

# JSON values each key type accepts: the value must already have the type,
# except that an integer is a valid float and a length may be "16pi"
_JSON_TYPES = {
    _float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    _length: ((int, float, str), 'a number or a pi multiple like "16pi"'),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sqg-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    for name, (_, schema) in _EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its scalar keys")
        for key, (typ, _) in schema.items():
            if typ is bool:
                p.add_argument(f"--{key}", type=_parse_bool, default=None, metavar="BOOL")
            else:
                p.add_argument(f"--{key}", type=typ, default=None)

    p = sub.add_parser("norms")
    p.add_argument("file", help="SQGF1 field file")
    p.add_argument("--s", default="0", help="comma-separated Sobolev indices")
    p.add_argument("--dealias_fraction", type=_float, default=DEFAULT_DEALIAS_FRACTION)
    return parser


def _parse_bool(text: str) -> bool:
    s = str(text).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _resolve_config(name: str, args: argparse.Namespace) -> dict:
    schema = _EXPERIMENTS[name][1]
    config = {key: default for key, (_, default) in schema.items() if default is not MISSING}
    allowed = set(schema) | set(_JSON_ONLY_KEYS.get(name, ()))
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh, parse_float=_float, parse_constant=_float)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (json.JSONDecodeError, argparse.ArgumentTypeError) as exc:  # NaN and Infinity are not JSON
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key == "experiment":
                if val != name:
                    raise ConfigError(f"config names experiment {val!r} but {name!r} was requested")
                continue
            if key not in allowed:
                raise ConfigError(f"unknown config field {key!r} for experiment {name!r}")
            config[key] = _json_value(key, schema[key][0], val) if key in schema else val
    for key in schema:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    return config


def _json_value(key: str, typ, val):
    """A JSON config value of a typed key; bools pass only as bools and nothing is coerced."""
    accepted, name = _JSON_TYPES[typ]
    if isinstance(val, bool) != (typ is bool) or not isinstance(val, accepted):
        raise ConfigError(f"config field {key!r} must be {name}, got {json.dumps(val)}")
    try:
        return typ(val)
    except (OverflowError, argparse.ArgumentTypeError) as exc:  # a non-finite length, an integer past the float range
        raise ConfigError(f"config field {key!r}: {exc}") from exc


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a subcommand is required (solve, continuity, nonuniform, rlcheck, ineq-scan, norms)")
        if args.command == "norms":
            s_values = tuple(_float(s) for s in str(args.s).split(","))
            return run_norms(args.file, s_values, dealias_fraction=args.dealias_fraction)
        return _EXPERIMENTS[args.command][0](_resolve_config(args.command, args))
    except SmallnessError as exc:
        print(f"smallness gate: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
