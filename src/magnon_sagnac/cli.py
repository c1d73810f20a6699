"""Command-line interface.

Exit codes: 0 success, 1 invalid parameters or physics failure, 2 I/O
failure, 3 usage error.  Scalar commands print ``name = value`` lines by
default and a JSON object with ``--format json``; sweep output goes to
``--out`` (or stdout) as CSV or JSON records.
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import functools
import json
import math
import os
import re
import sys
from pathlib import Path  # noqa: F401 - perfbench's tracer replaces it

from .analysis import (brute_force_optimum, classify_direction,
                       extremal_fizeau_general)
from .config import (ConfigError, apply_overrides, load_config, parse_config,
                     resolved_document)
from .model import (PhysicsError, fizeau_shift, jsonable, validate,
                    validate_rotation)
from .steady_state import (DriveSide, output_fields, residuals,
                           solve_closed_form, solve_generic, transmissions)
from .sweep import (Axis, DeltaFPolicy, PRESET_NAMES, SweepError,
                    SweepParameter, figure_preset, sweep)
# Not called here; perfbench/spans.py wraps this name for --trace 1.
from .sweep import run_preset  # noqa: F401


class UsageError(Exception):
    pass


class _Once(argparse.Action):
    """Store the value of an argument given once; argparse alone keeps
    the last of repeated values and drops the others."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in vars(namespace).setdefault("_given", set()):
            hint = "; the second axis is --axis2" if self.dest == "axis" else ""
            raise argparse.ArgumentError(self, "given twice" + hint)
        namespace._given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token such as -40:40 or -.5:1 is a value (of --band), not an
        # option; argparse alone takes only -N and -N.N for numbers.
        self._negative_number_matcher = re.compile(r"^-\.?\d")
        # Every argument without an action (all but --set and flags).
        self.register("action", None, _Once)

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _sweep_parameter(token: str) -> SweepParameter:
    try:
        return SweepParameter(token)
    except ValueError:
        raise UsageError(
            f"unknown sweep parameter {token!r}; expected one of "
            + ", ".join(sorted(p.value for p in SweepParameter))) from None


def parse_axis_spec(spec: str) -> Axis:
    """``param[/divisor]=start:stop:count``, e.g. delta_f/gamma_m=-16:16:6401."""
    head, sep, tail = spec.partition("=")
    if not sep:
        raise UsageError(f"axis spec {spec!r} is missing '='")
    name, slash, divisor = head.partition("/")
    parameter = _sweep_parameter(name.strip())
    normalization = _sweep_parameter(divisor.strip()) if slash else None
    parts = tail.split(":")
    if len(parts) != 3:
        raise UsageError(f"axis spec {spec!r} needs start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"axis spec {spec!r} has non-numeric bounds") from None
    try:
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"axis spec {spec!r} has a count {parts[2]!r} that "
                         "is not a whole number") from None
    try:
        return Axis(parameter, start, stop, count, normalization)
    except ValueError as e:
        raise UsageError(f"axis spec {spec!r}: {e}") from None


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"band {text!r} must be lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"band {text!r} has non-numeric bounds") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"band {text!r} must have finite bounds")
    if not lo < hi:
        raise UsageError("band must satisfy lo < hi")
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the process-wide parser that `run` uses; do not mutate it."""
    config = _Parser(add_help=False)
    config.add_argument("--config", metavar="FILE",
                        help="JSON config file (defaults apply otherwise)")
    config.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override a config key, repeatable; nested keys "
                             "use dots (rotation.n=2.4)")
    common = _Parser(add_help=False, parents=[config])
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")

    parser = _Parser(prog="magnon-sagnac",
                     description="Nonreciprocal transmission of a spinning "
                                 "microcavity coupled to a squeezed magnon "
                                 "mode")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fizeau", parents=[common],
                       help="Fizeau shift from the rotation block")
    p.add_argument("--first-term-only", action="store_true",
                   help="drop the dispersion bracket")

    p = sub.add_parser("steady", parents=[common],
                       help="steady-state amplitudes for one drive side")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--method", choices=("closed", "generic"),
                   default="closed")

    sub.add_parser("isolate", parents=[common],
                   help="transmissions and isolation at the configured shift")

    p = sub.add_parser("optimize", parents=[common],
                       help="Fizeau shift maximizing the isolation")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--brute", action="store_true",
                       help="exact optimum over the band (default)")
    group.add_argument("--analytic", action="store_true",
                       help="closed-form extrema")
    p.add_argument("--band", metavar="LO:HI",
                   help="search band in MHz, default from config band_mhz")

    p = sub.add_parser("sweep", parents=[common],
                       help="transmission over one or two parameter axes "
                            "(text output is CSV)")
    p.add_argument("--axis", required=True, metavar="SPEC",
                   help="param[/divisor]=start:stop:count")
    p.add_argument("--axis2", metavar="SPEC")
    p.add_argument("--out", metavar="FILE",
                   help="output path; stdout when omitted")
    p.add_argument("--optimal-df", choices=("off", "positive", "negative"),
                   default="off",
                   help="re-derive the extremal Fizeau shift per point")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--band", metavar="LO:HI",
                       help="clamp band for --optimal-df, default band_mhz")
    group.add_argument("--no-clamp", action="store_true",
                       help="leave the extremal shift unclamped")

    # Presets fix every parameter: no --config, --set or --format.
    p = sub.add_parser("reproduce",
                       help="write a bundled demonstration dataset")
    p.add_argument("preset", nargs="+",
                   help="preset names (fig2a..fig7b) or groups (fig2..fig7)")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("validate", parents=[config],
                       help="check the resolved config for violations")
    p.add_argument("--print-resolved", action="store_true",
                   help="print the canonical config document")
    return parser


def _load(args):
    raw = load_config(args.config) if args.config else {}
    raw = apply_overrides(raw, args.overrides)
    return parse_config(raw)


def _require_valid(cfg) -> None:
    problems = validate(cfg.params)
    if problems:
        raise ValueError("invalid parameters: " + "; ".join(
            f"{v.code}: {v.message}" for v in problems))


def _require_finite(values: dict) -> None:
    """Refuse outputs that left the float range, as a sweep codes them."""
    bad = [name for name, value in values.items()
           if not cmath.isfinite(value)]
    if bad:
        raise PhysicsError("OVERFLOW: " + ", ".join(bad)
                           + " left the float range")


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps({k: jsonable(v) if isinstance(v, float)
                          else v for k, v in payload.items()}, indent=1))
    else:
        for key, value in payload.items():
            if isinstance(value, float):
                print(f"{key} = {value:.12g}")
            else:
                print(f"{key} = {value}")


def _cmd_fizeau(args) -> int:
    cfg = _load(args)
    problems = validate_rotation(cfg.rotation)
    if problems:
        raise ValueError("invalid rotation: " + "; ".join(
            f"{v.code}: {v.message}" for v in problems))
    shift = fizeau_shift(cfg.rotation, first_term_only=args.first_term_only)
    _require_finite({"delta_f_mhz": shift})
    _emit(args, {"delta_f_mhz": shift})
    return 0


def _cmd_steady(args) -> int:
    cfg = _load(args)
    _require_valid(cfg)
    side = DriveSide(args.side)
    solver = solve_closed_form if args.method == "closed" else solve_generic
    state = solver(cfg.params, side)
    out = output_fields(state, cfg.params)
    amplitudes = {"a1": state.a1, "a2": state.a2, "m": state.m,
                  "a1_out": out.a1_out, "a2_out": out.a2_out}
    _require_finite(amplitudes)
    res = residuals(state, cfg.params, side)
    payload = {}
    for name, value in amplitudes.items():
        payload[f"{name}_re"] = value.real
        payload[f"{name}_im"] = value.imag
        payload[f"abs_{name}"] = abs(value)
    payload["residual_max"] = max(res)
    _emit(args, payload)
    return 0


def _cmd_isolate(args) -> int:
    cfg = _load(args)
    _require_valid(cfg)
    report = transmissions(cfg.params)
    _require_finite({"t12": report.t12, "t21": report.t21})
    _emit(args, {"t12": report.t12, "t21": report.t21, "ratio": report.ratio,
                 "i_signed_db": report.i_signed_db,
                 "i_abs_db": report.i_abs_db,
                 "direction": classify_direction(report).value})
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load(args)
    _require_valid(cfg)
    band = cfg.band if args.band is None else _parse_band(args.band)
    if args.analytic:
        ext = extremal_fizeau_general(cfg.params, band)
        best_plus = ext.isolation_plus_db >= ext.isolation_minus_db
        _emit(args, {
            "delta_f_plus_mhz": ext.delta_f_plus_mhz,
            "isolation_plus_db": ext.isolation_plus_db,
            "in_band_plus": ext.in_band_plus,
            "delta_f_minus_mhz": ext.delta_f_minus_mhz,
            "isolation_minus_db": ext.isolation_minus_db,
            "in_band_minus": ext.in_band_minus,
            "delta_f_mhz": (ext.delta_f_plus_mhz if best_plus
                            else ext.delta_f_minus_mhz),
            "isolation_db": (ext.isolation_plus_db if best_plus
                             else ext.isolation_minus_db)})
        return 0
    best = brute_force_optimum(cfg.params, band)
    _emit(args, {"delta_f_mhz": best.delta_f_mhz,
                 "isolation_db": best.isolation_db})
    return 0


def _cmd_sweep(args) -> int:
    from . import serialize  # builds numpy byte tables at import
    if args.optimal_df == "off" and (args.band is not None or args.no_clamp):
        raise UsageError("--band and --no-clamp need --optimal-df positive "
                         "or negative")
    cfg = _load(args)
    _require_valid(cfg)
    axes = [parse_axis_spec(args.axis)]
    if args.axis2:
        axes.append(parse_axis_spec(args.axis2))
    policy = {"off": DeltaFPolicy.FIXED,
              "positive": DeltaFPolicy.EXTREMAL_POSITIVE,
              "negative": DeltaFPolicy.EXTREMAL_NEGATIVE}[args.optimal_df]
    band = None
    if policy is not DeltaFPolicy.FIXED and not args.no_clamp:
        band = cfg.band if args.band is None else _parse_band(args.band)
    result = sweep(cfg.params, axes, delta_f_policy=policy,
                   delta_f_band=band)
    text = (serialize.json_text(result) if args.format == "json"
            else serialize.csv_text(result))
    if args.out:
        serialize._write_pieces([text.encode()], args.out)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _expand_presets(token: str) -> list[str]:
    if token in PRESET_NAMES:
        return [token]
    group = [name for name in PRESET_NAMES if name.rstrip("ab") == token]
    if group:
        return group
    raise UsageError(f"unknown preset {token!r}; available: "
                     + ", ".join(PRESET_NAMES)
                     + " and groups fig2..fig7")


def _cmd_reproduce(args) -> int:
    from . import serialize  # builds numpy byte tables at import
    names = {name for token in args.preset for name in _expand_presets(token)}
    for name in (n for n in PRESET_NAMES if n in names):
        for path in serialize.write_preset_outputs(figure_preset(name),
                                                   args.out):
            print(path)
    return 0


def _cmd_validate(args) -> int:
    cfg = _load(args)
    if args.print_resolved:
        print(json.dumps(resolved_document(cfg), indent=1))
    problems = validate(cfg.params) + validate_rotation(cfg.rotation)
    if problems:
        for v in problems:
            print(f"error: {v.code}: {v.message}", file=sys.stderr)
        return 1
    if not args.print_resolved:
        print("ok")
    return 0


_COMMANDS = {"fizeau": _cmd_fizeau, "steady": _cmd_steady,
             "isolate": _cmd_isolate, "optimize": _cmd_optimize,
             "sweep": _cmd_sweep, "reproduce": _cmd_reproduce,
             "validate": _cmd_validate}


def run(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process; each call is independent of
    the calls before it.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 3
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, SweepError, PhysicsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


def _keep_freed_memory() -> bool:
    """Have glibc keep freed memory for reuse; returns whether it was set.

    By default glibc gives a block's freed temporaries back to the system
    and the next block faults them in again, which made up most of a
    large ``reproduce``.  A 32 MB mmap threshold keeps them on the heap
    and a 256 MB trim threshold keeps the heap; both are needed.  Only
    CLI processes set this: library callers keep the defaults.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3), then M_TRIM_THRESHOLD (-1); 0 means refused.
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 256 << 20))


def main() -> None:
    # Before numpy loads: OpenBLAS starts a thread per core at its import,
    # for one 3x3 solve.  The caller's value wins; library callers keep it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _keep_freed_memory()
    sys.exit(run())


if __name__ == "__main__":
    main()
