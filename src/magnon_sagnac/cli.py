"""Command-line interface.

Exit codes: 0 success, 1 invalid parameters or physics failure, 2 I/O
failure, 3 usage error.  Scalar commands print ``name = value`` lines by
default and a JSON object with ``--format json``; sweep output goes to
``--out`` (or stdout) as CSV or JSON records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize
from .analysis import (brute_force_optimum, classify_direction,
                       extremal_fizeau_general)
from .config import (ConfigError, apply_overrides, load_config, parse_config,
                     resolved_document)
from .model import PhysicsError, fizeau_shift, validate, validate_rotation
from .steady_state import (DriveSide, output_fields, residuals,
                           solve_closed_form, solve_generic, transmissions)
from .sweep import (Axis, DeltaFPolicy, PRESET_NAMES, SweepError,
                    SweepParameter, run_preset, sweep)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


_PARAM_ALIASES = {p.value: p for p in SweepParameter}
_PARAM_ALIASES["g_squeeze"] = SweepParameter.SQUEEZE


def _sweep_parameter(token: str) -> SweepParameter:
    try:
        return _PARAM_ALIASES[token]
    except KeyError:
        raise UsageError(
            f"unknown sweep parameter {token!r}; expected one of "
            + ", ".join(sorted(_PARAM_ALIASES))) from None


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
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"axis spec {spec!r} has non-numeric bounds") from None
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
    if not lo < hi:
        raise UsageError("band must satisfy lo < hi")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON config file (defaults apply otherwise)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override a config key, repeatable; nested keys "
                             "use dots (rotation.n=2.4)")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")

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
                       help="numeric band search (default)")
    group.add_argument("--analytic", action="store_true",
                       help="closed-form extrema")
    p.add_argument("--band", metavar="LO:HI",
                   help="search band in MHz, default from config band_mhz")
    p.add_argument("--grid-points", type=int, default=2001)

    p = sub.add_parser("sweep", parents=[common],
                       help="transmission over one or two parameter axes")
    p.add_argument("--axis", required=True, metavar="SPEC",
                   help="param[/divisor]=start:stop:count")
    p.add_argument("--axis2", metavar="SPEC")
    p.add_argument("--out", metavar="FILE",
                   help="output path; stdout when omitted")
    p.add_argument("--optimal-df", choices=("off", "positive", "negative"),
                   default="off",
                   help="re-derive the extremal Fizeau shift per point")
    p.add_argument("--band", metavar="LO:HI",
                   help="clamp band for --optimal-df, default band_mhz")
    p.add_argument("--no-clamp", action="store_true",
                   help="leave the extremal shift unclamped")
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("reproduce", parents=[common],
                       help="write a bundled demonstration dataset")
    p.add_argument("preset",
                   help="preset name (fig2a..fig7b) or group (fig2..fig7)")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("validate", parents=[common],
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


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps({k: serialize.jsonable(v) if isinstance(v, float)
                          else v for k, v in payload.items()}, indent=1))
    elif args.format == "csv":
        raise UsageError("csv format applies to the sweep command")
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
    _emit(args, {"delta_f_mhz": shift})
    return 0


def _cmd_steady(args) -> int:
    cfg = _load(args)
    _require_valid(cfg)
    side = DriveSide(args.side)
    solver = solve_closed_form if args.method == "closed" else solve_generic
    state = solver(cfg.params, side)
    out = output_fields(state, cfg.params)
    res = residuals(state, cfg.params, side)
    payload = {}
    for name, value in (("a1", state.a1), ("a2", state.a2), ("m", state.m),
                        ("a1_out", out.a1_out), ("a2_out", out.a2_out)):
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
    _emit(args, {"t12": report.t12, "t21": report.t21, "ratio": report.ratio,
                 "i_signed_db": report.i_signed_db,
                 "i_abs_db": report.i_abs_db,
                 "direction": classify_direction(report).value})
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load(args)
    _require_valid(cfg)
    band = _parse_band(args.band) if args.band else cfg.band
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
    best = brute_force_optimum(cfg.params, band, grid_points=args.grid_points)
    _emit(args, {"delta_f_mhz": best.delta_f_mhz,
                 "isolation_db": best.isolation_db})
    return 0


def _cmd_sweep(args) -> int:
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
        band = _parse_band(args.band) if args.band else cfg.band
    result = sweep(cfg.params, axes, delta_f_policy=policy,
                   delta_f_band=band, threads=args.threads)
    text = (serialize.json_text(result) if args.format == "json"
            else serialize.csv_text(result))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
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
    for name in _expand_presets(args.preset):
        preset, result = run_preset(name, threads=args.threads)
        for path in serialize.write_preset_outputs(preset, result, args.out):
            print(path)
    return 0


def _cmd_validate(args) -> int:
    cfg = _load(args)
    if args.print_resolved:
        print(json.dumps(resolved_document(cfg), indent=1))
    problems = validate(cfg.params) + validate_rotation(cfg.rotation)
    if problems:
        for v in problems:
            print(f"{v.code}: {v.message}", file=sys.stderr)
        return 1
    if not args.print_resolved:
        print("ok")
    return 0


_COMMANDS = {"fizeau": _cmd_fizeau, "steady": _cmd_steady,
             "isolate": _cmd_isolate, "optimize": _cmd_optimize,
             "sweep": _cmd_sweep, "reproduce": _cmd_reproduce,
             "validate": _cmd_validate}


def run(argv=None) -> int:
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
