#!/usr/bin/env python3
"""Isolation of the demonstration system versus resonator spin rate.

Walks the spin rate from zero to a given maximum, converts each rate to
its Fizeau shift (with drag corrections) and evaluates the resulting
transmissions at zero detuning.  Prints a table and optionally a CSV,
which makes it easy to read off the spin rate a target isolation needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from magnon_sagnac import (
    RotationSpec,
    SystemParams,
    extremal_fizeau_general,
    fizeau_shift,
    transmissions,
    with_delta_f,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-hz", type=float, default=8.0e3,
                        help="largest spin rate to evaluate (default 8 kHz)")
    parser.add_argument("--steps", type=int, default=33,
                        help="number of spin rates (default 33)")
    parser.add_argument("--csv", type=Path, default=None,
                        help="also write the table to this CSV file")
    args = parser.parse_args(argv)
    if args.max_hz <= 0.0 or args.steps < 2:
        parser.error("--max-hz must be positive and --steps at least 2")

    system = SystemParams.symmetric()
    best = extremal_fizeau_general(system)
    print(f"# extremal shift {best.delta_f_plus_mhz:.3f} MHz "
          f"({best.isolation_plus_db:.2f} dB); scanning spin rates")
    header = "omega_rot_hz,delta_f_mhz,t12,t21,i_signed_db"
    rows = [header]
    print(f"{'Hz':>10s} {'shift MHz':>10s} {'T12':>9s} {'T21':>9s} "
          f"{'I dB':>8s}")
    for k in range(args.steps):
        omega = args.max_hz * k / (args.steps - 1)
        rot = dataclasses.replace(RotationSpec(), omega_rot_hz=omega)
        shift = fizeau_shift(rot)
        report = transmissions(with_delta_f(system, shift))
        rows.append(f"{omega:.6g},{shift:.10g},{report.t12:.10g},"
                    f"{report.t21:.10g},{report.i_signed_db:.10g}")
        print(f"{omega:10.1f} {shift:10.4f} {report.t12:9.5f} "
              f"{report.t21:9.5f} {report.i_signed_db:8.3f}")
    if args.csv is not None:
        args.csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"# wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
