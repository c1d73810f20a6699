#!/usr/bin/env python3
"""Regenerate the bundled figure datasets (CSV plus a quick-look SVG).

By default every preset is produced into ``figures/``.  Pass preset names
or group names (fig2 .. fig7) to restrict the run:

    python3 scripts/reproduce_figures.py --out figures fig3 fig4a

Outputs are byte-deterministic for a given package version, independent
of the thread count.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from magnon_sagnac import PRESET_NAMES, run_preset
from magnon_sagnac.cli import (UsageError, _expand_presets,
                               _keep_freed_memory)
from magnon_sagnac.serialize import write_preset_outputs


def expand(tokens: list[str]) -> list[str]:
    """Preset names for the given preset or group names, in catalog order."""
    if not tokens:
        return list(PRESET_NAMES)
    try:
        names = {name for token in tokens for name in _expand_presets(token)}
    except UsageError as e:
        raise SystemExit(str(e)) from None
    return [n for n in PRESET_NAMES if n in names]


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("presets", nargs="*",
                        help="preset or group names (default: all)")
    parser.add_argument("--out", default="figures", type=Path,
                        help="output directory (default: figures/)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for the grid evaluation")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 0:
        parser.error("--threads must be >= 0 (0 means single pass)")

    args.out.mkdir(parents=True, exist_ok=True)
    for name in expand(args.presets):
        start = time.perf_counter()
        preset, result = run_preset(name, threads=args.threads)
        paths = write_preset_outputs(preset, result, args.out)
        elapsed = time.perf_counter() - start
        shape = "x".join(str(n) for n in result.shape)
        failed = result.n_failed
        print(f"{name:6s} {shape:>10s} grid, {failed} failed points, "
              f"{elapsed:6.2f} s -> {paths[0].parent}/{name}.{{csv,svg}}")
        print(f"       {preset.description}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
