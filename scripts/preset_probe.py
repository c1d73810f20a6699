#!/usr/bin/env python3
"""Wall time, peak memory and CSV size of ``reproduce``, preset by preset.

    python3 scripts/preset_probe.py fig3a fig4a --repeat 5

Each repeat of a NAME (a preset such as fig4a, or a group such as fig3)
runs

    python -m magnon_sagnac.cli reproduce NAME --out DIR

as a child of this process, which imports no numpy, so that the child's
peak RSS (``ru_maxrss`` from ``os.wait4``) is its own: a child's
high-water mark starts from the RSS of the process that spawned it.  The
peak RSS of a child that only imports ``magnon_sagnac.serialize`` is
taken the same way and subtracted.  Prints one JSON object: per NAME the
median wall time of its repeats in s and each of them, the median peak
RSS above the import-only child in MB, the rows and bytes of the CSVs it
wrote, and the median wall time per CSV row in µs.  The package is
imported from the ``src`` next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _child(*args: str) -> tuple[float, float]:
    """Wall time in s and peak RSS in MB of ``python args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"failed: python {' '.join(args)}")
    return wall, usage.ru_maxrss / 1024  # kB on Linux


def _csv_size(out: Path) -> tuple[int, int]:
    """Rows (without headers) and bytes of the CSVs in ``out``."""
    rows = size = 0
    for path in out.glob("*.csv"):
        with path.open("rb") as file:
            while chunk := file.read(1 << 20):
                rows += chunk.count(b"\n")
                size += len(chunk)
        rows -= 1
    return rows, size


def probe(name: str, repeat: int, import_mb: float) -> dict:
    walls, peaks = [], []
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as out:
            wall, peak = _child("-m", "magnon_sagnac.cli", "reproduce", name,
                                "--out", out)
            walls.append(round(wall, 4))
            peaks.append(peak - import_mb)
            rows, size = _csv_size(Path(out))
    wall = statistics.median(walls)
    return {"wall_s": wall, "walls_s": walls,
            "peak_rss_mb_above_import": round(statistics.median(peaks), 1),
            "csv_rows": rows, "csv_bytes": size,
            "us_per_row": round(wall / rows * 1e6, 3) if rows else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", metavar="NAME",
                        help="a preset or a group of presets")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    import_mb = statistics.median(
        _child("-c", "import magnon_sagnac.serialize")[1]
        for _ in range(args.repeat))
    record = {"import_rss_mb": round(import_mb, 1), "repeat": args.repeat,
              "presets": {name: probe(name, args.repeat, import_mb)
                          for name in args.names}}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
