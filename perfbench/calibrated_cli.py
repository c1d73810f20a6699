"""Run the magnon-sagnac CLI as ``python -m magnon_sagnac.cli`` does, and
calibrate the run in the process that makes it (see reference.py).

    python3 perfbench/calibrated_cli.py SAMPLES.json KIND CLI-ARGUMENT...

While the CLI runs, a timer runs the reference computation of KIND every
SAMPLE_S seconds of wall time; after it returns, three more runs follow.
SAMPLES.json gets the CLOCK_MONOTONIC reading at which the CLI returned
(the clock is shared across processes) and the wall and CPU slowdown of
every reference run, marked as during or after the CLI.  The caller
takes the reference time spent during the CLI out of the CLI's time.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
import time

from reference import slowdown

SAMPLE_S = 0.25


def main() -> int:
    out_path, kind = sys.argv[1:3]
    sys.argv = ["magnon_sagnac.cli", *sys.argv[3:]]
    during: list[tuple[float, float]] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: during.append(
        slowdown(kind)))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    code = 0
    try:
        runpy.run_module("magnon_sagnac.cli", run_name="__main__",
                         alter_sys=True)
    except SystemExit as e:
        code = e.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.monotonic()
    after = [slowdown(kind) for _ in range(3)]
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"end": end, "during": during, "after": after}, f)
    return 0 if code is None else code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
