#!/usr/bin/env python3
"""Benchmark of magnon-sagnac: three seeded, single-client, closed-loop
workloads, each loading a different layer of the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it uses the sources under src/ and
writes its temporary files only under .perfbench_work/.

Workloads (jobs.py builds their inputs from the seed):

* datasets  -- CLI subprocesses, one at a time: ``reproduce`` of fig2a,
  fig3a, fig4a, fig5a/b, fig6, fig7a/b (CSV + SVG) and nine 2-D
  ``sweep --format json --out`` jobs of 2e4 points.  serialize does
  nearly all the work.
* grid_api  -- in-process ``sweep()`` grids of 1e3..1e6 points over all
  seven sweep parameters and all three shift policies; 7 of the 21
  grids are 50-99% masked.  Kernel, masking and substitution, no writing.
* queries   -- in-process ``cli.run(argv)`` on seeded config files: the
  scalar steady-state path, config parsing, analysis and the non-uniform
  ``--optimal-df`` fallback.

With ``--trace 0`` a run measures end-to-end metrics.  grid_api and
queries run their job list once to warm up, untimed, then repeat it
until ``--seconds`` of job time and enough calls for the tail
percentile are done; datasets' list alone takes longer than a run, so
it runs once.  Each call is bracketed by two runs of a fixed reference
computation, or for a CLI subprocess sampled by it in that process
(calibrated_cli.py), and timed in reference seconds, which cancels the
shared host's changes of speed (reference.py says how).  run_s and
cpu_s sum each job's median over its calls, job_p50_ms and job_tail_ms
are the median and p90 of every call (worker.end_to_end); setup_s is
the median of nine spawns, each calibrated in the interpreter it
spawned.  With
``--trace 1`` it runs the same jobs in-process with spans around the
calls into each layer (spans.py) and reports the per-layer metrics.
Every output goes through the correctness gate (gate.py), outside the
timed calls; a failed check, crash or non-zero exit is a failed job.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  ``--smoke`` runs each workload at tiny size through the
gate, once clean and once with one output corrupted on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("datasets", "grid_api", "queries")
SETUP_SPAWNS = 9
RUN_LIMIT_S = 175.0
# Each spawned interpreter reads CLOCK_MONOTONIC, which is shared across
# processes, once its start-up is done, then runs the reference
# computation (reference.py) three times where it ran, for calibration;
# start-up is interpreter work, so the reference is of the python kind.
SETUP_CODE = "import magnon_sagnac.cli as c\nc.build_parser()\n"
CALIBRATE_CODE = ("import time\nt = time.monotonic()\nimport sys\n"
                  "sys.path.insert(0, {bench!r})\n"
                  "from reference import slowdown\n"
                  "print(t, *(slowdown('python')[0] for _ in range(3)))")


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn_s(code: str) -> float:
    """Wall time from spawning an interpreter to the end of ``code``, in
    reference seconds (see reference.py): over the median slowdown of
    three runs of the python reference in that interpreter."""
    script = code + CALIBRATE_CODE.format(bench=str(Path(__file__).parent))
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", script], env=_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout.split()
    return (float(out[0]) - t0) / statistics.median(map(float, out[1:]))


def spawn_medians(with_bare: bool) -> tuple[float, float | None]:
    spawn_s(SETUP_CODE)  # compiles the package's bytecode on a fresh checkout
    setup, bare = [], []
    for _ in range(SETUP_SPAWNS):
        setup.append(spawn_s(SETUP_CODE))
        if with_bare:
            bare.append(spawn_s(""))
    return statistics.median(setup), statistics.median(bare) if bare else None


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name(
        "worker.py")), str(spec_path)], env=_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads(Path(str(spec_path) + ".out").read_text(encoding="utf-8"))


def measure_run(args, work: Path, deadline: float) -> dict:
    import jobs
    import worker

    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "root": str(ROOT),
            "work": str(work),
            "spans": str(WORK / f"spans-{args.workload}-{args.seed}.json")}
    setup_s, bare_s = spawn_medians(with_bare=bool(args.trace))
    if args.trace:
        out = run_worker(spec, work, deadline)
        out["metrics"]["cli.import_s"] = setup_s - bare_s
        return out
    if args.workload == "datasets":
        job_list = jobs.datasets_jobs(args.seed)
        m = worker.measure(worker.DatasetsRunner(ROOT, work, False), job_list,
                           args.seconds, calibrate=True)
        out = {"metrics": worker.end_to_end(args.workload, m),
               "attempted": m.attempted, "failed": m.failed,
               "errors": m.errors,
               "samples": worker.samples(args.workload, m)}
    else:
        out = run_worker(spec, work, deadline)
    out["metrics"]["setup_s"] = setup_s
    # Children only: the CLI jobs, or the worker that ran the workload.
    out["metrics"]["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


def smoke() -> int:
    import worker

    work = WORK / f"smoke-{os.getpid()}"
    status = 0
    try:
        for name in WORKLOADS:
            clean, corrupted = worker.smoke(name, ROOT, work / name)
            ok = clean.failed == 0 and corrupted.failed == 1
            status |= not ok
            print(f"{name}: {clean.attempted} jobs, {clean.failed} failed; "
                  f"corrupted output caught: {corrupted.failed == 1}"
                  + ("" if ok else f" -- {clean.errors}"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "magnon_sagnac" / "cli.py").is_file():
        print(f"error: {SRC}/magnon_sagnac not found; run from the root of "
              "a magnon-sagnac checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = measure_run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = out["metrics"]
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for message in out["errors"]:
        print(f"gate: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {out['failed']} of "
          f"{out['attempted']} jobs failed (error_rate "
          f"{out['failed'] / out['attempted']:.4g}); {out['samples']}")
    for m in listed:
        print(f"  {m['name']:36s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out["failed"] == 0, "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
