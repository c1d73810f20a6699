"""Job runners, the closed measuring loop and the traced run.

One runner per workload turns a job dict into a call of the program and
its output into gate findings.  ``measure`` drives a runner through the
job list in passes, one job at a time (a closed loop with one client),
and times only the calls; every check runs between them.

Run as a script, this module is the child process that does the work of
an in-process workload, so its peak RSS and CPU are the program's:

    python3 perfbench/worker.py SPEC.json

It reads the spec written by run.py and writes SPEC.json.out.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from magnon_sagnac import Axis, SweepParameter, SystemParams, cli

import gate
import jobs as joblists
import spans as spanlib
from reference import REF_S, slowdown

CALIBRATED_CLI = Path(__file__).with_name("calibrated_cli.py")
# The package re-exports the function sweep under the submodule's name.
sweep_module = importlib.import_module("magnon_sagnac.sweep")
JOB_TIMEOUT_S = 150.0
# Percentile reported as job_tail_ms.  p90 leaves at least ten calls
# beyond it once a run holds 100 calls, which min_passes guarantees;
# datasets' list takes longer than a run and runs once, too few calls for
# that, so it reports its slowest call.
TAIL_PERCENTILE = {"datasets": 100.0, "grid_api": 90.0, "queries": 90.0}
MIN_TAIL_SAMPLES = 100
PerJob = dict[str, list[float]]


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Measurement:
    """Wall and CPU seconds of every call, per job id, in call order; with
    calibration, also the host's wall and CPU slowdown measured with each
    call (reference.py)."""
    job_s: PerJob = field(default_factory=dict)
    job_cpu_s: PerJob = field(default_factory=dict)
    slow: PerJob = field(default_factory=dict)
    slow_cpu: PerJob = field(default_factory=dict)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def elapsed_s(self) -> float:
        return sum(sum(times) for times in self.job_s.values())

    def typical_s(self, per_job: PerJob) -> list[float]:
        return [statistics.median(times) for times in per_job.values()]

    def calibrated(self, per_job: PerJob, per_job_slow: PerJob) -> PerJob:
        """Each call's seconds in reference seconds (see reference.py)."""
        return {job: [t / s for t, s in zip(times, per_job_slow[job])]
                for job, times in per_job.items()}

    def merge(self, other: "Measurement") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def fail(self, job_id: str, messages) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.extend(f"{job_id}: {m}" for m in messages[:3])


# Runners ---------------------------------------------------------------

class DatasetsRunner:
    """``reproduce`` and ``sweep --format json`` through the CLI, either as
    subprocesses (the measured workload) or in-process (the traced run).

    A subprocess runs the CLI under calibrated_cli.py, which samples the
    job's reference computation in that process; after each call
    ``calibration`` holds the call's wall and CPU seconds without those
    samples and their mean wall and CPU slowdown."""

    span = "cli.run"

    def __init__(self, root: Path, work: Path, in_process: bool) -> None:
        self.root, self.work, self.in_process = root, work, in_process
        self.cpu_who = (resource.RUSAGE_SELF if in_process
                        else resource.RUSAGE_CHILDREN)
        self.calibrates_itself = not in_process
        self.calibration: tuple[float, float, float, float] | None = None
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def prepare(self, job_list) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def _argv(self, job) -> list[str]:
        if job["kind"] == "reproduce":
            return ["reproduce", job["target"], "--out", str(self.work)]
        argv = ["sweep", "--axis", job["axis"], "--axis2", job["axis2"],
                "--format", "json", "--out", str(self.work / "sweep.json")]
        for s in job["sets"]:
            argv += ["--set", s]
        return argv

    def call(self, job):
        argv = self._argv(job)
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run(argv)
        samples_path = self.work / "calibration.json"
        samples_path.unlink(missing_ok=True)
        self.calibration = None
        cpu0 = _cpu_s(resource.RUSAGE_CHILDREN)
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CALIBRATED_CLI),
                                 str(samples_path), job["ref"], *argv],
                                env=self.env, cwd=self.root,
                                stdout=subprocess.DEVNULL)
        try:
            rc = proc.wait(timeout=JOB_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        cpu = _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
        try:
            samples = json.loads(samples_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return rc
        nominal = REF_S[job["ref"]]
        refs = samples["during"] + samples["after"]
        self.calibration = (
            samples["end"] - t0
            - nominal * sum(w for w, _ in samples["during"]),
            cpu - nominal * sum(c for _, c in refs),
            statistics.fmean(w for w, _ in refs),
            statistics.fmean(c for _, c in refs))
        return rc

    def corrupt(self, job, rc):
        if job["kind"] != "reproduce":
            return None
        with open(self.work / f"{job['files'][0]}.csv", "ab") as f:
            f.write(b"\n")
        return rc

    def check(self, job, rc, first: bool) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if job["kind"] == "reproduce":
            return gate.check_preset_files(self.work, job["files"])
        return gate.check_json_sweep(self.work / "sweep.json", job)

    def release(self, job) -> None:
        names = ([f"{n}.{ext}" for n in job["files"] for ext in ("csv", "svg")]
                 if job["kind"] == "reproduce" else ["sweep.json"])
        for name in names:
            (self.work / name).unlink(missing_ok=True)


def build_grid(job):
    """SystemParams and Axis tuple of a grid_api job."""
    base = SystemParams.symmetric(**job["base"]["symmetric"])
    base = replace(base, g0_2_mhz=base.g0_1_mhz * job["base"]["g2_over_g1"])
    axes = tuple(Axis(SweepParameter(p), lo, hi, count,
                      SweepParameter(norm) if norm else None)
                 for p, lo, hi, count, norm in job["axes"])
    return base, axes


def _result_digest(result) -> str:
    h = hashlib.sha256()
    for arr in (result.delta_f_mhz, result.t12, result.t21, result.ratio,
                result.i_signed_db):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(sorted(Counter(result.error_codes.values()).items()))
             .encode())
    return h.hexdigest()


class GridRunner:
    """In-process ``sweep()`` calls; results are consumed as arrays."""

    cpu_who = resource.RUSAGE_SELF
    span = "job"

    def __init__(self) -> None:
        self.inputs: dict[str, tuple] = {}
        self.digests: dict[str, str] = {}

    def prepare(self, job_list) -> None:
        for job in job_list:
            self.inputs[job["id"]] = build_grid(job)

    def call(self, job):
        base, axes = self.inputs[job["id"]]
        band = tuple(job["band"]) if job["band"] else None
        return sweep_module.sweep(base, axes, delta_f_policy=job["policy"],
                                  delta_f_band=band)

    def corrupt(self, job, result):
        result.t12 *= 1.0 + 1e-6
        result.t21 *= 1.0 + 1e-6
        return result

    def check(self, job, result, first: bool) -> list[str]:
        digest = _result_digest(result)
        if first:
            errors = gate.check_grid(job, result)
            if not errors:
                self.digests[job["id"]] = digest
            return errors
        if digest != self.digests.get(job["id"]):
            return ["result differs from the checked first pass"]
        return []

    def release(self, job) -> None:
        pass


class QueryRunner:
    """In-process ``cli.run(argv)`` with stdout captured."""

    cpu_who = resource.RUSAGE_SELF
    span = "cli.run"

    def __init__(self, work: Path) -> None:
        self.work = work
        self.argv: dict[str, list[str]] = {}
        self.outputs: dict[str, str] = {}

    def config_path(self, job) -> Path:
        return self.work / f"{job['id'].replace(':', '_')}.json"

    def prepare(self, job_list) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for job in job_list:
            path = self.config_path(job)
            path.write_text(json.dumps(job["config"]), encoding="utf-8")
            argv = [*job["argv"], "--config", str(path)]
            for s in job["sets"]:
                argv += ["--set", s]
            self.argv[job["id"]] = argv

    def call(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(self.argv[job["id"]])
        return rc, out.getvalue()

    def corrupt(self, job, output):
        if job["kind"] != "isolate":
            return None
        rc, text = output
        t12 = gate.parse_text(text)["t12"]
        return rc, text.replace(f"t12 = {t12}",
                                f"t12 = {float(t12) * 1.001:.12g}")

    def check(self, job, output, first: bool) -> list[str]:
        rc, text = output
        if first:
            errors = gate.check_query(job, self.config_path(job), rc, text)
            if not errors:
                self.outputs[job["id"]] = text
            return errors
        if rc != 0 or text != self.outputs.get(job["id"]):
            return ["output differs from the checked first pass"]
        return []

    def release(self, job) -> None:
        pass


def make_runner(workload: str, root: Path, work: Path,
                in_process: bool = True):
    if workload == "datasets":
        return DatasetsRunner(root, work, in_process)
    if workload == "grid_api":
        return GridRunner()
    return QueryRunner(work)


# The closed measuring loop ---------------------------------------------

def measure(runner, job_list, seconds: float = 0.0, min_passes: int = 1,
            tracer=None, corrupt: bool = False, calibrate: bool = False,
            warmup: bool = False) -> Measurement:
    """Run passes over ``job_list`` until ``seconds`` of job time and
    ``min_passes`` passes are done.  With ``warmup``, a first pass runs
    before those and its times are not kept; it is still checked, and
    later passes must repeat its outputs.  With ``calibrate``, each call
    is bracketed by two runs of its job's reference computation, unless
    the runner calibrates its calls itself.  With ``corrupt``, the first
    output a runner can corrupt is damaged before its check, which must
    then fail.
    """
    m = Measurement()
    runner.prepare(job_list)
    own = calibrate and getattr(runner, "calibrates_itself", False)
    first, warming = True, warmup
    while warming or m.passes < min_passes or m.elapsed_s() < seconds:
        for job in job_list:
            m.attempted += 1
            if calibrate and not own:
                before = slowdown(job["ref"])
            cpu0 = _cpu_s(runner.cpu_who)
            t0 = time.perf_counter()
            output, crash = None, None
            try:
                if tracer is None:
                    output = runner.call(job)
                else:
                    tracer.job = job["id"]
                    output = tracer.call(runner.span, runner.call, job)
            except Exception as e:  # a crash counts as a failed job
                crash = e
            wall, cpu = time.perf_counter() - t0, _cpu_s(runner.cpu_who) - cpu0
            if own:
                # A call that left no samples is a failed one; its time
                # stays uncalibrated.
                wall, cpu, slow, slow_cpu = (runner.calibration
                                             or (wall, cpu, 1.0, 1.0))
            elif calibrate:
                after = slowdown(job["ref"])
                slow = 0.5 * (before[0] + after[0])
                slow_cpu = 0.5 * (before[1] + after[1])
            if not warming:
                m.job_s.setdefault(job["id"], []).append(wall)
                m.job_cpu_s.setdefault(job["id"], []).append(cpu)
                if calibrate:
                    m.slow.setdefault(job["id"], []).append(slow)
                    m.slow_cpu.setdefault(job["id"], []).append(slow_cpu)
            if crash is None and corrupt:
                damaged = runner.corrupt(job, output)
                if damaged is not None:
                    output, corrupt = damaged, False
            errors = ([repr(crash)] if crash is not None
                      else runner.check(job, output, first))
            if errors:
                m.fail(job["id"], errors)
            runner.release(job)
        m.passes += not warming
        first = warming = False
    return m


def min_passes(workload: str, n_jobs: int) -> int:
    if TAIL_PERCENTILE[workload] >= 100.0:
        return 1
    return math.ceil(MIN_TAIL_SAMPLES / n_jobs)


def end_to_end(workload: str, m: Measurement) -> dict[str, float]:
    """Medians over the whole run, in reference seconds (reference.py).
    Calibration cancels the host's slow and fast spells only on average,
    so a single call can still land far out; a median over many calls
    does not.  run_s and cpu_s sum each job's median over its calls,
    job_p50_ms is the median and job_tail_ms the TAIL_PERCENTILE of every
    call of the run."""
    wall = m.calibrated(m.job_s, m.slow)
    cpu = m.calibrated(m.job_cpu_s, m.slow_cpu)
    calls_s = [t for times in wall.values() for t in times]
    return {"run_s": sum(m.typical_s(wall)),
            "job_p50_ms": 1e3 * statistics.median(calls_s),
            "job_tail_ms": 1e3 * float(np.percentile(
                calls_s, TAIL_PERCENTILE[workload])),
            "cpu_s": sum(m.typical_s(cpu))}


def samples(workload: str, m: Measurement) -> str:
    calls = sum(len(times) for times in m.job_s.values())
    slow = [s for times in m.slow.values() for s in times]
    return (f"{m.passes} passes, {calls} calls of {len(m.job_s)} jobs, "
            f"tail at p{TAIL_PERCENTILE[workload]:g} over every call; "
            f"median host slowdown {statistics.median(slow):.3g}")


# The traced run --------------------------------------------------------

def thread_speedup(seed: int, repeats: int = 3) -> float:
    """Median sweep() time at threads=1 over threads=2 on the largest clean
    grid_api grid, alternating the two."""
    job = joblists.largest_grid_job(seed)
    base, axes = build_grid(job)
    band = tuple(job["band"]) if job["band"] else None
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(repeats):
        for threads in (1, 2):
            t0 = time.perf_counter()
            sweep_module.sweep(base, axes, delta_f_policy=job["policy"],
                               delta_f_band=band, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def traced_run(workload: str, seed: int, seconds: float, root: Path,
               work: Path, spans_path: Path) -> tuple[dict, Measurement]:
    """A traced in-process pass over the workload's jobs, then untraced
    in-process passes for ``seconds``; the overhead is the traced pass
    minus the sum of the untraced per-job medians.

    The traced part starts with the smoke lists of the other two
    workloads, so every layer has spans on every workload; the per-layer
    numbers that matter for a layer are those on the workload that loads
    it.  Tracing comes first so the peak RSS growth across each csv_text
    call is measured in a fresh process.
    """
    job_list = joblists.GENERATORS[workload](seed)
    tracer = spanlib.Tracer()
    total = Measurement()
    tracer.install()
    try:
        for other in joblists.WORKLOADS:
            if other != workload:
                total.merge(measure(make_runner(other, root, work / other),
                                    joblists.GENERATORS[other](seed, smoke=True),
                                    tracer=tracer))
        traced = measure(make_runner(workload, root, work / "traced"),
                         job_list, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    plain = measure(make_runner(workload, root, work / "plain"), job_list,
                    seconds)
    metrics = spanlib.layer_metrics(tracer.spans)
    metrics["sweep.thread_speedup"] = thread_speedup(seed)
    metrics["trace.overhead_s"] = (traced.elapsed_s()
                                   - sum(plain.typical_s(plain.job_s)))
    total.merge(traced)
    total.merge(plain)
    return metrics, total


def smoke(workload: str, root: Path, work: Path):
    """The workload's smoke list through the gate, clean and then with one
    output corrupted; datasets goes through CLI subprocesses as measured."""
    job_list = joblists.GENERATORS[workload](0, smoke=True)
    in_process = workload != "datasets"
    clean = measure(make_runner(workload, root, work / "clean", in_process),
                    job_list)
    corrupted = measure(make_runner(workload, root, work / "corrupted",
                                    in_process), job_list, corrupt=True)
    return clean, corrupted


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload, seed = spec["workload"], spec["seed"]
    root, work = Path(spec["root"]), Path(spec["work"])
    if spec["trace"]:
        metrics, m = traced_run(workload, seed, spec["seconds"], root, work,
                                Path(spec["spans"]))
        described = f"spans in {spec['spans']}"
    else:
        job_list = joblists.GENERATORS[workload](seed)
        m = measure(make_runner(workload, root, work), job_list,
                    spec["seconds"], min_passes(workload, len(job_list)),
                    calibrate=True, warmup=True)
        metrics = end_to_end(workload, m)
        described = samples(workload, m)
    Path(spec_path + ".out").write_text(json.dumps(
        {"metrics": metrics, "attempted": m.attempted, "failed": m.failed,
         "errors": m.errors, "samples": described}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
