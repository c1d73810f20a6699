"""The benchmark's trace hooks and gate, the bundled script and README
fit the package."""

import argparse
import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from magnon_sagnac import (Axis, FigurePreset, SweepParameter, SystemParams,
                           cli, figure_preset, serialize, sweep)
from test_serialize import _PRESET_DIGESTS

ROOT = Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _perfbench(name: str):
    """A perfbench module, loaded from its file without perfbench/ on
    the import path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    """Every name perfbench/spans.py wraps for ``--trace 1`` exists."""
    spans = _perfbench("spans")
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_one_svg_span_per_svg(tmp_path):
    """perfbench's ``serialize.svg_ms`` is the median of the svg_text
    spans: writing a preset's files records exactly one."""
    tracer = _perfbench("spans").Tracer()
    tracer.install()
    try:
        serialize.write_preset_outputs(FigurePreset(
            "tiny", "five shifts", SystemParams.symmetric(),
            (Axis(SweepParameter.DELTA_F, -10.0, 10.0, 5),)), tmp_path)
    finally:
        tracer.uninstall()
    names = [span[3] for span in tracer.spans]
    assert names.count("serialize.svg_text") == 1, names


def _package_names_used_by(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each ``from magnon_sagnac... import name`` in
    ``path``, and each attribute read on a name that
    ``importlib.import_module("magnon_sagnac...")`` bound."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used, bound = set(), {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "magnon_sagnac"):
            used.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"
              and isinstance(node.value.args[0], ast.Constant)
              and node.value.args[0].value.startswith("magnon_sagnac")):
            bound.update((target.id, node.value.args[0].value)
                         for target in node.targets
                         if isinstance(target, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            used.add((bound[node.value.id], node.attr))
    return used


def test_benchmark_names_resolve():
    """Every package name a perfbench/*.py file imports or reads off an
    imported package module exists, including those of files no test
    runs (record.py's ``sweep_module._base_kernel_args``)."""
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _package_names_used_by(path)
    missing = []
    for module, name in sorted(used):
        if not hasattr(importlib.import_module(module), name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing


@pytest.mark.parametrize("seed", [0, 1])
def test_optimize_passes_the_benchmark_gate(tmp_path, capsys, seed):
    """The benchmark's query jobs that pick an extremal shift, run as it
    runs them, pass its correctness gate: ``optimize`` (brute and
    analytic) and the non-uniform ``sweep --optimal-df positive``."""
    gate, jobs = _perfbench("gate"), _perfbench("jobs")
    for job in jobs.query_jobs(seed):
        if job["kind"] not in ("brute", "analytic", "sweep"):
            continue
        path = tmp_path / f"{job['id'].replace(':', '_')}.json"
        path.write_text(json.dumps(job["config"]), encoding="utf-8")
        argv = [*job["argv"], "--config", str(path)]
        for s in job["sets"]:
            argv += ["--set", s]
        rc = cli.run(argv)
        out = capsys.readouterr().out
        assert gate.check_query(job, path, rc, out) == [], (job["id"], argv)


def test_masked_grids_pass_the_benchmark_gate():
    """The benchmark's masked grid_api slots, built as it builds them,
    pass its correctness gate: every masked point blanked, every other
    one finite and in agreement with the generic solver."""
    gate, jobs = _perfbench("gate"), _perfbench("jobs")
    masked = [job for job in jobs.grid_jobs(1) if job["masked_fraction"]]
    assert len(masked) == 7
    for job in masked:
        base = SystemParams.symmetric(**job["base"]["symmetric"])
        base = dataclasses.replace(
            base, g0_2_mhz=base.g0_1_mhz * job["base"]["g2_over_g1"])
        axes = [Axis(SweepParameter(param), lo, hi, count,
                     SweepParameter(norm) if norm else None)
                for param, lo, hi, count, norm in job["axes"]]
        result = sweep(base, axes, delta_f_policy=job["policy"],
                       delta_f_band=job["band"] and tuple(job["band"]))
        assert gate.check_grid(job, result) == [], job["id"]


def test_spin_rate_study_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "spin_rate_study.py"),
         "--steps", "3"], capture_output=True, text=True, timeout=60,
        env=_src_env(), check=True)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# extremal shift 33.182 MHz (41.63 dB)")
    assert len(lines) == 5  # the shift, the column heads and three rates


def test_preset_probe_runs():
    """scripts/preset_probe.py runs the fig5 group once and counts every
    row of both of its CSVs."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "preset_probe.py"), "fig5",
         "--repeat", "1"], capture_output=True, text=True, timeout=60,
        check=True)
    record = json.loads(done.stdout)
    assert record["repeat"] == 1 and record["import_rss_mb"] > 0
    fig5 = record["presets"]["fig5"]
    rows = sum(math.prod(axis.count for axis in figure_preset(name).axes)
               for name in ("fig5a", "fig5b"))
    assert fig5["csv_rows"] == rows
    assert fig5["csv_bytes"] > rows * len(serialize.CSV_HEADER)
    assert len(fig5["walls_s"]) == 1 and fig5["wall_s"] > 0
    assert fig5["us_per_row"] == round(fig5["wall_s"] / rows * 1e6, 3)


def test_bench_pairs_writes_the_bench_layout(tmp_path):
    """scripts/bench_pairs.py runs HEAD against HEAD of a clone, one
    queries pair of 0.2 s, and writes the layout of the BENCH_*.json
    files; it removes its worktree and leaves the repository under test
    alone."""
    clone, out, tree = (tmp_path / name for name in ("clone", "bench.json",
                                                      "tree"))
    if subprocess.run(["git", "clone", "--quiet", "--shared", str(ROOT),
                       str(clone)], capture_output=True).returncode:
        pytest.skip("not a git checkout")
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "HEAD",
         "HEAD", "--workload", "queries=1", "--seconds", "0.2", "--claim",
         "queries.run_s", "--repo", str(clone), "--tree", str(tree),
         "--out", str(out)],
        capture_output=True, timeout=120, check=True)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert not tree.exists()
    assert subprocess.run(["git", "worktree", "list"], cwd=clone, check=True,
                          capture_output=True).stdout.count(b"\n") == 1
    assert list(record) == ["change", "revisions", "machine", "command",
                            "order", "claim", "workloads"]
    src_tree = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=clone,
                              check=True, capture_output=True, text=True)
    assert record["revisions"]["src_trees"] == {
        "parent": src_tree.stdout.strip(), "change": src_tree.stdout.strip()}
    assert record["command"] == ("python3 perfbench/run.py --workload W "
                                 "--seed S --seconds 0.2 --trace 0")
    assert record["order"] == {"parent_first_seeds": {"queries": [101]},
                               "change_first_seeds": {"queries": []}}
    queries = record["workloads"]["queries"]
    assert (queries["seeds"], queries["pairs"]) == ([101], 1)
    assert [f for f, _ in queries["failed_attempted"]["parent"]
            + queries["failed_attempted"]["change"]] == [0, 0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(queries["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in queries["metrics"].values():
        assert list(metric) == ["parent_median", "change_median",
                                "parent_quartiles", "change_quartiles",
                                "change_over_parent", "change_better_pairs",
                                "values"]
    assert list(record["claim"]) == [
        "workload", "metric", "parent_median", "change_median",
        "change_better_pairs", "parent_iqr", "gain_exceeds_parent_iqr"]
    assert record["claim"]["change_better_pairs"] in ("0 of 1", "1 of 1")


def test_readme_documents_only_options_that_exist():
    """Every `--flag` README names is an option of some command, and every
    ``$ magnon-sagnac`` example parses."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {option for command in commands.values()
               for action in command._actions
               for option in action.option_strings}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"`(--[a-z][a-z-]*)", readme)) - options == set()
    examples = re.findall(r"^\$ magnon-sagnac ((?:.*\\\n)*.*)$", readme,
                          re.MULTILINE)
    assert len(examples) >= 5
    for example in examples:
        parser.parse_args(shlex.split(example.replace("\\\n", " ")))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=_src_env(), check=True)


def test_cli_module_writes_the_pinned_csv(tmp_path):
    _python("-m", "magnon_sagnac.cli", "reproduce", "fig2a",
            "--out", str(tmp_path))
    digest = hashlib.sha256((tmp_path / "fig2a.csv").read_bytes()).hexdigest()
    assert digest == _PRESET_DIGESTS["fig2a.csv"]


def test_public_names_resolve():
    """Every name in ``__all__`` exists once, and a star import of the
    package works in a fresh process, so a removal leaves no stale
    export behind."""
    import magnon_sagnac
    names = magnon_sagnac.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(magnon_sagnac, n)] == []
    _python("-c", "from magnon_sagnac import *")


# Imports that only perfbench reads, through its trace hooks.
_IMPORTED_FOR_PERFBENCH = {("cli", "Path"), ("cli", "run_preset"),
                           ("sweep", "brute_force_optimum")}


def test_src_modules_use_every_import():
    """Each name a module of the package imports is read in that module,
    apart from the package's re-exports and ``__future__`` features."""
    unused = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    assert unused == _IMPORTED_FOR_PERFBENCH


_CONCURRENCY = ("concurrent", "threading", "multiprocessing", "_thread")


def test_package_starts_no_threads_or_processes():
    """No module of the package imports a thread or process pool: the
    sweep runs its blocks serially, and two threads never gave a
    reproducible speed-up."""
    found = []
    for path in sorted((ROOT / "src" / "magnon_sagnac").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in _CONCURRENCY]
    assert found == []


# Runs the scalar commands, reports which modules they loaded, then runs
# three commands that compute on arrays; with the argument "numpy-first"
# it imports numpy before the package.
_SCALAR_THEN_ARRAY = """
import contextlib, io, json, sys
if sys.argv[1:] == ["numpy-first"]:
    import numpy
from magnon_sagnac import cli
cli.build_parser()

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return [code, out.getvalue()]

scalar = [run(*command, *form)
          for command in (["isolate"], ["steady"], ["fizeau"], ["optimize"],
                          ["optimize", "--analytic"])
          for form in ([], ["--format", "json"])]
scalar += [run("validate"), run("validate", "--print-resolved")]
loaded = [m in sys.modules for m in
          ("numpy.linalg", "concurrent.futures", "magnon_sagnac.e16")]
arrays = [run("steady", "--method", "generic"),
          run("sweep", "--axis", "delta_f=-40:40:5")]
print(json.dumps({"scalar": scalar, "loaded": loaded, "arrays": arrays}))
"""


def test_cli_import_leaves_out_the_thread_pool():
    """Importing the CLI, building its parser and running the scalar
    commands, ``optimize`` in both modes among them, load neither numpy
    (whose ``__init__`` imports ``numpy.linalg``), the thread pool nor the
    number formatters.  Every command prints what it prints in a process
    that imported numpy first."""
    lazy = json.loads(_python("-c", _SCALAR_THEN_ARRAY).stdout)
    eager = json.loads(_python("-c", _SCALAR_THEN_ARRAY,
                               "numpy-first").stdout)
    assert lazy["loaded"] == [False, False, False]
    assert eager["loaded"][0]
    assert [code for code, _ in lazy["scalar"] + lazy["arrays"]] == [0] * 14
    assert lazy["scalar"] == eager["scalar"]
    assert lazy["arrays"] == eager["arrays"]
    assert lazy["arrays"][1][1].count("\n") == 6  # header and 5 points


_SCALAR_COMMANDS = (["validate"], ["fizeau"], ["isolate", "--format", "json"],
                    ["optimize"],
                    ["optimize", "--analytic", "--format", "json"])


def test_cli_without_numpy_fails_only_array_commands(capsys):
    """With numpy missing, the scalar commands, ``optimize`` in both modes
    among them, answer as they do with it, and each array command raises
    ModuleNotFoundError naming numpy."""
    script = f"""
import sys
sys.modules["numpy"] = None
from magnon_sagnac import cli
for argv in {_SCALAR_COMMANDS!r}:
    cli.run(argv)
for argv in (["steady", "--method", "generic"],
             ["sweep", "--axis", "delta_f=-40:40:5"]):
    try:
        cli.run(argv)
    except Exception as e:
        print(type(e).__name__, getattr(e, "name", None))
"""
    lines = _python("-c", script).stdout.splitlines(keepends=True)
    for argv in _SCALAR_COMMANDS:
        assert cli.run(argv) == 0
    expected = capsys.readouterr().out
    assert "".join(lines[:-2]) == expected
    assert lines[-2:] == ["ModuleNotFoundError numpy\n"] * 2


# Imports its two arguments in order, then checks numpy and the
# package's ``sweep``.
_IMPORT_ORDER = """
import importlib, sys, types
for name in sys.argv[1:]:
    importlib.import_module(name)
import numpy
from magnon_sagnac import sweep
before = isinstance(sweep, types.FunctionType)
import magnon_sagnac.sweep
from magnon_sagnac import sweep
print(numpy.linalg.norm([3.0, 4.0]), numpy.__version__,
      before, isinstance(sweep, types.FunctionType),
      all(sys.modules["magnon_sagnac." + name].np is numpy
          for name in ("analysis", "steady_state", "sweep")))
"""


@pytest.mark.parametrize("order", [("magnon_sagnac", "numpy"),
                                   ("numpy", "magnon_sagnac")],
                         ids=["package-first", "numpy-first"])
def test_numpy_works_in_either_import_order(order):
    """numpy imported before or after the package is the whole module,
    the one the array modules use, and the package's ``sweep`` stays the
    function after ``import magnon_sagnac.sweep``."""
    import numpy
    done = _python("-c", _IMPORT_ORDER, *order)
    assert done.stdout.split() == ["5.0", numpy.__version__,
                                   "True", "True", "True"]


def test_cli_process_keeps_its_freed_memory(tmp_path):
    """``python -m magnon_sagnac.cli`` sets glibc's thresholds, so a 2-D
    grid written through the streamed writers no longer faults in each
    block's temporaries again; ``cli.run`` in a process of its own keeps
    glibc's defaults.

    With the defaults, how much of the churn glibc's own threshold
    adjustment removes depends on incidental allocation history: fig3a
    took 40k or 122k faults depending on the length of its output path.
    fig4a (1.29e6 points, about 365k faults) keeps a wide margin.
    """
    found = _python("-c", "from magnon_sagnac import cli; "
                          "print(cli._keep_freed_memory())")
    if found.stdout.strip() != "True":
        pytest.skip("no glibc mallopt")
    argv = ["reproduce", "fig4a", "--out"]
    in_run = ("import sys; from magnon_sagnac import cli; "
              "sys.exit(cli.run(sys.argv[1:]))")
    faults = []
    for out, args in ((tmp_path / "main", ["-m", "magnon_sagnac.cli"]),
                      (tmp_path / "run", ["-c", in_run])):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        _python(*args, *argv, str(out))
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
                      - before)
        csv = out / "fig4a.csv"
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        csv.unlink()  # 220 MB that pytest would keep
        assert digest == _PRESET_DIGESTS["fig4a.csv"], out.name
    assert faults[0] <= faults[1] / 4, faults


# Runs the CLI's main() on argv[1:] and, at exit, writes the number of
# threads of its process, from /proc/self/status, to stderr.
_THREADS_AT_EXIT = r"""
import atexit, re, sys
def threads():
    with open("/proc/self/status") as status:
        found = re.search(r"^Threads:\s*(\d+)", status.read(), re.M)
    print(found.group(1), file=sys.stderr)
atexit.register(threads)
from magnon_sagnac.cli import main
main()
"""


def _env_without_blas_threads() -> dict:
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="no /proc")
def test_cli_process_runs_one_blas_thread(tmp_path):
    """``main()`` sets OpenBLAS's thread count to 1 before numpy loads, so
    a CLI sweep runs in one thread; a count the caller sets wins."""
    argv = ["sweep", "--axis", "gamma_m=1:10:30", "--out",
            str(tmp_path / "out.csv")]
    threads = []
    for caller in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        done = subprocess.run(
            [sys.executable, "-c", _THREADS_AT_EXIT, *argv], timeout=120,
            env={**_env_without_blas_threads(), **caller},
            capture_output=True, text=True, check=True)
        threads.append(int(done.stderr.split()[-1]))
    assert threads == [1, 2]


def test_generic_solve_prints_the_same_in_one_blas_thread(capsys):
    """The one BLAS call, ``steady --method generic``'s 3x3 solve, prints
    the same bytes in a CLI process as in this one."""
    argv = ["steady", "--method", "generic", "--side", "right", "--format",
            "json", "--set", "delta_mhz=3.7", "--set", "g0_mhz=[41, 37]"]
    done = subprocess.run([sys.executable, "-m", "magnon_sagnac.cli", *argv],
                          env=_env_without_blas_threads(), timeout=120,
                          capture_output=True, text=True, check=True)
    assert cli.run(argv) == 0
    assert done.stdout == capsys.readouterr().out


# Runs argv[1:] and prints its peak RSS.  A child's ru_maxrss starts from
# the RSS of the process that started it, so the child is started from
# this small process, not from pytest.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss)
sys.exit(proc.returncode)
"""


def _peak_rss_kb(*args: str) -> int:
    """The peak RSS, in kB, of one Python process run with ``args``."""
    return int(_python("-c", _PEAK_RSS, sys.executable, *args).stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kB")
def test_reproduce_holds_one_block(tmp_path):
    """``reproduce fig4a`` writes its CSV from the block loop and keeps
    only the cells its SVG draws (119 x 101 of 6401 x 201): its peak RSS
    is about 20 MB above that of a process that only imports the writers,
    not the 29 MB of keeping the plotted column nor the 67 MB of a whole
    1.29e6-point result written after the sweep."""
    base = _peak_rss_kb("-c", "import magnon_sagnac.serialize")
    peak = _peak_rss_kb("-m", "magnon_sagnac.cli", "reproduce", "fig4a",
                        "--out", str(tmp_path))
    (tmp_path / "fig4a.csv").unlink()  # 220 MB that pytest would keep
    assert peak - base < 25 * 1024, (peak, base)
