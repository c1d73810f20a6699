"""The benchmark's trace hooks and gate, the bundled script and README
fit the package."""

import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from magnon_sagnac import cli
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
    """The ``optimize`` query jobs of the benchmark, run as it runs them,
    pass its correctness gate."""
    gate, jobs = _perfbench("gate"), _perfbench("jobs")
    for job in jobs.query_jobs(seed):
        if job["kind"] not in ("brute", "analytic"):
            continue
        path = tmp_path / f"{job['id'].replace(':', '_')}.json"
        path.write_text(json.dumps(job["config"]), encoding="utf-8")
        argv = [*job["argv"], "--config", str(path)]
        for s in job["sets"]:
            argv += ["--set", s]
        rc = cli.run(argv)
        out = capsys.readouterr().out
        assert gate.check_query(job, path, rc, out) == [], (job["id"], argv)


def test_spin_rate_study_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "spin_rate_study.py"),
         "--steps", "3"], capture_output=True, text=True, timeout=60,
        env=_src_env(), check=True)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# extremal shift 33.182 MHz (41.63 dB)")
    assert len(lines) == 5  # the shift, the column heads and three rates


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
          for command in (["isolate"], ["steady"], ["fizeau"])
          for form in ([], ["--format", "json"])]
scalar += [run("validate"), run("validate", "--print-resolved")]
loaded = [m in sys.modules for m in
          ("numpy.linalg", "concurrent.futures", "magnon_sagnac.e16")]
arrays = [run("optimize"), run("steady", "--method", "generic"),
          run("sweep", "--axis", "delta_f=-40:40:5")]
print(json.dumps({"scalar": scalar, "loaded": loaded, "arrays": arrays}))
"""


def test_cli_import_leaves_out_the_thread_pool():
    """Importing the CLI, building its parser and running the scalar
    commands load neither numpy (whose ``__init__`` imports
    ``numpy.linalg``), the thread pool nor the number formatters.  The
    commands that then load numpy print what they print in a process
    that imported numpy first."""
    lazy = json.loads(_python("-c", _SCALAR_THEN_ARRAY).stdout)
    eager = json.loads(_python("-c", _SCALAR_THEN_ARRAY,
                               "numpy-first").stdout)
    assert lazy["loaded"] == [False, False, False]
    assert eager["loaded"][0]
    assert [code for code, _ in lazy["scalar"] + lazy["arrays"]] == [0] * 11
    assert lazy["scalar"] == eager["scalar"]
    assert lazy["arrays"] == eager["arrays"]
    assert lazy["arrays"][2][1].count("\n") == 6  # header and 5 points


def test_cli_without_numpy_fails_only_array_commands(capsys):
    """With numpy missing, the scalar commands answer as they do with it,
    and each array command raises ModuleNotFoundError naming numpy."""
    script = """
import sys
sys.modules["numpy"] = None
from magnon_sagnac import cli
for argv in (["validate"], ["fizeau"], ["isolate", "--format", "json"]):
    cli.run(argv)
for argv in (["optimize"], ["steady", "--method", "generic"],
             ["sweep", "--axis", "delta_f=-40:40:5"]):
    try:
        cli.run(argv)
    except Exception as e:
        print(type(e).__name__, getattr(e, "name", None))
"""
    lines = _python("-c", script).stdout.splitlines(keepends=True)
    for argv in (["validate"], ["fizeau"], ["isolate", "--format", "json"]):
        assert cli.run(argv) == 0
    expected = capsys.readouterr().out
    assert "".join(lines[:-3]) == expected
    assert lines[-3:] == ["ModuleNotFoundError numpy\n"] * 3


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
