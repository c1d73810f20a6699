"""The benchmark's trace hooks and the bundled scripts fit the package."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_targets_resolve():
    """Every name perfbench/spans.py wraps for ``--trace 1`` exists."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_spin_rate_study_runs():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "spin_rate_study.py"),
         "--steps", "3"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path), check=True)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# extremal shift 33.182 MHz (41.63 dB)")
    assert len(lines) == 5  # the shift, the column heads and three rates
