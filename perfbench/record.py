#!/usr/bin/env python3
"""Print the machine and kernel record that goes with a baseline.

    python3 perfbench/record.py

Machine: core count, CPU model, cache sizes, Python and numpy versions
and the BLAS thread variables.  Kernel: floating-point operations and
bytes moved per grid point of ``transmission_grid`` with fig4a's inputs
(Fizeau shift and optical linewidth swept on a 2-D grid), counted from
the array sizes of every ufunc call it makes.  Both counts are computed,
not measured: bytes assume each operand is read and each result written
once, with no cache reuse.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from magnon_sagnac import SystemParams, figure_preset  # noqa: E402

# Flops per element by ufunc and result kind (c: complex, f: real).
# Complex division counted as Smith's algorithm, |z| as a scaled hypot.
FLOPS = {("add", "c"): 2, ("subtract", "c"): 2, ("multiply", "c"): 6,
         ("true_divide", "c"): 11, ("square", "c"): 3, ("absolute", "f"): 5}


def _sys_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine() -> dict:
    cpu_model = ""
    for line in _sys_text(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level, kind = _sys_text(index / "level"), _sys_text(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _sys_text(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches_per_core_or_shared": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


class _Counted(np.ndarray):
    """An array that logs every ufunc call made on it."""

    calls: list[tuple[str, list[np.ndarray], np.ndarray]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x
                 for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        arrays = [x for x in plain if isinstance(x, np.ndarray) and x.ndim]
        _Counted.calls.append((ufunc.__name__, arrays, out))
        return out.view(_Counted) if isinstance(out, np.ndarray) else out


class _AsAnyArray:
    """numpy with asarray passing subclasses through, so the counting
    array survives the kernel's np.asarray calls."""

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, a, dtype=None):
        return np.asanyarray(a, dtype=dtype)


def kernel() -> dict:
    steady_state = importlib.import_module("magnon_sagnac.steady_state")
    sweep_module = importlib.import_module("magnon_sagnac.sweep")
    preset = figure_preset("fig4a")
    base: SystemParams = preset.base
    shape = (64, 32)
    df, kappa = np.meshgrid(np.linspace(-4.0, 4.0, shape[0]),
                            np.linspace(0.114, 10.0, shape[1]), indexing="ij")
    args = sweep_module._base_kernel_args(base)
    args["delta_f"] = df.view(_Counted)
    args["kappa_1"] = args["kappa_2"] = kappa.view(_Counted)
    _Counted.calls = []
    steady_state.np = _AsAnyArray()
    try:
        steady_state.transmission_grid(**args)
    finally:
        steady_state.np = np
    points = df.size
    flops = bytes_moved = 0
    for name, arrays, out in _Counted.calls:
        if np.size(out) != points:
            continue
        kind = "c" if np.iscomplexobj(out) else "f"
        flops += FLOPS.get((name, kind), 1) * points
        bytes_moved += sum(a.nbytes for a in arrays) + out.nbytes
    n_fig4a = preset.axes[0].count * preset.axes[1].count
    return {"counted_on": "transmission_grid, fig4a inputs (delta_f and "
                          "kappa swept on a 2-D grid)",
            "label": "computed from array sizes, not measured",
            "ufunc_calls_per_grid": sum(np.size(o) == points
                                        for _, _, o in _Counted.calls),
            "flops_per_point": flops / points,
            "bytes_per_point": bytes_moved / points,
            "flops_per_byte": flops / bytes_moved,
            "fig4a_points": n_fig4a,
            "fig4a_complex_temporary_mb": n_fig4a * 16 / 1e6}


if __name__ == "__main__":
    print(json.dumps({"machine": machine(), "kernel": kernel()}, indent=1))
