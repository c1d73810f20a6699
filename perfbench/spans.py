"""Spans around the calls into each layer of magnon_sagnac, and the
per-layer metrics derived from them.

The tracer wraps module attributes from outside the package: each entry
of TARGETS replaces the name a calling module looks up (``cli.validate``,
``sweep.transmission_grid``, ...) with a wrapper that records a span.
Nothing inside the package changes.  Spans stay in memory as
``[id, parent, job, name, start_ns, end_ns, attrs]`` and are written out
when the run ends.  The tracer assumes one thread: the traced run keeps
the sweep thread pool at its single-threaded default.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from magnon_sagnac.model import has_uniform_ports
from magnon_sagnac.sweep import DeltaFPolicy


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _kernel_attrs(args, kwargs, out, before):
    return {"points": int(np.size(out[0]))}


def _sweep_attrs(args, kwargs, out, before):
    base = args[0]
    policy = DeltaFPolicy(kwargs.get("delta_f_policy", DeltaFPolicy.FIXED))
    masked = sum(1 for code in out.error_codes.values()
                 if code != "INF_ISOLATION")
    return {"points": out.n_points, "masked": masked,
            "fallback": (policy is not DeltaFPolicy.FIXED
                         and not has_uniform_ports(base))}


def _rows_attrs(args, kwargs, out, before):
    return {"rows": args[0].n_points}


def _csv_attrs(args, kwargs, out, before):
    return {"rows": args[0].n_points, "rss_before_kb": before,
            "rss_after_kb": _maxrss_kb()}


_CLI, _SWEEP = "magnon_sagnac.cli", "magnon_sagnac.sweep"
_SERIALIZE, _ANALYSIS = "magnon_sagnac.serialize", "magnon_sagnac.analysis"

# (module that makes the call, attribute it looks up, span name,
#  attrs(args, kwargs, result, before) or None, before() or None)
TARGETS = (
    (_CLI, "load_config", "config.load_config", None, None),
    (_CLI, "apply_overrides", "config.apply_overrides", None, None),
    (_CLI, "parse_config", "config.parse_config", None, None),
    (_CLI, "validate", "model.validate", None, None),
    (_SWEEP, "validate", "model.validate", None, None),
    (_CLI, "validate_rotation", "model.validate_rotation", None, None),
    (_CLI, "fizeau_shift", "model.fizeau_shift", None, None),
    (_CLI, "transmissions", "steady_state.transmissions", None, None),
    (_ANALYSIS, "transmissions", "steady_state.transmissions", None, None),
    (_CLI, "solve_closed_form", "steady_state.solve_closed_form", None, None),
    (_CLI, "solve_generic", "steady_state.solve_generic", None, None),
    (_CLI, "output_fields", "steady_state.output_fields", None, None),
    (_CLI, "residuals", "steady_state.residuals", None, None),
    (_SWEEP, "transmission_grid", "steady_state.transmission_grid",
     _kernel_attrs, None),
    (_CLI, "brute_force_optimum", "analysis.brute_force_optimum", None, None),
    # The per-point search behind a non-uniform --optimal-df sweep.
    (_SWEEP, "brute_force_optimum", "analysis.fallback_search", None, None),
    (_CLI, "extremal_fizeau_general", "analysis.extremal_fizeau_general",
     None, None),
    (_CLI, "classify_direction", "analysis.classify_direction", None, None),
    (_CLI, "run_preset", "sweep.run_preset", None, None),
    (_CLI, "sweep", "sweep.sweep", _sweep_attrs, None),
    # run_preset, and the benchmark's own grid_api calls, look sweep up here.
    (_SWEEP, "sweep", "sweep.sweep", _sweep_attrs, None),
    (_SERIALIZE, "csv_text", "serialize.csv_text", _csv_attrs, _maxrss_kb),
    (_SERIALIZE, "json_text", "serialize.json_text", _rows_attrs, None),
    (_SERIALIZE, "svg_text", "serialize.svg_text", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.job, name, 0, 0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[5] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, attrs=None, before=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        pre = before() if before else None
        record = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(record)
        if attrs:
            record[6] = attrs(args, kwargs, out, pre)
        return out

    def _wrapper(self, fn, name, attrs, before):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, before=before,
                             **kwargs)
        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs, before in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, attrs, before))
        tracer = self
        base = type(Path())

        class TracedPath(base):
            def write_text(self, data, *args, **kwargs):
                return tracer.call("serialize.write", super().write_text,
                                   data, *args,
                                   attrs=lambda a, k, o, b: {"bytes": len(data)},
                                   **kwargs)

        for module_name in (_CLI, _SERIALIZE):
            module = importlib.import_module(module_name)
            self._saved.append((module, "Path", module.Path))
            module.Path = TracedPath

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        keys = ("id", "parent", "job", "name", "start_ns", "end_ns", "attrs")
        Path(path).write_text(json.dumps([dict(zip(keys, s))
                                          for s in self.spans]),
                              encoding="utf-8")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus its direct children's, indexed by span
    id.  The traced run is single-threaded, so children never overlap."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of TARGETS' spans plus the job spans."""
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
    own = self_times(spans)

    def dur(s) -> int:
        return s[5] - s[4]

    def self_ns(s) -> int:
        return own[s[0]]

    def median(name: str, scale: float, fn=dur) -> float:
        return statistics.median(fn(s) for s in by_name[name]) / scale

    def per(name: str, key: str, fn=dur, keep=lambda s: True) -> float:
        chosen = [s for s in by_name[name] if keep(s)]
        return (sum(fn(s) for s in chosen)
                / sum(s[6][key] for s in chosen))

    config_per_job: dict[str, int] = defaultdict(int)
    for name in ("config.load_config", "config.apply_overrides",
                 "config.parse_config"):
        for s in by_name[name]:
            config_per_job[s[2]] += dur(s)
    kernel = by_name["steady_state.transmission_grid"]
    sweeps = by_name["sweep.sweep"]
    writes = by_name["serialize.write"]
    written = sum(s[6]["bytes"] for s in writes)
    csv = by_name["serialize.csv_text"]
    return {
        "config.parse_us": statistics.median(config_per_job.values()) / 1e3,
        "model.validate_us": median("model.validate", 1e3),
        "steady_state.kernel_ns_per_point":
            per("steady_state.transmission_grid", "points"),
        "steady_state.kernel_points": sum(s[6]["points"] for s in kernel),
        "steady_state.transmissions_us":
            median("steady_state.transmissions", 1e3),
        "analysis.brute_force_ms": median("analysis.brute_force_optimum", 1e6),
        "analysis.extremal_us": median("analysis.extremal_fizeau_general", 1e3),
        "sweep.self_ns_per_point": per(
            "sweep.sweep", "points", self_ns,
            lambda s: s[6]["masked"] == 0 and not s[6]["fallback"]),
        "sweep.masked_ns_per_point": per(
            "sweep.sweep", "points", self_ns,
            lambda s: s[6]["masked"] >= 0.9 * s[6]["points"]),
        "sweep.fallback_ms_per_point": per(
            "sweep.sweep", "points", keep=lambda s: s[6]["fallback"]) / 1e6,
        "sweep.masked_frac": (sum(s[6]["masked"] for s in sweeps)
                              / sum(s[6]["points"] for s in sweeps)),
        "serialize.csv_us_per_row": per("serialize.csv_text", "rows") / 1e3,
        "serialize.json_us_per_row": per("serialize.json_text", "rows") / 1e3,
        "serialize.svg_ms": median("serialize.svg_text", 1e6),
        "serialize.write_mb_per_s":
            written / 1e6 / (sum(dur(s) for s in writes) / 1e9),
        "serialize.mb_written": written / 1e6,
        "serialize.rss_delta_mb": max(
            s[6]["rss_after_kb"] - s[6]["rss_before_kb"] for s in csv) / 1024,
        "cli.run_overhead_us": median("cli.run", 1e3, self_ns),
    }
