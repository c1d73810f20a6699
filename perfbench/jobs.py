"""Seeded job lists for the three benchmark workloads.

Every generator takes the workload seed and returns plain JSON-able
dicts, so the same seed always yields the same inputs and the program
under test sees only those inputs.  Sizes, command mixes and masked
fractions follow fixed schedules; the seed draws parameter values,
ranges and, for queries, axis choices.  That keeps the work per pass
nearly the same for every seed, so seed-to-seed spread measures the
program, not the draw.  Each job names the reference computation that
calibrates its time (``ref``, see reference.py) after the work that
takes its time: ``numpy`` for a clean grid (array arithmetic),
``python`` for a grid with masked points (the per-point masking loop)
and for the CLI jobs of the other two workloads (start-up, parsing,
formatting, scalar solves).  Over ten runs of grid_api on a 2-core VM,
the per-run medians of clean grids calibrated this way spread 5-6%
against 21-28% with the python reference, and those of masked grids 10%
against 36% with the numpy one.

``smoke=True`` gives a tiny version of each list that still reaches every
command, policy and check kind; the smoke tests and the companion part
of a traced run use it.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("datasets", "grid_api", "queries")

# sweep.SweepParameter values, as accepted by the CLI axis specs.
PARAMS = ("delta_f", "gamma_m", "kappa", "delta", "G", "g2_over_g1",
          "omega_s")
POLICIES = ("fixed", "extremal_positive", "extremal_negative")
# grid_api plan per pass, one slot per grid: (points, policy, first axis,
# second axis or None, masked fraction).  The slots fix everything that
# sets a grid's cost -- size, shape, policy, which parameters are swept,
# how much is masked -- so a pass costs the same for every seed, and the
# seed draws only the base parameters and the axis ranges.  Sorted by
# latency, a pass runs seven grids of a few ms (1e3 to 1e4 points), then
# six clean FIXED 1-D detuning grids of 1e5 points, which differ only in
# the seeded values and so cost the same, then eight of 0.1-1 s (1e5
# masked at 90% and 1e6), so the median falls in the middle of six like
# grids and p90 inside the large ones.  The masked axis (gamma_m or
# kappa) crosses zero; all seven parameters and all three policies
# appear.
GRID_PLAN = (
    (1_000, "fixed", "gamma_m", None, 0.99),
    (1_000, "extremal_positive", "kappa", "delta", 0.0),
    (1_000, "extremal_negative", "omega_s", None, 0.0),
    (3_000, "fixed", "kappa", "G", 0.75),
    (10_000, "fixed", "delta_f", None, 0.0),
    (10_000, "extremal_positive", "G", "omega_s", 0.0),
    (10_000, "extremal_negative", "delta", None, 0.0),
    *[(100_000, "fixed", "delta", None, 0.0)] * 6,
    (100_000, "fixed", "gamma_m", None, 0.9),
    (100_000, "extremal_positive", "kappa", None, 0.9),
    (100_000, "extremal_negative", "gamma_m", "g2_over_g1", 0.9),
    (100_000, "fixed", "kappa", "delta_f", 0.9),
    (1_000_000, "extremal_negative", "kappa", "G", 0.5),
    (1_000_000, "fixed", "delta_f", "gamma_m", 0.0),
    (1_000_000, "extremal_negative", "g2_over_g1", None, 0.0),
    (1_000_000, "extremal_positive", "gamma_m", "omega_s", 0.0),
)
SMOKE_GRID_PLAN = (
    (300, "fixed", "gamma_m", None, 0.99),
    (300, "extremal_positive", "delta", None, 0.0),
    (3_000, "extremal_negative", "kappa", "G", 0.5),
    (3_000, "fixed", "delta_f", "kappa", 0.0),
)
FEASIBLE_BAND = (-65.0, 65.0)


def _clean_range(rng: random.Random, param: str) -> tuple[float, float]:
    """A seeded axis range on which every point is valid."""
    if param == "delta_f":
        return -rng.uniform(20.0, 65.0), rng.uniform(20.0, 65.0)
    if param == "delta":
        return -rng.uniform(5.0, 30.0), rng.uniform(5.0, 30.0)
    if param == "gamma_m":
        return rng.uniform(0.3, 2.0), rng.uniform(6.0, 20.0)
    if param == "kappa":
        return rng.uniform(0.1, 0.5), rng.uniform(2.0, 10.0)
    if param == "G":
        return rng.uniform(0.0, 0.2), rng.uniform(0.6, 1.0)
    if param == "g2_over_g1":
        return rng.uniform(0.2, 0.8), rng.uniform(1.2, 3.0)
    if param == "omega_s":
        return -rng.uniform(10.0, 50.0), rng.uniform(10.0, 50.0)
    raise ValueError(param)


def _spec(param: str, lo: float, hi: float, count: int) -> str:
    return f"{param}={lo!r}:{hi!r}:{count}"


# datasets ---------------------------------------------------------------

# fig4a goes first: in the in-process traced run its CSV is then the first
# large allocation, so serialize.rss_delta_mb is not hidden by an earlier
# peak.  The fig5 and fig7 groups write fig5a+fig5b and fig7a+fig7b.
_PRESET_JOBS = (("fig4a", ("fig4a",)), ("fig3a", ("fig3a",)),
                ("fig2a", ("fig2a",)), ("fig5", ("fig5a", "fig5b")),
                ("fig6", ("fig6",)), ("fig7", ("fig7a", "fig7b")))
_SMOKE_PRESET_JOBS = (("fig2a", ("fig2a",)), ("fig5", ("fig5a", "fig5b")))


def datasets_jobs(seed: int, smoke: bool = False) -> list[dict]:
    """CLI ``reproduce`` jobs plus seeded 2-D ``sweep --format json`` jobs.

    Nine JSON jobs of 150 x 150 points put the median job among them, as
    the fourth fastest (four presets are small, two large), so
    ``job_p50_ms`` measures the JSON writer rather than interpreter
    start-up, and as the middle of nine similar jobs.  Their first axis
    is always the Fizeau shift: at a fixed zero shift the response is
    reciprocal, and its all-zero isolation columns format faster, which
    would make the cost depend on the seed.  Their second axes cycle
    through the other parameters for the same reason; the seed draws the
    ranges and the ``--set`` values.
    """
    rng = random.Random(f"datasets:{seed}")
    jobs = [{"kind": "reproduce", "target": target, "files": list(names),
             "ref": "python"}
            for target, names in (_SMOKE_PRESET_JOBS if smoke
                                  else _PRESET_JOBS)]
    n1, n2, n_json = (40, 30, 1) if smoke else (150, 150, 9)
    for k in range(n_json):
        first, second = "delta_f", PARAMS[1 + k % (len(PARAMS) - 1)]
        sets = [f"g0_mhz={rng.uniform(20.0, 60.0)!r}",
                f"delta_mhz={rng.uniform(-20.0, 20.0)!r}"]
        jobs.append({"kind": "sweep_json",
                     "axis": _spec(first, *_clean_range(rng, first), n1),
                     "axis2": _spec(second, *_clean_range(rng, second), n2),
                     "sets": sets, "ref": "python"})
    for i, job in enumerate(jobs):
        job["id"] = f"datasets:{i}"
    return jobs


# grid_api ---------------------------------------------------------------

def _uniform_base(rng: random.Random) -> dict:
    """Keyword arguments for SystemParams.symmetric plus an optional
    coupling ratio; the ports stay uniform either way."""
    return {"symmetric": {"g0_mhz": rng.uniform(20.0, 60.0),
                          "g_squeeze": rng.uniform(0.0, 0.8),
                          "kappa_mhz": rng.uniform(0.5, 3.0),
                          "eta": rng.uniform(0.2, 0.8),
                          "gamma_m_mhz": rng.uniform(1.0, 8.0),
                          "delta_mhz": rng.uniform(-20.0, 20.0),
                          "delta_f_mhz": rng.uniform(-40.0, 40.0),
                          "eps": rng.uniform(0.5, 2.0),
                          "omega_s_mhz": rng.uniform(0.0, 30.0)},
            "g2_over_g1": rng.choice((1.0, rng.uniform(0.5, 2.0)))}


def grid_jobs(seed: int, smoke: bool = False) -> list[dict]:
    """In-process ``sweep()`` grids of 1e3 to 1e6 points, per GRID_PLAN.

    A 2-D grid is as near square as its size allows.  A masked grid
    sweeps its first axis from below zero, so that the given fraction of
    its points is invalid.  A delta_f first axis of a 2-D grid is
    normalised to gamma_m; extremal grids alternate between a feasible
    band and none.  The seed draws the base parameters and the axis
    ranges only: the order stays that of the plan, because a grid's cost
    depends on what the allocator kept from the grids before it.
    """
    rng = random.Random(f"grid_api:{seed}")
    jobs = []
    for k, (size, policy, first, second, masked_fraction) in enumerate(
            SMOKE_GRID_PLAN if smoke else GRID_PLAN):
        n1 = round(math.sqrt(size)) if second else size
        counts = (n1, round(size / n1)) if second else (n1,)
        if masked_fraction:
            hi = rng.uniform(4.0, 12.0)
            lo = -masked_fraction / (1.0 - masked_fraction) * hi
        else:
            lo, hi = _clean_range(rng, first)
        norm = None
        if first == "delta_f" and second:
            norm = "gamma_m"
            lo, hi = lo / 8.0, hi / 8.0
        axes = [[first, lo, hi, counts[0], norm]]
        if second:
            axes.append([second, *_clean_range(rng, second), counts[1], None])
        band = list(FEASIBLE_BAND) if policy != "fixed" and k % 2 else None
        jobs.append({"id": f"grid_api:{k}", "kind": "grid",
                     "base": _uniform_base(rng), "axes": axes,
                     "policy": policy, "band": band,
                     "masked_fraction": masked_fraction,
                     "ref": "python" if masked_fraction else "numpy"})
    return jobs


def largest_grid_job(seed: int) -> dict:
    """The biggest clean grid of the full grid_api list (thread-pool arm)."""
    clean = [j for j in grid_jobs(seed) if not j["masked_fraction"]]
    return max(clean, key=lambda j: math.prod(ax[3] for ax in j["axes"]))


# queries ----------------------------------------------------------------

def _symmetric_config(rng: random.Random) -> dict:
    eta = rng.uniform(0.2, 0.8)
    eps = rng.uniform(0.5, 2.0)
    return {"g0_mhz": rng.uniform(20.0, 60.0), "G": rng.uniform(0.0, 0.8),
            "kappa_mhz": rng.uniform(0.5, 3.0), "eta": eta, "eta3": eta,
            "gamma_m_mhz": rng.uniform(1.0, 8.0),
            "delta_mhz": rng.uniform(-20.0, 20.0),
            "drive": {"eps": [eps, eps, eps]}}


def _nonuniform_config(rng: random.Random) -> dict:
    return {"g0_mhz": [rng.uniform(20.0, 60.0), rng.uniform(20.0, 60.0)],
            "G": rng.uniform(0.0, 0.8),
            "kappa_mhz": [rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)],
            "eta": [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)],
            "gamma_m_mhz": rng.uniform(1.0, 8.0),
            "delta_mhz": rng.uniform(-20.0, 20.0)}


# (kind, count, symmetric configs among them) per full pass.  The six
# sweeps are the slowest jobs and make up 15% of a pass, so the p90 tail
# falls inside them rather than on the edge between two job kinds; their
# sizes are close so that it also falls between near values.
_QUERY_MIX = (("isolate", 8, 4), ("steady_closed", 3, 2),
              ("steady_generic", 3, 1), ("fizeau", 4, 2), ("validate", 4, 2),
              ("brute", 6, 3), ("analytic", 4, 4), ("sweep", 6, 0))
SWEEP_POINTS = (20, 24, 28, 32, 36, 40)


def query_jobs(seed: int, smoke: bool = False) -> list[dict]:
    """In-process ``cli.run`` jobs, one command each, on seeded configs."""
    rng = random.Random(f"queries:{seed}")
    jobs = []
    sweep_points = iter(SWEEP_POINTS[:1] if smoke else SWEEP_POINTS)
    for kind, count, n_symmetric in _QUERY_MIX:
        if smoke:
            count, n_symmetric = 1, int(n_symmetric > 0)
        for i in range(count):
            symmetric = i < n_symmetric
            config = (_symmetric_config(rng) if symmetric
                      else _nonuniform_config(rng))
            sets = [f"delta_f_mhz={rng.uniform(-60.0, 60.0)!r}"]
            argv: list[str]
            if kind == "isolate":
                argv = ["isolate"]
            elif kind.startswith("steady"):
                argv = ["steady", "--method", kind.split("_")[1],
                        "--side", rng.choice(("left", "right"))]
            elif kind == "fizeau":
                argv = ["fizeau"]
            elif kind == "validate":
                argv = ["validate"]
            elif kind == "brute":
                argv = ["optimize", "--brute"]
                lo = -rng.uniform(20.0, 65.0)
                sets.append(f"band_mhz=[{lo!r},{rng.uniform(20.0, 65.0)!r}]")
            elif kind == "analytic":
                argv = ["optimize", "--analytic"]
            else:
                param = rng.choice([p for p in PARAMS if p != "delta_f"])
                lo, hi = _clean_range(rng, param)
                argv = ["sweep", "--axis", _spec(param, lo, hi,
                                                 next(sweep_points)),
                        "--optimal-df", "positive"]
            jobs.append({"kind": kind, "argv": argv, "config": config,
                         "sets": sets, "ref": "python"})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"queries:{i}"
    return jobs


GENERATORS = {"datasets": datasets_jobs, "grid_api": grid_jobs,
              "queries": query_jobs}
