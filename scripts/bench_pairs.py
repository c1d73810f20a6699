#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written as one BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload queries=8 \\
        --workload datasets=3 --first-seed 101 --seconds 10 \\
        --claim queries.run_s --note "what the change does" --out BENCH.json

Both commits are checked out in turn into one ``git worktree`` at one
path (``--tree``), so that the path of the tree, which moves in-process
timings by a few percent, is the same for both.  Before each run the
tree is cleaned of untracked files, bytecode caches included.  Pair ``i``
of a workload runs seed ``first_seed + i`` with the parent first when
``i`` is even and the change first when it is odd; the pairs of all
workloads interleave.  Each run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from the root of the tree; its last line of stdout is read and nothing
under perfbench/ is written.  The output holds the machine, the command,
the order, and per workload and metric the median and quartiles of each
side, the ratio of the medians and the number of pairs in which the
change was better, plus the claim block of ``--claim``.  Next to each
commit it records the git tree hash of its ``src`` directory, the code
perfbench runs, so that ``git rev-parse REV:src`` ties the numbers to a
commit made later from the same sources.  The worktree is removed at the
end.  ``--repo`` names the repository whose commits are run and which
holds the worktree meanwhile (default: the one holding this script).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ("python3 perfbench/run.py --workload W --seed S "
           "--seconds {seconds:g} --trace 0")


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def _run(tree: Path, rev: str, workload: str, seed: int,
         seconds: float) -> dict:
    """One perfbench run of ``rev`` checked out in ``tree``: its JSON line."""
    _git("checkout", "--quiet", "--detach", "--force", rev, cwd=tree)
    _git("clean", "-fdxq", cwd=tree)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return [round(q1, 4), round(q3, 4)]


def _summary(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Medians, quartiles and better-pair counts of each metric."""
    metrics = {}
    for name in parent[0]["metrics"]:
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1 if better[name] == "lower" else -1
        p_median, c_median = statistics.median(p), statistics.median(c)
        metrics[name] = {
            "parent_median": round(p_median, 4),
            "change_median": round(c_median, 4),
            "parent_quartiles": _quartiles(p),
            "change_quartiles": _quartiles(c),
            "change_over_parent": (round(c_median / p_median, 3)
                                   if p_median else None),
            "change_better_pairs": sum(sign * (b - a) < 0
                                       for a, b in zip(p, c)),
            "values": {"parent": p, "change": c}}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="commit of the parent")
    parser.add_argument("change", help="commit of the change")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME=PAIRS",
                        help="a workload and its number of pairs, repeatable")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--claim", metavar="WORKLOAD.METRIC",
                        help="the metric the change claims to improve")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--tree", type=Path,
                        help="path of the worktree (default: a new "
                             "temporary directory); it must not exist")
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="the git repository whose commits are run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    pairs = {}
    for item in args.workload:
        name, _, count = item.partition("=")
        pairs[name] = int(count or 1)
    revs = {side: _git("rev-parse", rev, cwd=repo)
            for side, rev in (("parent", args.parent),
                              ("change", args.change))}
    src_trees = {side: _git("rev-parse", f"{rev}:src", cwd=repo)
                 for side, rev in revs.items()}
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(".")
        if claim_workload not in pairs:
            parser.error(f"--claim names a workload without pairs: "
                         f"{claim_workload}")
    temporary = None if args.tree else Path(tempfile.mkdtemp(
        prefix="bench-pairs-"))
    tree = args.tree or temporary / "tree"
    _git("worktree", "add", "--quiet", "--detach", str(tree), revs["parent"],
         cwd=repo)
    runs = {name: {"parent": [], "change": []} for name in pairs}
    order = {"parent_first_seeds": {name: [] for name in pairs},
             "change_first_seeds": {name: [] for name in pairs}}
    try:
        for i in range(max(pairs.values())):
            seed = args.first_seed + i
            sides = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for name in (n for n in pairs if i < pairs[n]):
                order[f"{sides[0]}_first_seeds"][name].append(seed)
                for side in sides:
                    out = _run(tree, revs[side], name, seed, args.seconds)
                    runs[name][side].append(out)
                    print(f"{name} seed {seed} {side}: "
                          f"run_s {out['metrics']['run_s']['value']:.4g}, "
                          f"{out['failed']} of {out['attempted']} failed",
                          file=sys.stderr, flush=True)
        spec = json.loads((tree / "BENCHMARK.json").read_text(
            encoding="utf-8"))
    finally:
        _git("worktree", "remove", "--force", str(tree), cwd=repo)
        if temporary:
            temporary.rmdir()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"change": args.note,
              "revisions": {**revs, "src_trees": src_trees},
              "machine": _machine(),
              "command": COMMAND.format(seconds=args.seconds),
              "order": order}
    workloads = {}
    for name, sides in runs.items():
        workloads[name] = {
            "seeds": sorted(s for key in order for s in order[key][name]),
            "pairs": pairs[name],
            "failed_attempted": {side: [[r["failed"], r["attempted"]]
                                        for r in sides[side]]
                                 for side in ("parent", "change")},
            "metrics": _summary(sides["parent"], sides["change"], better)}
    if args.claim:
        m = workloads[claim_workload]["metrics"][claim_metric]
        q1, q3 = m["parent_quartiles"]
        gain = (m["parent_median"] - m["change_median"]) * (
            1 if better[claim_metric] == "lower" else -1)
        record["claim"] = {
            "workload": claim_workload, "metric": claim_metric,
            "parent_median": m["parent_median"],
            "change_median": m["change_median"],
            "change_better_pairs":
                f"{m['change_better_pairs']} of {pairs[claim_workload]}",
            "parent_iqr": round(q3 - q1, 4),
            "gain_exceeds_parent_iqr": gain > q3 - q1}
    record["workloads"] = workloads
    args.out.write_text(json.dumps(record, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
