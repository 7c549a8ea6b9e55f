"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py BASE HEAD [--workload law_query ...]
        [--seeds 1-10] [--seconds 5]

BASE and HEAD are roots of two spectral-edge checkouts.  For every seed and
workload it runs ``perfbench/run.py --trace 0`` once in each checkout, HEAD
first on odd seeds and BASE first on even ones, so that a slow phase of a
shared host does not land on one side only.  It prints, per workload:

* each end-to-end metric of BENCHMARK.json: the median and quartiles of
  both sides and the pairs HEAD won (better by the metric's direction);
* per seed, each side's failed/attempted operations and completed jobs,
  and the failed operations one side has and the other does not;
* the pooled failure share, all failed over all attempted, of each side.

The pooled share weighs each seed by the jobs that fitted into its run, so
it can move when no operation fails differently; ``fail_frac`` (per job) and
the per-seed FAIL sets cannot.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed} failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    jobs = next(int(ln.split(":")[1].split(";")[0]) for ln in lines
                if ln.startswith("# jobs completed:"))
    fails = {ln[len("#   FAIL "):].split(":", 1)[0] for ln in lines
             if ln.startswith("#   FAIL ")}
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "jobs": jobs, "fails": fails}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def report(workload: str, seeds: list, runs: dict, spec: dict) -> None:
    print(f"\n## {workload}")
    print(f"{'metric':<14}{'base median [q1-q3]':>36}{'head median [q1-q3]':>36}{'head won':>10}")
    for m in spec["end_to_end"]:
        name = m["name"]
        base = [runs["base", s]["metrics"][name] for s in seeds]
        head = [runs["head", s]["metrics"][name] for s in seeds]
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        cells = ["%.4g [%.4g-%.4g]" % quartiles(side) for side in (base, head)]
        print(f"{name:<14}{cells[0]:>36}{cells[1]:>36}{f'{won}/{len(seeds)}':>10}")
    for s in seeds:
        b, h = runs["base", s], runs["head", s]
        print(f"seed {s}: base {b['failed']}/{b['attempted']} in {b['jobs']} jobs, "
              f"head {h['failed']}/{h['attempted']} in {h['jobs']} jobs; FAIL sets "
              + ("identical" if b["fails"] == h["fails"] else
                 f"differ: base only {sorted(b['fails'] - h['fails'])}, "
                 f"head only {sorted(h['fails'] - b['fails'])}"))
    for side in ("base", "head"):
        failed = sum(runs[side, s]["failed"] for s in seeds)
        attempted = sum(runs[side, s]["attempted"] for s in seeds)
        print(f"pooled {side}: {failed}/{attempted} = {failed / max(attempted, 1):.5f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json (repeatable; default all)")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                   help="one seed or an inclusive range such as 1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    for workload in workloads:
        runs = {}
        for s in args.seeds:
            order = ("head", "base") if s % 2 else ("base", "head")
            for side in order:
                runs[side, s] = run_once(roots[side], workload, s, seconds)
        report(workload, args.seeds, runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
