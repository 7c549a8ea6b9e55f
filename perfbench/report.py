"""Run every workload untraced and traced and print one report.

    python3 perfbench/report.py [--seed 1]

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs ``run.py`` for BENCHMARK.json's ``run_seconds`` twice, with
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer metrics, and prints both tables with one column per
workload, the failed/attempted counts, and every failed operation.  One run
takes 20-35 s; the whole report about four minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import spec

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} (trace {trace}) failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), [ln for ln in lines[:-1] if ln.startswith("#   FAIL")]


def table(title: str, results: dict) -> None:
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names) + 2
    print(f"\n{title}")
    print(f"{'metric':<{width}}{'unit':<9}" + "".join(f"{w:>16}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        row = "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in results.values())
        print(f"{name:<{width}}{unit:<9}{row}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    plain, traced, fails = {}, {}, {}
    bench = spec()
    for w in (wl["name"] for wl in bench["workloads"]):
        plain[w], fails[w] = run_one(w, args.seed, bench["run_seconds"], 0)
        traced[w], _ = run_one(w, args.seed, bench["run_seconds"], 1)
    table("end-to-end (tracing off)", plain)
    print(f"{'failed / attempted':<31}" + "".join(
        f"{str(r['failed']) + ' / ' + str(r['attempted']):>16}" for r in plain.values()))
    print(f"{'only catalogued defects':<31}" + "".join(
        f"{str(r['correct']):>16}" for r in plain.values()))
    table("per layer (tracing on; specialfn and potential are measured inside their callers)",
          traced)
    for w, lines in fails.items():
        if lines:
            print(f"\nfailed operations, {w}:")
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
