"""Benchmark of spectral-edge, run from the root of a checkout.

    python3 perfbench/run.py --workload law_query --seed 1 --seconds 5 --trace 0

Workloads: law_query, finite_gap, edge_verify, mcmc_general (see the module
of the same name).  A run sets up, completes the workload's fixed job at
least once and repeats it until ``--seconds`` have passed, checks every
output it timed, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
the spans recorded around each call.  ``perfbench/report.py`` runs every
workload both ways and prints the two tables side by side.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# Pinned before numpy loads so the inherited environment cannot move the
# numbers; children (CLI commands, set-up probes) inherit the same values.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "SPECTRAL_EDGE_THREADS")
THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse                                              # noqa: E402
import importlib                                             # noqa: E402
import json                                                  # noqa: E402
import platform                                              # noqa: E402
import resource                                              # noqa: E402
import subprocess                                            # noqa: E402
from pathlib import Path                                     # noqa: E402

import metrics                                               # noqa: E402
from tracer import Outcome, Tracer, median                   # noqa: E402

SETUP_SAMPLES = 3           # the run's own set-up plus two fresh processes
OUT_DIR = Path(".perfbench")


def host_facts() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in metrics.spec()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def setup_probe(args) -> float:
    """Set-up time of a fresh process, measured the same way as our own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    waited for so far (the largest CLI command, for the CLI workloads)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0          # Linux reports KiB


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spectral_edge" / "__init__.py").is_file():
        print("perfbench: run from the root of a spectral-edge checkout "
              "(src/spectral_edge is missing)", file=sys.stderr)
        return 2
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                      if os.environ.get("PYTHONPATH") else "")
    workload = importlib.import_module(args.workload)
    state = workload.setup(args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    tracer = Tracer(enabled=bool(args.trace))
    outcome = Outcome()
    clock = time.perf_counter
    workload.run(state, tracer, outcome, clock() + args.seconds, clock)
    # read before the set-up probes start, so that the children's figure is
    # the largest CLI command's and no probe's
    rss_mb = peak_rss_mb()

    setups = [own_setup]
    if not args.trace:
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = host_facts()
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{tag}.json")
        values = metrics.per_layer(tracer, outcome)
    else:
        values = metrics.end_to_end(outcome, median(setups), rss_mb)
    metrics.print_report(args, facts, setups, outcome, values)
    defects = getattr(workload, "KNOWN_DEFECTS", ())
    result = {
        # failed operations are all counted; a run is correct when each of
        # them is a catalogued defect of the library, not a new one
        "correct": all(metrics.known(op, defects) for op in outcome.failed),
        "attempted": len(outcome.ops),
        "failed": len(outcome.failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump({"host": facts, "setups_s": setups, "result": result,
                   "failures": [[op.name, op.reasons] for op in outcome.failed],
                   "notes": outcome.notes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
