"""Workload ``mcmc_general``: single-site Metropolis for general V on the CLI.

``montecarlo --method mcmc`` at n = 16 for eynard(3,0.02) at its critical
value a_c = 0.3705 and for GUE (a = 1.5).  Commands run one at a time,
closed loop, and the two chains run ``MIN_ROUNDS`` times per run, with
fresh seeds each round, so that every metric is an average over at least
four chains rather than one chain's ~8 s.  This is the O(n^4)-per-sweep
path (a GIL-bound thread pool over chains), the only route to the paper's
non-convex regimes, and it uses ``sampler`` differently from
``edge_verify``: a change to one sampler path should leave the other
workload unmoved, so nothing timed here takes the direct path.  Quartic
(at n = 16 and 32) is left out for the benchmark's time budget: the CLI
always runs chains of 1800 sweeps, ~7 s at n = 16 and ~17 s at n = 32, and
a quartic chain runs the same code as the eynard one.

Checks: every command exits 0; each chain keeps the requested draws, all
finite, with acceptance inside [0.1, 0.9] (``EdgeSample`` raises outside
it, which shows as a non-zero exit); and the GUE chain agrees with 4000
direct draws, made in process after the job's timing ends: two-sample KS
within the DKW bound at 1e-4 for the chain's effective size (draws over the
integrated autocorrelation time), with that time at most ``TAU_MAX``, so
the gate is at most 0.284.
"""

from __future__ import annotations

import math

import clirun
from tracer import repeat_jobs

CHAINS = [  # (potential, n, a)
    ("eynard(3,0.02)", 16, 0.3705),
    ("gue", 16, 1.5),
]
REPS = 500
MIN_ROUNDS = 2
DIRECT_REPS = 4000
DIRECT_BATCH = 250
# Integrated autocorrelation time of the GUE chain above which it fails:
# seeded runs of the current sampler gave 1.5 to 5.0 (62 runs).  Without a
# cap a chain that mixes worse would widen its own KS gate without limit.
TAU_MAX = 8.0
# The CLI runs ceil(reps / 500) chains of 2 * 500 + 800 sweeps each.
SWEEPS = math.ceil(REPS / 500) * (2 * 500 + 800)
KNOWN_DEFECTS = ()


def setup(seed: int) -> dict:
    import spectral_edge.cli  # noqa: F401  (compiles and caches every module)

    return dict(seed=seed)


def check_gue(op, chain, n: int, a: float, seed: int) -> str:
    import numpy as np
    from spectral_edge.sampler import ks_two_sample, sample_gaussian_spiked

    # drawn in batches so that the check adds little to the harness's peak
    # memory, which peak_rss_mb reads when the run's jobs and checks end
    direct = np.concatenate([
        sample_gaussian_spiked(n, a, DIRECT_BATCH, seed * 100 + b).lambda_max
        for b in range(DIRECT_REPS // DIRECT_BATCH)])
    tau = clirun.autocorr_time(chain.lambda_max)
    n_eff = 1.0 / (tau / REPS + 1.0 / DIRECT_REPS)
    gate = clirun.noise_bound(n_eff)
    ks = ks_two_sample(chain.lambda_max, direct)
    if not tau <= TAU_MAX:
        op.fail(f"autocorrelation time {tau:.2f} > {TAU_MAX}")
    if not ks < gate:
        op.fail(f"KS to direct draws {ks:.4f} >= {gate:.4f} (tau {tau:.2f})")
    return f"GUE chain KS {ks:.4f}, tau {tau:.2f}, gate {gate:.4f}"


def run_job(state, tracer, outcome, work, k: int):
    from spectral_edge.sampler import load_sample

    seed = state["seed"] * 1000 + k * 10     # chain i of round k: seed + i
    to_check = []
    for i, (name, n, a) in enumerate(CHAINS):
        label = f"{name},n={n},a={a},round={k}"
        out = work / f"chain{i}-round{k}"
        with tracer.span("mcmc_general.chain", potential=name, n=n) as chain:
            op, sp, ok = clirun.spectral_edge(
                tracer, outcome, label, "montecarlo",
                ["--potential", name, "--method", "mcmc", "--a", repr(a), "--n", str(n),
                 "--reps", str(REPS), "--seed", str(seed + i),
                 "--out", str(out)],
                n=n, reps=REPS, sweeps=SWEEPS, method="mcmc")
            if ok:
                sample = load_sample(out / "samples.csv")
                sp.attrs["acceptance"] = sample.acceptance
                if sample.lambda_max.size != REPS:
                    op.fail(f"{sample.lambda_max.size} draws, asked for {REPS}")
                if sample.acceptance is None or not 0.1 <= sample.acceptance <= 0.9:
                    op.fail(f"acceptance {sample.acceptance!r} outside [0.1, 0.9]")
                if name == "gue":
                    to_check.append((op, sample, n, a))
        outcome.curve_s.append(chain.duration)

    def check():
        for op, sample, n, a in to_check:
            outcome.notes.append(check_gue(op, sample, n, a, seed + 9))
    return check


def run(state: dict, tracer, outcome, deadline: float, clock) -> None:
    with clirun.workdir("mcmc_general", state["seed"]) as work:
        repeat_jobs(tracer, outcome, deadline, clock,
                    lambda k: run_job(state, tracer, outcome, work, k), min_rounds=MIN_ROUNDS)
