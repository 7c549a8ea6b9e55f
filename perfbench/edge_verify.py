"""Workload ``edge_verify``: the README verification pipeline on the CLI.

For GUE at n = 100 and 400 and a = 0.5, the critical value
(``--a-critical --alpha 0``; a_c = 1 for GUE) and 2, run ``law``, then
``montecarlo --method direct-gaussian``, then ``compare``.  Commands run one
at a time, each in a fresh process, closed loop.  The dense O(n^3) draw is
most of the time; every command also pays process start, imports and a
fresh ``solve_support``/``critical_a``, the one-shot use of the layers that
``law_query`` amortises.

Checks: every command exits 0; ``law.json`` matches the GUE closed forms
(F0 at the edge 2 with scale 1 below a_c, F1 with alpha 0 at a_c, Gauss at
a + 1/a with scale^2 = a^2/(a^2 - 1) above); ``law.csv`` is finite, inside
[0, 1] and non-decreasing; ``samples.json`` records the requested draws;
and the KS distance that ``compare`` reports stays within the finite-size
bias of the limit law plus the DKW noise bound at 1e-4.  The bias is the
larger of two KS distances to the limit law, each from 20 000 draws of
the tridiagonal (Dumitriu-Edelman) form of the same spiked model: n = 100
gave 0.087 and 0.083 (a = 0.5), 0.044 and 0.047 (a_c), 0.029 and 0.030
(a = 2); n = 400 gave 0.061 and 0.059, 0.035 and 0.035, 0.014 and 0.014.

At n = 400 only 30 draws are taken, for the benchmark's time budget.  The
DKW term is then 0.41, so the n = 400 gate (0.42 to 0.47) catches only gross
errors; the n = 100 gate (500 draws, 0.13 to 0.19) is the one that checks
the law.  With 30 draws, process start, imports and the support solve are
also a large share of ``sampler.direct.s_per_draw.n400``.
"""

from __future__ import annotations

import csv
import math

import clirun
from tracer import repeat_jobs

CONFIGS = [(n, a) for n in (100, 400) for a in (0.5, "critical", 2.0)]
REPS = {100: 500, 400: 30}
BIAS = {  # sup |F_n - F_law| at finite n, keyed by (n, a)
    (100, 0.5): 0.087, (100, "critical"): 0.047, (100, 2.0): 0.030,
    (400, 0.5): 0.061, (400, "critical"): 0.035, (400, 2.0): 0.014,
}
KNOWN_DEFECTS = ()


def setup(seed: int) -> dict:
    import spectral_edge.cli  # noqa: F401  (compiles and caches every module)

    return dict(seed=seed, mc_seeds=[seed * 100 + i for i in range(len(CONFIGS))])


def expected_law(n: int, a) -> dict:
    if a == "critical":
        return dict(kind="F1", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0, alpha=0.0)
    if a < 1.0:
        return dict(kind="F0", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0)
    return dict(kind="Gauss", center=a + 1.0 / a, scale_const=math.sqrt(a * a / (a * a - 1.0)),
                scale_exponent=0.5)


def check_law(op, law_dir, n: int, a) -> None:
    law = clirun.read_json(law_dir / "law.json")
    for key, want in expected_law(n, a).items():
        got = law.get(key)
        if key == "kind":
            if got != want:
                op.fail(f"law kind {got} != {want}")
        elif got is None or not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
            op.fail(f"law {key} {got!r} != closed form {want!r}")
    with open(law_dir / "law.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    cdf = [float(r[1]) for r in rows]
    if len(cdf) != 41 or not all(math.isfinite(v) and -1e-9 <= v <= 1 + 1e-9 for v in cdf):
        op.fail("law.csv not 41 finite CDF values in [0, 1]")
    elif any(b < a_ - 1e-9 for a_, b in zip(cdf, cdf[1:])):
        op.fail("law.csv CDF decreases")


def run_job(state, tracer, outcome, work) -> None:
    for (n, a), mc_seed in zip(CONFIGS, state["mc_seeds"]):
        label = f"n={n},a={a}"
        base = work / f"n{n}-a{a}"
        spike = ["--a-critical", "--alpha", "0"] if a == "critical" else ["--a", repr(a)]
        a_num = 1.0 if a == "critical" else a
        reps = REPS[n]
        gate = BIAS[(n, a)] + clirun.noise_bound(reps)
        with tracer.span("edge_verify.chain", n=n, a=str(a)) as chain:
            op, _, ok = clirun.spectral_edge(
                tracer, outcome, label, "law",
                ["--potential", "gue", "--n", str(n), *spike, "--out", str(base / "law")], n=n)
            if ok:
                check_law(op, base / "law", n, a)
            op, _, ok_mc = clirun.spectral_edge(
                tracer, outcome, label, "montecarlo",
                ["--potential", "gue", "--a", repr(a_num), "--n", str(n), "--reps", str(reps),
                 "--seed", str(mc_seed), "--out", str(base / "mc")],
                n=n, reps=reps, method="direct-gaussian")
            if ok_mc:
                meta = clirun.read_json(base / "mc" / "samples.json")
                if meta.get("reps") != reps:
                    op.fail(f"samples.json reps {meta.get('reps')} != {reps}")
            op, _, ok_cmp = clirun.spectral_edge(
                tracer, outcome, label, "compare",
                ["--law-dir", str(base / "law"), "--mc-dir", str(base / "mc"),
                 "--ks-tol", repr(gate), "--out", str(base / "cmp")], n=n)
            if ok_cmp:
                report = clirun.read_json(base / "cmp" / "compare.json")
                ks = report.get("ks_distance")
                if ks is None or not ks < gate or not report.get("ks_pass"):
                    op.fail(f"KS {ks!r} >= bias {BIAS[(n, a)]} + noise bound = {gate:.4f}")
        outcome.curve_s.append(chain.duration)


def run(state: dict, tracer, outcome, deadline: float, clock) -> None:
    with clirun.workdir("edge_verify", state["seed"]) as work:
        repeat_jobs(tracer, outcome, deadline, clock,
                    lambda k: run_job(state, tracer, outcome, work))
