"""End-to-end and per-layer metrics, and the printed report.

End-to-end metrics come from a run with tracing off; per-layer metrics from
the spans of a run with tracing on.  ``specialfn`` (Airy, Gauss-Legendre)
and ``potential`` have no spans of their own: they are reached only through
their callers and measured inside the callers' spans.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path

from tracer import median, tail

@functools.cache
def spec() -> dict:
    """BENCHMARK.json at the checkout's root: workloads, metric names and
    units, and ``run_seconds``."""
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _with_units(values: dict, section: str) -> dict:
    metrics = spec()[section]
    names = {m["name"] for m in metrics}
    if set(values) != names:
        raise KeyError(f"{section} metrics differ from BENCHMARK.json: "
                       f"{sorted(set(values) ^ names)}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in metrics}


def fail_frac(outcome) -> float:
    """Share of operations that failed, as the rule-of-succession estimate
    (f + 1) / (a + 2) for one job's worth of operations (f failed of a
    attempted, per completed job).  It is never 0, so a bound relative to it
    means something on a workload with no failures, and it does not depend
    on how many jobs fit into ``--seconds``.  The raw counts are reported
    beside it."""
    jobs = max(len(outcome.job_s), 1)
    return (len(outcome.failed) / jobs + 1) / (len(outcome.ops) / jobs + 2)


def end_to_end(outcome, setup_s: float, rss_mb: float) -> dict:
    q_tail, _, _ = tail(outcome.query_s)
    c_tail, _, _ = tail(outcome.curve_s)
    values = {
        "setup_s": setup_s,
        "job_s": median(outcome.job_s),
        "query_p50_s": median(outcome.query_s),
        "query_tail_s": q_tail,
        "curve_p50_s": median(outcome.curve_s),
        "curve_tail_s": c_tail,
        "fail_frac": fail_frac(outcome),
        "peak_rss_mb": rss_mb,
    }
    return _with_units(values, "end_to_end")


def per_layer(tracer, outcome) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    out = {}

    def busy(name, pred=lambda sp: True):
        return sum(t for sp, t in zip(spans, own) if sp.name == name and pred(sp))

    for layer in ("equilibrium.solve_support", "transition.critical_a",
                  "transition.secondary_criticals"):
        out[f"{layer}.calls"] = len(tracer.named(layer))
        out[f"{layer}.busy_s"] = busy(layer)
    laws = tracer.named("limitlaws.predict_law")
    for kind in ("F0", "F1", "Gauss", "Mixture"):
        out[f"limitlaws.predict_law.p50_s.{kind}"] = median(
            [sp.duration for sp in laws if sp.attrs.get("kind") == kind])
    out["limitlaws.predict_law.busy_s"] = busy("limitlaws.predict_law")
    out["limitlaws.cdf.busy_s"] = busy("limitlaws.cdf")
    out["limitlaws.cdf.points"] = sum(sp.attrs["points"] for sp in tracer.named("limitlaws.cdf"))
    for n in (32, 64, 96, 128):
        out[f"finitemodel.build_ortho.busy_s.n{n}"] = busy(
            "finitemodel.build_ortho", lambda sp, n=n: sp.attrs.get("n") == n)
    out["finitemodel.build_spiked.busy_s"] = busy("finitemodel.build_spiked")
    gaps = tracer.named("finitemodel.gap_probability")
    out["finitemodel.gap_probability.p50_s"] = median([sp.duration for sp in gaps])
    out["finitemodel.gap_probability.calls"] = len(gaps)
    out["finitemodel.gap_probability.out_of_range"] = sum(
        1 for sp in gaps if sp.attrs.get("out_of_range"))

    runs = tracer.named("cli.montecarlo")
    for n in (100, 400):
        out[f"sampler.direct.s_per_draw.n{n}"] = median(
            [sp.duration / sp.attrs["reps"] for sp in runs
             if sp.attrs.get("method") == "direct-gaussian" and sp.attrs.get("n") == n])
    chains = [sp for sp in runs if sp.attrs.get("method") == "mcmc"]
    out["sampler.mcmc.s_per_sweep.n16"] = median(
        [sp.duration / sp.attrs["sweeps"] for sp in chains if sp.attrs.get("n") == 16])
    out["sampler.mcmc.acceptance"] = median(
        [sp.attrs["acceptance"] for sp in chains if sp.attrs.get("acceptance") is not None])
    for cmd in ("law", "montecarlo", "compare"):
        calls = tracer.named(f"cli.{cmd}")
        out[f"cli.{cmd}.p50_s"] = median([sp.duration for sp in calls])
        out[f"cli.{cmd}.calls"] = len(calls)
    out["cli.exit_nonzero"] = sum(1 for sp in spans if sp.name.startswith("cli.")
                                  and sp.attrs.get("exit", 0) != 0)
    out["trace_overhead_frac"] = tracer.bookkeeping_s / max(sum(outcome.job_s), 1e-12)
    return _with_units(out, "per_layer")


def known(op, defects) -> bool:
    """Whether every check ``op`` missed is a catalogued defect of the library."""
    return all(any(re.search(op_pat, op.name) and re.search(why_pat, reason)
                   for op_pat, why_pat in defects) for reason in op.reasons)


def print_report(args, facts, setups, outcome, values) -> None:
    print(f"# spectral-edge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: {facts['nproc']} cpus ({facts['affinity']} usable), {facts['cpu']}, "
          f"Python {facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"BLAS {facts['blas']}, threads pinned to {set(facts['threads'].values())}")
    if setups:
        print("# setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"# jobs completed: {len(outcome.job_s)}; queries {len(outcome.query_s)}, "
          f"curves {len(outcome.curve_s)}")
    for label, samples in (("query", outcome.query_s), ("curve", outcome.curve_s)):
        v, how, k = tail(samples)
        print(f"# {label}_tail = {how} of {k} samples")
    print(f"# failed operations: {len(outcome.failed)} of {len(outcome.ops)} attempted")
    for op in outcome.failed:
        print(f"#   FAIL {op.name}: {'; '.join(op.reasons)}")
    for note in outcome.notes:
        print(f"# note: {note}")
    width = max(len(k) for k in values)
    for name, (v, unit) in values.items():
        print(f"{name:<{width}}  {v:>14.6g}  {unit}")
