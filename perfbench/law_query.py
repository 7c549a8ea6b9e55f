"""Workload ``law_query``: phase diagrams and law queries, in process.

For gue, quartic, eynard(3,0.02) and the two-shelf potential of the test
suite (stored in ``two_shelf.json``) the job solves the support, finds
``critical_a`` and runs ``secondary_criticals`` over the range the
``critical`` subcommand uses, [a_c + 1e-4, 3 V'(e)/2] with grid 60.  Then it
runs seeded law queries.  One query is ``predict_law(eq, a, n, a_c=a_c)``
followed by the 41-point CDF table that the ``law`` subcommand writes.
Spikes cover every regime each potential has, at n = 100 and n = 400:

* subcritical, uniformly below the critical window, twice per n;
* the F1 window alpha = (a - a_c) n^(1/3) / beta: [-1, 1] twice per n,
  [1.15, 1.45] once per n, and [-1.13, -1.01] at a seeded n (convex type).
  The band [-1.45, -1.15] is left out for time: its CDF table takes the
  left route of ``c_alpha`` at ~0.1 s per point, ~5 s per query;
* the critical mixture window, |a - a_c| n in [1, 5] ("resolved", twice
  per n) and in [15, 28] ("saturated", once per n), with a seeded sign
  (non-convex type);
* the secondary-critical mixture window |a - a*| n in [1, 5] (two-shelf),
  at a seeded n;
* generic supercritical, 0.2 to 1.0 beyond every window, at a seeded n,
  for gue (closed forms) and two-shelf only: each such query runs the 24-point
  secondary search of ``predict_law``, ~2 s, and the benchmark's time budget
  does not cover one for every potential.

The counts are chosen so that, with the seed library, the query median
falls inside the cheap F0/mixture group and the query tail inside the F1
group rather than on the edge between two groups, where host noise would
move it from one group to the other.

No sampler or finitemodel code runs here.

Defects of the library that this workload shows as failed operations (they
are counted, not avoided):

* ``secondary_criticals`` on the two-shelf potential over the CLI range
  returns [], but the global maximizer jumps at a* = 1.68746 (x0 5.59 ->
  7.83).  The narrower range [1.35, 1.95] finds it: on the CLI grid the jump
  test ``10 * da * |x|`` (about 2.56) exceeds the 2.34 jump between grid
  points.
* ``secondary_criticals`` on quartic over the CLI range raises "no interior
  maximizer of G found" at its first grid point a_c + 1e-4; the
  ``critical`` subcommand ends in a traceback for the same reason.
* ``predict_law`` raises "mixture weights must lie strictly inside (0, 1)"
  for two-shelf in the saturated band of the critical window: the weights
  round to exactly 0 and 1 well inside the documented 30/n window.
* The F1 CDF table raises AiryDomainError for alpha in (-1.136, -1),
  inside the documented |alpha| <= 1.5 window: for alpha < -1 ``f1`` takes
  the left route of ``c_alpha``, which integrates from min(T, 0) - 50/|alpha|;
  at T = -6 that is below the Airy envelope at -50 until |alpha| > 50/44.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from tracer import repeat_jobs

HERE = Path(__file__).resolve().parent

# (operation, reason) patterns of the defects listed above
KNOWN_DEFECTS = (
    (r"^secondary_criticals\[two-shelf\]$", r"^secondary criticals \[\] != reference \[1\.6874"),
    (r"^secondary_criticals\[quartic\]$", r"no interior maximizer of G found"),
    (r"^query\[two-shelf,mixture-saturated,", r"mixture weights must lie strictly inside"),
    (r"^query\[(gue|quartic),F1-low,", r"AiryDomainError: arguments below the accuracy envelope"),
)
NS = (100, 400)
T_GRID = np.linspace(-6.0, 4.0, 41)     # the law subcommand's default T grid

# Approximate phase data, used only to place spikes inside each regime; the
# checks use values computed afresh (reference.py), never these.
POTENTIALS = {
    "gue": dict(a_c=1.0, beta=1.0, convex=True, a_sec=None, supercritical=True),
    "quartic": dict(a_c=1.7547653506, beta=2.0891372726, convex=True, a_sec=None,
                    supercritical=False),
    "eynard(3,0.02)": dict(a_c=0.3704754, beta=0.2460889, convex=False, a_sec=None,
                           supercritical=False),
    "two-shelf": dict(a_c=1.2266222, beta=1.2561601, convex=False, a_sec=1.6874607,
                      supercritical=True),
}
SUPPORT_SEEDS = {"two-shelf": [(-2.0, 2.0)]}


def _window(p: dict, n: int) -> float:
    """Half-width in a of the critical window predict_law documents."""
    return 1.5 * p["beta"] / n ** (1.0 / 3.0) if p["convex"] else 30.0 / n


def make_queries(rng: np.random.Generator) -> list[dict]:
    """Seeded spikes; the regime mix is the same for every seed."""
    out = []
    for name, p in POTENTIALS.items():
        a_c = p["a_c"]
        for n in NS:
            lower = a_c - _window(p, n)
            for _ in range(2):
                out.append(dict(potential=name, regime="subcritical", n=n,
                                a=rng.uniform(0.2, 0.8) * lower))
            if p["convex"]:
                bands = [("F1-inner", -1.0, 1.0)] * 2 + [("F1-high", 1.15, 1.45)]
                for band, lo, hi in bands:
                    out.append(dict(potential=name, regime=band, n=n,
                                    a=a_c + p["beta"] * rng.uniform(lo, hi) / n ** (1.0 / 3.0)))
            else:
                for band, lo, hi in [("resolved", 1.0, 5.0)] * 2 + [("saturated", 15.0, 28.0)]:
                    sign = rng.choice((-1.0, 1.0))
                    out.append(dict(potential=name, regime=f"mixture-{band}", n=n,
                                    a=a_c + sign * rng.uniform(lo, hi) / n))
        if p["convex"]:
            n = int(rng.choice(NS))
            out.append(dict(potential=name, regime="F1-low", n=n,
                            a=a_c + p["beta"] * rng.uniform(-1.13, -1.01) / n ** (1.0 / 3.0)))
        if p["a_sec"] is not None:
            n = int(rng.choice(NS))
            out.append(dict(potential=name, regime="secondary-critical", n=n,
                            a=p["a_sec"] + rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 5.0) / n))
        if p["supercritical"]:
            n = int(rng.choice(NS))
            upper = a_c + _window(p, n)
            if p["a_sec"] is not None:
                upper = max(upper, p["a_sec"] + 30.0 / n + 1.0 / math.sqrt(n))
            out.append(dict(potential=name, regime="supercritical", n=n,
                            a=upper + rng.uniform(0.2, 1.0)))
    # a seeded order spreads each regime over the whole query phase
    return [out[i] for i in rng.permutation(len(out))]


def setup(seed: int) -> dict:
    from spectral_edge.equilibrium import solve_support
    from spectral_edge.potential import GUE, load_potential

    potentials = {name: load_potential(name) for name in POTENTIALS if name != "two-shelf"}
    potentials["two-shelf"] = load_potential(str(HERE / "two_shelf.json"))
    solve_support(GUE)                                  # warm-up: first rule, BLAS
    rounds = [make_queries(np.random.default_rng([seed, k])) for k in range(8)]
    return dict(potentials=potentials, rounds=rounds)


def _cdf_table(law, n: int) -> np.ndarray:
    # the law subcommand's table: standardized T for a single law, and for a
    # mixture the lambda grid of its first component
    if law.kind == "Mixture":
        first = law.components[0][1]
        lam = first.center + T_GRID / (first.scale_const * n ** first.scale_exponent)
        return np.asarray(law.cdf_lambda(lam, n))
    return np.asarray(law.cdf_standard(T_GRID))


def run_job(state: dict, tracer, outcome, queries: list[dict]) -> dict:
    from spectral_edge import limitlaws, transition
    from spectral_edge.equilibrium import solve_support

    diagram = {}
    for name, V in state["potentials"].items():
        entry = diagram[name] = {}
        op = outcome.op(f"solve_support[{name}]")
        try:
            with tracer.span("equilibrium.solve_support", potential=name):
                entry["eq"] = solve_support(V, seeds=SUPPORT_SEEDS.get(name))
        except Exception as exc:            # counted, the run goes on
            op.fail(f"raised {type(exc).__name__}: {exc}")
            continue
        entry["solve_op"] = op
        eq = entry["eq"]
        op = entry["critical_op"] = outcome.op(f"critical_a[{name}]")
        try:
            with tracer.span("transition.critical_a", potential=name):
                entry["a_c"] = transition.critical_a(eq)
        except Exception as exc:
            op.fail(f"raised {type(exc).__name__}: {exc}")
            continue
        half = 0.5 * eq.V.eval(eq.a1, 1)
        entry["range"] = (entry["a_c"] + 1e-4, 3.0 * half)
        op = entry["secondary_op"] = outcome.op(f"secondary_criticals[{name}]")
        try:
            with tracer.span("transition.secondary_criticals", potential=name):
                entry["secondary"] = transition.secondary_criticals(eq, *entry["range"])
        except Exception as exc:
            op.fail(f"raised {type(exc).__name__}: {exc}")

    answered = []
    for q in queries:
        entry = diagram[q["potential"]]
        op = outcome.op(f"query[{q['potential']},{q['regime']},n={q['n']},a={q['a']:.6f}]")
        if "a_c" not in entry:
            op.fail("no phase diagram to query")
            continue
        try:
            with tracer.span("law_query.query", **q) as qs:
                with tracer.span("limitlaws.predict_law") as ps:
                    law = limitlaws.predict_law(entry["eq"], q["a"], q["n"], a_c=entry["a_c"])
                ps.attrs["kind"] = law.kind
                with tracer.span("limitlaws.cdf", points=T_GRID.size) as cs:
                    table = _cdf_table(law, q["n"])
        except Exception as exc:
            op.fail(f"raised {type(exc).__name__}: {exc}")
            continue
        outcome.query_s.append(qs.duration)
        outcome.curve_s.append(cs.duration)
        answered.append((q, law, table, op))
    return dict(diagram=diagram, answered=answered)


def run(state: dict, tracer, outcome, deadline: float, clock) -> None:
    import law_checks

    expected = {}

    def job(k):
        result = run_job(state, tracer, outcome, state["rounds"][k])
        return lambda: law_checks.check(result, expected)

    repeat_jobs(tracer, outcome, deadline, clock, job, rounds=len(state["rounds"]))
