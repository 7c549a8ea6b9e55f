"""Command-line front end.

Subcommands: equilibrium | critical | law | gap | montecarlo | compare.
Every run writes a manifest echoing the resolved configuration next to its
outputs.  Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eqmod
from . import finitemodel, limitlaws, sampler, transition
from .equilibrium import NotOneCutError, NotRegularError, solve_support
from .potential import SpikeConfig, load_potential

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, args) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    resolved["command"] = command
    with open(out / "manifest.json", "w") as fh:
        json.dump(resolved, fh, indent=2, default=str)


def _potential(args):
    try:
        return load_potential(args.potential)
    except (ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"potential: {exc}") from exc


def _spike(args, a: float) -> SpikeConfig:
    """Validate the spike inputs of a command once, before any work."""
    try:
        return SpikeConfig(a=a, n=args.n, j=getattr(args, "j", 1))
    except ValueError as exc:
        raise InputError(f"{args.command}: {exc}") from exc


def _t_grid(args) -> np.ndarray:
    """The T grid of a command, validated before any work."""
    if args.t_steps < 1:
        raise InputError(f"{args.command}: T-steps = {args.t_steps} must be at least 1")
    return np.linspace(args.t_min, args.t_max, args.t_steps)


def cmd_equilibrium(args) -> int:
    V = _potential(args)
    out = _out_dir(args)
    eq = solve_support(V)
    _write_manifest(out, "equilibrium", args)
    eqmod.json_dump(eq, out / "equilibrium.json")
    eqmod.density_csv(eq, out / "density.csv")
    print(json.dumps(eqmod.to_json(eq), indent=2))
    return EXIT_OK


def _numeric_stage(stage: str, fn, *args):
    """Run one stage of a command; a ValueError inside it, on inputs that
    passed validation, is a numeric failure reported under the stage name."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise RuntimeError(f"{stage}: {exc}") from exc


def cmd_critical(args) -> int:
    V = _potential(args)
    out = _out_dir(args)
    eq = solve_support(V)
    a_c = _numeric_stage("critical: a_c search", transition.critical_a, eq)
    half = 0.5 * eq.V.eval(eq.a1, 1)
    secondary = _numeric_stage("critical: secondary critical search",
                               transition.secondary_criticals, eq, a_c + 1e-4,
                               args.a_max or 3.0 * half)
    report = {
        "a_c": a_c,
        "half_Vprime_e": half,
        "a_c_below_half_Vprime_e": not transition.convex_type(eq, a_c),
        "secondary": secondary,
    }
    _write_manifest(out, "critical", args)
    with open(out / "critical.json", "w") as fh:
        json.dump(report, fh, indent=2)
    a_vals = [a for a in (args.a,) if a is not None] or [0.6 * a_c, a_c, min(2.0 * a_c, 1.5 * half)]
    transition.comparison_csv(eq, a_vals, out / "comparison.csv")
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_law(args) -> int:
    if args.a_critical == (args.a is not None):
        raise InputError("law requires exactly one of --a and --a-critical")
    if args.alpha is not None and not args.a_critical:
        raise InputError("law: --alpha offsets the spike from a_c and needs --a-critical")
    ts = _t_grid(args)
    # under --a-critical the spike is derived from a_c, so only n and j are inputs
    _spike(args, 0.0 if args.a_critical else args.a)
    V = _potential(args)
    out = _out_dir(args)
    eq = solve_support(V)
    a_c = None
    if args.a_critical:
        a_c = transition.critical_a(eq)
        alpha = args.alpha or 0.0
        a = a_c + eq.beta * alpha / args.n ** (1.0 / 3.0)
    else:
        a = args.a
    law = limitlaws.predict_law(eq, a, args.n, args.j, a_c=a_c)
    _write_manifest(out, "law", args)
    with open(out / "law.json", "w") as fh:
        json.dump(law.to_json(), fh, indent=2)
    if law.kind == "Mixture":
        lam = law.components[0][1].center + ts / (
            law.components[0][1].scale_const * args.n ** law.components[0][1].scale_exponent)
        cdf = law.cdf_lambda(lam, args.n)
        cols = ["lambda", "cdf"]
        rows = zip(lam, cdf)
    else:
        cdf = law.cdf_standard(ts)
        cols = ["T", "cdf"]
        rows = zip(ts, cdf)
    with open(out / "law.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for t, v in rows:
            writer.writerow([f"{t:.17g}", f"{v:.17g}"])
    print(json.dumps(law.to_json(), indent=2))
    return EXIT_OK


def cmd_gap(args) -> int:
    a = _spike(args, args.a if args.a is not None else 0.0).a
    if args.n > finitemodel.MAX_N:
        raise InputError(f"gap: n = {args.n} exceeds the determinant cap n <= {finitemodel.MAX_N}")
    ts = _t_grid(args)
    V = _potential(args)
    out = _out_dir(args)
    eq = solve_support(V)
    ortho = finitemodel.build_ortho(V, args.n, args.n - args.j + 2, a_hint=a)
    sk = finitemodel.build_spiked(ortho, a, args.j)
    thresholds = eq.a1 + ts / (eq.beta * args.n ** (2.0 / 3.0))
    raw = np.array([finitemodel.gap_probability_raw(sk, [(thr, np.inf)]) for thr in thresholds])
    clamped = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
    rows = list(zip(ts.tolist(), thresholds.tolist(), np.clip(raw, 0.0, 1.0).tolist()))
    if clamped:
        print(f"gap: {clamped} of {raw.size} determinants outside [0, 1] clamped "
              f"(raw range [{raw.min():.6g}, {raw.max():.6g}])", file=sys.stderr)
    _write_manifest(out, "gap", args)
    with open(out / "gap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "threshold", "gap_probability"])
        for t, thr, p in rows:
            writer.writerow([f"{t:.17g}", f"{thr:.17g}", f"{p:.17g}"])
    with open(out / "gap.json", "w") as fh:
        json.dump({"n": args.n, "j": args.j, "a": a, "clamped": clamped,
                   "raw_range": [float(raw.min()), float(raw.max())],
                   "rows": [list(r) for r in rows]}, fh, indent=2)
    print(f"wrote {len(rows)} gap values to {out / 'gap.csv'}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    a = _spike(args, args.a if args.a is not None else 0.0).a
    if args.reps < 1:
        raise InputError(f"montecarlo: reps = {args.reps} must be at least 1")
    if args.method == "mcmc" and args.n > sampler.MCMC_MAX_N:
        raise InputError(f"montecarlo: n = {args.n} exceeds the Metropolis cap "
                         f"n <= {sampler.MCMC_MAX_N}")
    V = _potential(args)
    out = _out_dir(args)
    if args.method == "direct-gaussian":
        if V.label != "gue":
            raise InputError("direct sampling is only available for the gue potential")
        sample = sampler.sample_gaussian_spiked(args.n, a, args.reps, args.seed)
    else:
        per_chain = 500
        chains = max(1, (args.reps + per_chain - 1) // per_chain)
        results = []
        for idx in range(chains):
            cfg = sampler.McmcConfig(steps=per_chain * 2 + 800, burn_in=800,
                                     thinning=2, seed=args.seed + idx)
            results.append(sampler.mcmc_sample(V, args.n, a, cfg))
        lam = np.concatenate([r.lambda_max for r in results])[:args.reps]
        acc = float(np.mean([r.acceptance for r in results]))
        sample = sampler.EdgeSample(lam, n=args.n, a=a, j=1,
                                    potential_label=V.label or "custom",
                                    seed=args.seed, method="mcmc", acceptance=acc)
    _write_manifest(out, "montecarlo", args)
    sampler.save_sample(sample, out / "samples.csv")
    print(f"wrote {sample.lambda_max.size} samples to {out / 'samples.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    with open(Path(args.law_dir) / "law.json") as fh:
        law_json = json.load(fh)
    law = limitlaws.LimitLaw.from_json(law_json)
    report = {}
    if args.mc_dir:
        path = Path(args.mc_dir) / "samples.csv"
        try:
            sample = sampler.load_sample(path)
        except ValueError as exc:
            raise InputError(f"compare: {path}: {exc}") from exc
        _check_consistency(Path(args.mc_dir), Path(args.law_dir))
        ks = sampler.ks_distance(sample, law)
        report["ks_distance"] = ks
        report["ks_pass"] = bool(ks < args.ks_tol)
    if args.gap_dir:
        path = Path(args.gap_dir) / "gap.json"
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        if not rows:
            raise InputError(f"compare: {path}: a gap table needs at least one row")
        t, thr, p = np.array(rows, dtype=float).reshape(-1, 3).T
        if law.kind == "Mixture":
            ref = law.cdf_lambda(thr, _manifest(Path(args.gap_dir))["n"])
        else:
            ref = law.cdf_standard(t)
        worst = float(np.max(np.abs(p - ref)))
        report["max_gap_law_gap"] = worst
        report["gap_pass"] = bool(worst < args.gap_tol)
    out = _out_dir(args)
    _write_manifest(out, "compare", args)
    with open(out / "compare.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _manifest(d: Path) -> dict:
    with open(d / "manifest.json") as fh:
        return json.load(fh)


def _check_consistency(mc_dir: Path, law_dir: Path) -> None:
    m1, m2 = _manifest(mc_dir), _manifest(law_dir)
    for key in ("n", "potential"):
        if key in m1 and key in m2 and m1[key] != m2[key]:
            raise InputError(f"inputs disagree on {key}: {m1[key]} vs {m2[key]}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spectral-edge",
                                description="Edge laws of rank-one spiked Hermitian matrix models")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags it reads
    def common(sp, n_default=None):
        sp.add_argument("--potential", required=True, help="builtin name, eynard(e,eps), or JSON path")
        sp.add_argument("--out", default="out", help="output directory")
        if n_default is not None:
            sp.add_argument("--a", type=float, default=None)
            sp.add_argument("--n", type=int, default=n_default)

    sp = sub.add_parser("equilibrium", help="support, density, edge data")
    common(sp)
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("critical", help="critical and secondary critical spike strengths")
    common(sp)
    sp.add_argument("--a", type=float, default=None, help="tilt tabulated in comparison.csv")
    sp.add_argument("--a-max", type=float, default=None)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("law", help="predicted limiting law and its CDF table")
    common(sp, n_default=100)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--a-critical", action="store_true",
                    help="place the spike at the critical value offset by --alpha")
    sp.add_argument("--T-min", dest="t_min", type=float, default=-6.0)
    sp.add_argument("--T-max", dest="t_max", type=float, default=4.0)
    sp.add_argument("--T-steps", dest="t_steps", type=int, default=41)
    sp.set_defaults(func=cmd_law)

    sp = sub.add_parser("gap", help="finite-size gap probabilities over a threshold sweep")
    common(sp, n_default=20)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--T-min", dest="t_min", type=float, default=-4.0)
    sp.add_argument("--T-max", dest="t_max", type=float, default=3.0)
    sp.add_argument("--T-steps", dest="t_steps", type=int, default=15)
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("montecarlo", help="sample largest eigenvalues")
    common(sp, n_default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--reps", type=int, default=2000)
    sp.add_argument("--method", choices=["direct-gaussian", "mcmc"], default="direct-gaussian")
    sp.set_defaults(func=cmd_montecarlo)

    sp = sub.add_parser("compare", help="distances between sampled/gap data and a law")
    sp.add_argument("--law-dir", required=True)
    sp.add_argument("--mc-dir", default=None)
    sp.add_argument("--gap-dir", default=None)
    sp.add_argument("--ks-tol", type=float, default=0.08)
    sp.add_argument("--gap-tol", type=float, default=0.05)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NotRegularError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotOneCutError, OverflowError, FloatingPointError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
