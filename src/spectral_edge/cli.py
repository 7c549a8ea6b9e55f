"""Command-line front end.

Subcommands: equilibrium | critical | law | gap | montecarlo | compare.
Every output file is written here, through one CSV and one JSON writer,
except ``samples.csv`` and its sidecar, which ``sampler.save_sample`` writes
so that ``load_sample`` reads back what it wrote.  Every run writes a manifest
echoing the resolved configuration next to its outputs.  Every file
``compare`` reads goes through ``_read_input``, which turns a missing or
malformed file into an input error naming it.  Exit codes: 0 success,
2 input error, 3 numeric failure.

Each subcommand imports the modules it calls, so that a process loads only
what its command runs.  No command loads scipy, except that ``law`` and
``compare`` import ``scipy.special`` to evaluate a GenGauss law.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .potential import load_potential

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_CSV_POINTS = 400       # rows of density.csv and comparison.csv
_CSV_SPAN = 6.0         # comparison.csv tabulates x in [e, e + _CSV_SPAN]


class InputError(Exception):
    pass


def _write_csv(path: Path, header: list, rows) -> None:
    """A header row, then one row per entry of rows, every value at full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def _check_out(args) -> None:
    """Reject, before any work, an --out path that names a file or lies under one."""
    existing = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"{args.command}: --out {args.out}: {existing} is not a directory")


def _write_manifest(args) -> Path:
    """Create the output directory, write the manifest of the resolved
    configuration into it, and return it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json",
                {k: v for k, v in vars(args).items() if k != "func" and v is not None})
    return out


def _finite(text: str) -> float:
    """The argparse type of every real-valued flag: a finite float.  Anything
    else exits 2, as an unknown flag does."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _potential(args):
    try:
        return load_potential(args.potential)
    except (OSError, ValueError) as exc:
        raise InputError(f"potential: {exc}") from exc


def _solve(V):
    """The equilibrium measure of V.  A potential that is not regular is an
    input error; one with no one-cut measure (``NotOneCutError``, a
    RuntimeError) is a numeric failure."""
    from .equilibrium import NotRegularError, solve_support

    try:
        return solve_support(V)
    except NotRegularError as exc:
        raise InputError(str(exc)) from exc


def _spike(args, a: float) -> float:
    """Validate the spike inputs of a command once, before any work, and
    return the spike a."""
    j = getattr(args, "j", 1)
    if args.n < 4:
        problem = f"n = {args.n} must be at least 4"
    elif not 1 <= j <= 4:
        problem = f"j = {j} must lie in 1..4"
    elif a < 0:
        problem = (f"a = {a:g} is negative; negative spike strength is out of scope, "
                   "mirror the potential instead")
    else:
        return a
    raise InputError(f"{args.command}: {problem}")


def _t_grid(args) -> np.ndarray:
    """The T grid of a command, validated before any work."""
    if args.t_steps < 1:
        raise InputError(f"{args.command}: T-steps = {args.t_steps} must be at least 1")
    return np.linspace(args.t_min, args.t_max, args.t_steps)


def cmd_equilibrium(args) -> int:
    from . import equilibrium as eqmod

    V = _potential(args)
    eq = _solve(V)
    report = eqmod.to_json(eq)
    out = _write_manifest(args)
    _write_json(out / "equilibrium.json", report)
    xs = np.linspace(eq.b0, eq.a1, _CSV_POINTS)
    _write_csv(out / "density.csv", ["x", "psi"], zip(xs, eqmod.density_psi(eq, xs)))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _numeric_stage(stage: str, fn, *args):
    """Run one stage of a command; a ValueError inside it, on inputs that
    passed validation, is a numeric failure reported under the stage name."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise RuntimeError(f"{stage}: {exc}") from exc


def cmd_critical(args) -> int:
    from . import transition

    if args.a is not None and args.a < 0:
        raise InputError(f"critical: a = {args.a} must be non-negative")
    if args.a_max is not None and args.a_max <= 0:
        raise InputError(f"critical: a-max = {args.a_max} must be positive")
    V = _potential(args)
    eq = _solve(V)
    a_c = _numeric_stage("critical: a_c search", transition.critical_a, eq)
    half = 0.5 * eq.V.eval(eq.a1, 1)
    a_max = 3.0 * half if args.a_max is None else args.a_max
    secondary = _numeric_stage("critical: secondary critical search",
                               transition.secondary_criticals, eq, a_c + 1e-4, a_max)
    report = {
        "a_c": a_c,
        "half_Vprime_e": half,
        "a_c_below_half_Vprime_e": not transition.convex_type(eq, a_c),
        "secondary": secondary,
    }
    out = _write_manifest(args)
    _write_json(out / "critical.json", report)
    a_vals = [a for a in (args.a,) if a is not None] or [0.6 * a_c, a_c, min(2.0 * a_c, 1.5 * half)]
    xs = np.linspace(eq.a1, eq.a1 + _CSV_SPAN, _CSV_POINTS)
    header, cols = ["x"], [xs]
    for a in a_vals:
        header += [f"G(a={a:g})", f"H(a={a:g})"]
        cols += [transition.G_fn(eq, a, xs), transition.H_fn(eq, a, xs)]
    _write_csv(out / "comparison.csv", header, zip(*cols))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_law(args) -> int:
    from . import limitlaws, transition

    if args.a_critical == (args.a is not None):
        raise InputError("law requires exactly one of --a and --a-critical")
    if args.alpha is not None and not args.a_critical:
        raise InputError("law: --alpha offsets the spike from a_c and needs --a-critical")
    ts = _t_grid(args)
    # under --a-critical the spike is derived from a_c, so only n and j are inputs
    _spike(args, 0.0 if args.a_critical else args.a)
    V = _potential(args)
    eq = _solve(V)
    a_c = None
    if args.a_critical:
        a_c = _numeric_stage("law: a_c search", transition.critical_a, eq)
        alpha = args.alpha or 0.0
        a = a_c + eq.beta * alpha / args.n ** (1.0 / 3.0)
    else:
        a = args.a
    law = _numeric_stage("law: law prediction", limitlaws.predict_law, eq, a, args.n, args.j, a_c)
    out = _write_manifest(args)
    _write_json(out / "law.json", law.to_json())
    if law.kind == "Mixture":
        lam = law.components[0][1].center + ts / (
            law.components[0][1].scale_const * args.n ** law.components[0][1].scale_exponent)
        cdf = law.cdf_lambda(lam, args.n)
        _write_csv(out / "law.csv", ["lambda", "cdf"], zip(lam, cdf))
    else:
        _write_csv(out / "law.csv", ["T", "cdf"], zip(ts, law.cdf_standard(ts)))
    print(json.dumps(law.to_json(), indent=2))
    return EXIT_OK


def cmd_gap(args) -> int:
    from . import finitemodel

    a = _spike(args, args.a if args.a is not None else 0.0)
    if args.n > finitemodel.MAX_N:
        raise InputError(f"gap: n = {args.n} exceeds the determinant cap n <= {finitemodel.MAX_N}")
    ts = _t_grid(args)
    V = _potential(args)
    eq = _solve(V)
    ortho = finitemodel.build_ortho(V, args.n, args.n - args.j + 2, a_hint=a)
    sk = finitemodel.build_spiked(ortho, a, args.j)
    thresholds = eq.a1 + ts / (eq.beta * args.n ** (2.0 / 3.0))
    raw = np.array([finitemodel.gap_probability_raw(sk, [(thr, np.inf)]) for thr in thresholds])
    clamped = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
    rows = list(zip(ts.tolist(), thresholds.tolist(), np.clip(raw, 0.0, 1.0).tolist()))
    if clamped:
        print(f"gap: {clamped} of {raw.size} determinants outside [0, 1] clamped "
              f"(raw range [{raw.min():.6g}, {raw.max():.6g}])", file=sys.stderr)
    out = _write_manifest(args)
    _write_csv(out / "gap.csv", ["T", "threshold", "gap_probability"], rows)
    _write_json(out / "gap.json", {"n": args.n, "j": args.j, "a": a, "clamped": clamped,
                                   "raw_range": [float(raw.min()), float(raw.max())],
                                   "string_residual": ortho.string_residual,
                                   "grid_nodes": ortho.grid.nodes.size,
                                   "rows": [list(r) for r in rows]})
    print(f"wrote {len(rows)} gap values to {out / 'gap.csv'}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    from . import sampler

    a = _spike(args, args.a if args.a is not None else 0.0)
    if args.reps < 1:
        raise InputError(f"montecarlo: reps = {args.reps} must be at least 1")
    direct = args.method == "direct-gaussian"
    if direct and args.n > sampler.DIRECT_MAX_N:
        raise InputError(f"montecarlo: n = {args.n} exceeds the direct-sampling cap "
                         f"n <= {sampler.DIRECT_MAX_N}")
    if direct and args.reps * args.n > sampler.DIRECT_MAX_VOLUME:
        raise InputError(f"montecarlo: reps * n = {args.reps * args.n} exceeds the "
                         f"direct-sampling cap reps * n <= {sampler.DIRECT_MAX_VOLUME}")
    if not direct and args.n > sampler.MCMC_MAX_N:
        raise InputError(f"montecarlo: n = {args.n} exceeds the Metropolis cap "
                         f"n <= {sampler.MCMC_MAX_N}")
    # chain k of a Metropolis run draws from the Philox key seed + k
    per_chain = 500
    chains = 1 if direct else (args.reps + per_chain - 1) // per_chain
    if not 0 <= args.seed <= sampler.SEED_LIMIT - chains:
        raise InputError(f"montecarlo: seed = {args.seed} must lie in [0, 2**128 - {chains}]: "
                         f"chain k < {chains} draws from the Philox key seed + k")
    V = _potential(args)
    if direct:
        if V.label != "gue":
            raise InputError("direct sampling is only available for the gue potential")
        sample = sampler.sample_gaussian_spiked(args.n, a, args.reps, args.seed)
    else:
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
    out = _write_manifest(args)
    sampler.save_sample(sample, out / "samples.csv")
    print(f"wrote {sample.lambda_max.size} samples to {out / 'samples.csv'}")
    return EXIT_OK


def _load_json(path: Path) -> dict:
    """The JSON object in a file; any other JSON value is a ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def _read_input(path: Path, parse):
    """parse(path), with a file that is missing, unreadable or malformed
    turned into an input error that names it."""
    try:
        return parse(path)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise InputError(f"compare: {path}: {exc}") from exc


def _gap_table(path: Path):
    """(n, thresholds, p) of a gap.json; an empty or non-finite table is a ValueError."""
    table = _load_json(path)
    n, rows = table["n"], np.array(table["rows"], dtype=float)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n = {n!r} must be a positive integer")
    if rows.size == 0:
        raise ValueError("a gap table needs at least one row")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("each row must hold T, threshold and gap probability")
    if not np.all(np.isfinite(rows)):
        raise ValueError("a gap table must be finite")
    return n, rows[:, 1], rows[:, 2]


def cmd_compare(args) -> int:
    from . import limitlaws, sampler

    data_dirs = [Path(d) for d in (args.mc_dir, args.gap_dir) if d]
    if not data_dirs:
        raise InputError("compare: nothing to compare; give --mc-dir, --gap-dir or both")
    law_dir = Path(args.law_dir)
    law = _read_input(law_dir / "law.json",
                      lambda path: limitlaws.LimitLaw.from_json(_load_json(path)))
    ref = _read_input(law_dir / "manifest.json", _load_json)
    # the samples and the gap table must come from the law's n and potential
    for d in data_dirs:
        path = d / "manifest.json"
        manifest = _read_input(path, _load_json)
        for key in ("n", "potential"):
            if key in manifest and key in ref and manifest[key] != ref[key]:
                raise InputError(f"compare: {path}: inputs disagree on {key}: "
                                 f"{manifest[key]} vs {ref[key]}")
    report = {}
    if args.mc_dir:
        sample = _read_input(Path(args.mc_dir) / "samples.csv", sampler.load_sample)
        ks = sampler.ks_distance(sample, law)
        report["ks_distance"] = ks
        report["ks_pass"] = bool(ks < args.ks_tol)
    if args.gap_dir:
        n, thresholds, p = _read_input(Path(args.gap_dir) / "gap.json", _gap_table)
        worst = float(np.max(np.abs(p - law.cdf_lambda(thresholds, n))))
        report["max_gap_law_gap"] = worst
        report["gap_pass"] = bool(worst < args.gap_tol)
    out = _write_manifest(args)
    _write_json(out / "compare.json", report)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spectral-edge",
                                description="Edge laws of rank-one spiked Hermitian matrix models")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags it reads
    def common(sp, n_default=None):
        sp.add_argument("--potential", required=True, help="builtin name, eynard(e,eps), or JSON path")
        sp.add_argument("--out", default="out", help="output directory")
        if n_default is not None:
            sp.add_argument("--a", type=_finite, default=None)
            sp.add_argument("--n", type=int, default=n_default)

    sp = sub.add_parser("equilibrium", help="support, density, edge data")
    common(sp)
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("critical", help="critical and secondary critical spike strengths")
    common(sp)
    sp.add_argument("--a", type=_finite, default=None, help="tilt tabulated in comparison.csv")
    sp.add_argument("--a-max", type=_finite, default=None)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("law", help="predicted limiting law and its CDF table")
    common(sp, n_default=100)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--alpha", type=_finite, default=None)
    sp.add_argument("--a-critical", action="store_true",
                    help="place the spike at the critical value offset by --alpha")
    sp.add_argument("--T-min", dest="t_min", type=_finite, default=-6.0)
    sp.add_argument("--T-max", dest="t_max", type=_finite, default=4.0)
    sp.add_argument("--T-steps", dest="t_steps", type=int, default=41)
    sp.set_defaults(func=cmd_law)

    sp = sub.add_parser("gap", help="finite-size gap probabilities over a threshold sweep")
    common(sp, n_default=20)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--T-min", dest="t_min", type=_finite, default=-4.0)
    sp.add_argument("--T-max", dest="t_max", type=_finite, default=3.0)
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
    sp.add_argument("--ks-tol", type=_finite, default=0.08)
    sp.add_argument("--gap-tol", type=_finite, default=0.05)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
