"""Monte Carlo verification: direct sampling of the Gaussian spiked model
through its tridiagonal form, Metropolis-within-Gibbs sampling of the
general-potential rank-one model, and empirical distance to predicted laws.

The joint eigenvalue density of the rank-one model factors into the squared
Vandermonde, the confinement weight, and a divided difference of the
exponential tilt over the eigenvalues.  The divided difference is the
integral of exp(n a sum q_i lambda_i) over the weights q_i = |U_1i|^2 of the
first basis vector on the eigenvectors, which are flat-Dirichlet on the
simplex (the rank-one HCIZ identity).  The chain samples (lambda, q) jointly
from the integrand: a move on a pair of weights at fixed sum is an exact
draw from its truncated exponential conditional, and a pass of single-site
eigenvalue moves is one Metropolis step per site in turn.  The pass reads
its repulsion changes from two n x n tables of log distances built up
front, so its only per-site work is a scalar comparison (``_lambda_pass``):
a sweep costs O(n^2) and never forms the divided difference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .potential import Potential

__all__ = [
    "EdgeSample",
    "McmcConfig",
    "ks_distance",
    "ks_two_sample",
    "load_sample",
    "mcmc_sample",
    "sample_gaussian_spiked",
    "save_sample",
    "truncated_exp_draw",
]

RNG_FAMILY = "philox"
SEED_LIMIT = 2 ** 128   # a Philox key lies in [0, SEED_LIMIT)
DIRECT_MAX_N = 2000
DIRECT_MAX_VOLUME = 8 * 10 ** 6     # most reps * n of one direct-sampling call
MCMC_MAX_N = 64         # each Metropolis sweep costs O(n^2)
# Starting width of the single-site Gaussian proposals; burn-in adapts it.
PROPOSAL_SCALE = 0.25
# One Metropolis sweep: LAMBDA_PASSES passes of single-site eigenvalue moves
# over every site, then PAIR_PASSES random pairings of the spike weights.
LAMBDA_PASSES = 2
PAIR_PASSES = 4
# Eigenvalues closer than this are a zero of the density: such a proposal
# is rejected.
TIE_GAP = 1e-12
# ks_distance evaluates the law on this many points and interpolates once a
# sample has more than twice as many draws.
_KS_GRID = 200


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, stream]))


@dataclass
class EdgeSample:
    """Largest-eigenvalue draws plus the provenance needed to reproduce them."""

    lambda_max: np.ndarray
    n: int
    a: float
    j: int
    potential_label: str
    seed: int
    method: str
    acceptance: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.lambda_max, dtype=float)
        if arr.size == 0:
            raise ValueError("a sample needs at least one draw")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n = {self.n!r} must be a positive integer")
        self.lambda_max = arr
        if self.method == "mcmc" and self.acceptance is not None:
            if not 0.1 <= self.acceptance <= 0.9:
                raise ValueError(f"acceptance rate {self.acceptance:.3f} outside [0.1, 0.9]")


def _top_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of every symmetric tridiagonal matrix of a batch.

    Row i of ``diag`` (k x b) and of ``off`` ((k - 1) x b) holds entry i of
    each of the b matrices.  All b brackets [max diagonal, Gershgorin bound]
    are bisected at once on the Sturm sequence: x lies above the top
    eigenvalue exactly when every pivot of T - x is negative.  As in LAPACK's
    ``dstebz``, a pivot of magnitude below pivmin = tiny * max(1, max e^2)
    counts as negative and is replaced by -pivmin, so no division is by zero
    and none overflows.  Bisection stops when every bracket is within a few
    ulps of its ends (or pivmin), and the midpoint is returned.
    """
    e2 = np.zeros_like(diag)
    e2[1:] = off * off      # e2[i] couples rows i - 1 and i; e2[0] = 0
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max()))
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = diag.max(axis=0)
    hi = (diag + radius).max(axis=0)
    q, t = np.empty_like(lo), np.empty_like(lo)
    above, neg = np.empty(lo.shape, bool), np.empty(lo.shape, bool)
    while np.any(hi - lo > 4.0 * np.finfo(float).eps * np.maximum(-lo, hi) + pivmin):
        x = 0.5 * (lo + hi)
        above.fill(True)
        q.fill(-1.0)        # any nonzero value: e2[0] / q is zero
        for d, e in zip(diag, e2):
            np.divide(e, q, out=t)
            np.subtract(d, x, out=q)
            q -= t
            np.less(q, pivmin, out=neg)
            above &= neg
            np.minimum(q, -pivmin, out=q, where=neg)
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
    return 0.5 * (lo + hi)


def sample_gaussian_spiked(n: int, a: float, reps: int, seed: int = 0) -> EdgeSample:
    """Largest eigenvalues of the Gaussian model with a rank-one shift.

    The matrix is H + a e11 with H Hermitian, diagonal variance 1/n and
    off-diagonal mean-square 1/n, matching the confinement weight with the
    quadratic potential whose bulk fills [-2, 2].

    Each draw is the beta = 2 Hermite tridiagonal model (Dumitriu-Edelman):
    Householder reduction started from e1 keeps e1 fixed, so H + a e11 has
    the spectrum of the real symmetric tridiagonal T + a e11 with diagonal
    N(0, 1/n) and off-diagonal chi_{2k} / sqrt(2n), k = n-1, ..., 1.  The
    top eigenvector lives in the first O(n^{1/3}) rows of T, so only the
    leading k = min(n, ceil(10 n^{1/3})) rows are drawn (Edelman-Persson).
    By interlacing the cut can only lower the top eigenvalue: on 2000 draws
    at each n = 50 to 2000 and a = 0 to 2 it lowered it by at most 2.4e-9,
    against edge fluctuations of order n^{-2/3}.  The top eigenvalues of a
    whole batch come from one Sturm bisection (``_top_eigenvalues``).  For
    n <= 33 the block is all of T; for larger n the draws are a different
    stream of the same law than the full matrix would give.
    """
    if n > DIRECT_MAX_N:
        raise ValueError(f"n capped at {DIRECT_MAX_N} for direct sampling")
    if reps * n > DIRECT_MAX_VOLUME:
        raise ValueError("requested sample volume too large")
    rng = _rng(seed)
    out = np.empty(reps)
    # the least k with k^3 >= 1000 n, that is ceil(10 n^{1/3}), or n if smaller
    k = next((m for m in range(1, n + 1) if m ** 3 >= 1000 * n), n)
    dof = 2.0 * np.arange(n - 1, n - k, -1)
    batch = max(1, 2 ** 20 // k)
    for start in range(0, reps, batch):
        b = min(batch, reps - start)
        diag = rng.normal(size=(b, k)) / math.sqrt(n)
        diag[:, 0] += a
        off = np.sqrt(rng.chisquare(dof, size=(b, k - 1)) / (2.0 * n))
        out[start:start + b] = _top_eigenvalues(diag.T.copy(), off.T.copy())
    return EdgeSample(out, n=n, a=a, j=1, potential_label="gue", seed=seed, method="direct-gaussian")


@dataclass(frozen=True)
class McmcConfig:
    steps: int = 4000
    burn_in: int = 800
    thinning: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.burn_in >= self.steps:
            raise ValueError("burn-in must be shorter than the chain")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


def truncated_exp_draw(s, r, u):
    """Inverse-CDF draws on [0, s] from the density proportional to exp(r x).

    The CDF is (1 - exp(r x)) / (1 - exp(r s)).  Inverted in log1p/expm1
    form at the rate -|r|, which cannot overflow, and reflected through s
    for r > 0; at r = 0 (to 1e-200 in r s) the draw is uniform.  s, r and u
    are arrays of one shape, u uniform on [0, 1).
    """
    t = -np.abs(r) * s
    flat = t > -1e-200
    t = np.where(flat, -1.0, t)
    frac = np.where(flat, u, np.minimum(np.log1p(u * np.expm1(t)) / t, 1.0))
    return np.where(r > 0, s - s * frac, s * frac)


def _log_gaps(lams: np.ndarray) -> np.ndarray:
    """log|lambda_i - lambda_j|, with zeros on the diagonal."""
    return np.log(np.abs(np.subtract.outer(lams, lams)) + np.eye(lams.size))


def _lambda_pass(lams, logs, props, thresholds) -> np.ndarray:
    """One pass of single-site Metropolis moves over sites 0 to n - 1 in turn.

    Site i moves to props[i] when twice its repulsion change, the sum over
    k of log|props[i] - lambda_k| - log|lambda_i - lambda_k| at the values
    of that moment, exceeds thresholds[i], and never to within ``TIE_GAP``
    of another value.  ``lams`` and its ``_log_gaps`` table ``logs`` are
    updated in place; returns the mask of moved sites.

    The tables log|x_i - lambda_k| and log|x_i - x_k|, from the proposals x
    and the pass-start values, are built once.  Each site's change against
    the pass-start state is a row sum; a move of site i adds row i of the
    correction table, (log|x_k - x_i| - log|x_k - lambda_i|) - (log|x_i -
    lambda_k| - log|lambda_k - lambda_i|), to the running change of every
    later site k.  The loop then compares Python floats against the
    thresholds halved, which is exact.  Distances are floored at
    ``TIE_GAP`` before the log; a site whose proposal lies within
    ``TIE_GAP`` of a pass-start value or of another proposal, where a
    floored entry could enter its sum, takes the check against the current
    values instead.  ``logs`` is rebuilt once, when a site moved: the same
    bits as updating its rows, since |lambda_i - lambda_k| is exactly
    symmetric.
    """
    n = lams.size
    gap_xl = np.abs(np.subtract.outer(props, lams))
    gap_xx = np.abs(np.subtract.outer(props, props))
    np.fill_diagonal(gap_xl, 1.0)
    np.fill_diagonal(gap_xx, 1.0)
    tie = (np.minimum(gap_xl, gap_xx).min(axis=1) < TIE_GAP).tolist()
    log_xl = np.log(np.maximum(gap_xl, TIE_GAP))
    log_xx = np.log(np.maximum(gap_xx, TIE_GAP))
    change = np.add.reduce(log_xl - logs, axis=1)
    correction = log_xx - log_xl.T - log_xl + logs
    half = (0.5 * thresholds).tolist()
    moved = np.zeros(n, dtype=bool)
    for i in range(n):
        if tie[i]:
            dist = np.abs(lams - props[i])
            dist[i] = 1.0
            if np.minimum.reduce(dist) < TIE_GAP:
                continue
            own = np.abs(lams - lams[i])
            own[i] = 1.0
            if not np.add.reduce(np.log(dist) - np.log(own)) > half[i]:
                continue
        elif not change.item(i) > half[i]:
            continue
        lams[i] = props[i]
        moved[i] = True
        change += correction[i]
    if moved.any():
        logs[...] = _log_gaps(lams)
    return moved


def mcmc_sample(V: Potential, n: int, a: float, cfg: McmcConfig) -> EdgeSample:
    """Metropolis-within-Gibbs over the eigenvalues and the spike weights.

    The target is the squared Vandermonde times exp(-n sum V(lambda_i) +
    n a sum q_i lambda_i) with q flat on the simplex; its lambda marginal is
    the rank-one eigenvalue density.  A sweep runs ``LAMBDA_PASSES`` passes
    of single-site Gaussian moves of the eigenvalues, then (when a != 0)
    ``PAIR_PASSES`` random pairings of the weights, each pair redrawn from
    its exact conditional at fixed sum (``truncated_exp_draw``).  Each
    eigenvalue pass is ``_lambda_pass``, with the confinement and tilt
    changes folded into its thresholds.

    The proposal width adapts toward 0.3-0.5 acceptance during burn-in and
    is frozen afterwards, preserving detailed balance for the retained
    sweeps.  ``acceptance`` is the eigenvalue-move acceptance after burn-in.
    """
    if n > MCMC_MAX_N:
        raise ValueError(f"Metropolis sampling capped at n = {MCMC_MAX_N}")
    rng = _rng(cfg.seed, stream=1)
    lams = np.sort(rng.normal(scale=0.7, size=n))
    q = rng.dirichlet(np.ones(n))
    na = n * a
    logs = _log_gaps(lams)
    v_lams = V.eval(lams)
    half = n // 2
    scale = PROPOSAL_SCALE
    kept = []
    window_acc = window_prop = 0
    accepted_after = proposed_after = 0
    for sweep in range(cfg.steps):
        adapt = sweep < cfg.burn_in
        accepted = 0
        for _ in range(LAMBDA_PASSES):
            # A site keeps its value until its own move, so the confinement
            # and tilt terms of the whole pass are computed up front; only
            # the repulsion change depends on the moves made before it.
            props = lams + scale * rng.normal(size=n)
            v_props = V.eval(props)
            local = n * (v_lams - v_props) + na * q * (props - lams)
            thresholds = np.log(rng.uniform(size=n)) - local
            moved = _lambda_pass(lams, logs, props, thresholds)
            np.copyto(v_lams, v_props, where=moved)
            accepted += int(np.count_nonzero(moved))
        if na != 0.0:
            for _ in range(PAIR_PASSES):
                perm = rng.permutation(n)
                left, right = perm[:half], perm[half:2 * half]
                total = q[left] + q[right]
                share = truncated_exp_draw(total, na * (lams[left] - lams[right]),
                                           rng.uniform(size=half))
                q[left] = share
                q[right] = total - share
        if adapt:
            window_acc += accepted
            window_prop += LAMBDA_PASSES * n
            if window_prop >= 4 * n:
                rate = window_acc / window_prop
                if rate < 0.3:
                    scale *= 0.85
                elif rate > 0.5:
                    scale *= 1.15
                window_acc = window_prop = 0
        else:
            accepted_after += accepted
            proposed_after += LAMBDA_PASSES * n
            if (sweep - cfg.burn_in) % cfg.thinning == 0:
                kept.append(float(lams.max()))
    rate = accepted_after / max(proposed_after, 1)
    return EdgeSample(np.array(kept), n=n, a=a, j=1, potential_label=V.label or "custom",
                      seed=cfg.seed, method="mcmc", acceptance=rate)


def ks_distance(sample: EdgeSample, law) -> float:
    """Sup distance between the empirical CDF of the draws and the law's CDF.

    For large samples the law CDF is evaluated on a dense grid spanning the
    draws and interpolated linearly; the interpolation error of the smooth
    CDF is orders of magnitude below the distances being tested.
    """
    lam = np.sort(sample.lambda_max)
    k = lam.size
    if k > 2 * _KS_GRID:
        lo, hi = lam[0], lam[-1]
        pad = 1e-9 * max(1.0, abs(hi - lo))
        grid = np.linspace(lo - pad, hi + pad, _KS_GRID)
        cdf_on_grid = law.cdf_lambda(grid, sample.n)
        cdf = np.interp(lam, grid, cdf_on_grid)
    else:
        cdf = np.atleast_1d(law.cdf_lambda(lam, sample.n))
    upper = np.max(np.abs(np.arange(1, k + 1) / k - cdf))
    lower = np.max(np.abs(np.arange(0, k) / k - cdf))
    return float(max(upper, lower))


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample sup-distance between empirical CDFs."""
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


def save_sample(sample: EdgeSample, csv_path) -> None:
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_max"])
        for v in sample.lambda_max:
            writer.writerow([f"{v:.17g}"])
    sidecar = {
        "n": sample.n,
        "a": sample.a,
        "j": sample.j,
        "potential": sample.potential_label,
        "seed": sample.seed,
        "method": sample.method,
        "acceptance": sample.acceptance,
        "rng": RNG_FAMILY,
        "reps": int(sample.lambda_max.size),
    }
    with open(csv_path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_sample(csv_path) -> EdgeSample:
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as fh:
        meta = json.load(fh)
    vals = []
    with open(csv_path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            vals.append(float(row[0]))
    return EdgeSample(np.array(vals), n=meta["n"], a=meta["a"], j=meta["j"],
                      potential_label=meta["potential"], seed=meta["seed"],
                      method=meta["method"], acceptance=meta.get("acceptance"))
