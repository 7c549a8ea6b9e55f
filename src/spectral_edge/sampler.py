"""Monte Carlo verification: direct sampling of the Gaussian spiked model
through its tridiagonal form, Metropolis-within-Gibbs sampling of the
general-potential rank-one model, and empirical distance to predicted laws.

The joint eigenvalue density of the rank-one model factors into the squared
Vandermonde, the confinement weight, and a divided difference of the
exponential tilt over the eigenvalues.  The divided difference is the
integral of exp(n a sum q_i lambda_i) over the weights q_i = |U_1i|^2 of the
first basis vector on the eigenvectors, which are flat-Dirichlet on the
simplex (the rank-one HCIZ identity).  The chain samples (lambda, q) jointly
from the integrand: a single-site eigenvalue move costs O(n) and a move on
a pair of weights at fixed sum is an exact draw from its truncated
exponential conditional, so a sweep costs O(n^2) and never forms the
divided difference.  ``dd_exp_log`` and ``log_density_rank1`` evaluate the
marginal density directly, as an oracle for the chain.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .potential import Potential

__all__ = [
    "EdgeSample",
    "McmcConfig",
    "dd_exp_log",
    "ks_distance",
    "ks_two_sample",
    "load_sample",
    "log_density_rank1",
    "mcmc_sample",
    "sample_gaussian_spiked",
    "save_sample",
    "truncated_exp_draw",
]

RNG_FAMILY = "philox"
MCMC_MAX_N = 64         # each Metropolis sweep costs O(n^2)
# One Metropolis sweep: LAMBDA_PASSES passes of single-site eigenvalue moves
# over every site, then PAIR_PASSES random pairings of the spike weights.
LAMBDA_PASSES = 2
PAIR_PASSES = 4
# Eigenvalues closer than this are a zero of the density: such a proposal
# is rejected.
TIE_GAP = 1e-12


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
        self.lambda_max = arr
        if self.method == "mcmc" and self.acceptance is not None:
            if not 0.1 <= self.acceptance <= 0.9:
                raise ValueError(f"acceptance rate {self.acceptance:.3f} outside [0.1, 0.9]")


def sample_gaussian_spiked(n: int, a: float, reps: int, seed: int = 0) -> EdgeSample:
    """Largest eigenvalues of the Gaussian model with a rank-one shift.

    The matrix is H + a e11 with H Hermitian, diagonal variance 1/n and
    off-diagonal mean-square 1/n, matching the confinement weight with the
    quadratic potential whose bulk fills [-2, 2].

    Each draw is the beta = 2 Hermite tridiagonal model (Dumitriu-Edelman):
    Householder reduction started from e1 keeps e1 fixed, so H + a e11 has
    the spectrum of the real symmetric tridiagonal T + a e11 with diagonal
    N(0, 1/n) and off-diagonal chi_{2k} / sqrt(2n), k = n-1, ..., 1.  Only
    the top eigenvalue of T is computed, by Sturm-count bisection at O(n)
    work per step, against O(n^3) for diagonalising the dense matrix.
    """
    if n > 2000:
        raise ValueError("n capped at 2000 for direct sampling")
    if reps * n > 10 ** 6 * 8:
        raise ValueError("requested sample volume too large")
    rng = _rng(seed)
    out = np.empty(reps)
    dof = 2.0 * np.arange(n - 1, 0, -1)
    top = (n - 1, n - 1)
    batch = max(1, 2 ** 20 // n)
    for start in range(0, reps, batch):
        b = min(batch, reps - start)
        diag = rng.normal(size=(b, n)) / math.sqrt(n)
        diag[:, 0] += a
        off = np.sqrt(rng.chisquare(dof, size=(b, n - 1)) / (2.0 * n))
        for i in range(b):
            out[start + i] = eigvalsh_tridiagonal(diag[i], off[i], select="i", select_range=top,
                                                  check_finite=False)[0]
    return EdgeSample(out, n=n, a=a, j=1, potential_label="gue", seed=seed, method="direct-gaussian")


def dd_exp_log(lams: np.ndarray, c: float) -> float:
    """log of the divided difference of exp(c*x) over the nodes.

    Corner entry of the exponential of the bidiagonal matrix with c*(node -
    max) on the diagonal and c on the superdiagonal, by Taylor plus
    scaling-and-squaring.  The diagonal is <= 0 but the off-diagonal part is
    nonnegative, and the scaled matrix has norm <= 2, so any cancellation is
    confined to the bounded Taylor phase; the squarings act on exp(A), whose
    entries are all nonnegative.  The max-node shift is restored additively.
    """
    lams = np.asarray(lams, dtype=float)
    nn = lams.size
    if nn == 1:
        return c * float(lams[0])
    mx = float(lams.max())
    B = np.diag(c * (lams - mx)) + np.diag(np.full(nn - 1, c), 1)
    norm = float(np.abs(B).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(norm))) - 1) if norm > 1 else 0
    A = B / (2.0 ** s)
    X = np.eye(nn)
    term = np.eye(nn)
    for k in range(1, 18):
        term = term @ A / k
        X = X + term
    for _ in range(s):
        X = X @ X
    corner = float(X[0, -1])
    if corner <= 0 or not math.isfinite(corner):
        raise FloatingPointError("divided difference lost positivity")
    return c * mx + math.log(corner)


def log_density_rank1(lams: np.ndarray, V: Potential, n: int, a: float) -> float:
    """Unnormalized log density of the eigenvalues of the rank-one model.

    Repulsion + confinement + the rank-one tilt factor; with no spike the
    tilt drops and the density is the pure confined log-gas.
    """
    lams = np.sort(np.asarray(lams, dtype=float))
    nn = lams.size
    # the density is symmetric, so work with the sorted values and cascade a
    # minimal separation through any (near-)ties
    for i in range(1, nn):
        if lams[i] - lams[i - 1] < 1e-12:
            lams[i] = lams[i - 1] + 1e-12
    diffs = lams[:, None] - lams[None, :]
    iu = np.triu_indices(nn, 1)
    rep = 2.0 * float(np.sum(np.log(np.abs(diffs[iu]))))
    conf = -n * float(np.sum(V.eval(lams)))
    if a == 0.0:
        return rep + conf
    val = rep + conf + dd_exp_log(lams, n * a)
    if not math.isfinite(val):
        raise FloatingPointError("non-finite log density")
    return val


@dataclass(frozen=True)
class McmcConfig:
    steps: int = 4000
    burn_in: int = 800
    thinning: int = 2
    proposal_scale: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.burn_in >= self.steps:
            raise ValueError("burn-in must be shorter than the chain")
        if self.proposal_scale <= 0:
            raise ValueError("proposal scale must be positive")
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


def mcmc_sample(V: Potential, n: int, a: float, cfg: McmcConfig) -> EdgeSample:
    """Metropolis-within-Gibbs over the eigenvalues and the spike weights.

    The target is the squared Vandermonde times exp(-n sum V(lambda_i) +
    n a sum q_i lambda_i) with q flat on the simplex; its lambda marginal is
    the rank-one eigenvalue density.  A sweep runs ``LAMBDA_PASSES`` passes
    of single-site Gaussian moves of the eigenvalues, each accepted on the
    O(n) change of the log density, then (when a != 0) ``PAIR_PASSES``
    random pairings of the weights, each pair redrawn from its exact
    conditional at fixed sum (``truncated_exp_draw``).

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
    # log|lambda_i - lambda_j|, with zeros on the diagonal
    logs = np.log(np.abs(np.subtract.outer(lams, lams)) + np.eye(n))
    v_lams = V.eval(lams)
    half = n // 2
    scale = cfg.proposal_scale
    kept = []
    window_acc = window_prop = 0
    accepted_after = proposed_after = 0
    for sweep in range(cfg.steps):
        adapt = sweep < cfg.burn_in
        accepted = 0
        for _ in range(LAMBDA_PASSES):
            # A site keeps its value until its own move, so the confinement
            # and tilt terms of the whole pass are computed up front; only
            # the repulsion row depends on the moves made before it.
            props = lams + scale * rng.normal(size=n)
            v_props = V.eval(props)
            local = n * (v_lams - v_props) + na * q * (props - lams)
            thresholds = np.log(rng.uniform(size=n)) - local
            for i, (x, thr) in enumerate(zip(props.tolist(), thresholds.tolist())):
                dist = np.abs(lams - x)
                dist[i] = 1.0
                row = np.log(dist)
                if (2.0 * np.add.reduce(row - logs[i]) > thr
                        and np.minimum.reduce(dist) >= TIE_GAP):
                    lams[i] = x
                    v_lams[i] = v_props[i]
                    logs[i] = row
                    logs[:, i] = row
                    accepted += 1
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


def ks_distance(sample: EdgeSample, law, m: int = 40, cdf_grid: int = 200) -> float:
    """Sup distance between the empirical CDF of the draws and the law's CDF.

    For large samples the law CDF is evaluated on a dense grid spanning the
    draws and interpolated linearly; the interpolation error of the smooth
    CDF is orders of magnitude below the distances being tested.
    """
    lam = np.sort(sample.lambda_max)
    k = lam.size
    if k > 2 * cdf_grid:
        lo, hi = lam[0], lam[-1]
        pad = 1e-9 * max(1.0, abs(hi - lo))
        grid = np.linspace(lo - pad, hi + pad, cdf_grid)
        cdf_on_grid = law.cdf_lambda(grid, sample.n, m)
        cdf = np.interp(lam, grid, cdf_on_grid)
    else:
        cdf = np.atleast_1d(law.cdf_lambda(lam, sample.n, m))
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
