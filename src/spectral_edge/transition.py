"""Spike phase structure: comparison functions, critical values, maximizers.

Two tilted potentials drive everything: G = g - V + a*x, whose maxima mark
where an outlier eigenvalue can sit, and H = -g + a*x + ell, whose minimum
over [e, infinity) marks the entropy cost of detaching from the bulk.  The
critical spike strength is the infimum of a at which some G value beats the
H minimum; secondary critical values are the strengths where the global
maximizer of G jumps between locations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .equilibrium import EquilibriumData
from .potential import derivative_or_zero

__all__ = [
    "G_fn",
    "H_fn",
    "Scan",
    "TransitionProfile",
    "build_profile",
    "c_of_a",
    "critical_a",
    "fluct_scale",
    "in_A_V",
    "maximizer_set",
    "scan",
    "scan_upper_bound",
    "secondary_criticals",
    "x0_of",
]

TIE_TOL = 1e-9
_C_MAX_OFFSET = 1e6
_FLAT_TOL = 1e-6


def c_of_a(eq: EquilibriumData, a: float) -> float:
    """Location of the H minimum: the g' level set for subcritical tilts, else the edge."""
    if a <= 0:
        raise ValueError("spike strength must be positive")
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    if a >= half_vp:
        return eq.a1
    lo = eq.a1 * (1.0 + 1e-15) + 1e-300
    hi = eq.a1 + 1.0
    while eq.g_deriv(hi, 1) > a:
        hi = eq.a1 + 2.0 * (hi - eq.a1)
        if hi - eq.a1 > _C_MAX_OFFSET:
            raise OverflowError("tilt too weak: H minimum beyond the search horizon")
    # g' is strictly decreasing right of the edge, so bisection is safe.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eq.g_deriv(mid, 1) > a:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def G_fn(eq: EquilibriumData, a: float, x) -> float:
    """Tilted log-potential g - V + a*x for x >= the upper edge."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv < eq.a1 - 1e-12):
        raise ValueError("G is defined on [edge, infinity)")
    out = eq.log_potential(xv) - eq.V.eval(xv) + a * xv
    return float(out) if np.isscalar(x) else out


def H_fn(eq: EquilibriumData, a: float, x) -> float:
    """Linear tilt minus log-potential plus the variational constant, x >= edge."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv < eq.a1 - 1e-12):
        raise ValueError("H is defined on [edge, infinity)")
    out = -eq.log_potential(xv) + a * xv + eq.ell
    return float(out) if np.isscalar(x) else out


def scan_upper_bound(eq: EquilibriumData, a: float) -> float:
    """Certified point beyond which G is strictly decreasing.

    Right of the last stationary point of V', the derivative V' increases
    while the field bound g'(x) <= 1/(x - a1) decreases, so once
    V'(X) > a + 1/(X - a1) the tilted potential can only fall.
    """
    vpp_roots = np.polynomial.Polynomial(eq.V.deriv_coefficients(2)).roots()
    real_roots = [r.real for r in vpp_roots if abs(r.imag) < 1e-9]
    x_lo = max([eq.a1 + 1.0] + [r + 1.0 for r in real_roots])
    X = x_lo
    for _ in range(80):
        if eq.V.eval(X, 1) > a + 1.0 / (X - eq.a1) + 1e-9:
            return X
        X = eq.a1 + 2.0 * (X - eq.a1)
    raise OverflowError("could not certify a decreasing tail for G")


@dataclass(frozen=True)
class Scan:
    """The G landscape at one tilt: c(a), H(c(a)) and the local maxima of G
    right of c(a) as (x, G(x)) pairs in increasing x."""

    c: float
    h_c: float
    maxima: tuple

    def best(self) -> tuple[float, float]:
        """The global maximum (x, G(x))."""
        if not self.maxima:
            raise ValueError("no interior maximizer of G found")
        return max(self.maxima, key=lambda t: t[1])


def scan(eq: EquilibriumData, a: float) -> Scan:
    """c(a), H(c(a)) and every local maximum of G from c(a) to the certified tail."""
    c = c_of_a(eq, a)
    lo, hi = c + 1e-9, scan_upper_bound(eq, a)

    def dG(x):
        return eq.g_deriv(x, 1) - eq.V.eval(x, 1) + a

    # Linear grid over the scan window plus log-spaced points hugging the
    # left end, where near-critical maximizers sit arbitrarily close to the
    # H minimum.
    xs = np.linspace(lo, hi, 3000)
    near = lo + np.logspace(-9, math.log10(max(hi - lo, 1e-8)), 400)
    xs = np.unique(np.concatenate([xs, near[near < hi]]))
    gs = G_fn(eq, a, xs)
    maxima = []
    first = 1
    edge_plus = np.nextafter(eq.a1, np.inf)
    if c == eq.a1 and dG(edge_plus) > 0 and dG(xs[1]) < 0:
        # G rises off the edge (G'(e+) = a - V'(e)/2 > 0) but already falls
        # at the first interior grid point: the maximizer lies closer to the
        # edge than the grid resolves, so take it as the root of G'.
        x = brentq(dG, edge_plus, xs[1], xtol=1e-300)
        maxima.append((x, G_fn(eq, a, x)))
        first = 2
    for i in range(first, xs.size - 1):
        if gs[i] > gs[i - 1] and gs[i] >= gs[i + 1]:
            res = minimize_scalar(
                lambda t: -G_fn(eq, a, t),
                bracket=(xs[i - 1], xs[i], xs[i + 1]),
                options={"xtol": 1e-12},
            )
            x = float(res.x)
            # Brent localizes a smooth maximum only to sqrt(eps); polish with
            # Newton on the exact first derivative.
            for _ in range(3):
                g2 = eq.g_deriv(x, 2) - eq.V.eval(x, 2)
                if g2 >= 0:
                    break
                step = dG(x) / g2
                if not math.isfinite(step) or abs(step) > 0.5 * (hi - lo):
                    break
                x -= step
            if not (lo < x < hi):
                x = float(res.x)
            maxima.append((x, G_fn(eq, a, x)))
    # Boundary maxima at the right scan edge would signal a horizon
    # problem; the decreasing-tail certificate prevents them.
    return Scan(c, H_fn(eq, a, c), tuple(maxima))


def in_A_V(eq: EquilibriumData, a: float) -> bool:
    """Whether some G value right of the H minimum beats the H minimum."""
    s = scan(eq, a)
    return bool(s.maxima) and s.best()[1] > s.h_c + 1e-12


def critical_a(eq: EquilibriumData, a_lo: float = 1e-4, tol: float = 1e-8) -> float:
    """Infimum spike strength at which detachment wins, by bisection."""
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    if in_A_V(eq, a_lo):
        raise ValueError("a_lo too large: detachment already favourable at the lower bracket")
    lo, hi = a_lo, half_vp
    if not in_A_V(eq, hi):
        # Convex-type potential: the critical value is the edge slope itself.
        return half_vp
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if in_A_V(eq, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _flatness_order(eq: EquilibriumData, a: float, x: float) -> int:
    # Smallest k with a strictly negative derivative of order 2k, lower
    # derivatives (2..2k-1) vanishing within tolerance; order 1 excluded by
    # stationarity.  Orders beyond 6 are rejected.
    for k in (1, 2, 3):
        d_even = eq.g_deriv(x, 2 * k) - derivative_or_zero(eq.V, x, 2 * k)
        if d_even < -_FLAT_TOL:
            return k
        if abs(d_even) > _FLAT_TOL:
            raise ValueError(f"positive even derivative of order {2 * k} at a maximizer")
        d_odd = eq.g_deriv(x, 2 * k + 1) - derivative_or_zero(eq.V, x, 2 * k + 1)
        if abs(d_odd) > _FLAT_TOL:
            raise ValueError(f"non-vanishing odd derivative of order {2 * k + 1} at a flat maximizer")
    raise ValueError("flatness order exceeds the supported range k <= 3")


def maximizer_set(eq: EquilibriumData, a: float, tie_tol: float = TIE_TOL):
    """Global maximizers of G right of the H minimum with their flatness orders."""
    s = scan(eq, a)
    gmax = s.best()[1]
    winners = sorted(x for x, v in s.maxima if v >= gmax - tie_tol)
    return [(x, _flatness_order(eq, a, x)) for x in winners]


def x0_of(eq: EquilibriumData, a: float) -> float:
    """Location of the global maximum of G right of the H minimum."""
    return scan(eq, a).best()[0]


def secondary_criticals(eq: EquilibriumData, a_lo: float, a_hi: float,
                        grid: int = 60, tol: float = 1e-8) -> list[float]:
    """Spike strengths where the global maximizer jumps, located by bisection."""
    if not a_hi > a_lo:
        return []
    avals = np.linspace(a_lo, a_hi, grid)
    xs = [x0_of(eq, a) for a in avals]
    jumps = []
    for i in range(len(avals) - 1):
        gap_scale = 10.0 * (avals[i + 1] - avals[i]) * max(1.0, abs(xs[i]))
        if xs[i + 1] - xs[i] > max(0.25, gap_scale):
            lo, hi = avals[i], avals[i + 1]
            x_lo = xs[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if x0_of(eq, mid) - x_lo > 0.25:
                    hi = mid
                else:
                    lo = mid
            jumps.append(0.5 * (lo + hi))
    return jumps


def fluct_scale(eq: EquilibriumData, a: float, x_star: float, k: int = 1) -> float:
    """n-free fluctuation scale factor at a maximizer of flatness order k."""
    if k == 1:
        curv = eq.V.eval(x_star, 2) - eq.g_deriv(x_star, 2)
        if curv <= 0:
            raise ValueError("non-positive curvature at the maximizer")
        return math.sqrt(curv)
    d = derivative_or_zero(eq.V, x_star, 2 * k) - eq.g_deriv(x_star, 2 * k)
    if d <= 0:
        raise ValueError("non-positive flat-order derivative at the maximizer")
    return (d / math.factorial(2 * k)) ** (1.0 / (2 * k))


@dataclass(frozen=True)
class TransitionProfile:
    """Phase diagnosis of a (potential, spike strength) pair."""

    eq: EquilibriumData
    a: float
    a_c: float
    half_vp_edge: float
    c_a: float
    G_max: float
    maximizers: tuple
    regime: str

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "a_c": self.a_c,
            "half_vp_edge": self.half_vp_edge,
            "c_a": self.c_a,
            "G_max": self.G_max,
            "maximizers": [[x, k] for x, k in self.maximizers],
            "regime": self.regime,
        }


def build_profile(eq: EquilibriumData, a: float, a_c: float | None = None,
                  crit_tol: float = 1e-7) -> TransitionProfile:
    """Classify the regime of a spike strength and collect the maximizer data."""
    if a_c is None:
        a_c = critical_a(eq)
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    c = c_of_a(eq, a)
    convex_type = abs(a_c - half_vp) <= 1e-6 * max(1.0, half_vp)

    if a < a_c - crit_tol:
        return TransitionProfile(eq, a, a_c, half_vp, c, float("nan"), (), "subcritical")

    if abs(a - a_c) <= crit_tol and convex_type:
        # Degenerate identification x0 = edge unless an interior tie
        # survives at criticality, which is the transit case.
        g_edge = G_fn(eq, a_c, eq.a1)
        try:
            maxima = maximizer_set(eq, a)
        except ValueError:
            maxima = []
        interior = [m for m in maxima if m[0] > eq.a1 + 1e-6]
        if interior and abs(G_fn(eq, a, interior[0][0]) - g_edge) <= 1e-6:
            return TransitionProfile(eq, a, a_c, half_vp, c,
                                     G_fn(eq, a, interior[0][0]), tuple(interior),
                                     "transit-critical")
        return TransitionProfile(eq, a, a_c, half_vp, c, g_edge, ((eq.a1, 1),), "critical")

    maxima = maximizer_set(eq, a)
    g_max = G_fn(eq, a, maxima[0][0])

    if abs(a - a_c) <= crit_tol:
        return TransitionProfile(eq, a, a_c, half_vp, c, g_max, tuple(maxima), "critical")

    if len(maxima) > 1:
        return TransitionProfile(eq, a, a_c, half_vp, c, g_max, tuple(maxima), "secondary-critical")
    return TransitionProfile(eq, a, a_c, half_vp, c, g_max, tuple(maxima), "supercritical-generic")


def comparison_csv(eq: EquilibriumData, a_values, path, x_max_offset: float = 6.0, num: int = 400) -> None:
    """Table of (x, G(x;a), H(x;a)) columns for each requested tilt."""
    xs = np.linspace(eq.a1, eq.a1 + x_max_offset, num)
    cols = {}
    for a in a_values:
        cols[a] = (G_fn(eq, a, xs), H_fn(eq, a, xs))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x"]
        for a in a_values:
            header += [f"G(a={a:g})", f"H(a={a:g})"]
        writer.writerow(header)
        for i, x in enumerate(xs):
            row = [f"{x:.17g}"]
            for a in a_values:
                row += [f"{cols[a][0][i]:.17g}", f"{cols[a][1][i]:.17g}"]
            writer.writerow(row)


def profile_json(profile: TransitionProfile, path) -> None:
    with open(path, "w") as fh:
        json.dump(profile.to_json(), fh, indent=2)
