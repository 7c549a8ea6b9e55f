"""Spike phase structure: comparison functions, critical values, maximizers.

Two tilted potentials drive everything: G = g - V + a*x, whose maxima mark
where an outlier eigenvalue can sit, and H = -g + a*x + ell, whose minimum
over [e, infinity) marks the entropy cost of detaching from the bulk.  The
critical spike strength is the infimum of a at which some G value beats the
H minimum; secondary critical values are the strengths where the global
maximizer of G jumps between locations.

Right of the edge e, G' = a - W with W = V' - g', g' = (V' - h sqrt((x - b0)(x - e))) / 2.
There g'' < 0, so W' = V'' - g'' > 0 wherever V'' >= 0: every extremum of W
lies in (e, r], r the largest real root of V''.  W rises from W(e) = V'(e)/2
to its first maximum, from each minimum to the next maximum and from its last
minimum on.  These rising runs, and the phase diagram (a_c and every switch
above it), are found once per equilibrium and kept on it.  Every 1-D search
is one ``brentq`` on a known sign change:
* c(a) is the root of g' - a, which falls strictly from V'(e)/2 at the edge.
* A local maximum of G is where W crosses the level a upward, so each rising
  run holds at most one: the root of W - a on the run, clipped to the scan
  window from the float after c(a) to the certified tail.
* a_c is the root of phi(a) - 1e-12, phi = sup_{x >= c} G(x) - H(c): phi is
  continuous and increasing (phi' = x0 - c), so [a_lo, V'(e)/2] brackets it,
  and a_c = V'(e)/2 (convex type) when phi stays below the margin up to there.
* A switch of the global maximizer is a tie between the maxima x_i(a) < x_j(a)
  of two runs i < j, at a tilt both runs cross: a root of
  D(a) = G(x_j(a)) - G(x_i(a)).  G' vanishes at both, so D' = x_j - x_i > 0:
  each pair of runs has at most one switch, and one run (every convex V) none.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .equilibrium import EquilibriumData
from .potential import derivative_or_zero

__all__ = [
    "G_fn",
    "H_fn",
    "PhaseDiagram",
    "Scan",
    "c_of_a",
    "convex_type",
    "critical_a",
    "fluct_scale",
    "in_A_V",
    "maximizer_set",
    "phase_diagram",
    "scan",
    "scan_upper_bound",
    "secondary_criticals",
    "switch_band",
    "x0_of",
]

TIE_TOL = 1e-9
_C_MAX_OFFSET = 1e6
_FLAT_TOL = 1e-6
_DETACH_TOL = 1e-12     # phi must beat this for detachment to count
_ROOT_TOL = 1e-15       # brentq xtol for every root
_A_LO = 1e-4            # default lower bracket of the a_c search


def c_of_a(eq: EquilibriumData, a: float) -> float:
    """Location of the H minimum: the g' level set for subcritical tilts, else the edge."""
    if a <= 0:
        raise ValueError("spike strength must be positive")
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    if a >= half_vp:
        return eq.a1
    hi = eq.a1 + 1.0
    while eq.g_deriv(hi, 1) > a:
        hi = eq.a1 + 2.0 * (hi - eq.a1)
        if hi - eq.a1 > _C_MAX_OFFSET:
            raise OverflowError("tilt too weak: H minimum beyond the search horizon")
    # g' is continuous at the edge, where it equals V'(e)/2 > a
    return brentq(lambda x: (eq.g_deriv(x, 1) if x > eq.a1 else half_vp) - a,
                  eq.a1, hi, xtol=_ROOT_TOL)


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
    x_lo = max([eq.a1 + 1.0] + [r + 1.0 for r in eq.V.vpp_real_roots])
    X = x_lo
    for _ in range(80):
        if eq.V.eval(X, 1) > a + 1.0 / (X - eq.a1) + 1e-9:
            return X
        X = eq.a1 + 2.0 * (X - eq.a1)
    raise OverflowError("could not certify a decreasing tail for G")


def _w(eq: EquilibriumData, x: float) -> float:
    # W = V' - g', continuous at the edge, where it equals V'(e)/2
    return eq.V.eval(x, 1) - eq.g_deriv(x, 1) if x > eq.a1 else 0.5 * eq.V.eval(eq.a1, 1)


def _rising_runs(eq: EquilibriumData) -> tuple:
    """The rising runs of W as (x_lo, x_hi, W(x_lo), W(x_hi)) in increasing x,
    kept on eq.  The extrema of W are the sign changes of W' on a grid of
    (e, r], refined by brentq; W' -> +infinity at the edge, so log-spaced
    points hug it.  With no real root of V'' right of e there is no grid."""
    if eq._runs is None:
        roots = [r for r in eq.V.vpp_real_roots if r > eq.a1]
        x_ext = []
        if roots:
            lo, hi = eq.a1, max(roots)
            xs = lo + np.logspace(-9, math.log10(hi - lo), 400)
            xs = np.unique(np.concatenate([xs, np.linspace(lo, hi, 4000)[1:]]))

            def dW(x):
                return eq.V.eval(x, 2) - eq.g_deriv(x, 2)

            d = dW(xs)
            turns = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
            x_ext = [brentq(dW, xs[i], xs[i + 1], xtol=_ROOT_TOL) for i in turns]
        # W' > 0 at both ends, so the extrema alternate maximum, minimum, ...
        ends = [eq.a1] + x_ext + [math.inf]
        levels = [_w(eq, x) for x in ends[:-1]] + [math.inf]
        eq._runs = tuple(zip(ends[::2], ends[1::2], levels[::2], levels[1::2]))
    return eq._runs


def _crossing(eq: EquilibriumData, a: float, lo: float, hi: float) -> float:
    # where W, rising on [lo, hi] with W(lo) <= a <= W(hi), takes the level a;
    # at a run end whose kept level is a, W - a is exactly 0 and brentq returns it
    return brentq(lambda x: _w(eq, x) - a, lo, hi, xtol=_ROOT_TOL)


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
    """c(a), H(c(a)) and every local maximum of G from c(a) to the certified tail.

    Each rising run of W, clipped to [next float after c(a),
    ``scan_upper_bound``], holds at most one: where G' = a - W falls through 0.
    A run that starts at c(a) itself (the edge, for a above V'(e)/2) and
    already has W >= a at the float after it crosses a within one float of
    c(a); that maximum is reported at the float after c(a).
    """
    c = c_of_a(eq, a)
    lo, hi = math.nextafter(c, math.inf), scan_upper_bound(eq, a)
    x_max = []
    for run_lo, run_hi, w_lo, w_hi in _rising_runs(eq):
        x_lo, x_hi = max(run_lo, lo), min(run_hi, hi)
        if not (w_lo < a < w_hi and x_lo < x_hi and a <= _w(eq, x_hi)):
            continue
        if _w(eq, x_lo) < a:
            x_max.append(_crossing(eq, a, x_lo, x_hi))
        elif run_lo == c:
            x_max.append(x_lo)
    maxima = tuple(zip(x_max, G_fn(eq, a, np.array(x_max)).tolist()))
    return Scan(c, H_fn(eq, a, c), maxima)


def _phi(eq: EquilibriumData, a: float, s: Scan) -> float:
    """sup over x >= c(a) of G(x; a), less H(c(a); a), from the scan of a."""
    return max([G_fn(eq, a, s.c)] + [v for _, v in s.maxima]) - s.h_c


def in_A_V(eq: EquilibriumData, a: float) -> bool:
    """Whether some G value right of the H minimum beats the H minimum."""
    return _phi(eq, a, scan(eq, a)) > _DETACH_TOL


def critical_a(eq: EquilibriumData, a_lo: float = _A_LO) -> float:
    """Infimum spike strength at which detachment wins: the root of phi - 1e-12.

    With the default lower bracket the value is computed once per
    equilibrium and kept on it.
    """
    if a_lo == _A_LO and eq._a_c is not None:
        return eq._a_c
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    seen = {}

    def excess(a):
        # brentq evaluates the two bracket ends again; each tilt is scanned once
        if a not in seen:
            seen[a] = _phi(eq, a, scan(eq, a)) - _DETACH_TOL
        return seen[a]

    if excess(a_lo) > 0:
        raise ValueError("a_lo too large: detachment already favourable at the lower bracket")
    if excess(half_vp) <= 0:
        # Convex-type potential: the critical value is the edge slope itself.
        a_c = half_vp
    else:
        a_c = brentq(excess, a_lo, half_vp, xtol=_ROOT_TOL)
    if a_lo == _A_LO:
        eq._a_c = a_c
    return a_c


def convex_type(eq: EquilibriumData, a_c: float) -> bool:
    """Whether a_c is the edge slope V'(e)/2 (to 1e-6 relative): no detached
    maximizer of G beats the bulk below it."""
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    return abs(a_c - half_vp) <= 1e-6 * max(1.0, half_vp)


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


def maximizer_set(eq: EquilibriumData, a: float, tie_tol: float = TIE_TOL,
                  s: Scan | None = None):
    """Global maximizers of G right of the H minimum with their flatness orders.

    ``s`` is the scan of (eq, a) when the caller already has it.
    """
    if s is None:
        s = scan(eq, a)
    gmax = s.best()[1]
    winners = sorted(x for x, v in s.maxima if v >= gmax - tie_tol)
    return [(x, _flatness_order(eq, a, x)) for x in winners]


def x0_of(eq: EquilibriumData, a: float) -> float:
    """Location of the global maximum of G right of the H minimum."""
    return scan(eq, a).best()[0]


def _overlaps(runs: tuple, floor: float = -math.inf) -> list:
    """(run i, run j, lo, hi) for each pair of runs i < j crossing every level
    in (lo, hi), lo >= floor."""
    pairs = [(r, t, max(r[2], t[2], floor), min(r[3], t[3])) for i, r in enumerate(runs)
             for t in runs[i + 1:]]
    return [p for p in pairs if p[2] < p[3]]


def switch_band(eq: EquilibriumData) -> tuple[float, float] | None:
    """Smallest interval of tilts a holding every a at which G has two local
    maxima right of the edge, or None when G never has two: each rising run
    of W holds at most one, so the band is the hull of the levels two cross."""
    spans = [(lo, hi) for _, _, lo, hi in _overlaps(_rising_runs(eq))]
    return (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else None


@dataclass(frozen=True)
class PhaseDiagram:
    """Phase data of one equilibrium: the critical value a_c and every switch
    of the global maximizer of G above it as (a*, scan at a*), in increasing
    a*."""

    a_c: float
    switches: tuple


def phase_diagram(eq: EquilibriumData) -> PhaseDiagram:
    """The phase diagram of eq, computed on first use and kept on eq."""
    if eq._diagram is None:
        a_c = critical_a(eq)
        eq._diagram = PhaseDiagram(a_c, tuple(_switches(eq, a_c + 1e-6)))
    return eq._diagram


def _switches(eq: EquilibriumData, a_lo: float) -> list[tuple[float, Scan]]:
    """(a*, scan at a*) for each switch of the global maximizer above a_lo.

    A pair of runs i < j switches at the root of the increasing
    D(a) = G(x_j(a)) - G(x_i(a)) on the levels both cross; the root counts
    when the two maxima are the global ones there.
    """
    out = []
    for r_i, r_j, lo, hi in _overlaps(_rising_runs(eq), a_lo):
        def gap(a):
            # W > a past the certified tail, which bounds the last run
            tail = scan_upper_bound(eq, a)
            x_i, x_j = (_crossing(eq, a, r[0], min(r[1], tail)) for r in (r_i, r_j))
            return G_fn(eq, a, x_j) - G_fn(eq, a, x_i)

        if not gap(lo) < 0 < gap(hi):
            continue
        a_star = brentq(gap, lo, hi, xtol=_ROOT_TOL)
        s = scan(eq, a_star)
        if len(maximizer_set(eq, a_star, tie_tol=1e-6, s=s)) == 2:
            out.append((a_star, s))
    return sorted(out, key=lambda t: t[0])


def secondary_criticals(eq: EquilibriumData, a_lo: float, a_hi: float) -> list[float]:
    """Spike strengths in [a_lo, a_hi], above a_c, where the global maximizer
    of G switches; read from the phase diagram of eq."""
    return [a for a, _ in phase_diagram(eq).switches if a_lo <= a <= a_hi]


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

