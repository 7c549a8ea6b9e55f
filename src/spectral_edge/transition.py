"""Spike phase structure: comparison functions, critical values, maximizers.

Two tilted potentials drive everything: G = g - V + a*x, whose maxima mark
where an outlier eigenvalue can sit, and H = -g + a*x + ell, whose minimum
over [e, infinity) marks the entropy cost of detaching from the bulk.  The
critical spike strength is the infimum of a at which some G value beats the
H minimum; secondary critical values are the strengths where the global
maximizer of G jumps between locations.

Every 1-D search is one ``brentq`` on a closed form with a known sign change;
right of the edge e, g' = (V' - h sqrt((x - b0)(x - e))) / 2:
* c(a) is the root of g' - a, which falls strictly from V'(e)/2 at the edge.
* Each local maximum of G is a root of G' = g' - V' + a at a +/- sign change.
* a_c is the root of phi(a) - 1e-12, phi = sup_{x >= c} G(x) - H(c): phi is
  continuous and increasing (phi' = x0 - c), so [a_lo, V'(e)/2] brackets it,
  and a_c = V'(e)/2 (convex type) when phi stays below the margin up to there.
* A secondary value is a root of G(x_B(a)) - G(x_A(a)) for branches x_A < x_B
  of local maxima (slope x_B - x_A > 0).  Branches only move right
  (dx_k/da = 1/(-G'') > 0) and x0(a) is nondecreasing, so on a grid cell
  (a_i, a_{i+1}] the leader x_A is the first maximum right of x0(a_i) and the
  challenger x_B the last maximum left of x0(a_{i+1}).

Switches need two local maxima of G, which exist only for tilts in the band
of ``switch_band``: G' = a - W with W = V' - g', and every extremum of W lies
between the edge and the largest real root of V''.  A potential without a
band (every convex V) has no switch and is never scanned for one.  The
phase diagram (a_c and every switch above it, searched on the band) is
computed once per equilibrium and kept on it; ``secondary_criticals`` and
``predict_law`` read it.
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
    # H minimum; the first point is the float next to c(a).
    xs = np.linspace(lo, hi, 3000)
    near = lo + np.logspace(-9, math.log10(max(hi - lo, 1e-8)), 400)
    xs = np.unique(np.concatenate([[np.nextafter(c, np.inf)], xs, near[near < hi]]))
    d = dG(xs)
    falls = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0))
    x_max = np.array([brentq(dG, xs[i], xs[i + 1], xtol=_ROOT_TOL) for i in falls])
    # The decreasing-tail certificate keeps every maximum inside the window.
    maxima = tuple(zip(x_max.tolist(), G_fn(eq, a, x_max).tolist()))
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


def switch_band(eq: EquilibriumData) -> tuple[float, float] | None:
    """Smallest interval of tilts a holding every a at which G has two local
    maxima right of the edge, or None when G never has two.

    G' = a - W with W = V' - g', so the local maxima of G are where W crosses
    the level a upward.  Right of the edge g'' < 0, so W increases wherever
    V'' >= 0 and every local extremum of W lies in (e, r], r the largest
    real root of V''.  W rises from W(e) = V'(e)/2 to its first maximum,
    from each minimum to the next maximum, and from its last minimum on; a
    level crossed upward twice lies in two of these rising runs.  The
    extrema are the sign changes of W' = V'' - g'' on a fine grid of (e, r],
    each refined by brentq.
    """
    roots = [r for r in eq.V.vpp_real_roots if r > eq.a1]
    if not roots:
        return None
    lo, hi = eq.a1, max(roots)
    # W' -> +infinity at the edge (g'' has an inverse square-root
    # singularity), so log-spaced points hug the left end
    xs = lo + np.logspace(-9, math.log10(hi - lo), 400)
    xs = np.unique(np.concatenate([xs, np.linspace(lo, hi, 4000)[1:]]))

    def dW(x):
        return eq.V.eval(x, 2) - eq.g_deriv(x, 2)

    d = dW(xs)
    turns = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    x_ext = [brentq(dW, xs[i], xs[i + 1], xtol=_ROOT_TOL) for i in turns]
    # W' > 0 at both ends, so the extrema alternate maximum, minimum, ...
    ends = ([0.5 * eq.V.eval(eq.a1, 1)] + [eq.V.eval(x, 1) - eq.g_deriv(x, 1) for x in x_ext]
            + [math.inf])
    runs = list(zip(ends[::2], ends[1::2]))
    overlaps = [(max(r[0], t[0]), min(r[1], t[1])) for i, r in enumerate(runs)
                for t in runs[i + 1:]]
    overlaps = [(a, b) for a, b in overlaps if a < b]
    if not overlaps:
        return None
    return min(a for a, _ in overlaps), max(b for _, b in overlaps)


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
        band = switch_band(eq)
        # no switch outside the band: only its part above a_c is searched
        switches = () if band is None else tuple(_switches(eq, max(band[0], a_c + 1e-6), band[1]))
        eq._diagram = PhaseDiagram(a_c, switches)
    return eq._diagram


def _switches(eq: EquilibriumData, a_lo: float, a_hi: float) -> list[tuple[float, Scan]]:
    """(a*, scan at a*) for each switch of the global maximizer in [a_lo, a_hi].

    A cell of a 60-point grid holds a switch when its right leader is not the
    first maximum right of its left leader; x_A and x_B (module docstring) are
    taken to live across the cell.  Every tilt is scanned once.
    """
    if not a_hi > a_lo:
        return []
    avals = np.linspace(a_lo, a_hi, 60).tolist()
    scans = [scan(eq, a) for a in avals]
    out = []
    for i in range(len(avals) - 1):
        x_lo, x_hi = scans[i].best()[0], scans[i + 1].best()[0]
        if next(x for x, _ in scans[i + 1].maxima if x >= x_lo) == x_hi:
            continue
        seen = {avals[i]: scans[i], avals[i + 1]: scans[i + 1]}

        def gap(a):
            if a not in seen:
                seen[a] = scan(eq, a)
            window = [v for x, v in seen[a].maxima if x_lo <= x <= x_hi]
            return window[-1] - window[0]

        a_star = brentq(gap, avals[i], avals[i + 1], xtol=_ROOT_TOL)
        out.append((a_star, seen[a_star]))
    return out


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

