"""Independent reference values for the phase diagram and the law descriptors.

The library finds the critical spike strength by bisecting a yes/no test
built on ~3400-point scans of a 480-node log-potential, and it finds
secondary critical values on a 60-point grid.  The references here take a
different route.  Right of the upper edge e the derivatives of the tilted
functions are closed forms in the density prefactor h,

    q(x)  = h(x) sqrt((x - b0)(x - e)),
    G'(x) = a - (V'(x) + q(x)) / 2,        H'(x) = a - (V'(x) - q(x)) / 2,

and G(e) = H(e), so G and H are integrals of closed forms from the edge
(substituting x = e + s^2 removes the square-root singularity).  From them:

* ``phi(a) = max_{x > c(a)} G(x; a) - H(c(a); a)`` is continuous and
  increasing, and a_c is its root (Brent, xtol 1e-13), or V'(e)/2 when phi
  stays negative up to there (convex type);
* x0(a) is the global maximizer of G on a 12k-point grid, polished by Brent
  on the closed-form G';
* a secondary critical value is where the global maximizer switches
  between two local maxima; it is the root of G(x_B(a)) - G(x_A(a)), whose
  derivative x_B - x_A keeps one sign.

Only the support and h come from the library; the GUE closed forms check
those (support [-2, 2], h = 1, beta = 1).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import cumulative_simpson, quad
from scipy.optimize import brentq

P = np.polynomial.Polynomial
_GRID = 12001
_JUMP = 0.25          # the library's jump threshold for the maximizer location


class PhaseReference:
    """Closed-form G/H landscape right of the edge for one equilibrium measure."""

    def __init__(self, eq, a_max: float):
        self.eq = eq
        self.b0, self.e = eq.b0, eq.a1
        self.h = P(eq.h_coeffs)
        self.hp = self.h.deriv()
        self.V = P(eq.V.coefficients)
        self.Vp = self.V.deriv()
        self.Vpp = self.V.deriv(2)
        self.half = 0.5 * float(self.Vp(self.e))
        # Right end: G' = a - w < 0 beyond it for every a <= a_max.
        X = self.e + 1.0
        while self.w(X) < a_max + 1.0 or np.any(self.w_prime(np.linspace(X, 2 * X, 64)) <= 0):
            X = self.e + 1.5 * (X - self.e)
        s = np.linspace(0.0, math.sqrt(X - self.e), _GRID)
        x = self.e + s * s
        dq = self.h(x) * np.sqrt(x - self.b0) * s * 2.0 * s
        Q = cumulative_simpson(dq, x=s, initial=0.0)
        self.x = x
        self.dx = x - self.e
        self.Wg = 0.5 * (self.V(x) - self.V(self.e) + Q)   # a*dx - Wg = G - G(e)

    # -- closed forms ------------------------------------------------------

    def q(self, x):
        return self.h(x) * np.sqrt(np.maximum((x - self.b0) * (x - self.e), 0.0))

    def w(self, x):
        """V' - g': the slope that the tilt a has to beat for G to rise."""
        return 0.5 * (self.Vp(x) + self.q(x))

    def u(self, x):
        """g', strictly decreasing right of the edge."""
        return 0.5 * (self.Vp(x) - self.q(x))

    def w_prime(self, x):
        """V'' - g'' = -G'', the curvature that sets the Gaussian scale."""
        S = np.sqrt((x - self.b0) * (x - self.e))
        dS = (2.0 * x - self.b0 - self.e) / (2.0 * S)
        return 0.5 * (self.Vpp(x) + self.hp(x) * S + self.h(x) * dS)

    def Q(self, x: float) -> float:
        if x <= self.e:
            return 0.0
        f = lambda s: float(self.h(self.e + s * s)) * math.sqrt(self.e + s * s - self.b0) * 2.0 * s * s
        with warnings.catch_warnings():
            # the integrand is smooth; quad only flags that 1e-14 is at rounding level
            warnings.simplefilter("ignore")
            val, _ = quad(f, 0.0, math.sqrt(x - self.e), epsabs=1e-14, epsrel=1e-13, limit=400)
        return val

    def G(self, x: float, a: float) -> float:
        return a * (x - self.e) - 0.5 * (float(self.V(x)) - float(self.V(self.e)) + self.Q(x))

    def H(self, x: float, a: float) -> float:
        return a * (x - self.e) - 0.5 * (float(self.V(x)) - float(self.V(self.e)) - self.Q(x))

    def c_of(self, a: float) -> float:
        """H minimizer: g'(c) = a below V'(e)/2, the edge above."""
        if a >= self.half:
            return self.e
        hi = self.e + 1.0
        while self.u(hi) > a:
            hi = self.e + 2.0 * (hi - self.e)
        return brentq(lambda t: float(self.u(t)) - a, self.e, hi, xtol=1e-15, rtol=1e-15)

    # -- maxima of G ---------------------------------------------------------

    def _polish(self, a: float, lo: float, mid: float, hi: float) -> float:
        f = lambda t: a - float(self.w(t))
        flo, fhi = f(lo), f(hi)
        if flo > 0 > fhi:
            return brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)
        return mid

    def local_maxima(self, a: float, lo: float) -> list[tuple[float, float]]:
        """Interior local maxima (x, G) of G(.; a) right of ``lo``."""
        sel = self.x > lo
        xs = self.x[sel]
        gs = a * self.dx[sel] - self.Wg[sel]
        out = []
        idx = np.nonzero((gs[1:-1] > gs[:-2]) & (gs[1:-1] >= gs[2:]))[0] + 1
        for i in idx:
            x = self._polish(a, xs[i - 1], xs[i], xs[i + 1])
            out.append((x, self.G(x, a)))
        return out

    def x0(self, a: float) -> float:
        maxima = self.local_maxima(a, self.c_of(a))
        if not maxima:
            raise ValueError(f"no interior maximizer of G at a={a}")
        return max(maxima, key=lambda m: m[1])[0]

    def phi(self, a: float) -> float:
        c = self.c_of(a)
        maxima = self.local_maxima(a, c)
        if not maxima:
            return -self.Q(c)      # G(c) - H(c)
        return max(g for _, g in maxima) - self.H(c, a)

    def critical_a(self) -> float:
        top = self.half * (1.0 - 1e-9)
        if self.phi(top) <= 0.0:
            return self.half
        lo = 0.5 * self.half
        while self.phi(lo) > 0.0:
            lo *= 0.5
        return brentq(self.phi, lo, top, xtol=1e-13, rtol=1e-15)

    def secondary_criticals(self, a_lo: float, a_hi: float, grid: int = 400):
        """(a*, x_A, x_B) for each switch of the global maximizer in [a_lo, a_hi]."""
        out = []
        prev = None
        for a in np.linspace(a_lo, a_hi, grid):
            c = self.c_of(a)
            sel = self.x > c
            gs = a * self.dx[sel] - self.Wg[sel]
            x_best = float(self.x[sel][int(np.argmax(gs))])
            if prev is not None and abs(x_best - prev[1]) > _JUMP:
                out.append(self._locate_switch(prev[0], a, prev[1], x_best))
            prev = (a, x_best)
        return out

    def _near(self, a: float, x_ref: float) -> float:
        maxima = self.local_maxima(a, self.c_of(a))
        return min(maxima, key=lambda m: abs(m[0] - x_ref))[0]

    def _locate_switch(self, a_lo: float, a_hi: float, xa: float, xb: float):
        def delta(a):
            return self.G(self._near(a, xb), a) - self.G(self._near(a, xa), a)
        a_star = brentq(delta, a_lo, a_hi, xtol=1e-13, rtol=1e-15)
        return a_star, self._near(a_star, xa), self._near(a_star, xb)


def gue_closed_forms(a: float) -> dict:
    """Semicircle on [-2, 2], beta = 1, a_c = 1; outlier at a + 1/a with
    scale^2 = a^2 / (a^2 - 1) for a > 1."""
    out = {"b0": -2.0, "a1": 2.0, "beta": 1.0, "a_c": 1.0}
    if a > 1.0:
        out["x0"] = a + 1.0 / a
        out["scale"] = math.sqrt(a * a / (a * a - 1.0))
    return out


def density_mass(eq) -> float:
    """Total mass of h(x) sqrt((x-b0)(a1-x)) / 2pi over the cut (must be 1)."""
    h = P(eq.h_coeffs)
    mid, rad = 0.5 * (eq.b0 + eq.a1), 0.5 * (eq.a1 - eq.b0)
    f = lambda th: float(h(mid + rad * math.cos(th))) * (rad * math.sin(th)) ** 2 / (2.0 * math.pi)
    val, _ = quad(f, 0.0, math.pi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val
