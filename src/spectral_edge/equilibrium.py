"""One-cut equilibrium measure: support, density, log-potential, edge data.

The support endpoints solve the two moment conditions obtained by dividing
V' by the square root of the cut polynomial; the density prefactor h is the
polynomial part of that division.  Candidate roots of the endpoint system
are accepted only if the density is positive on the cut and the effective
potential is strictly negative outside, which filters out the spurious
branches the system also admits; where it touches zero to rounding the
potential is not regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyder

from .potential import Potential, horner
from .specialfn import legendre_reference

__all__ = [
    "EquilibriumData",
    "NotOneCutError",
    "NotRegularError",
    "density_psi",
    "edge_beta",
    "solve_support",
]

_THETA_NODES = 480
_ENDPOINT_TOL = 1e-13
_GRID_POINTS = 2001
_LOG_BLOCK = 256        # rows of the log|x - s| matrix held at once (~1 MB)
_REGULAR_TOL = 1e-11    # |2g - V - ell| counted as zero; eynard(3,0) reads -8.3e-14


class NotOneCutError(RuntimeError):
    """No admissible one-cut equilibrium measure was found."""


class NotRegularError(NotOneCutError):
    """The effective potential touches zero off the cut to rounding."""


def _chebyshev_moments(V: Potential, b0: float, a1: float, M: int = 96) -> tuple[float, float]:
    # (1/2pi) integral of V'(s)/sqrt((s-b0)(a1-s)) and s V'(s)/sqrt(...) over the cut,
    # exact for polynomials via midpoint rule in the angle variable.
    th = (np.arange(M) + 0.5) * np.pi / M
    s = 0.5 * (b0 + a1) + 0.5 * (a1 - b0) * np.cos(th)
    vp = V.eval(s, 1)
    return float(np.sum(vp) / (2.0 * M)), float(np.sum(s * vp) / (2.0 * M))


def _endpoint_residual(V: Potential, b0: float, a1: float) -> np.ndarray:
    t1, t2 = _chebyshev_moments(V, b0, a1)
    return np.array([t1, t2 - 1.0])


def _newton(V: Potential, b0: float, a1: float) -> tuple[np.ndarray, bool]:
    x = np.array([b0, a1], dtype=float)
    for _ in range(120):
        F = _endpoint_residual(V, *x)
        if np.max(np.abs(F)) < _ENDPOINT_TOL:
            return x, True
        J = np.empty((2, 2))
        h = 1e-7
        for jcol in range(2):
            xp = x.copy()
            xp[jcol] += h
            J[:, jcol] = (_endpoint_residual(V, *xp) - F) / h
        try:
            dx = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return x, False
        step = 1.0
        moved = False
        while step > 1e-9:
            xn = x + step * dx
            if xn[0] < xn[1] - 1e-9 and np.max(np.abs(_endpoint_residual(V, *xn))) <= np.max(np.abs(F)):
                moved = True
                break
            step *= 0.5
        if not moved:
            return x, False
        x = x + step * dx
    return x, bool(np.max(np.abs(_endpoint_residual(V, *x))) < 1e-11)


def _h_coefficients(V: Potential, b0: float, a1: float) -> np.ndarray:
    # Polynomial part of V'(z) / sqrt((z-b0)(z-a1)) expanded at infinity.
    d = V.degree
    vp = V.deriv_coefficients(1)
    K = d + 2
    def half_binomial(alpha: float) -> np.ndarray:
        out = np.zeros(K)
        out[0] = 1.0
        for k in range(1, K):
            out[k] = out[k - 1] * alpha * (2 * k - 1) / (2 * k)
        return out
    series = np.convolve(half_binomial(b0), half_binomial(a1))[:K]
    hm = np.zeros(max(d - 1, 1))
    for m in range(d - 1):
        for k in range(K):
            if m + 1 + k < len(vp):
                hm[m] += vp[m + 1 + k] * series[k]
    return hm


@dataclass
class EquilibriumData:
    """One-cut equilibrium measure of a potential and its derived constants."""

    V: Potential
    b0: float
    a1: float
    h_coeffs: np.ndarray
    ell: float = 0.0
    beta: float = 0.0
    _theta_w: np.ndarray = field(default=None, repr=False)
    _s: np.ndarray = field(default=None, repr=False)
    _dens: np.ndarray = field(default=None, repr=False)
    _h: tuple = field(default=None, repr=False)
    _h_prime: tuple = field(default=None, repr=False)
    # phase data of this equilibrium (the rising runs of V' - g', a_c and the
    # phase diagram), filled in once by ``transition`` and dropped with the
    # instance
    _runs: tuple = field(default=None, repr=False)
    _a_c: float = field(default=None, repr=False)
    _diagram: object = field(default=None, repr=False)

    def __post_init__(self):
        # coefficient tuples of h and h' for ``horner``, built once
        self._h = tuple(np.asarray(self.h_coeffs, dtype=float).tolist())
        self._h_prime = tuple(polyder(self._h).tolist())
        t, w = legendre_reference(_THETA_NODES)
        th = 0.5 * np.pi * (t + 1.0)
        self._theta_w = 0.5 * np.pi * w
        mid = 0.5 * (self.b0 + self.a1)
        rad = 0.5 * (self.a1 - self.b0)
        self._s = mid + rad * np.cos(th)
        hvals = horner(self._h, self._s)
        # density times the Jacobian of s = mid + rad*cos(theta): the two
        # square roots combine into (rad*sin(theta))^2.
        self._dens = hvals * (rad * np.sin(th)) ** 2 / (2.0 * np.pi)
        self.ell = 2.0 * self._g0(self.a1) - self.V.eval(self.a1)
        self.beta = edge_beta(self)

    # -- log-potential and its derivatives ---------------------------------

    def _g0(self, z: float) -> float:
        return float(np.dot(self._theta_w, np.log(np.abs(z - self._s)) * self._dens))

    def log_potential(self, x):
        """g(x) = integral of log|x - s| against the density, for x off the cut.

        Vectorized form of the scalar rule: a log|x - s| matrix against the
        480 quadrature nodes, contracted with the weighted density.  Rows are
        taken in blocks of ``_LOG_BLOCK`` points so that a scan grid never
        holds the whole matrix.  Accurate at the endpoints and outside the
        support; inside the cut the integrand is singular.
        """
        xv = np.asarray(x, dtype=float)
        flat = xv.ravel()
        weights = self._theta_w * self._dens
        vals = np.empty(flat.size)
        for i in range(0, flat.size, _LOG_BLOCK):
            logs = np.subtract.outer(flat[i:i + _LOG_BLOCK], self._s)
            np.abs(logs, out=logs)
            np.log(logs, out=logs)
            vals[i:i + _LOG_BLOCK] = logs @ weights
        return float(vals[0]) if xv.ndim == 0 else vals.reshape(xv.shape)

    def g_deriv(self, z, m: int):
        """m-th derivative (m >= 1) of the log-potential at a point or array z > a1.

        For m = 1 and 2 a Python float z is evaluated in Python floats, with
        the same operations as the array route.
        """
        scalar = isinstance(z, (float, int))
        zv = float(z) if scalar else np.asarray(z, dtype=float)
        if zv <= self.a1 if scalar else np.any(zv <= self.a1):
            raise ValueError("derivatives are only evaluated right of the support")
        if m > 2:
            terms = self._dens / np.subtract.outer(zv, self._s) ** m
            out = (-1.0) ** (m - 1) * math.factorial(m - 1) * (terms @ self._theta_w)
            return float(out) if np.ndim(zv) == 0 else out
        S = (math.sqrt if scalar else np.sqrt)((zv - self.b0) * (zv - self.a1))
        if m == 1:
            out = 0.5 * (self.V.eval(zv, 1) - horner(self._h, zv) * S)
        else:
            Rp = 2.0 * zv - self.b0 - self.a1
            out = 0.5 * (self.V.eval(zv, 2) - horner(self._h_prime, zv) * S
                         - horner(self._h, zv) * Rp / (2.0 * S))
        return out if scalar or zv.ndim else float(out)


def _off_cut_peaks(eq: EquilibriumData) -> tuple[np.ndarray, np.ndarray]:
    """Real roots x of h off the cut and the effective potential 2g - V - ell there.

    Off the cut d/dx (2g - V - ell) = -+h sqrt((x-b0)(x-a1)), so it peaks only
    at real roots of h; real parts also catch a double root split by rounding.
    """
    xs = np.polynomial.Polynomial(eq.h_coeffs).roots().real
    xs = xs[(xs < eq.b0) | (xs > eq.a1)]
    return xs, 2.0 * eq.log_potential(xs) - eq.V.eval(xs) - eq.ell


def solve_support(V: Potential, seeds=None) -> EquilibriumData:
    """Solve the one-cut endpoint system and validate the resulting measure.

    Multi-start damped Newton: the heuristic scale seed first, then user
    seeds, then a coarse symmetric scan.  A converged root is accepted only
    when the density is positive on the cut and the effective potential
    2g - V - ell stays strictly below zero outside it; a root where it comes
    within rounding of zero raises ``NotRegularError``.
    """
    scale = float(np.sum(np.abs(V.coefficients))) ** (-1.0 / V.degree)
    candidates: list[tuple[float, float]] = [(-2.0 * scale, 2.0 * scale)]
    if seeds:
        candidates.extend(seeds)
    for m in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
        candidates.append((-m, m))
    for m in (1.0, 2.0, 3.0):
        candidates.append((-m, 2.0 * m))
        candidates.append((-2.0 * m, m))

    failures = []
    seen: list[np.ndarray] = []
    for seed in candidates:
        root, ok = _newton(V, *seed)
        if not ok:
            continue
        if any(np.max(np.abs(root - r)) < 1e-8 for r in seen):
            continue
        seen.append(root)
        b0, a1 = float(root[0]), float(root[1])
        h = _h_coefficients(V, b0, a1)
        grid = np.linspace(b0, a1, _GRID_POINTS)
        hvals = horner(h, grid)
        if hvals[len(hvals) // 2] < 0:
            # Sign pinned by positivity at the midpoint of the support.
            h = -h
            hvals = -hvals
        if hvals.min() <= 0:
            failures.append((b0, a1, "density not positive on the cut"))
            continue
        try:
            eq = EquilibriumData(V=V, b0=b0, a1=a1, h_coeffs=h)
        except NotOneCutError as exc:
            failures.append((b0, a1, str(exc)))
            continue
        xs, vals = _off_cut_peaks(eq)
        margin = vals.max(initial=-np.inf)
        if margin > _REGULAR_TOL:
            failures.append((b0, a1, f"outside inequality violated by {margin:.3e}"))
            continue
        if margin >= -_REGULAR_TOL:
            raise NotRegularError(
                f"potential is not regular: the margin 2g - V - ell = {margin:.3e} at x = "
                f"{xs[vals.argmax()]:.6g} is within the rounding bound {_REGULAR_TOL:g} of zero")
        return eq
    detail = "; ".join(f"({b:.4f},{a:.4f}): {msg}" for b, a, msg in failures) or "no converged root"
    raise NotOneCutError(f"no admissible one-cut measure: {detail}")


def density_psi(eq: EquilibriumData, x) -> float:
    """Equilibrium density h(x) sqrt((x-b0)(a1-x)) / (2 pi) inside the cut."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv < eq.b0) or np.any(xv > eq.a1):
        raise ValueError("density evaluated outside the support")
    val = horner(eq._h, xv) * np.sqrt(np.maximum((xv - eq.b0) * (eq.a1 - xv), 0.0)) / (2.0 * np.pi)
    return float(val) if np.isscalar(x) else val


def edge_beta(eq: EquilibriumData) -> float:
    """Edge constant: (h(a1)/2)^(2/3) (a1-b0)^(1/3), positive for a regular edge."""
    h_edge = horner(eq._h, float(eq.a1))
    if h_edge <= 0:
        raise NotOneCutError("prefactor vanishes at the upper edge; edge is not regular")
    return (0.5 * h_edge) ** (2.0 / 3.0) * (eq.a1 - eq.b0) ** (1.0 / 3.0)


def to_json(eq: EquilibriumData) -> dict:
    return {
        "b0": eq.b0,
        "a1": eq.a1,
        "ell": eq.ell,
        "beta": eq.beta,
        "h_coeffs": [float(c) for c in eq.h_coeffs],
        "potential": eq.V.to_json(),
    }
