"""Airy functions, Gaussian-family CDFs and Gauss-Legendre rules.

The Airy evaluator is self-contained double-precision code: a Maclaurin
series near the origin, the recessive asymptotic expansion far out, and
Taylor stepping of the ODE y'' = z*y across the annulus where neither is
accurate enough on its own.  Arguments with |arg z| > 2*pi/3 are reduced
with the three-fold rotation identity, which maps them onto sectors the
primary evaluators cover.  The accuracy envelope is |z| <= 50 with
relative error ~1e-10 on the real interval [-10, 10] (away from zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaincc

__all__ = [
    "QuadratureRule",
    "airy_ai",
    "airy_ai_prime",
    "gauss_legendre",
    "gen_gauss_cdf",
    "legendre_reference",
    "normal_cdf",
]

ENVELOPE_RADIUS = 50.0

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)   # Ai(0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)
_OMEGA = complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))

_SERIES_RADIUS = 2.5
_OFFAXIS_SERIES_RADIUS = 8.0
_ASYMPTOTIC_RADIUS = 8.0
_STEP_SIZE = 1.0
_TAYLOR_TERMS = 30


class AiryDomainError(ValueError):
    """Argument outside the documented accuracy envelope."""


def _ai_series(z: complex) -> tuple[complex, complex]:
    # Ai = Ai(0)*f - (-Ai'(0))*g with f, g the two Maclaurin solutions of
    # y'' = z*y.  Sound for |z| <= ~8; cancellation limits it near the
    # positive real axis, which the caller avoids beyond |z| = 4.5.
    f = 1.0 + 0j
    g = z
    fp = 0.0 + 0j
    gp = 1.0 + 0j
    tf = 1.0 + 0j
    tg = z
    z3 = z * z * z
    for k in range(1, 130):
        tf = tf * z3 / ((3 * k) * (3 * k - 1))
        tg = tg * z3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        if z != 0:
            fp += tf * (3 * k) / z
            gp += tg * (3 * k + 1) / z
        if abs(tf) + abs(tg) < 1e-18 * (abs(f) + abs(g)):
            break
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp if z != 0 else complex(_AIP0)
    return ai, aip


def _ai_asymptotic(z: complex) -> tuple[complex, complex]:
    # Recessive expansion; coefficients by the ratio recurrence
    # u_k = u_{k-1} (6k-1)(6k-5) / (72k), v_k = u_k (6k+1)/(1-6k).
    zeta = (2.0 / 3.0) * z ** 1.5
    s_u = 1.0 + 0j
    s_v = 1.0 + 0j
    term = 1.0 + 0j
    prev = 1.0
    for k in range(1, 44):
        term = term * (-(6 * k - 1) * (6 * k - 5) / (72.0 * k)) / zeta
        if abs(term) > prev:
            break
        prev = abs(term)
        s_u += term
        s_v += term * (6 * k + 1) / (1.0 - 6 * k)
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * z ** 0.25)
    ai = pref * s_u
    aip = -(z ** 0.25) * np.exp(-zeta) / (2.0 * math.sqrt(math.pi)) * s_v
    return ai, aip


def _ai_stepped(z: complex) -> tuple[complex, complex]:
    # Anchor on the same ray at |z| = 8 (asymptotics are ~1e-13 there) and
    # Taylor-step the ODE inward.  Stepping toward smaller |z| is the
    # stable direction for the recessive solution.
    theta = np.angle(z)
    cur = _ASYMPTOTIC_RADIUS * complex(math.cos(theta), math.sin(theta))
    y, yp = _ai_asymptotic(cur)
    nsteps = max(1, int(math.ceil(abs(cur - z) / _STEP_SIZE)))
    h = (z - cur) / nsteps
    powers = np.empty(_TAYLOR_TERMS + 1, dtype=complex)
    for _ in range(nsteps):
        c = np.zeros(_TAYLOR_TERMS + 1, dtype=complex)
        c[0] = y
        c[1] = yp
        for m in range(_TAYLOR_TERMS - 1):
            c[m + 2] = (cur * c[m] + (c[m - 1] if m >= 1 else 0.0)) / ((m + 2) * (m + 1))
        powers[0] = 1.0
        for m in range(1, _TAYLOR_TERMS + 1):
            powers[m] = powers[m - 1] * h
        y = np.dot(c, powers)
        yp = np.dot(c[1:] * np.arange(1, _TAYLOR_TERMS + 1), powers[:-1])
        cur += h
    return y, yp


def _ai_principal(z: complex) -> tuple[complex, complex]:
    # Valid for |arg z| <= 2*pi/3.
    if abs(z) <= _SERIES_RADIUS:
        return _ai_series(z)
    if abs(np.angle(z)) <= math.pi / 3.0 + 1e-14:
        if abs(z) < _ASYMPTOTIC_RADIUS:
            return _ai_stepped(z)
        return _ai_asymptotic(z)
    # Off the recessive sector there is no cancellation, so the series
    # stays accurate up to the asymptotic radius.
    if abs(z) <= _OFFAXIS_SERIES_RADIUS:
        return _ai_series(z)
    return _ai_asymptotic(z)


def _ai_both(z: complex) -> tuple[complex, complex]:
    z = complex(z)
    if abs(z) > ENVELOPE_RADIUS:
        # On the positive real axis the asymptotic expansion only sharpens
        # with |z|, so the envelope does not bind there; the function
        # underflows to an exact zero shortly after z = 100.
        if z.imag == 0.0 and z.real > 0.0:
            return (0.0 + 0j, 0.0 + 0j) if z.real > 120.0 else _ai_asymptotic(z)
        raise AiryDomainError(f"|z| = {abs(z):.3g} exceeds the accuracy envelope {ENVELOPE_RADIUS}")
    if abs(z) <= _SERIES_RADIUS or abs(np.angle(z)) <= 2.0 * math.pi / 3.0:
        return _ai_principal(z)
    # Rotation identity Ai(z) = -w*Ai(w*z) - w^2*Ai(w^2*z), w = e^{2pi i/3}.
    # Both rotated arguments land inside |arg| <= 2*pi/3.
    zp = z * _OMEGA
    zm = z / _OMEGA
    vp, vpd = _ai_principal(zp) if abs(np.angle(zp)) <= 2.0 * math.pi / 3.0 else _ai_asymptotic(zp)
    vm, vmd = _ai_principal(zm) if abs(np.angle(zm)) <= 2.0 * math.pi / 3.0 else _ai_asymptotic(zm)
    ai = -_OMEGA * vp - _OMEGA ** 2 * vm
    aip = -(_OMEGA ** 2) * vpd - _OMEGA ** 4 * vmd
    return ai, aip


def airy_ai(z):
    """Airy function Ai at a real or complex argument.

    Real input returns a float; complex input returns a complex value.
    Raises :class:`AiryDomainError` beyond |z| = 50.
    """
    if np.isscalar(z) and not isinstance(z, complex):
        return _ai_both(complex(z))[0].real
    if isinstance(z, complex):
        return _ai_both(z)[0]
    arr = np.asarray(z)
    if arr.ndim == 0:
        return airy_ai(arr.item())
    out = np.empty(arr.shape, dtype=complex if np.iscomplexobj(arr) else float)
    flat = arr.ravel()
    res = out.ravel()
    for i, v in enumerate(flat):
        res[i] = airy_ai(v.item() if hasattr(v, "item") else v)
    return out


def airy_ai_prime(z):
    """Derivative Ai' with the same domain and dispatch as :func:`airy_ai`."""
    if np.isscalar(z) and not isinstance(z, complex):
        return _ai_both(complex(z))[1].real
    if isinstance(z, complex):
        return _ai_both(z)[1]
    arr = np.asarray(z)
    if arr.ndim == 0:
        return airy_ai_prime(arr.item())
    out = np.empty(arr.shape, dtype=complex if np.iscomplexobj(arr) else float)
    flat = arr.ravel()
    res = out.ravel()
    for i, v in enumerate(flat):
        res[i] = airy_ai_prime(v.item() if hasattr(v, "item") else v)
    return out


def _series_pair_vec(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    f = np.ones_like(x)
    g = x.copy()
    fp_acc = np.zeros_like(x)   # sum of k >= 1 term derivatives, times x
    gp_acc = np.zeros_like(x)
    tf = np.ones_like(x)
    tg = x.copy()
    x3 = x * x * x
    for k in range(1, 100):
        tf = tf * x3 / ((3 * k) * (3 * k - 1))
        tg = tg * x3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        fp_acc += tf * (3 * k)
        gp_acc += tg * (3 * k + 1)
        if np.max(np.abs(tf)) + np.max(np.abs(tg)) < 1e-18:
            break
    safe = np.where(x == 0.0, 1.0, x)
    fp = np.where(x == 0.0, 0.0, fp_acc / safe)
    gp = 1.0 + np.where(x == 0.0, 0.0, gp_acc / safe)
    return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp


def _asym_pair_vec(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Works elementwise on real or complex arrays with |z| >= 8.
    zeta = (2.0 / 3.0) * z ** 1.5
    s_u = np.ones_like(zeta)
    s_v = np.ones_like(zeta)
    term = np.ones_like(zeta)
    for k in range(1, 31):
        term = term * (-(6 * k - 1) * (6 * k - 5) / (72.0 * k)) / zeta
        s_u = s_u + term
        s_v = s_v + term * (6 * k + 1) / (1.0 - 6 * k)
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * z ** 0.25)
    return pref * s_u, -(z ** 0.25) * np.exp(-zeta) / (2.0 * math.sqrt(math.pi)) * s_v


_LADDER_ANCHORS = np.arange(8.0, 2.0, -0.5)


@lru_cache(maxsize=1)
def _ladder_data() -> tuple[np.ndarray, np.ndarray]:
    # Taylor coefficients of the solution at a descending ladder of real
    # anchors from 8 down to 2.5, seeded by the asymptotic expansion; array
    # targets in between are then a single vectorized Taylor evaluation.
    coeffs = np.zeros((_LADDER_ANCHORS.size, _TAYLOR_TERMS + 1))
    for i, anchor in enumerate(_LADDER_ANCHORS):
        y, yp = _ai_stepped(complex(anchor)) if anchor < _ASYMPTOTIC_RADIUS \
            else _ai_asymptotic(complex(anchor))
        c = np.zeros(_TAYLOR_TERMS + 1)
        c[0], c[1] = y.real, yp.real
        for m in range(_TAYLOR_TERMS - 1):
            c[m + 2] = (anchor * c[m] + (c[m - 1] if m >= 1 else 0.0)) / ((m + 2) * (m + 1))
        coeffs[i] = c
    return _LADDER_ANCHORS.copy(), coeffs


def _ladder_pair_vec(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    anchors, coeffs = _ladder_data()
    idx = np.clip(np.round((anchors[0] - x) / 0.5).astype(int), 0, anchors.size - 1)
    dx = x - anchors[idx]
    ai = np.zeros_like(x)
    aip = np.zeros_like(x)
    for m in range(_TAYLOR_TERMS, 0, -1):
        cm = coeffs[idx, m]
        ai = (ai + cm) * dx
        aip = (aip + cm * m) * dx if m > 1 else aip + cm
    ai += coeffs[idx, 0]
    return ai, aip


def airy_ai_pair(x):
    """Vectorized (Ai, Ai') over real arrays, used by the kernel builders.

    Region dispatch mirrors the scalar evaluator except on (-8, -2.5),
    where the plain series (absolute error ~1e-13) replaces ODE stepping;
    kernel tolerances are far above that.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < -ENVELOPE_RADIUS):
        raise AiryDomainError("arguments below the accuracy envelope boundary -50")
    ai = np.zeros(arr.shape)
    aip = np.zeros(arr.shape)

    m = (np.abs(arr) <= _SERIES_RADIUS) | ((arr < -_SERIES_RADIUS) & (arr >= -_ASYMPTOTIC_RADIUS))
    if np.any(m):
        a, b = _series_pair_vec(arr[m])
        ai[m], aip[m] = a, b

    m = (arr >= _ASYMPTOTIC_RADIUS) & (arr <= 120.0)
    if np.any(m):
        a, b = _asym_pair_vec(arr[m])
        ai[m], aip[m] = a, b
    # beyond 120 the function underflows; the zeros initialized above stand.

    m = arr < -_ASYMPTOTIC_RADIUS
    if np.any(m):
        w = (-arr[m]).astype(complex)
        rot = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
        a_p, b_p = _asym_pair_vec(w * rot)
        a_m, b_m = _asym_pair_vec(w * rot.conjugate())
        # Ai(-w) = e^{-i pi/3} Ai(w e^{-i pi/3}) + e^{i pi/3} Ai(w e^{i pi/3});
        # the derivative picks up the opposite phase squared.
        ai[m] = (rot.conjugate() * a_m + rot * a_p).real
        aip[m] = -(rot.conjugate() ** 2 * b_m + rot ** 2 * b_p).real

    m = (arr > _SERIES_RADIUS) & (arr < _ASYMPTOTIC_RADIUS)
    if np.any(m):
        a, b = _ladder_pair_vec(arr[m])
        ai[m], aip[m] = a, b

    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(np.asarray(x).shape), aip.reshape(np.asarray(x).shape)


def normal_cdf(t: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-float(t) / math.sqrt(2.0))


def gen_gauss_cdf(t: float, k: int) -> float:
    """CDF of the density proportional to exp(-x^(2k)) on the real line.

    k = 1 reduces to the normal CDF of sqrt(2)*t (variance-1/2 Gaussian).
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"order k must be a positive integer, got {k}")
    t = float(t)
    if t == 0.0:
        return 0.5
    # For t < 0 the tail mass is Gamma(1/(2k), t^(2k)) / (2k), and the
    # normalization is Gamma(1/(2k)) / k, so the ratio is a regularized
    # upper incomplete gamma.
    tail = 0.5 * gammaincc(1.0 / (2.0 * k), abs(t) ** (2 * k))
    return tail if t < 0 else 1.0 - tail


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integration over a real interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def validate(self, tol: float = 1e-12) -> None:
        lo, hi = self.interval
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - (hi - lo)) > tol * max(1.0, abs(hi - lo)):
            raise ValueError("quadrature weights do not sum to the interval length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if self.nodes[0] <= lo or self.nodes[-1] >= hi:
            raise ValueError("quadrature nodes must lie strictly inside the interval")

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


@lru_cache(maxsize=64)
def legendre_reference(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size.

    The build is O(m^3), most of the cost of a large rule; every rule in the
    package maps these read-only arrays onto its own interval.
    """
    x, w = leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(m: int, lo: float, hi: float) -> QuadratureRule:
    """Gauss-Legendre rule with m nodes on (lo, hi); exact to degree 2m-1."""
    if m < 2:
        raise ValueError(f"need at least 2 nodes, got {m}")
    if not lo < hi:
        raise ValueError(f"invalid interval ({lo}, {hi})")
    x, w = legendre_reference(m)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rule = QuadratureRule(nodes=mid + half * x, weights=half * w, interval=(lo, hi))
    rule.validate()
    return rule
