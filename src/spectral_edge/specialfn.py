"""Airy functions, Gaussian CDFs, Gauss-Legendre rules, Fredholm determinants.

The module needs numpy alone; only :func:`gen_gauss_cdf` imports
``scipy.special``, when it is called.  The vectorized kernel evaluator
:func:`airy_ai_pair` reads Ai and Ai' for |x| < 8 from a Taylor table of
y'' = x y (DLMF 9.2.1), anchored every 0.25 from 8 down to -8 and built once.
From |x| = 8 out the recessive asymptotic expansion is accurate to rounding,
and one numpy pass of it is about ten times faster than scipy on the right
tail, where the Nystrom windows and the c_alpha panels put many of their
nodes; left of -8 it is evaluated on the rays e^{+-i pi/3} and combined into
Ai(-x).  Against mpmath the pair is within 4e-14 (Ai) and 3e-13 (Ai') of
max(1, |value|) on [-50, 120]; on (-8, 8) the table is within 1e-15 (Ai)
and 2e-15 (Ai') absolute, and 5e-15 relative for x > 0.

Gauss-Legendre rules come from numpy's ``leggauss``, once per size; at the
package's sizes (at most 480 nodes, ~0.02 s) no rule needs ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule",
    "airy_ai_pair",
    "fredholm_det",
    "gauss_legendre",
    "gen_gauss_cdf",
    "legendre_reference",
    "normal_cdf",
]

ENVELOPE_RADIUS = 50.0

_ASYMPTOTIC_RADIUS = 8.0
# Anchor spacing and terms per anchor of the Taylor table inside the radius.
_STEP = 0.25
_TERMS = 18

_erfc = np.frompyfunc(math.erfc, 1, 1)


class AiryDomainError(ValueError):
    """Argument outside the documented accuracy envelope."""


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


def _horner_pair(c, t):
    # sum_n c[n] t^n and its derivative in t, in one pass from the top term
    p, dp = c[-1], 0.0
    for j in range(len(c) - 2, -1, -1):
        dp = dp * t + p
        p = p * t + c[j]
    return p, dp


@lru_cache(maxsize=1)
def _taylor_table() -> np.ndarray:
    """Taylor coefficients of Ai at the anchors 8 - 0.25 k, k = 0..64: column
    k holds c_0..c_17, where (n+2)(n+1) c_{n+2} = x_k c_n + c_{n-1} from
    y'' = x y.  The anchor at 8 starts from the recessive expansion and each
    next one from the previous polynomial a step to its left, the direction
    in which Ai dominates Bi, so rounding does not grow relative to Ai."""
    ai, aip = (float(v[0]) for v in _asym_pair_vec(np.array([_ASYMPTOTIC_RADIUS])))
    columns = []
    for k in range(int(2 * _ASYMPTOTIC_RADIUS / _STEP) + 1):
        x0 = _ASYMPTOTIC_RADIUS - _STEP * k
        c = [ai, aip]
        for n in range(_TERMS - 2):
            c.append((x0 * c[n] + (c[n - 1] if n else 0.0)) / ((n + 2) * (n + 1)))
        columns.append(c)
        ai, aip = _horner_pair(c, -_STEP)
    table = np.array(columns).T
    table.flags.writeable = False
    return table


def airy_ai_pair(x):
    """Vectorized (Ai, Ai') over real arrays, used by the kernel builders.

    Raises :class:`AiryDomainError` for arguments below -50.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < -ENVELOPE_RADIUS):
        raise AiryDomainError("arguments below the accuracy envelope boundary -50")
    ai = np.zeros(arr.shape)
    aip = np.zeros(arr.shape)

    m = np.abs(arr) < _ASYMPTOTIC_RADIUS
    if np.any(m):
        # each point from its nearest anchor, |x - x_k| <= 0.125
        xm = arr[m]
        k = np.rint((_ASYMPTOTIC_RADIUS - xm) / _STEP).astype(np.intp)
        ai[m], aip[m] = _horner_pair(_taylor_table()[:, k], xm - (_ASYMPTOTIC_RADIUS - _STEP * k))

    m = (arr >= _ASYMPTOTIC_RADIUS) & (arr <= 120.0)
    if np.any(m):
        ai[m], aip[m] = _asym_pair_vec(arr[m])
    # beyond 120 the function underflows; the zeros initialized above stand.

    m = arr <= -_ASYMPTOTIC_RADIUS
    if np.any(m):
        w = (-arr[m]).astype(complex)
        rot = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
        a_p, b_p = _asym_pair_vec(w * rot)
        a_m, b_m = _asym_pair_vec(w * rot.conjugate())
        # Ai(-w) = e^{-i pi/3} Ai(w e^{-i pi/3}) + e^{i pi/3} Ai(w e^{i pi/3});
        # the derivative picks up the opposite phase squared.
        ai[m] = (rot.conjugate() * a_m + rot * a_p).real
        aip[m] = -(rot.conjugate() ** 2 * b_m + rot ** 2 * b_p).real

    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(np.asarray(x).shape), aip.reshape(np.asarray(x).shape)


def normal_cdf(t):
    """Standard normal CDF of a scalar (a float) or an array."""
    # math.erfc point by point: callers pass at most a few hundred points
    out = 0.5 * np.asarray(_erfc(-np.asarray(t, dtype=float) / math.sqrt(2.0)), dtype=float)
    return float(out) if out.ndim == 0 else out


def gen_gauss_cdf(t, k: int):
    """CDF of the density proportional to exp(-x^(2k)) on the real line.

    k = 1 reduces to the normal CDF of sqrt(2)*t (variance-1/2 Gaussian).
    t may be a scalar (the result is a float) or an array.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"order k must be a positive integer, got {k}")
    # the one scipy import of the package, made only when a GenGauss law is read
    from scipy.special import gammaincc

    tv = np.asarray(t, dtype=float)
    # For t < 0 the tail mass is Gamma(1/(2k), t^(2k)) / (2k), and the
    # normalization is Gamma(1/(2k)) / k, so the ratio is a regularized
    # upper incomplete gamma; at t = 0 it is exactly 1/2.
    tail = 0.5 * gammaincc(1.0 / (2.0 * k), np.abs(tv) ** (2 * k))
    out = np.where(tv < 0, tail, 1.0 - tail)
    return float(out) if out.ndim == 0 else out


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
    """``leggauss(m)``: Gauss-Legendre nodes and weights on [-1, 1], built
    once per size and read-only.  Every rule in the package maps these
    arrays onto its own interval."""
    x, w = leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def fredholm_det(M: np.ndarray, left=None, right=None):
    """det(I - M) for a stack of square M (..., m, m); with a column ``left`` and a row
    ``right`` (..., m), det [[I - M, left], [right, 1]] = det(I - M) (1 - right (I - M)^-1 left)
    in one LU, with no solve and so no special case for a singular I - M."""
    if left is not None:
        M = np.pad(M, [(0, 0)] * (M.ndim - 2) + [(0, 1), (0, 1)])
        M[..., :-1, -1], M[..., -1, :-1] = -left, -right
    return np.linalg.det(np.eye(M.shape[-1]) - M)


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
