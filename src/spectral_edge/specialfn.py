"""Airy functions, Gaussian CDFs, Gauss-Legendre rules, Fredholm determinants.

Airy values come from ``scipy.special.airy``.  The vectorized kernel
evaluator :func:`airy_ai_pair` uses it for |x| < 8 only.  From |x| = 8 out
the recessive asymptotic expansion is accurate to rounding, and one numpy
pass of it is about ten times faster than scipy on the right tail, where
the Nystrom windows and the c_alpha panels put many of their nodes; left
of -8 it is evaluated on the rays e^{+-i pi/3} and combined into Ai(-x).
Against mpmath the pair is within 4e-14 (Ai) and 3e-13 (Ai') of
max(1, |value|) on [-50, 120].

Gauss-Legendre rules come from numpy's ``leggauss``, once per size; at the
package's sizes (at most 480 nodes, ~0.02 s) no rule needs ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import airy, erfc, gammaincc

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
        ai[m], aip[m], _, _ = airy(arr[m])

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
    out = 0.5 * erfc(-np.asarray(t, dtype=float) / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def gen_gauss_cdf(t, k: int):
    """CDF of the density proportional to exp(-x^(2k)) on the real line.

    k = 1 reduces to the normal CDF of sqrt(2)*t (variance-1/2 Gaussian).
    t may be a scalar (the result is a float) or an array.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"order k must be a positive integer, got {k}")
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
