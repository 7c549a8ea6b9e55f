"""Exact finite-size machinery: orthonormal functions under the varying
weight, the reproducing kernel, the rank-one spike correction, and gap
probabilities as Fredholm determinants.

All functions carry the square root of the weight folded in, so the
three-term recurrence runs on bounded values and inner products are plain
weighted sums on the quadrature grid.  Exponentials of order exp(n*c) are
handled by factoring out the maximal exponent once per spike.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .potential import Potential
from .specialfn import QuadratureRule, gauss_legendre

__all__ = [
    "GridError",
    "OrthoSystem",
    "SpikedKernel",
    "build_ortho",
    "cd_kernel_matrix",
    "choose_halfwidth",
    "gap_probability",
]

log = logging.getLogger(__name__)

MAX_N = 128
_UNDERFLOW_LOG = 330.0 * math.log(10.0)
_NODES_PER_FUNCTION = 16
_MIN_GRID = 512


class GridError(RuntimeError):
    """The quadrature grid fails to contain the relevant mass."""


def choose_halfwidth(V: Potential, n: int, a: float = 0.0) -> float:
    """Smallest half-width L (by doubling) with the weight and the spike
    tilt both underflow-negligible at +-L."""
    L = 2.0
    for _ in range(40):
        ok_weight = 0.5 * n * V.eval(L) > _UNDERFLOW_LOG and 0.5 * n * V.eval(-L) > _UNDERFLOW_LOG
        ok_tilt = n * (a * L - 0.5 * V.eval(L)) < -_UNDERFLOW_LOG / 2.0
        if ok_weight and (a == 0.0 or ok_tilt):
            return L
        L *= 1.5
    raise GridError("could not find a half-width containing the weight")


@dataclass
class OrthoSystem:
    """Orthonormal functions p_i(x) e^{-n V(x)/2} on a Gauss-Legendre grid."""

    V: Potential
    n: int
    count: int
    grid: QuadratureRule
    psi_values: np.ndarray = field(repr=False)       # (count, m_grid)
    recur_a: np.ndarray = field(repr=False)
    recur_b: np.ndarray = field(repr=False)          # b[k] = gamma_{k-1}/gamma_k
    _norm0: float = 0.0

    def orthonormality_defect(self) -> float:
        gram = (self.psi_values * self.grid.weights) @ self.psi_values.T
        return float(np.max(np.abs(gram - np.eye(self.count))))

    def psi_at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all weighted functions at arbitrary points by the recurrence."""
        xs = np.asarray(x, dtype=float)
        out = np.zeros((self.count, xs.size))
        out[0] = np.exp(-0.5 * self.n * self.V.eval(xs)) / self._norm0
        for k in range(self.count - 1):
            v = (xs - self.recur_a[k]) * out[k]
            if k >= 1:
                v = v - self.recur_b[k] * out[k - 1]
            out[k + 1] = v / self.recur_b[k + 1]
        return out


def build_ortho(V: Potential, n: int, count: int, L: float | None = None,
                m_grid: int | None = None, a_hint: float = 0.0) -> OrthoSystem:
    """Stieltjes construction of the weighted orthonormal system.

    The recurrence runs directly on the weighted function values, with a
    double full re-orthogonalization per step; the grid defaults to sixteen
    nodes per function, which keeps the discrete system within rounding of
    the continuum one for all supported sizes.
    """
    if n > MAX_N:
        raise ValueError(f"n capped at {MAX_N} for determinant work")
    if count < 2 or count > n + 4:
        raise ValueError("count must lie in 2..n+4")
    if L is None:
        L = choose_halfwidth(V, n, a_hint)
    if 0.5 * n * min(V.eval(L), V.eval(-L)) <= _UNDERFLOW_LOG:
        raise GridError("weight not negligible at the grid boundary")
    if m_grid is None:
        # both enough nodes per function and enough nodes per unit length;
        # small n forces a wide underflow-safe box that must stay resolved
        m_grid = max(_NODES_PER_FUNCTION * count, _MIN_GRID, int(math.ceil(24.0 * L)))
    if m_grid < 8 * count:
        raise ValueError("grid too coarse: need at least eight nodes per function")
    rule = gauss_legendre(m_grid, -L, L)
    x, w = rule.nodes, rule.weights

    psi = np.zeros((count, m_grid))
    ra = np.zeros(count)
    rb = np.zeros(count + 1)
    base = np.exp(-0.5 * n * V.eval(x))
    norm0 = math.sqrt(float(np.dot(w, base * base)))
    psi[0] = base / norm0
    for k in range(count - 1):
        ra[k] = float(np.dot(w, x * psi[k] * psi[k]))
        v = (x - ra[k]) * psi[k]
        if k >= 1:
            v = v - rb[k] * psi[k - 1]
        # Two re-orthogonalization sweeps; the residual after the first one
        # measures the drift the raw recurrence accumulated.
        drift = 0.0
        for sweep in range(2):
            coef = (w * v) @ psi[:k + 1].T
            if sweep == 0:
                drift = float(np.max(np.abs(coef)))
            v = v - coef @ psi[:k + 1]
        if drift > 1e-8 * max(1.0, float(np.sqrt(np.dot(w, v * v)))):
            raise GridError(f"loss of orthogonality at degree {k + 1}: drift {drift:.2e}")
        b = math.sqrt(float(np.dot(w, v * v)))
        if b <= 0:
            raise GridError(f"degenerate recurrence at degree {k + 1}")
        rb[k + 1] = b
        psi[k + 1] = v / b
    system = OrthoSystem(V=V, n=n, count=count, grid=rule, psi_values=psi,
                         recur_a=ra, recur_b=rb, _norm0=norm0)
    defect = system.orthonormality_defect()
    if defect > 1e-9:
        raise GridError(f"orthonormality defect {defect:.2e} exceeds tolerance")
    return system


def cd_kernel_matrix(ortho: OrthoSystem, j: int, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Reproducing-kernel matrix K(x_p, y_q) of the first n-j functions."""
    nj = ortho.n - j
    px = ortho.psi_at(np.asarray(x, dtype=float))
    py = px if y is None else ortho.psi_at(np.asarray(y, dtype=float))
    return px[:nj].T @ py[:nj]


@dataclass
class SpikedKernel:
    """Rank-one spiked correlation kernel K_{n-j} + psi~ (x) psi_{n-j}(y)."""

    ortho: OrthoSystem
    a: float
    j: int
    log_shift: float = 0.0                       # max over the grid of n(a x - V/2)
    gamma_scaled: np.ndarray = field(default=None, repr=False)  # Gamma_i e^{-shift}
    tilde_psi_values: np.ndarray = field(default=None, repr=False)

    @property
    def Gamma_log(self) -> float:
        """log |Gamma_{n-j}(a)| recombined from the scaled value."""
        return self.log_shift + math.log(abs(float(self.gamma_scaled[self.ortho.n - self.j])))

    def tilt_scaled(self, x: np.ndarray) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        expo = self.ortho.n * (self.a * xs - 0.5 * self.ortho.V.eval(xs))
        return np.exp(expo - self.log_shift)

    def tilde_psi_at(self, x: np.ndarray, px: np.ndarray) -> np.ndarray:
        """Corrected function at x, given ``px = ortho.psi_at(x)``."""
        nj = self.ortho.n - self.j
        if self.a == 0.0:
            return px[nj]
        return (self.tilt_scaled(x) - self.gamma_scaled[:nj] @ px[:nj]) / self.gamma_scaled[nj]

    def kernel_matrix(self, x: np.ndarray) -> np.ndarray:
        nj = self.ortho.n - self.j
        px = self.ortho.psi_at(x)
        return px[:nj].T @ px[:nj] + np.outer(self.tilde_psi_at(x, px), px[nj])


def build_spiked(ortho: OrthoSystem, a: float, j: int = 1) -> SpikedKernel:
    """Assemble the spike data: tilt projections and the corrected function.

    The zero-spike limit degenerates to the unspiked size-(n-j+1) ensemble,
    where the corrected function is the next orthonormal function itself.
    """
    if not 1 <= j <= 4:
        raise ValueError("j must lie in 1..4")
    if a < 0:
        raise ValueError("negative spikes are out of scope")
    n = ortho.n
    nj = n - j
    if nj + 1 > ortho.count:
        raise ValueError("orthonormal system too short for this offset")
    x, w = ortho.grid.nodes, ortho.grid.weights
    if a == 0.0:
        sk = SpikedKernel(ortho=ortho, a=a, j=j, log_shift=0.0,
                          gamma_scaled=np.zeros(nj + 1))
        sk.tilde_psi_values = ortho.psi_values[nj].copy()
        return sk
    half_vp = 0.5 * ortho.V.eval(ortho.grid.interval[1], 1)
    if a >= half_vp:
        raise GridError("spike tilt too strong for the grid half-width")
    expo = n * (a * x - 0.5 * ortho.V.eval(x))
    shift = float(expo.max())
    tilt = np.exp(expo - shift)
    edge_mass = (abs(tilt[0]) + abs(tilt[-1])) * max(w[0], w[-1])
    total_mass = float(np.dot(w, np.abs(tilt)))
    if edge_mass > 1e-10 * total_mass:
        raise GridError("tilted integrand has mass at the grid boundary; enlarge L")
    gamma_scaled = (ortho.psi_values[:nj + 1] * (w * tilt)) @ np.ones_like(w)
    if gamma_scaled[nj] == 0.0:
        raise GridError("degenerate projection of the tilt on the top function")
    sk = SpikedKernel(ortho=ortho, a=a, j=j, log_shift=shift, gamma_scaled=gamma_scaled)
    sk.tilde_psi_values = (tilt - gamma_scaled[:nj] @ ortho.psi_values[:nj]) / gamma_scaled[nj]
    return sk


def gap_probability_raw(sk: SpikedKernel, intervals, m_nodes: int = 160,
                        factored: bool = True) -> float:
    """Unclamped gap determinant over a finite union of intervals.

    Right-unbounded parts are truncated at the grid half-width where the
    weight has underflown.  The factored route evaluates the unspiked
    determinant times the rank-one resolvent correction,
    det(I - M) (1 - <psi_{n-j}, (I - M)^{-1} psi~>), as the determinant of
    I - M bordered by the two functions: one LU factorisation, whose last
    pivot is the correction, and no separate solve (a singular I - M needs
    no special case).  The direct route takes the determinant of the full
    spiked kernel and is kept as a cross-check (the two agree to rounding).
    """
    L = sk.ortho.grid.interval[1]
    segs = []
    for seg in intervals:
        lo = max(float(seg[0]), -L)
        hi = L if not np.isfinite(seg[1]) else min(float(seg[1]), L)
        if hi > lo:
            segs.append((lo, hi))
    if not segs:
        return 1.0
    rules = [gauss_legendre(m_nodes, lo, hi) for lo, hi in segs]
    xs = np.concatenate([r.nodes for r in rules])
    ws = np.concatenate([r.weights for r in rules])
    sw = np.sqrt(ws)
    nj = sk.ortho.n - sk.j
    px = sk.ortho.psi_at(xs)
    K = px[:nj].T @ px[:nj]
    tpsi = sk.tilde_psi_at(xs, px)
    ident = np.eye(xs.size)
    if factored:
        bordered = np.block([[ident - sw[:, None] * K * sw[None, :], (sw * tpsi)[:, None]],
                             [(sw * px[nj])[None, :], np.ones((1, 1))]])
        return float(np.linalg.det(bordered))
    Mt = sw[:, None] * (K + np.outer(tpsi, px[nj])) * sw[None, :]
    return float(np.linalg.det(ident - Mt))


def gap_probability(sk: SpikedKernel, intervals, m_nodes: int = 160,
                    factored: bool = True) -> float:
    """Probability of no eigenvalue in a finite union of intervals."""
    raw = gap_probability_raw(sk, intervals, m_nodes, factored)
    if raw < 0.0 or raw > 1.0:
        log.debug("gap probability %.6e clamped to [0, 1]", raw)
    return min(max(raw, 0.0), 1.0)
