"""Exact finite-size machinery: orthonormal functions under the varying
weight, the reproducing kernel, the rank-one spike correction, and gap
probabilities as Fredholm determinants.

One three-term recurrence, run on psi_k = u_k e^s with s = -n V/2 - log norm0
and |u| moved into s past 1e100 (Bunck, BIT 2009), is both the Stieltjes
build and ``psi_at``.  The build's one check is the string equations of the
weight e^{-n V}, n [V'(J)]_{k,k-1} = k / b_k and [V'(J)]_{kk} = 0 (Freud
1976; Magnus 1995); its Gauss-Legendre panels double until they hold.  The
spike's exponentials are scaled by their maximum once per spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potential import Potential, horner
from .specialfn import QuadratureRule, fredholm_det, gauss_legendre, legendre_reference

__all__ = [
    "GridError",
    "OrthoSystem",
    "SpikedKernel",
    "build_ortho",
    "choose_halfwidth",
    "gap_probability_raw",
]

MAX_N = 128
_UNDERFLOW_LOG = 330.0 * math.log(10.0)
_PANEL = 16             # Gauss-Legendre nodes per panel of the orthonormal build's grid
_DOUBLINGS = 5          # grid doublings before the string equations count as unresolved
_STRING_TOL = 1e-12     # relative residual of the string equations
_RESCALE = 1e100        # a bound on |u| past this moves u into s
_NEGLIGIBLE = 1e-150    # a gap node whose values all lie below this is zeroed
_GAP_NODES = 160        # Gauss-Legendre nodes per interval of a gap determinant


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


def _recurrence(V: Potential, n: int, log_norm0: float, x, ra, rb, w=None):
    """The first len(ra) functions at the points x as rows u and an exponent
    s, psi_k = u_k e^s, from u_0 = 1.  With quadrature weights w, a_k and
    b_{k+1} come from the rows into the lists ra and rb (Stieltjes); without,
    they are read.  A bound on max |u| grows by (max|x| + |a_k| + b_k) / b_{k+1}
    per step; past 1e100 every row is divided by f = max(1, |u_{k-1}|, |u_k|)
    pointwise and log f is added to s."""
    u = np.empty((len(ra), x.size))
    u[0] = 1.0
    s = -0.5 * n * V.eval(x) - log_norm0
    rows, reach, bound = list(u), float(np.abs(x).max(initial=0.0)), 1.0
    wu = None if w is None else w * np.exp(2.0 * s)     # sum w psi_i psi_j = sum wu u_i u_j
    for k, row in enumerate(rows):
        if bound > _RESCALE:
            f = np.maximum(1.0, np.abs(u[max(k - 1, 0):k + 1]).max(axis=0))
            u[:k + 1] /= f
            s += np.log(f)
            bound, wu = 1.0, None if w is None else w * np.exp(2.0 * s)
        if wu is not None:
            ra[k] = float(np.dot(wu * x, row * row))
        if k == len(rows) - 1:
            return u, s
        v = (x - ra[k]) * row
        if k:
            v -= rb[k] * rows[k - 1]
        if wu is not None:
            rb[k + 1] = math.sqrt(float(np.dot(wu, v * v)))
            if not rb[k + 1] > 0.0:
                raise GridError(f"degenerate recurrence at degree {k + 1}")
        np.divide(v, rb[k + 1], out=rows[k + 1])
        bound *= max(1.0, (reach + abs(ra[k]) + rb[k]) / rb[k + 1])


def _string_residual(V: Potential, n: int, ra, rb, rows: int) -> float:
    """max over k < rows of |n b_k [V'(J)]_{k,k-1} / k - 1| and
    |[V'(J)]_{kk}| / |V'|(||J||_inf), |V'| with V''s coefficients in modulus."""
    J = np.diag(ra) + np.diag(rb[1:], 1) + np.diag(rb[1:], -1)
    dv = V.deriv_coefficients(1)
    D = np.zeros_like(J)
    for c in dv[::-1]:
        D = D @ J
        D.flat[::len(J) + 1] += c
    k = np.arange(1, rows)
    off = np.abs(n * np.asarray(rb)[k] * D[k, k - 1] / k - 1.0)
    diag = np.abs(np.diag(D)[:rows]) / horner(np.abs(dv), float(np.abs(J).sum(axis=1).max()))
    return float(max(off.max(initial=0.0), diag.max(initial=0.0)))


@dataclass
class OrthoSystem:
    """psi_i = p_i e^{-n V/2} / norm0, i < count, by the Jacobi matrix (diagonal
    ``recur_a``, ``recur_b[k]`` = J_{k,k-1}), the build's grid and its residual."""

    V: Potential
    n: int
    count: int
    grid: QuadratureRule
    recur_a: np.ndarray = field(repr=False)
    recur_b: np.ndarray = field(repr=False)
    log_norm0: float
    string_residual: float

    def scaled_at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows u, shape (count, x.size), and s with psi_k(x) = u_k(x) e^{s(x)}."""
        return _recurrence(self.V, self.n, self.log_norm0, np.asarray(x, dtype=float).ravel(),
                           self.recur_a.tolist(), self.recur_b.tolist())

    def psi_at(self, x: np.ndarray) -> np.ndarray:
        """All functions at the points x, shape (count, x.size)."""
        u, s = self.scaled_at(x)
        return u * np.exp(s)


def build_ortho(V: Potential, n: int, count: int, a_hint: float = 0.0) -> OrthoSystem:
    """Stieltjes construction of the weighted orthonormal system on [-L, L],
    L from ``choose_halfwidth``: the grid starts as one ``_PANEL``-node
    panel per function and doubles until the string equations hold on rows
    k < count - deg V (at least deg V + 2 functions are built)."""
    if n > MAX_N:
        raise ValueError(f"n capped at {MAX_N} for determinant work")
    if count < 2 or count > n + 4:
        raise ValueError("count must lie in 2..n+4")
    L = choose_halfwidth(V, n, a_hint)
    size = max(count, V.degree + 2)
    t, tw = legendre_reference(_PANEL)
    for panels in count * 2 ** np.arange(_DOUBLINGS + 1):
        half = L / panels
        x = ((2 * np.arange(panels) + 1 - panels)[:, None] * half + half * t).ravel()
        w = np.tile(half * tw, panels)
        nv = n * V.eval(x)
        log_norm0 = 0.5 * (math.log(float(np.dot(w, np.exp(nv.min() - nv)))) - float(nv.min()))
        ra, rb = [0.0] * size, [0.0] * size
        _recurrence(V, n, log_norm0, x, ra, rb, w)
        residual = _string_residual(V, n, ra, rb, size - V.degree)
        if residual <= _STRING_TOL:
            return OrthoSystem(V, n, count, QuadratureRule(x, w, (-L, L)), np.array(ra[:count]),
                               np.array(rb[:count]), log_norm0, residual)
    raise GridError(f"string equations missed by {residual:.1e} on {x.size} nodes")


@dataclass
class SpikedKernel:
    """Rank-one spiked correlation kernel K_{n-j} + psi~ (x) psi_{n-j}(y)."""

    ortho: OrthoSystem
    a: float
    j: int
    log_shift: float = 0.0                       # max over the grid of n(a x - V/2)
    gamma_scaled: np.ndarray = field(default=None, repr=False)  # Gamma_i e^{-shift}

    def tilde_psi_at(self, x: np.ndarray, px: np.ndarray) -> np.ndarray:
        """Corrected function at x, given the rows ``px`` of ``ortho.psi_at(x)``
        up to n - j."""
        nj = self.ortho.n - self.j
        if self.a == 0.0:
            return px[nj]
        tilt = np.exp(self.ortho.n * (self.a * x - 0.5 * self.ortho.V.eval(x)) - self.log_shift)
        return (tilt - self.gamma_scaled[:nj] @ px[:nj]) / self.gamma_scaled[nj]


def build_spiked(ortho: OrthoSystem, a: float, j: int = 1) -> SpikedKernel:
    """Assemble the spike data: the tilt's projections on the orthonormal
    functions, from which ``tilde_psi_at`` evaluates the corrected function.

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
        return SpikedKernel(ortho=ortho, a=a, j=j, log_shift=0.0,
                            gamma_scaled=np.zeros(nj + 1))
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
    gamma_scaled = ortho.psi_at(x)[:nj + 1] @ (w * tilt)
    if gamma_scaled[nj] == 0.0:
        raise GridError("degenerate projection of the tilt on the top function")
    return SpikedKernel(ortho=ortho, a=a, j=j, log_shift=shift, gamma_scaled=gamma_scaled)


def gap_probability_raw(sk: SpikedKernel, intervals, factored: bool = True) -> float:
    """Unclamped gap determinant over a finite union of intervals.

    Right-unbounded parts are truncated at the grid half-width where the
    weight has underflown.  The factored route evaluates the unspiked
    determinant times the rank-one resolvent correction,
    det(I - M) (1 - <psi_{n-j}, (I - M)^{-1} psi~>), as the determinant of
    I - M bordered by the two functions.  The direct route takes the
    determinant of the full spiked kernel and is kept as a cross-check (the
    two agree to rounding).
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
    rules = [gauss_legendre(_GAP_NODES, lo, hi) for lo, hi in segs]
    xs = np.concatenate([r.nodes for r in rules])
    sw = np.sqrt(np.concatenate([r.weights for r in rules]))
    nj = sk.ortho.n - sk.j
    u, s = sk.ortho.scaled_at(xs)
    e = np.exp(s)
    px = u[:nj + 1] * e
    tpsi = sk.tilde_psi_at(xs, px)
    # zeroing a node where every sqrt(w) psi lies below _NEGLIGIBLE moves the
    # determinant by ~_NEGLIGIBLE^2 max sqrt(w) psi~ and spares BLAS underflows
    dead = sw * np.maximum(np.abs(px).max(axis=0), np.abs(tpsi)) < _NEGLIGIBLE
    sw[dead] = 0.0
    u[:nj, dead] = 0.0
    esw = sw * e                        # sw K sw from u, clear of underflow
    M = esw[:, None] * (u[:nj].T @ u[:nj]) * esw[None, :]
    if factored:
        return float(fredholm_det(M, sw * tpsi, sw * px[nj]))
    return float(fredholm_det(M + np.outer(sw * tpsi, sw * px[nj])))
