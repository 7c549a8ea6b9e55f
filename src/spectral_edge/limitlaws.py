"""Limiting edge laws: soft-edge determinant, its critical deformation,
Gaussian and flat-maximizer laws, mixture weights, and the dispatcher.

The soft-edge distribution is the Fredholm determinant of the Airy kernel
on [T, infinity), evaluated by a Nystrom discretization on a truncated
interval; the kernel decays super-exponentially, so plain Gauss-Legendre
nodes on [T, T+L] converge to machine precision well before m = 40.  The
critical deformation applies the discretized resolvent to the deformation
profile c_alpha and takes the weighted inner product with Ai.  A table of T
is one pass: stacked kernels with batched det, cond and solve, and one
cumulative c_alpha over every node of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .equilibrium import EquilibriumData
from .potential import derivative_or_zero
from .specialfn import (
    ENVELOPE_RADIUS,
    airy_ai_pair,
    gen_gauss_cdf,
    legendre_reference,
    normal_cdf,
)
from .transition import (
    G_fn,
    convex_type,
    critical_a,
    fluct_scale,
    maximizer_set,
    phase_diagram,
    scan,
)

__all__ = [
    "AiryDiscretization",
    "LimitLaw",
    "c_alpha",
    "c_alpha_contour",
    "f0",
    "f1",
    "mixture_weights",
    "predict_law",
]

DEFAULT_NODES = 40
_BASE_SPAN = 16.0
# Left cutoff of the F0 and F1 CDFs: f0(-9) = 2.7e-27 and F1 <= F0 (f1 is f0
# times 1 - <resolvent profile, Ai>, a factor in [0, 1]), so both CDFs are 0
# to double precision below it.  Further left I - K is singular to working
# precision and f1's resolvent solve fails (from T ~ -9.5).  f0 and f1
# return 0 at and below it, and raise below the Nystrom window.
CDF_FLOOR = -9.0
_WINDOW_LEFT = -12.0
# Most T one stacked Nystrom pass holds.  A block's temporaries take ~75 kB
# per T at m = 40; 16 T keep a 200-point KS grid within the memory of the
# per-point solves, at the speed of one 64-T block.
_BLOCK = 16
# c_alpha panels: at most one unit long, so the oscillating left tail of Ai
# (wavenumber up to sqrt(50)) spans about one period per panel.
_PANEL_LENGTH = 1.0
_PANEL_NODES = 12
# Right end of the profile integral: Ai(u) e^{alpha u} < 1e-18 e^{alpha^3/3}
# beyond it for every alpha <= 1.
_TAIL_END = 20.0


def _check_window(T, m: int) -> None:
    if m < 30:
        raise ValueError("need at least 30 nodes")
    if np.any(np.asarray(T) < _WINDOW_LEFT):
        raise ValueError("left endpoint below the supported window")


def _check_alpha(alpha: float) -> None:
    if abs(alpha) > 4.0:
        raise ValueError("deformation parameter limited to |alpha| <= 4")


def _span_for(alpha: float | None) -> float:
    # The deformation profile pushes mass out to xi ~ alpha^2 on the
    # escaping side; the window must cover it.
    if alpha is None or alpha >= 0:
        return _BASE_SPAN
    return max(_BASE_SPAN, alpha * alpha + 12.0)


@dataclass
class AiryDiscretization:
    """Nystrom grids for the soft-edge kernel on [T, T+L].

    A scalar T gives one (m, m) kernel; an array of T a stack of shape
    T.shape + (m, m), one kernel per entry, built in one pass.
    """

    T: float | np.ndarray
    m: int = DEFAULT_NODES
    L: float = _BASE_SPAN
    nodes: np.ndarray = field(default=None, repr=False)
    weights: np.ndarray = field(default=None, repr=False)
    sqrt_w: np.ndarray = field(default=None, repr=False)
    kernel: np.ndarray = field(default=None, repr=False)
    ai: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        _check_window(self.T, self.m)
        x, w = legendre_reference(self.m)
        self.nodes = np.asarray(self.T, dtype=float)[..., None] + 0.5 * self.L * (x + 1.0)
        self.weights = 0.5 * self.L * w
        self.sqrt_w = np.sqrt(self.weights)
        ai, aip = airy_ai_pair(self.nodes)
        self.ai = ai
        num = ai[..., :, None] * aip[..., None, :] - aip[..., :, None] * ai[..., None, :]
        den = self.nodes[..., :, None] - self.nodes[..., None, :]
        K = np.divide(num, den, out=np.zeros_like(num), where=np.abs(den) > 0)
        diag = np.arange(self.m)
        K[..., diag, diag] = aip * aip - self.nodes * ai * ai
        self.kernel = self.sqrt_w[:, None] * K * self.sqrt_w[None, :]
        asym = np.max(np.abs(self.kernel - np.swapaxes(self.kernel, -1, -2)))
        if asym > 1e-12:
            raise AssertionError(f"kernel symmetrization failed: {asym:.2e}")


def _by_blocks(T, m: int, block_fn):
    # 0 at and left of the floor; every other T through block_fn, at most
    # _BLOCK at a time.  A scalar T gives a float.
    _check_window(T, m)
    arr = np.asarray(T, dtype=float)
    flat = arr.ravel()
    out = np.zeros(flat.shape)
    live = np.flatnonzero(flat > CDF_FLOOR)
    for start in range(0, live.size, _BLOCK):
        idx = live[start:start + _BLOCK]
        out[idx] = block_fn(flat[idx])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def f0(T, m: int = DEFAULT_NODES):
    """Probability that the soft-edge point process has no point above T.

    T may be a scalar (the result is a float) or an array.
    """
    def block(Tb):
        return np.linalg.det(np.eye(m) - AiryDiscretization(Tb, m).kernel)

    return _by_blocks(T, m, block)


def _breakpoints(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sorted points with every gap longer than _PANEL_LENGTH cut into equal
    # panels; returns the refined grid and the positions of the points in it.
    gaps = np.diff(points)
    pieces = np.maximum(1, np.ceil(gaps / _PANEL_LENGTH)).astype(int)
    first = np.cumsum(pieces) - pieces
    offset = np.arange(pieces.sum()) - np.repeat(first, pieces)
    grid = np.repeat(points[:-1], pieces) + offset * np.repeat(gaps / pieces, pieces)
    return np.append(grid, points[-1]), np.append(first, pieces.sum())


def _panel_integrals(grid: np.ndarray, alpha: float, anchor: np.ndarray) -> np.ndarray:
    # Integral of Ai(u) e^{alpha (u - anchor)} over each panel of the grid.
    x, w = legendre_reference(_PANEL_NODES)
    half = 0.5 * np.diff(grid)
    u = grid[:-1, None] + half[:, None] * (x + 1.0)
    ai, _ = airy_ai_pair(u)
    return half * ((ai * np.exp(alpha * (u - anchor[:, None]))) @ w)


def _recurrence(factors: np.ndarray, panels: np.ndarray) -> np.ndarray:
    # s_0 = 0 and s_{i+1} = factors_i s_i + panels_i
    acc = accumulate(zip(factors.tolist(), panels.tolist()),
                     lambda s, fp: fp[0] * s + fp[1], initial=0.0)
    return np.fromiter(acc, float, panels.size + 1)


def c_alpha(xi, alpha: float) -> float | np.ndarray:
    """Deformation profile entering the critical edge law.

    One cumulative sum over the sorted xi of Ai(u) e^{alpha u}, integrated
    panel by panel between consecutive xi.  For alpha <= 1 the profile is
    e^{alpha^3/3 - alpha xi} minus the integral right of xi, accumulated from
    the right.  For alpha > 1, where that difference cancels, it is the
    integral left of xi, accumulated from max(min xi - 50/alpha, -50); Ai(u)
    e^{alpha u} < 1e-22 left of that point.
    """
    _check_alpha(alpha)
    arr = np.asarray(xi, dtype=float)
    if np.any(arr < _WINDOW_LEFT):
        raise ValueError("profile evaluated below the supported window")
    pts, where = np.unique(arr, return_inverse=True)
    if alpha > 1.0:
        lo = max(pts[0] - 50.0 / alpha, -ENVELOPE_RADIUS)
        grid, pos = _breakpoints(np.concatenate(([lo], pts)))
        panels = _panel_integrals(grid, alpha, grid[1:])
        # left to right: S(u_{i+1}) = e^{-alpha h_i} S(u_i) + panel_i
        vals = _recurrence(np.exp(-alpha * np.diff(grid)), panels)[pos[1:]]
    else:
        ends = pts if pts[-1] >= _TAIL_END else np.append(pts, _TAIL_END)
        grid, pos = _breakpoints(ends)
        panels = _panel_integrals(grid, alpha, grid[:-1])
        # right to left: R(u_i) = e^{alpha h_i} R(u_{i+1}) + panel_i
        right = _recurrence(np.exp(alpha * np.diff(grid))[::-1], panels[::-1])[::-1]
        vals = np.exp(alpha ** 3 / 3.0 - alpha * pts) - right[pos[:pts.size]]
    out = vals[where].reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def c_alpha_contour(xi: float, alpha: float, radius: float = 30.0, m: int = 700) -> float:
    """Contour-integral route for the deformation profile.

    Rays toward infinity at angles 5*pi/6 and pi/6 from a vertex just below
    the origin; when the integrand pole z = i*alpha sits below that vertex
    (alpha < -0.5) the crossing residue exp(alpha^3/3 - alpha*xi) is added.
    """
    if radius > ENVELOPE_RADIUS:
        raise ValueError("contour radius beyond the Airy accuracy envelope")
    delta = 0.5
    vertex = -1j * delta
    t, w = legendre_reference(m)
    r = 0.5 * radius * (t + 1.0)
    rw = 0.5 * radius * w
    total = 0.0 + 0.0j
    for ang, sign in ((5.0 * math.pi / 6.0, -1.0), (math.pi / 6.0, 1.0)):
        zs = vertex + r * np.exp(1j * ang)
        f = np.exp(1j * zs ** 3 / 3.0 + 1j * xi * zs) / (alpha + 1j * zs)
        total += sign * np.exp(1j * ang) * np.dot(rw, f)
    val = total / (2.0 * math.pi)
    if alpha < -delta:
        val = val + math.exp(alpha ** 3 / 3.0 - alpha * xi)
    return float(val.real)


def f1(T, alpha: float, m: int = DEFAULT_NODES):
    """Deformed critical edge law: f0 times (1 - <resolvent profile, Ai>).

    T may be a scalar (the result is a float) or an array; every T of a
    block shares one cumulative c_alpha over all its nodes.
    """
    _check_alpha(alpha)

    def block(Tb):
        disc = AiryDiscretization(Tb, m, L=_span_for(alpha))
        system = np.eye(m) - disc.kernel
        det0 = np.linalg.det(system)
        rhs = disc.sqrt_w * c_alpha(disc.nodes, alpha)
        cond = np.max(np.linalg.cond(system))
        if cond > 1e10:
            raise RuntimeError(f"resolvent system ill-conditioned: cond = {cond:.2e}")
        u = np.linalg.solve(system, rhs[..., None])[..., 0]
        inner = np.sum(disc.sqrt_w * disc.ai * u, axis=-1)
        return det0 * (1.0 - inner)

    return _by_blocks(T, m, block)


# -- one-cut prefactors of the finite-size outer asymptotics ----------------

def _conformal_factor(eq: EquilibriumData, z: float) -> float:
    return ((z - eq.b0) / (z - eq.a1)) ** 0.25


def _outer_prefactor(eq: EquilibriumData, z: float, j: int) -> float:
    g = _conformal_factor(eq, z)
    base = math.sqrt(2.0 / (math.pi * (eq.a1 - eq.b0)))
    return base * 0.5 * (g + 1.0 / g) * ((g - 1.0 / g) / (g + 1.0 / g)) ** j


def _outer_prefactor_dual(eq: EquilibriumData, z: float, j: int) -> float:
    # Imaginary-part partner of the outer prefactor, normalized to be positive
    # right of the edge.
    g = _conformal_factor(eq, z)
    base = math.sqrt(2.0 / (math.pi * (eq.a1 - eq.b0)))
    return base * 0.5 * (g - 1.0 / g) * ((g - 1.0 / g) / (g + 1.0 / g)) ** (-j)


def _edge_prefactor(eq: EquilibriumData) -> float:
    return math.sqrt(2.0) * (eq.a1 - eq.b0) ** (-0.25) * eq.beta ** 0.25


def _amplitude(eq: EquilibriumData, x: float, k: int, j: int) -> float:
    # Laplace amplitude of one part: a maximizer of G of flatness order k >= 1,
    # or the bulk part (k = 0) at the H minimum c, on the edge or right of it.
    if k == 0:
        if x == eq.a1:
            return _edge_prefactor(eq) / eq.beta
        hpp = -eq.g_deriv(x, 2)  # H'' = -g''
        if hpp <= 0:
            raise ValueError("non-positive curvature of H at the bulk part")
        return math.sqrt(2.0 * math.pi / hpp) * _outer_prefactor_dual(eq, x, j)
    d2k = derivative_or_zero(eq.V, x, 2 * k) - eq.g_deriv(x, 2 * k)
    if d2k <= 0:
        raise ValueError(f"non-positive order-{2 * k} derivative of -G at a maximizer")
    gauss_mass = math.gamma(1.0 / (2.0 * k)) / k
    return (math.factorial(2 * k) / d2k) ** (1.0 / (2 * k)) * gauss_mass * _outer_prefactor(eq, x, j)


def mixture_weights(eq: EquilibriumData, parts, alpha: float, j: int = 1) -> list[float]:
    """Laplace-mass weights w_i ~ A_i exp(alpha x_i) of 2 or 3 parts (x, k).

    A part with k >= 1 is a maximizer of G of flatness order k, with amplitude
    outer(x) ((2k)!/d_2k)^(1/2k) Gamma(1/2k)/k (sqrt(2 pi/(-G'')) outer(x) at
    k = 1).  The part with k = 0 is the bulk at c(a_c), with amplitude
    edge_prefactor/beta on the edge and sqrt(2 pi/H''(c)) outer_dual(c)
    right of it.  Weights are positive, sum to one, move toward the rightmost
    part as alpha grows, and saturate to (1, 0, ...) and (..., 0, 1) in the
    alpha limits.
    """
    if not 2 <= len(parts) <= 3:
        raise ValueError("mixture weights need 2 or 3 parts")
    logs = np.array([math.log(_amplitude(eq, x, k, j)) + alpha * x for x, k in parts])
    w = np.exp(logs - logs.max())
    return (w / w.sum()).tolist()


# -- law descriptors ---------------------------------------------------------

@dataclass(frozen=True)
class LimitLaw:
    """Descriptor of a limiting edge-fluctuation law.

    ``kind`` is one of ``F0``, ``F1``, ``Gauss``, ``GenGauss``, ``Mixture``.
    ``center`` and ``scale_const * n**scale_exponent`` map the eigenvalue to
    the law's standard variable.  ``alpha`` stores the scaled spike offset
    for the ``F1`` kind; ``order`` the flatness order for ``GenGauss``;
    ``components`` the (weight, LimitLaw) pairs of a mixture.
    """

    kind: str
    center: float = 0.0
    scale_const: float = 1.0
    scale_exponent: float = 0.0
    alpha: float = 0.0
    order: int = 1
    components: tuple = ()

    def __post_init__(self):
        if self.kind == "Mixture":
            total = sum(w for w, _ in self.components)
            if abs(total - 1.0) > 1e-12:
                raise ValueError("mixture weights must sum to one")
            # a saturated weight rounds to 0 or 1 and keeps its component
            if not all(0.0 <= w <= 1.0 for w, _ in self.components):
                raise ValueError("mixture weights must lie in [0, 1]")

    def rescale(self, lam, n: int):
        return (np.asarray(lam, dtype=float) - self.center) * self.scale_const * n ** self.scale_exponent

    def cdf_standard(self, t, m: int = DEFAULT_NODES):
        """CDF in the law's own standardized variable (non-mixture kinds)."""
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        # f0 and f1 are 0 at the floor, so lifting t to it answers any t left of it.
        if self.kind == "F0":
            out = f0(np.maximum(tv, CDF_FLOOR), m)
        elif self.kind == "F1":
            # The deformed law for spike offset alpha is the profile-deformed
            # determinant at parameter -alpha.
            out = f1(np.maximum(tv, CDF_FLOOR), -self.alpha, m)
        elif self.kind == "Gauss":
            out = normal_cdf(tv)
        elif self.kind == "GenGauss":
            out = gen_gauss_cdf(tv, self.order)
        else:
            raise ValueError("mixtures have no single standardized variable; use cdf_lambda")
        return float(out[0]) if np.isscalar(t) else out

    def cdf_lambda(self, lam, n: int, m: int = DEFAULT_NODES):
        """CDF of the largest eigenvalue location at finite n under this law."""
        lv = np.atleast_1d(np.asarray(lam, dtype=float))
        if self.kind == "Mixture":
            out = np.zeros_like(lv)
            for w, comp in self.components:
                out += w * comp.cdf_lambda(lv, n, m)
        else:
            out = self.cdf_standard(self.rescale(lv, n), m)
            out = np.asarray(out)
        return float(out[0]) if np.isscalar(lam) else out

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind,
            "center": self.center,
            "scale_const": self.scale_const,
            "scale_exponent": self.scale_exponent,
        }
        if self.kind == "F1":
            obj["alpha"] = self.alpha
        if self.kind == "GenGauss":
            obj["order"] = self.order
        if self.kind == "Mixture":
            obj["components"] = [[w, law.to_json()] for w, law in self.components]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> LimitLaw:
        """The law that ``to_json`` wrote."""
        if obj["kind"] == "Mixture":
            return cls("Mixture", components=tuple((w, cls.from_json(sub))
                                                   for w, sub in obj["components"]))
        return cls(obj["kind"], center=obj["center"], scale_const=obj["scale_const"],
                   scale_exponent=obj["scale_exponent"], alpha=obj.get("alpha", 0.0),
                   order=obj.get("order", 1))


_CRITICAL_ALPHA_WINDOW = 1.5
_MIXTURE_ALPHA_WINDOW = 30.0


def _edge_law(eq: EquilibriumData, kind: str, alpha: float = 0.0) -> LimitLaw:
    return LimitLaw(kind, center=eq.a1, scale_const=eq.beta, scale_exponent=2.0 / 3.0,
                    alpha=alpha)


def _gauss_law(eq: EquilibriumData, a: float, x_star: float, k: int) -> LimitLaw:
    if k == 1:
        return LimitLaw("Gauss", center=x_star, scale_const=fluct_scale(eq, a, x_star, 1),
                        scale_exponent=0.5)
    return LimitLaw("GenGauss", center=x_star, scale_const=fluct_scale(eq, a, x_star, k),
                    scale_exponent=1.0 / (2 * k), order=k)


def _mixture(eq: EquilibriumData, parts, alpha: float, a: float, j: int) -> LimitLaw:
    # The bulk part (k = 0) follows the edge law, deformed at alpha = 0 when
    # c(a) is the edge itself; each maximizer its Gaussian law.
    laws = [_edge_law(eq, "F1" if x == eq.a1 else "F0") if k == 0 else _gauss_law(eq, a, x, k)
            for x, k in parts]
    return LimitLaw("Mixture", components=tuple(zip(mixture_weights(eq, parts, alpha, j), laws)))


def predict_law(eq: EquilibriumData, a: float, n: int, j: int = 1,
                a_c: float | None = None) -> LimitLaw:
    """Map (potential, spike, size) to the predicted largest-eigenvalue law.

    Finite-size dispatch windows: spikes within 30/n of a critical value
    where the bulk and a detached maximizer of G tie, or of a secondary
    critical value, resolve to mixture laws (whose weights saturate beyond
    that window); spikes within 1.5 critical-scale units of a convex-type
    critical value resolve to the deformed edge law; everything else is the
    bulk-edge law below and the outlier law above.  Secondary critical
    values come from the phase diagram of eq, computed once per equilibrium,
    so a generic supercritical query costs one scan.
    """
    if a_c is None:
        a_c = critical_a(eq)
    convex = convex_type(eq, a_c)

    if abs(a - a_c) * n <= _MIXTURE_ALPHA_WINDOW:
        s = scan(eq, a_c)
        if not convex:
            return _mixture(eq, [(s.c, 0), maximizer_set(eq, a_c, s=s)[0]], (a - a_c) * n, a_c, j)
        # At a convex-type critical value the bulk sits on the edge; it splits
        # only when an interior maximizer ties the edge value (transit).
        g_edge = G_fn(eq, a_c, eq.a1)
        tied = [(x, k) for x, k in (maximizer_set(eq, a_c, s=s) if s.maxima else [])
                if x > eq.a1 + 1e-6 and abs(G_fn(eq, a_c, x) - g_edge) <= 1e-6]
        if tied:
            return _mixture(eq, [(eq.a1, 0), tied[0]], (a - a_c) * n, a_c, j)
    alpha_scaled = (a - a_c) * n ** (1.0 / 3.0) / eq.beta
    if convex and abs(alpha_scaled) <= _CRITICAL_ALPHA_WINDOW:
        return _edge_law(eq, "F1", alpha_scaled)
    if a < a_c:
        return _edge_law(eq, "F0")

    # Supercritical side: look up a nearby secondary critical value.
    span = _MIXTURE_ALPHA_WINDOW / n + 1.0 / math.sqrt(n)
    lo, hi = max(a - span, a_c + 1e-6), a + span
    for a0, s0 in phase_diagram(eq).switches:
        if not lo <= a0 <= hi:
            continue
        maxima = maximizer_set(eq, a0, tie_tol=1e-6, s=s0)   # exactly two at a switch
        # A flatter second maximizer carries n^(1/2 - 1/2k) more Laplace mass,
        # a shift of the tilt that is 0 when every order is 1.
        (x1, _), (x2, k2) = maxima
        alpha_n = (a - a0) * n + (0.5 - 0.5 / k2) / (x2 - x1) * math.log(n)
        if abs(alpha_n) <= _MIXTURE_ALPHA_WINDOW:
            return _mixture(eq, maxima, alpha_n, a0, j)

    maxima = maximizer_set(eq, a)
    if len(maxima) > 1:
        raise ValueError("tied maximizers away from any detected secondary critical value")
    x0, k = maxima[0]
    return _gauss_law(eq, a, x0, k)
