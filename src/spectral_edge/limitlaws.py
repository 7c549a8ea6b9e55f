"""Limiting edge laws: soft-edge determinant, its critical deformation,
Gaussian and flat-maximizer laws, mixture weights, and the dispatcher.

The soft-edge distribution is the Fredholm determinant of the Airy kernel
on [T, infinity), evaluated by a Nystrom discretization on a truncated
interval; the kernel decays super-exponentially, so plain Gauss-Legendre
nodes on [T, T+L] converge to machine precision well before m = 40.  The
critical deformation applies the discretized resolvent to the deformation
profile c_alpha and takes the weighted inner product with Ai.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumData
from .potential import derivative_or_zero
from .specialfn import airy_ai_pair, gen_gauss_cdf, legendre_reference, normal_cdf
from .transition import (
    TransitionProfile,
    build_profile,
    critical_a,
    fluct_scale,
    maximizer_set,
    secondary_criticals,
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


class NystromConvergenceError(RuntimeError):
    """Doubling the node count moved the determinant by more than the tolerance."""


def _check_window(T: float, m: int) -> None:
    if m < 30:
        raise ValueError("need at least 30 nodes")
    if T < _WINDOW_LEFT:
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
    """Nystrom grid for the soft-edge kernel on [T, T+L]."""

    T: float
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
        self.nodes = self.T + 0.5 * self.L * (x + 1.0)
        self.weights = 0.5 * self.L * w
        self.sqrt_w = np.sqrt(self.weights)
        ai, aip = airy_ai_pair(self.nodes)
        self.ai = ai
        X, Y = np.meshgrid(self.nodes, self.nodes, indexing="ij")
        num = np.multiply.outer(ai, aip) - np.multiply.outer(aip, ai)
        den = X - Y
        K = np.divide(num, den, out=np.zeros_like(num), where=np.abs(den) > 0)
        np.fill_diagonal(K, aip * aip - self.nodes * ai * ai)
        self.kernel = self.sqrt_w[:, None] * K * self.sqrt_w[None, :]
        asym = np.max(np.abs(self.kernel - self.kernel.T))
        if asym > 1e-12:
            raise AssertionError(f"kernel symmetrization failed: {asym:.2e}")


def f0(T: float, m: int = DEFAULT_NODES, check_convergence: bool = False) -> float:
    """Probability that the soft-edge point process has no point above T."""
    _check_window(T, m)
    if T <= CDF_FLOOR:
        return 0.0
    disc = AiryDiscretization(T, m)
    val = float(np.linalg.det(np.eye(m) - disc.kernel))
    if check_convergence:
        val2 = float(np.linalg.det(np.eye(2 * m) - AiryDiscretization(T, 2 * m).kernel))
        if abs(val - val2) > 1e-7:
            raise NystromConvergenceError(f"|f0({m}) - f0({2 * m})| = {abs(val - val2):.2e}")
    return val


def _c_alpha_right(xi: np.ndarray, alpha: float) -> np.ndarray:
    # exp(a^3/3 - a*xi) minus the Laplace-type integral of Ai(xi + t) e^{a t};
    # stable for alpha <= 1 where the two terms stay comparable.
    t, w = legendre_reference(360)
    tmax = 60.0
    tt = 0.5 * tmax * (t + 1.0)
    ww = 0.5 * tmax * w
    ai_t, _ = airy_ai_pair(xi[:, None] + tt[None, :])
    integral = (ai_t * np.exp(alpha * tt)[None, :]) @ ww
    return np.exp(alpha ** 3 / 3.0 - alpha * xi) - integral


def _c_alpha_left(xi: np.ndarray, alpha: float) -> np.ndarray:
    # exp(-a*xi) times the integral of Ai(u) e^{a u} up to xi; the integrand
    # decays to the left for alpha > 0, so this route avoids the huge
    # cancellation the right-integral identity suffers at large alpha.
    out = np.empty_like(xi)
    t, w = legendre_reference(1600)
    for i, x in enumerate(xi):
        umin = min(x, 0.0) - 50.0 / alpha
        u = umin + 0.5 * (x - umin) * (t + 1.0)
        ww = 0.5 * (x - umin) * w
        ai_u, _ = airy_ai_pair(u)
        out[i] = np.exp(-alpha * x) * np.dot(ww, ai_u * np.exp(alpha * u))
    return out


def c_alpha(xi, alpha: float, cross_check: bool = False) -> float | np.ndarray:
    """Deformation profile entering the critical edge law.

    Evaluated through real-integral identities (route split at alpha = 1
    for numerical stability).  With ``cross_check`` the complex contour
    route must agree to 1e-5.
    """
    _check_alpha(alpha)
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(arr < _WINDOW_LEFT):
        raise ValueError("profile evaluated below the supported window")
    vals = _c_alpha_right(arr, alpha) if alpha <= 1.0 else _c_alpha_left(arr, alpha)
    if cross_check:
        ref = np.array([c_alpha_contour(x, alpha) for x in arr])
        worst = np.max(np.abs(vals - ref))
        if worst > 1e-5:
            raise RuntimeError(f"contour cross-check diverged: {worst:.2e}")
    return float(vals[0]) if np.isscalar(xi) else vals


def c_alpha_contour(xi: float, alpha: float, radius: float = 30.0, m: int = 700) -> float:
    """Contour-integral route for the deformation profile.

    Rays toward infinity at angles 5*pi/6 and pi/6 from a vertex just below
    the origin; when the integrand pole sits below that contour (alpha < 0)
    the crossing residue exp(alpha^3/3 - alpha*xi) is added.
    """
    from .specialfn import ENVELOPE_RADIUS

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
    if alpha < 0:
        val = val + math.exp(alpha ** 3 / 3.0 - alpha * xi)
    return float(val.real)


def f1(T: float, alpha: float, m: int = DEFAULT_NODES, check_convergence: bool = False) -> float:
    """Deformed critical edge law: f0 times (1 - <resolvent profile, Ai>)."""
    _check_window(T, m)
    _check_alpha(alpha)
    if T <= CDF_FLOOR:
        return 0.0
    disc = AiryDiscretization(T, m, L=_span_for(alpha))
    det0 = float(np.linalg.det(np.eye(m) - disc.kernel))
    rhs = disc.sqrt_w * c_alpha(disc.nodes, alpha)
    cond = np.linalg.cond(np.eye(m) - disc.kernel)
    if cond > 1e10:
        raise RuntimeError(f"resolvent system ill-conditioned: cond = {cond:.2e}")
    u = np.linalg.solve(np.eye(m) - disc.kernel, rhs)
    inner = float(np.dot(disc.sqrt_w * disc.ai, u))
    val = det0 * (1.0 - inner)
    if check_convergence:
        val2 = f1(T, alpha, 2 * m)
        if abs(val - val2) > 1e-7:
            raise NystromConvergenceError(f"|f1({m}) - f1({2 * m})| = {abs(val - val2):.2e}")
    return val


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


def _normalized(weights: list[float]) -> list[float]:
    total = sum(weights)
    return [w / total for w in weights]


def mixture_weights(profile: TransitionProfile, alpha: float, j: int = 1,
                    regime: str | None = None) -> list[float]:
    """Component weights of the split laws in the four near-critical regimes.

    The regimes and their weight formulas:

    * ``critical`` (non-convex, a at the critical value): bulk-edge weight
      against a single detached maximizer, exponent alpha*(x0 - c).
    * ``secondary-critical``: one weight per tied maximizer, exponents
      alpha*x_i, curvature-normalized.
    * ``flat-secondary``: two tied maximizers of unequal flatness order.
    * ``transit-critical``: edge weight against the detached maximizer at
      the convex-type critical point.

    Weights are positive, sum to one, are monotone in alpha and degenerate
    to (1, 0, ...) and (0, ..., 1) in the alpha limits.
    """
    eq = profile.eq
    regime = regime or profile.regime
    if regime == "critical":
        if abs(profile.a_c - profile.half_vp_edge) <= 1e-6:
            raise ValueError("convex-type critical point has a single deformed law, not a mixture")
        c = profile.c_a
        x0 = profile.maximizers[0][0]
        hpp = -eq.g_deriv(c, 2)  # H'' = -g''
        gpp = eq.V.eval(x0, 2) - eq.g_deriv(x0, 2)  # -G''(x0)
        if hpp <= 0 or gpp <= 0:
            raise ValueError("curvatures of the wrong sign for the critical mixture")
        # Factor the common exponential scale out of both terms.
        e0 = 0.0
        e1 = alpha * (x0 - c)
        shift = max(e0, e1)
        c0 = _outer_prefactor_dual(eq, c, j) / math.sqrt(hpp) * math.exp(e0 - shift)
        c1 = _outer_prefactor(eq, x0, j) / math.sqrt(gpp) * math.exp(e1 - shift)
        return _normalized([c0, c1])
    if regime == "secondary-critical":
        xs = [x for x, k in profile.maximizers]
        ks = [k for x, k in profile.maximizers]
        if len(xs) < 2 or len(xs) > 3:
            raise ValueError("secondary-critical mixtures support 2 or 3 maximizers")
        if any(k != 1 for k in ks):
            return mixture_weights(profile, alpha, j, regime="flat-secondary")
        exps = [alpha * x for x in xs]
        shift = max(exps)
        amps = []
        for x, e in zip(xs, exps):
            gpp = eq.V.eval(x, 2) - eq.g_deriv(x, 2)
            if gpp <= 0:
                raise ValueError("non-positive curvature where a simple maximizer was assumed")
            amps.append(_outer_prefactor(eq, x, j) / math.sqrt(gpp) * math.exp(e - shift))
        return _normalized(amps)
    if regime == "flat-secondary":
        (x1, k1), (x2, k2) = profile.maximizers[:2]
        if k1 != 1 or k2 <= 1:
            raise ValueError("flat-secondary expects orders (1, k>1)")
        e1, e2 = alpha * x1, alpha * x2
        shift = max(e1, e2)
        gpp1 = eq.V.eval(x1, 2) - eq.g_deriv(x1, 2)
        d2k = derivative_or_zero(eq.V, x2, 2 * k2) - eq.g_deriv(x2, 2 * k2)
        if gpp1 <= 0 or d2k <= 0:
            raise ValueError("derivative signs inconsistent with the flatness orders")
        gauss_mass = math.gamma(1.0 / (2.0 * k2)) / k2
        b1 = math.sqrt(2.0 * math.pi / gpp1) * _outer_prefactor(eq, x1, j) * math.exp(e1 - shift)
        b2 = (math.factorial(2 * k2) / d2k) ** (1.0 / (2 * k2)) * _outer_prefactor(eq, x2, j) \
            * gauss_mass * math.exp(e2 - shift)
        return _normalized([b1, b2])
    if regime == "transit-critical":
        x0 = profile.maximizers[0][0]
        gpp = eq.V.eval(x0, 2) - eq.g_deriv(x0, 2)
        if gpp <= 0:
            raise ValueError("non-positive curvature at the detached maximizer")
        e0, e1 = 0.0, alpha * (x0 - eq.a1)
        shift = max(e0, e1)
        d0 = _edge_prefactor(eq) / eq.beta * math.exp(e0 - shift)
        d1 = math.sqrt(2.0 * math.pi / gpp) * _outer_prefactor(eq, x0, j) * math.exp(e1 - shift)
        return _normalized([d0, d1])
    raise ValueError(f"regime {regime!r} has no mixture-weight formula")


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
            if not all(0.0 < w < 1.0 for w, _ in self.components):
                raise ValueError("mixture weights must lie strictly inside (0, 1)")

    def rescale(self, lam, n: int):
        return (np.asarray(lam, dtype=float) - self.center) * self.scale_const * n ** self.scale_exponent

    def cdf_standard(self, t, m: int = DEFAULT_NODES):
        """CDF in the law's own standardized variable (non-mixture kinds)."""
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        # f0 and f1 are 0 at the floor, so lifting t to it answers any t left of it.
        if self.kind == "F0":
            out = np.array([f0(float(x), m) for x in np.maximum(tv, CDF_FLOOR)])
        elif self.kind == "F1":
            # The deformed law for spike offset alpha is the profile-deformed
            # determinant at parameter -alpha.
            out = np.array([f1(float(x), -self.alpha, m) for x in np.maximum(tv, CDF_FLOOR)])
        elif self.kind == "Gauss":
            out = np.array([normal_cdf(float(x)) for x in tv])
        elif self.kind == "GenGauss":
            out = np.array([gen_gauss_cdf(float(x), self.order) for x in tv])
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


_CRITICAL_ALPHA_WINDOW = 1.5
_MIXTURE_ALPHA_WINDOW = 30.0


def _gauss_law(eq: EquilibriumData, a: float, x_star: float, k: int) -> LimitLaw:
    if k == 1:
        return LimitLaw("Gauss", center=x_star, scale_const=fluct_scale(eq, a, x_star, 1),
                        scale_exponent=0.5)
    return LimitLaw("GenGauss", center=x_star, scale_const=fluct_scale(eq, a, x_star, k),
                    scale_exponent=1.0 / (2 * k), order=k)


def predict_law(eq: EquilibriumData, a: float, n: int, j: int = 1,
                a_c: float | None = None) -> LimitLaw:
    """Map (potential, spike, size) to the predicted largest-eigenvalue law.

    Finite-size dispatch windows: spikes within 1.5 critical-scale units of
    a convex-type critical value resolve to the deformed edge law; spikes
    within 30/n of a non-convex critical or a secondary critical value
    resolve to the mixture laws (whose weights saturate beyond that window);
    everything else is the bulk-edge law below and the outlier law above.
    """
    if a_c is None:
        a_c = critical_a(eq)
    half_vp = 0.5 * eq.V.eval(eq.a1, 1)
    convex_type = abs(a_c - half_vp) <= 1e-6 * max(1.0, half_vp)
    beta = eq.beta

    if convex_type:
        alpha_scaled = (a - a_c) * n ** (1.0 / 3.0) / beta
        profile_at_ac = build_profile(eq, a_c, a_c=a_c)
        transit = profile_at_ac.regime == "transit-critical"
        if transit and abs(a - a_c) * n <= _MIXTURE_ALPHA_WINDOW:
            alpha_n = (a - a_c) * n
            weights = mixture_weights(profile_at_ac, alpha_n, j, regime="transit-critical")
            x0 = profile_at_ac.maximizers[0][0]
            comps = (
                (weights[0], LimitLaw("F1", center=eq.a1, scale_const=beta,
                                       scale_exponent=2.0 / 3.0, alpha=0.0)),
                (weights[1], _gauss_law(eq, a_c, x0, profile_at_ac.maximizers[0][1])),
            )
            return LimitLaw("Mixture", components=comps)
        if abs(alpha_scaled) <= _CRITICAL_ALPHA_WINDOW:
            return LimitLaw("F1", center=eq.a1, scale_const=beta, scale_exponent=2.0 / 3.0,
                            alpha=alpha_scaled)
        if a < a_c:
            return LimitLaw("F0", center=eq.a1, scale_const=beta, scale_exponent=2.0 / 3.0)
    else:
        if abs(a - a_c) * n <= _MIXTURE_ALPHA_WINDOW:
            profile = build_profile(eq, a_c, a_c=a_c)
            alpha_n = (a - a_c) * n
            weights = mixture_weights(profile, alpha_n, j, regime="critical")
            x0 = profile.maximizers[0][0]
            comps = (
                (weights[0], LimitLaw("F0", center=eq.a1, scale_const=beta,
                                       scale_exponent=2.0 / 3.0)),
                (weights[1], _gauss_law(eq, a_c, x0, profile.maximizers[0][1])),
            )
            return LimitLaw("Mixture", components=comps)
        if a < a_c:
            return LimitLaw("F0", center=eq.a1, scale_const=beta, scale_exponent=2.0 / 3.0)

    # Supercritical side: look for a nearby secondary critical value.
    span = _MIXTURE_ALPHA_WINDOW / n + 1.0 / math.sqrt(n)
    nearby = secondary_criticals(eq, max(a - span, a_c + 1e-6), a + span, grid=24)
    for a0 in nearby:
        profile0 = build_profile(eq, a0, a_c=a_c)
        maxima = maximizer_set(eq, a0, tie_tol=1e-6)
        if len(maxima) < 2:
            continue
        orders = [k for _, k in maxima]
        if all(k == 1 for k in orders):
            alpha_n = (a - a0) * n
            if abs(alpha_n) > _MIXTURE_ALPHA_WINDOW:
                continue
            profile0 = TransitionProfile(eq, a0, a_c, profile0.half_vp_edge, profile0.c_a,
                                         profile0.G_max, tuple(maxima), "secondary-critical")
            weights = mixture_weights(profile0, alpha_n, j, regime="secondary-critical")
            comps = tuple(
                (w, _gauss_law(eq, a0, x, 1)) for w, (x, _) in zip(weights, maxima)
            )
            return LimitLaw("Mixture", components=comps)
        # Unequal flatness orders: the tilt includes a logarithmic shift.
        (x1, k1), (x2, k2) = maxima[0], maxima[1]
        q = (0.5 - 0.5 / k2) / (x2 - x1)
        alpha_n = (a - a0) * n + q * math.log(n)
        if abs(alpha_n) > _MIXTURE_ALPHA_WINDOW:
            continue
        profile0 = TransitionProfile(eq, a0, a_c, profile0.half_vp_edge, profile0.c_a,
                                     profile0.G_max, tuple(maxima), "flat-secondary")
        weights = mixture_weights(profile0, alpha_n, j, regime="flat-secondary")
        comps = (
            (weights[0], _gauss_law(eq, a0, x1, 1)),
            (weights[1], _gauss_law(eq, a0, x2, k2)),
        )
        return LimitLaw("Mixture", components=comps)

    maxima = maximizer_set(eq, a)
    if len(maxima) > 1:
        raise ValueError("tied maximizers away from any detected secondary critical value")
    x0, k = maxima[0]
    return _gauss_law(eq, a, x0, k)
