"""Reference routes the tests compare the library against.

Each one computes a quantity the library also computes, by a different
method: the deformation profile by a contour integral, the variational
constant by adaptive quadrature inside the cut, the rank-one eigenvalue
density through the exponential divided difference that the Metropolis
chain never forms, and the top eigenvalue of the full tridiagonal model by
LAPACK, where the direct sampler bisects a leading block in numpy.  Ai on
(-8, 8), which the library reads from a Taylor table, comes here from
``scipy.special.airy``, and the normal CDF, which the library takes from
``math.erfc``, from ``scipy.special.ndtr``; Ai at complex arguments is here
for the rotation identity.  The soft-edge law and the critical law at
alpha = 0 come from the closed forms of Ferrari and Spohn, determinants of
the Airy Hankel operator, where the library takes the Airy kernel.  Two
views of the phase structure that only the tests read, the detachment set
A_V and the band of tilts with two local maxima of G, are here as well.
The orthonormal system is checked by its discrete Gram matrix on the build's
grid and by the string equations, with V'(J) summed from matrix powers
where the library runs Horner's rule.  The Metropolis eigenvalue pass is
here one site at a time, each repulsion change summed against the current
values, where the library reads it from tables built once per pass.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy, ndtr

from spectral_edge.equilibrium import EquilibriumData, NotOneCutError
from spectral_edge.finitemodel import OrthoSystem
from spectral_edge.potential import Potential, horner
from spectral_edge.sampler import TIE_GAP
from spectral_edge.specialfn import ENVELOPE_RADIUS, airy_ai_pair, legendre_reference
from spectral_edge.transition import _DETACH_TOL, _overlaps, _phi, _rising_runs, scan


def complex_ai(z) -> complex:
    """Ai at a complex argument, from ``scipy.special.airy``.

    scipy returns a wrong value on the negative real axis when the imaginary
    part is -0.0: at z = -2 - 0j it gives -0.114 + 0.206j, against
    Ai(-2) = 0.227.  Ai is entire, and adding 0j turns an imaginary part of
    -0.0 into +0.0 and moves no other argument, so the value is Ai(z).
    """
    return complex(airy(complex(z) + 0j)[0])


def airy_pair_scipy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') over a real array, from ``scipy.special.airy`` for |x| < 8
    and from the library's asymptotic expansions elsewhere: the route the
    library took before its Taylor table."""
    x = np.asarray(x, dtype=float)
    ai, aip = airy_ai_pair(x)
    inner = np.abs(x) < 8.0
    ai[inner], aip[inner] = airy(x[inner])[:2]
    return ai, aip


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


def g0_interior(eq: EquilibriumData, x: float) -> float:
    """Integral of log|x - s| against the density at x inside the cut, by
    adaptive quadrature with the singular point declared."""

    def integrand(s):
        return (math.log(abs(x - s)) * horner(eq._h, s)
                * math.sqrt(max((s - eq.b0) * (eq.a1 - s), 0.0)) / (2.0 * np.pi))
    val, _ = quad(integrand, eq.b0, eq.a1, points=[x], limit=200)
    return val


def robin_constant(eq: EquilibriumData, consistency_tol: float = 1e-5) -> float:
    """The variational constant, evaluated at the edge and cross-checked inside."""
    ell_edge = 2.0 * eq._g0(eq.a1) - eq.V.eval(eq.a1)
    mid = 0.5 * (eq.b0 + eq.a1)
    ell_mid = 2.0 * g0_interior(eq, mid) - eq.V.eval(mid)
    if abs(ell_edge - ell_mid) > consistency_tol:
        raise NotOneCutError(
            f"variational equality inconsistent: edge {ell_edge:.10f} vs midpoint {ell_mid:.10f}"
        )
    return ell_edge


def dd_exp_log(lams: np.ndarray, c: float) -> float:
    """log of the divided difference of exp(c*x) over the nodes.

    Corner entry of the exponential of the bidiagonal matrix with c*(node -
    max) on the diagonal and c on the superdiagonal, by Taylor plus
    scaling-and-squaring.  The diagonal is <= 0 but the off-diagonal part is
    nonnegative, and the scaled matrix has norm <= 2, so any cancellation is
    confined to the bounded Taylor phase; the squarings act on exp(A), whose
    entries are all nonnegative.  The max-node shift is restored additively.
    """
    lams = np.asarray(lams, dtype=float)
    nn = lams.size
    if nn == 1:
        return c * float(lams[0])
    mx = float(lams.max())
    B = np.diag(c * (lams - mx)) + np.diag(np.full(nn - 1, c), 1)
    norm = float(np.abs(B).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(norm))) - 1) if norm > 1 else 0
    A = B / (2.0 ** s)
    X = np.eye(nn)
    term = np.eye(nn)
    for k in range(1, 18):
        term = term @ A / k
        X = X + term
    for _ in range(s):
        X = X @ X
    corner = float(X[0, -1])
    if corner <= 0 or not math.isfinite(corner):
        raise FloatingPointError("divided difference lost positivity")
    return c * mx + math.log(corner)


def log_density_rank1(lams: np.ndarray, V: Potential, n: int, a: float) -> float:
    """Unnormalized log density of the eigenvalues of the rank-one model.

    Repulsion + confinement + the rank-one tilt factor; with no spike the
    tilt drops and the density is the pure confined log-gas.
    """
    lams = np.sort(np.asarray(lams, dtype=float))
    nn = lams.size
    # the density is symmetric, so work with the sorted values and cascade a
    # minimal separation through any (near-)ties
    for i in range(1, nn):
        if lams[i] - lams[i - 1] < 1e-12:
            lams[i] = lams[i - 1] + 1e-12
    diffs = lams[:, None] - lams[None, :]
    iu = np.triu_indices(nn, 1)
    rep = 2.0 * float(np.sum(np.log(np.abs(diffs[iu]))))
    conf = -n * float(np.sum(V.eval(lams)))
    if a == 0.0:
        return rep + conf
    val = rep + conf + dd_exp_log(lams, n * a)
    if not math.isfinite(val):
        raise FloatingPointError("non-finite log density")
    return val


def top_eigenvalue_lapack(diag: np.ndarray, off: np.ndarray) -> float:
    """Largest eigenvalue of one symmetric tridiagonal matrix, by ``dstebz``."""
    k = diag.size
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(k - 1, k - 1),
                                      check_finite=False)[0])


def full_tridiagonal_draws(n: int, a: float, reps: int, seed: int) -> np.ndarray:
    """Top eigenvalues of the full n x n Hermite tridiagonal model, drawn
    from the Philox calls that ``sample_gaussian_spiked`` makes when it
    keeps every row (batches of 2**20 // n draws, diagonal then
    off-diagonal), each solved by LAPACK's ``dstebz``."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
    out = np.empty(reps)
    dof = 2.0 * np.arange(n - 1, 0, -1)
    batch = max(1, 2 ** 20 // n)
    for start in range(0, reps, batch):
        b = min(batch, reps - start)
        diag = rng.normal(size=(b, n)) / math.sqrt(n)
        diag[:, 0] += a
        off = np.sqrt(rng.chisquare(dof, size=(b, n - 1)) / (2.0 * n))
        out[start:start + b] = [top_eigenvalue_lapack(d, e) for d, e in zip(diag, off)]
    return out


def _hankel_dets(T: float, m: int = 80, span: float = 16.0) -> tuple[float, float]:
    """det(1 - B_T) and det(1 + B_T), B_T(x, y) = Ai(x + y + T) on L^2(0, inf),
    by m Gauss-Legendre nodes on (0, span), where B_T has decayed below rounding."""
    t, w = legendre_reference(m)
    x, sw = 0.5 * span * (t + 1.0), np.sqrt(0.5 * span * w)
    B = sw[:, None] * airy(x[:, None] + x[None, :] + T)[0] * sw[None, :]
    return float(np.linalg.det(np.eye(m) - B)), float(np.linalg.det(np.eye(m) + B))


def f0_closed_form(T: float) -> float:
    """The soft-edge law F2(T) = det(1 - B_T) det(1 + B_T) (Ferrari-Spohn)."""
    minus, plus = _hankel_dets(T)
    return minus * plus


def f1_closed_form_alpha0(T: float) -> float:
    """The critical law at alpha = 0, F_GOE(T)^2 = det(1 - B_T)^2."""
    return _hankel_dets(T)[0] ** 2


def in_A_V(eq: EquilibriumData, a: float) -> bool:
    """Whether some G value right of the H minimum beats the H minimum."""
    return _phi(eq, a, scan(eq, a)) > _DETACH_TOL


def switch_band(eq: EquilibriumData) -> tuple[float, float] | None:
    """Smallest interval of tilts a holding every a at which G has two local
    maxima right of the edge, or None when G never has two: each rising run
    of W holds at most one, so the band is the hull of the levels two cross."""
    spans = [(lo, hi) for _, _, lo, hi in _overlaps(_rising_runs(eq))]
    return (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else None


def orthonormality_defect(ortho: OrthoSystem) -> float:
    """Largest entry of |G - I|, G the Gram matrix of ``psi_at`` on the build's grid."""
    psi = ortho.psi_at(ortho.grid.nodes)
    gram = (psi * ortho.grid.weights) @ psi.T
    return float(np.max(np.abs(gram - np.eye(ortho.count))))


def string_residual(ortho: OrthoSystem) -> float:
    """Largest relative residual of the string equations of the weight
    e^{-n V}, n [V'(J)]_{k,k-1} = k / b_k and [V'(J)]_{kk} = 0 (Freud;
    Magnus), on the rows k < count - deg V that the count x count Jacobi
    matrix determines.  The diagonal is taken relative to |V'|(||J||_inf),
    with the absolute values of the coefficients of V'."""
    m, n, V = ortho.count, ortho.n, ortho.V
    J = (np.diag(ortho.recur_a[:m]) + np.diag(ortho.recur_b[1:m], 1)
         + np.diag(ortho.recur_b[1:m], -1))
    dv = V.deriv_coefficients(1)
    D = sum(c * np.linalg.matrix_power(J, i) for i, c in enumerate(dv))
    rows = max(m - V.degree, 0)
    k = np.arange(1, rows)
    off = np.abs(n * ortho.recur_b[k] * D[k, k - 1] / k - 1.0)
    scale = sum(abs(c) * np.abs(J).sum(axis=1).max() ** i for i, c in enumerate(dv))
    diag = np.abs(np.diag(D)[:rows]) / scale
    return float(max(off.max(initial=0.0), diag.max(initial=0.0)))


def lambda_pass_one_site_at_a_time(lams, logs, props, thresholds) -> np.ndarray:
    """``sampler._lambda_pass`` site by site: each site's repulsion change is
    summed against the current values, and an accepted move rewrites its row
    and column of ``logs``.  Same arguments, in-place updates and result."""
    moved = np.zeros(lams.size, dtype=bool)
    for i, (x, thr) in enumerate(zip(props.tolist(), thresholds.tolist())):
        dist = np.abs(lams - x)
        dist[i] = 1.0
        row = np.log(dist)
        if (2.0 * np.add.reduce(row - logs[i]) > thr
                and np.minimum.reduce(dist) >= TIE_GAP):
            lams[i] = x
            logs[i] = row
            logs[:, i] = row
            moved[i] = True
    return moved
