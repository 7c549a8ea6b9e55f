"""Correctness gate for ``law_query``: every timed output against a reference.

GUE is checked against its closed forms (support [-2, 2], beta = 1,
a_c = 1, outlier at a + 1/a with scale^2 = a^2/(a^2 - 1), so x0(2) = 2.5 and
scale^2 = 4/3).  The other potentials are checked against ``reference.py``:
a_c to 1e-8, each secondary critical value to 1e-7, and for every law query
the kind, centers (1e-7), scales (1e-6 relative), exponents, the F1 offset
alpha (1e-6) and the mixture-weight exponent (1e-6 relative, from pairs of
queries in one critical window).  CDF tables must be finite, inside [0, 1]
and non-decreasing (1e-9 slack); Gaussian tables must match erfc to 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from law_query import T_GRID
from reference import PhaseReference, density_mass, gue_closed_forms

TOL_AC = 1e-8
TOL_SEC = 1e-7
TOL_CENTER = 1e-7
TOL_SCALE = 1e-6
TOL_ALPHA = 1e-6
TOL_CDF = 1e-9
_CRIT_WINDOW = 1.5          # predict_law's F1 window in critical-scale units
_MIX_WINDOW = 30.0          # predict_law's mixture window in units of 1/n


class Expected:
    """Reference phase data for one potential."""

    def __init__(self, name: str, eq):
        self.eq = eq
        self.gue = name == "gue"
        h_e = float(np.polynomial.Polynomial(eq.h_coeffs)(eq.a1))
        self.beta = (0.5 * h_e) ** (2.0 / 3.0) * (eq.a1 - eq.b0) ** (1.0 / 3.0)
        half = 0.5 * eq.V.eval(eq.a1, 1)
        if self.gue:
            self.a_c, self.pr, self.secondary = 1.0, None, []
        else:
            self.pr = PhaseReference(eq, 4.0 * half)
            self.a_c = self.pr.critical_a()
            self.secondary = self.pr.secondary_criticals(self.a_c + 1e-4, 4.0 * half)
        self.convex = abs(self.a_c - half) <= 1e-6 * max(1.0, half)

    def x0(self, a: float) -> float:
        return gue_closed_forms(a)["x0"] if self.gue else self.pr.x0(a)

    def scale(self, x: float) -> float:
        if self.gue:
            # a + 1/a = x  ->  scale^2 = a^2/(a^2-1) with a the root above 1
            a = 0.5 * (x + math.sqrt(x * x - 4.0))
            return gue_closed_forms(a)["scale"]
        return math.sqrt(self.pr.w_prime(x))

    def gauss(self, x: float):
        return ("Gauss", x, self.scale(x), 0.5, 0.0)

    def law(self, a: float, n: int):
        """(components, slope): components as (kind, center, scale, exponent,
        alpha); slope is d log(w1/w0) / d(a n) for a mixture, else None."""
        e = self.eq.a1
        edge = lambda kind, alpha=0.0: (kind, e, self.beta, 2.0 / 3.0, alpha)
        if self.convex:
            alpha = (a - self.a_c) * n ** (1.0 / 3.0) / self.beta
            if abs(alpha) <= _CRIT_WINDOW:
                return [edge("F1", alpha)], None
            if a < self.a_c:
                return [edge("F0")], None
        else:
            if abs(a - self.a_c) * n <= _MIX_WINDOW:
                x0 = self.x0(self.a_c)
                return [edge("F0"), self.gauss(x0)], x0 - self.pr.c_of(self.a_c)
            if a < self.a_c:
                return [edge("F0")], None
        for a0, xa, xb in self.secondary:
            if abs(a - a0) * n <= _MIX_WINDOW:
                return [self.gauss(xa), self.gauss(xb)], xb - xa
        return [self.gauss(self.x0(a))], None


def _close(x, y, tol, rel=False) -> bool:
    scale = max(1.0, abs(y)) if rel else 1.0
    return math.isfinite(x) and abs(x - y) <= tol * scale


def _check_descriptor(op, law, want) -> None:
    comps = [w_law for _, w_law in law.components] if law.kind == "Mixture" else [law]
    kinds = [c.kind for c in comps]
    want_kinds = [w[0] for w in want]
    if kinds != want_kinds:
        op.fail(f"law kind {kinds} != reference {want_kinds}")
        return
    for c, (_, center, scale, expo, alpha) in zip(comps, want):
        if not _close(c.center, center, TOL_CENTER):
            op.fail(f"{c.kind} center {c.center!r} != reference {center!r}")
        if not _close(c.scale_const, scale, TOL_SCALE, rel=True):
            op.fail(f"{c.kind} scale {c.scale_const!r} != reference {scale!r}")
        if not _close(c.scale_exponent, expo, 1e-15):
            op.fail(f"{c.kind} exponent {c.scale_exponent!r} != {expo!r}")
        if c.kind == "F1" and not _close(c.alpha, alpha, TOL_ALPHA):
            op.fail(f"F1 alpha {c.alpha!r} != reference {alpha!r}")


def _check_table(op, law, table, n) -> None:
    if table.shape != T_GRID.shape or not np.all(np.isfinite(table)):
        op.fail("CDF table not finite or wrong length")
        return
    if table.min() < -TOL_CDF or table.max() > 1.0 + TOL_CDF:
        op.fail(f"CDF outside [0, 1]: [{table.min():.3e}, {table.max():.6f}]")
    if np.min(np.diff(table)) < -TOL_CDF:
        op.fail(f"CDF decreases by {-np.min(np.diff(table)):.3e}")
    comps = law.components if law.kind == "Mixture" else ((1.0, law),)
    if all(c.kind == "Gauss" for _, c in comps):
        lam = (comps[0][1].center + T_GRID / (comps[0][1].scale_const * math.sqrt(n))
               if law.kind == "Mixture" else None)
        ref = np.zeros_like(T_GRID)
        for w, c in comps:
            t = T_GRID if lam is None else (lam - c.center) * c.scale_const * math.sqrt(n)
            ref += w * np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in t])
        if np.max(np.abs(table - ref)) > 1e-12:
            op.fail(f"Gaussian CDF off erfc by {np.max(np.abs(table - ref)):.2e}")


def _check_diagram(entry: dict, ref: Expected) -> None:
    eq = entry["eq"]
    op = entry["solve_op"]
    mass = density_mass(eq)
    if abs(mass - 1.0) > 1e-9:
        op.fail(f"density mass {mass!r} != 1")
    if ref.gue:
        want = gue_closed_forms(2.0)
        for key in ("b0", "a1", "beta"):
            if not _close(getattr(eq, key), want[key], 1e-9):
                op.fail(f"GUE {key} {getattr(eq, key)!r} != {want[key]}")
    elif not _close(eq.beta, ref.beta, 1e-12, rel=True):
        op.fail(f"beta {eq.beta!r} != (h(e)/2)^(2/3) (e-b0)^(1/3) = {ref.beta!r}")
    if "a_c" in entry and not _close(entry["a_c"], ref.a_c, TOL_AC):
        entry["critical_op"].fail(f"a_c {entry['a_c']!r} != reference {ref.a_c!r}")
    if "secondary" in entry:
        lo, hi = entry["range"]
        want = [s[0] for s in ref.secondary if lo <= s[0] <= hi]
        got = list(entry["secondary"])
        if len(got) != len(want) or not all(_close(g, w, TOL_SEC) for g, w in zip(got, want)):
            entry["secondary_op"].fail(
                f"secondary criticals {got} != reference {want} on [{lo:.6f}, {hi:.6f}]")


def check(res: dict, expected: dict) -> None:
    """Check one job's results; ``expected`` caches the references per potential."""
    for name, entry in res["diagram"].items():
        if "eq" in entry:
            if name not in expected:
                expected[name] = Expected(name, entry["eq"])
            _check_diagram(entry, expected[name])

    slopes: dict[tuple, list] = {}
    for q, law, table, op in res["answered"]:
        want, slope = expected[q["potential"]].law(q["a"], q["n"])
        _check_descriptor(op, law, want)
        _check_table(op, law, table, q["n"])
        if slope is not None and want[0][0] == "F0" and len(law.components) == 2:
            # critical mixture: log(w1/w0) is affine in (a - a_c) n with slope x0 - c
            (w0, _), (w1, _) = law.components
            a_c = res["diagram"][q["potential"]]["a_c"]
            slopes.setdefault((q["potential"], q["n"]), []).append(
                ((q["a"] - a_c) * q["n"], math.log(w1 / w0), slope, op))
    for group in slopes.values():
        for (t1, l1, s, op), (t2, l2, _, _) in zip(group, group[1:]):
            got = (l2 - l1) / (t2 - t1)
            if not _close(got, s, TOL_SCALE, rel=True):
                op.fail(f"mixture log-weight slope {got!r} != x0 - c = {s!r}")
