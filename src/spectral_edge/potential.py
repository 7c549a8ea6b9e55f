"""Polynomial confining potentials."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["Potential", "eynard_potential", "horner", "load_potential"]

MAX_DEGREE = 16


def horner(coeffs, x):
    """Polynomial with monomial coefficients ``coeffs`` at x.

    The operations and their order are numpy ``polyval``'s, so values are
    bit-identical to it; a Python float x stays a Python float and never
    goes through numpy, which makes scalar root searches cheap.
    """
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


@dataclass(frozen=True)
class Potential:
    """Polynomial potential in the monomial basis; coefficients[i] multiplies x^i.

    Admissibility: finite coefficients and an even degree between 2 and 16
    with a positive leading coefficient, for super-linear growth both ways.
    """

    coefficients: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"coefficients must be finite, got {coeffs}")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)
        deg = self.degree
        if deg < 2 or deg % 2 != 0:
            raise ValueError(f"potential degree must be even and >= 2, got {deg}")
        if deg > MAX_DEGREE:
            raise ValueError(f"potential degree must be <= {MAX_DEGREE}, got {deg}")
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        # coefficient arrays of V, V', ..., V^(degree), built once
        derivs = [np.array(coeffs)]
        for _ in range(deg):
            derivs.append(np.polynomial.polynomial.polyder(derivs[-1]))
        for arr in derivs:
            arr.setflags(write=False)
        object.__setattr__(self, "_derivs", tuple(derivs))
        object.__setattr__(self, "_horner", tuple(tuple(arr.tolist()) for arr in derivs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def vpp_real_roots(self) -> tuple[float, ...]:
        """Real roots of V'' (imaginary part below 1e-9), computed on first use."""
        roots = np.polynomial.Polynomial(self._derivs[2]).roots()
        return tuple(float(r.real) for r in roots if abs(r.imag) < 1e-9)

    def eval(self, x, k: int = 0):
        """Value (k=0) or k-th derivative of the polynomial at x."""
        self.deriv_coefficients(k)          # rejects an order outside 0..degree
        if isinstance(x, (float, int)):
            return horner(self._horner[k], float(x))
        out = horner(self._horner[k], np.asarray(x, dtype=float))
        return float(out) if np.isscalar(x) else out

    def deriv_coefficients(self, k: int = 1) -> np.ndarray:
        """Monomial coefficients of the k-th derivative (read-only), 0 <= k <= degree."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if k > self.degree:
            raise ValueError(f"derivative order {k} exceeds degree {self.degree}")
        return self._derivs[k]

    def to_json(self) -> dict:
        return {"label": self.label, "coefficients": list(self.coefficients)}

    @staticmethod
    def from_json(obj: dict) -> "Potential":
        if not isinstance(obj, dict) or "coefficients" not in obj:
            raise ValueError("potential JSON must be an object with a 'coefficients' array")
        coeffs = obj["coefficients"]
        if not isinstance(coeffs, list) or not all(isinstance(c, (int, float)) for c in coeffs):
            raise ValueError("'coefficients' must be a list of numbers")
        return Potential(tuple(coeffs), label=str(obj.get("label", "")))


def derivative_or_zero(V: Potential, x, k: int):
    """k-th derivative of the potential, zero beyond its degree.

    Internal helper for formulas ranging over derivative orders; the strict
    precondition on :meth:`Potential.eval` stays in force for callers.
    """
    return V.eval(x, k) if k <= V.degree else (0.0 if np.isscalar(x) else np.zeros_like(x))


GUE = Potential((0.0, 0.0, 0.5), label="gue")
QUARTIC = Potential((0.0, 0.0, 0.0, 0.0, 0.25), label="quartic")


def eynard_companion_root(e_bar: float) -> float:
    """Root e~ of the moment condition int_2^e_bar (x-e_bar)(x-e~) sqrt(x^2-4) dx = 0.

    The condition is linear in e~, so e~ = e_bar - P/Q in closed form, with
    P = int (e_bar-x)^2 sqrt(x^2-4) dx and Q = int (e_bar-x) sqrt(x^2-4) dx
    over [2, e_bar].  With x = 2 cosh u and U = acosh(e_bar/2),

        Q = sinh(3U)/3 + 3 sinh U - 4U cosh U
          = sum_{k>=2} (9^k - 8k - 1) U^(2k+1) / (2k+1)!,
        P = sinh(4U)/6 + 14 sinh(2U)/3 - 4U cosh(2U) - 6U
          = (2/3) sum_{k>=3} 4^k (4^k - 12k + 8) U^(2k+1) / (2k+1)!.

    The hyperbolic forms (like the moments I_0, I_1, I_2 of x^k sqrt(x^2-4)
    they come from) cancel as e_bar -> 2, where Q = O(U^5): at e_bar =
    2.0001 they lose ten digits.  The Taylor series have positive terms only,
    and 23 of them hold e~ within 1e-15 of a 40-digit evaluation on all of
    (2, 6].
    """
    u = math.acosh(0.5 * e_bar)
    p = q = 0.0
    term = u ** 5 / 120.0           # U^(2k+1) / (2k+1)! at k = 2
    for k in range(2, 25):
        q += (9.0 ** k - 8 * k - 1) * term
        p += 4.0 ** k * (4.0 ** k - 12 * k + 8) * term      # zero at k = 2
        term *= u * u / ((2 * k + 2) * (2 * k + 3))
    return e_bar - 2.0 * p / (3.0 * q)


def eynard_potential(e_bar: float, eps: float) -> Potential:
    """Quartic with a shallow secondary well at e_bar > 2.

    At eps = 0 the equilibrium measure lives exactly on [-2, 2] and the
    effective potential touches zero at e_bar; eps > 0 deepens the
    confinement slightly, restoring a strict positive margin of order eps
    while keeping the one-cut support within O(eps) of [-2, 2].
    """
    if not 2.0 < e_bar <= 6.0:
        raise ValueError("e_bar must lie in (2, 6]")
    if not 0.0 <= eps < 0.1:
        raise ValueError("eps must lie in [0, 0.1)")
    et = eynard_companion_root(e_bar)
    pref = (1.0 + eps) / (1.0 + e_bar * et)
    coeffs = (
        0.0,
        pref * 2.0 * (e_bar + et),
        pref * 0.5 * (e_bar * et - 2.0),
        -pref * (e_bar + et) / 3.0,
        pref * 0.25,
    )
    return Potential(coeffs, label=f"eynard({e_bar:g},{eps:g})")


BUILTIN_POTENTIALS = {"gue": GUE, "quartic": QUARTIC}


def load_potential(source: str) -> Potential:
    """Resolve a builtin name, an eynard(e_bar,eps) spec, or a JSON file path."""
    name = source.strip().lower()
    if name in BUILTIN_POTENTIALS:
        return BUILTIN_POTENTIALS[name]
    if name.startswith("eynard(") and name.endswith(")"):
        parts = name[len("eynard("):-1].split(",")
        if len(parts) != 2:
            raise ValueError("eynard potential takes exactly two parameters")
        return eynard_potential(float(parts[0]), float(parts[1]))
    path = Path(source)
    if not path.exists():
        raise ValueError(f"unknown potential {source!r}: not a builtin and not a file")
    with open(path) as fh:
        return Potential.from_json(json.load(fh))
