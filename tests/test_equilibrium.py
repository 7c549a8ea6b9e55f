import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from spectral_edge.equilibrium import (
    _REGULAR_TOL,
    NotOneCutError,
    _off_cut_peaks,
    density_psi,
    edge_beta,
    solve_support,
    to_json,
)
from spectral_edge.potential import GUE, Potential, eynard_potential, horner
from spectral_edge.specialfn import gauss_legendre

from conftest import gue_g_prime
from oracles import g0_interior, robin_constant


class TestSupport:
    def test_gue_semicircle(self, eq_gue):
        assert abs(eq_gue.b0 + 2.0) < 1e-10
        assert abs(eq_gue.a1 - 2.0) < 1e-10

    def test_quartic_endpoint_oracle(self, eq_quartic):
        # independent 1-D root find: symmetric support [-b, b] must satisfy
        # (1/2pi) int s V'(s)/sqrt(b^2-s^2) ds = 1 for V' = s^3
        def resid(b):
            val, _ = quad(lambda s: s ** 4 / np.sqrt(b * b - s * s), -b * (1 - 1e-12), b * (1 - 1e-12))
            return val / (2.0 * np.pi) - 1.0
        b_oracle = brentq(resid, 1.0, 2.0, xtol=1e-12)
        assert abs(b_oracle - (16.0 / 3.0) ** 0.25) < 1e-7
        assert abs(eq_quartic.a1 - b_oracle) < 1e-8
        assert abs(eq_quartic.b0 + b_oracle) < 1e-8

    def test_eynard_support_near_unperturbed(self, eq_eynard):
        # edges approach (-2, 2) linearly in eps; the right edge is soft
        # (measured slope ~12), the left edge stiff
        assert abs(eq_eynard.b0 + 2.0) < 15.0 * 0.02
        assert abs(eq_eynard.a1 - 2.0) < 15.0 * 0.02
        eq_small = solve_support(eynard_potential(3.0, 0.005))
        assert abs(eq_small.a1 - 2.0) < 0.45 * abs(eq_eynard.a1 - 2.0)
        assert abs(eq_small.b0 + 2.0) < 0.45 * abs(eq_eynard.b0 + 2.0)

    def test_two_cut_potential_rejected(self):
        with pytest.raises(NotOneCutError) as err:
            solve_support(Potential((0.0, 0.0, -2.0, 0.0, 0.25), label="double-well"))
        assert "density" in str(err.value) or "no converged" in str(err.value)


class TestDensity:
    def test_semicircle_at_origin(self, eq_gue):
        assert abs(density_psi(eq_gue, 0.0) - 1.0 / math.pi) < 1e-12

    def test_vanishes_at_edges(self, eq_gue):
        assert density_psi(eq_gue, eq_gue.a1) == 0.0
        assert density_psi(eq_gue, eq_gue.b0) == 0.0

    @pytest.mark.parametrize("potfix", ["eq_gue", "eq_quartic", "eq_eynard"])
    def test_normalization(self, potfix, request):
        eq = request.getfixturevalue(potfix)
        rule = gauss_legendre(400, 0.0, math.pi)
        mid = 0.5 * (eq.b0 + eq.a1)
        rad = 0.5 * (eq.a1 - eq.b0)
        s = mid + rad * np.cos(rule.nodes)
        vals = density_psi(eq, s) * rad * np.sin(rule.nodes)
        assert abs(rule.integrate(vals) - 1.0) < 1e-8

    def test_outside_rejected(self, eq_gue):
        with pytest.raises(ValueError):
            density_psi(eq_gue, 2.5)


class TestGFunction:
    def test_closed_form_derivative(self, eq_gue):
        assert abs(eq_gue.g_deriv(3.0, 1) - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12
        assert abs(eq_gue.g_deriv(3.0, 1) - gue_g_prime(3.0)) < 1e-12

    @pytest.mark.parametrize("eq_name", ["eq_gue", "eq_quartic", "eq_eynard"])
    def test_closed_forms_bit_identical_to_polynomial_route(self, eq_name, request):
        # g' and g'' right of the edge, with h and h' from cached coefficient
        # arrays, evaluate exactly as through fresh numpy Polynomials
        eq = request.getfixturevalue(eq_name)
        h = np.polynomial.Polynomial(eq.h_coeffs)
        hp = h.deriv(1)
        for z in np.linspace(eq.a1 + 1e-6, eq.a1 + 8.0, 201).tolist():
            S = math.sqrt((z - eq.b0) * (z - eq.a1))
            Rp = 2.0 * z - eq.b0 - eq.a1
            assert eq.g_deriv(z, 1) == 0.5 * (eq.V.eval(z, 1) - h(z) * S)
            assert eq.g_deriv(z, 2) == 0.5 * (eq.V.eval(z, 2) - hp(z) * S - h(z) * Rp / (2.0 * S))

    def test_derivative_decays(self, eq_gue):
        assert eq_gue.g_deriv(1e6, 1) < 2e-6

    def test_edge_limit_of_derivative(self, eq_gue):
        assert abs(eq_gue.g_deriv(2.0 + 1e-6, 1) - 1.0) < 2e-3

    def test_quadrature_matches_closed_form(self, eq_gue):
        # independent value oracle: g(z) = log z - int_z^inf (1/t - g'(t)) dt,
        # with the closed-form derivative; the integrand decays like t^-3
        z = 3.0
        tail, _ = quad(lambda t: 1.0 / t - gue_g_prime(t), z, np.inf)
        oracle = math.log(z) + tail
        assert abs(eq_gue.log_potential(z) - oracle) < 1e-9

    def test_concavity_right_of_edge(self, eq_gue):
        for z in np.linspace(eq_gue.a1 + 1e-3, eq_gue.a1 + 10.0, 50):
            assert eq_gue.g_deriv(z, 2) < 0.0

    def test_higher_orders_match_finite_differences(self, eq_gue):
        z = 3.0
        h = 1e-3
        fd3 = (eq_gue.g_deriv(z + h, 2) - eq_gue.g_deriv(z - h, 2)) / (2 * h)
        assert abs(eq_gue.g_deriv(z, 3) - fd3) < 1e-6

    def test_inside_raises(self, eq_gue):
        with pytest.raises(ValueError):
            eq_gue.g_deriv(0.0, 1)


class TestLogPotential:
    @pytest.mark.parametrize("potfix", ["eq_gue", "eq_quartic", "eq_eynard", "eq_shelf"])
    def test_matches_scalar_rule(self, potfix, request):
        eq = request.getfixturevalue(potfix)
        xs = eq.a1 + np.concatenate([[0.0], np.logspace(-9, 1.5, 600)])
        vec = eq.log_potential(xs)
        assert vec.shape == xs.shape
        assert np.max(np.abs(vec - [eq._g0(x) for x in xs])) <= 1e-13
        assert eq.log_potential(float(xs[7])) == pytest.approx(vec[7], abs=1e-13)

    def test_shape_preserved(self, eq_gue):
        xs = np.linspace(2.5, 4.0, 6).reshape(2, 3)
        assert eq_gue.log_potential(xs).shape == (2, 3)
        assert isinstance(eq_gue.log_potential(3.0), float)


class TestRobinConstant:
    def test_edge_and_interior_agree_gue(self, eq_gue):
        # oracle: 2 int log|x-s| psi(s) ds - V(x) at x = 0 by adaptive
        # quadrature with the singular point declared
        def integrand(s):
            return math.log(abs(s)) * math.sqrt(max(4.0 - s * s, 0.0)) / (2.0 * math.pi)
        val, _ = quad(integrand, -2.0, 2.0, points=[0.0], limit=200)
        oracle = 2.0 * val
        ell = robin_constant(eq_gue)
        assert abs(ell - oracle) < 1e-7
        assert abs(eq_gue.ell - oracle) < 1e-7

    def test_equality_residual_inside(self, eq_gue):
        for x in np.linspace(-1.5, 1.5, 5):
            val = 2.0 * g0_interior(eq_gue, float(x)) - eq_gue.V.eval(float(x))
            assert abs(val - eq_gue.ell) < 1e-7

    def test_strict_inequality_outside(self, eq_gue):
        x = eq_gue.a1 + 0.5
        assert 2.0 * eq_gue.log_potential(x) - eq_gue.V.eval(x) < eq_gue.ell


class TestEdgeBeta:
    def test_gue_unit(self, eq_gue):
        assert abs(eq_gue.beta - 1.0) < 1e-8

    def test_quartic_two_routes(self, eq_quartic):
        closed = edge_beta(eq_quartic)
        # limit-definition route with Richardson extrapolation in t
        ts = np.array([1e-2, 1e-3, 1e-4])
        vals = np.array([
            (math.pi * density_psi(eq_quartic, eq_quartic.a1 - t) / math.sqrt(t)) ** (2.0 / 3.0)
            for t in ts
        ])
        extrap = vals[2] + (vals[2] - vals[1]) / 9.0
        assert abs(extrap - closed) < 1e-4

    def test_scaling_covariance(self):
        # V(cx) with c = 2 halves the support and doubles the edge constant
        eq_scaled = solve_support(Potential((0.0, 0.0, 2.0)))
        assert abs(eq_scaled.a1 - 1.0) < 1e-10
        assert abs(eq_scaled.beta - 2.0) < 1e-8

    def test_edge_behavior_matches(self, eq_gue):
        ts = np.array([1e-2, 1e-3, 1e-4])
        vals = np.array([density_psi(eq_gue, 2.0 - t) / math.sqrt(t) for t in ts])
        extrap = vals[2] + (vals[2] - vals[1]) / 9.0
        assert abs(extrap - eq_gue.beta ** 1.5 / math.pi) < 1e-4


class TestRegularity:
    @staticmethod
    def margins(eq):
        """min of h on the cut, then the largest 2g - V - ell at a peak right
        and left of it (-inf on a side with none)."""
        h_min = horner(eq._h, np.linspace(eq.b0, eq.a1, 200)).min()
        xs, vals = _off_cut_peaks(eq)
        return (h_min, vals[xs > eq.a1].max(initial=-np.inf),
                vals[xs < eq.b0].max(initial=-np.inf))

    def test_gue_passes(self, eq_gue):
        h_min, right, left = self.margins(eq_gue)
        assert h_min > 0 and max(right, left) < -_REGULAR_TOL
        assert right < 0
        assert left < 0

    def test_eynard_margin_scaling(self, eq_eynard):
        h_min, right, left = self.margins(eq_eynard)
        assert h_min > 0 and max(right, left) < -_REGULAR_TOL
        # the effective potential at the secondary well nearly touches zero:
        # margin = -E(eps), E positive and O(eps)
        E_02 = -(2.0 * eq_eynard.log_potential(3.0) - eq_eynard.V.eval(3.0) - eq_eynard.ell)
        assert 0.0 < E_02 < 4.0 * 0.02
        eq_small = solve_support(eynard_potential(3.0, 0.005))
        E_005 = -(2.0 * eq_small.log_potential(3.0) - eq_small.V.eval(3.0) - eq_small.ell)
        assert 0.0 < E_005 < 4.0 * 0.005
        assert 1.5 < E_02 / E_005 < 8.0

    def test_json_export_fields(self, eq_gue):
        obj = to_json(eq_gue)
        assert set(obj) == {"b0", "a1", "ell", "beta", "h_coeffs", "potential"}
