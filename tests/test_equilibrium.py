import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from spectral_edge.equilibrium import (
    NotOneCutError,
    check_regular,
    density_psi,
    edge_beta,
    g_derivative,
    g_double_prime,
    g_function,
    g_prime,
    robin_constant,
    solve_support,
    to_json,
)
from spectral_edge.potential import GUE, Potential, eynard_potential
from spectral_edge.specialfn import gauss_legendre

from conftest import gue_g_prime


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
        assert abs(g_prime(eq_gue, 3.0) - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12
        assert abs(g_prime(eq_gue, 3.0) - gue_g_prime(3.0)) < 1e-12

    def test_derivative_decays(self, eq_gue):
        assert g_prime(eq_gue, 1e6) < 2e-6

    def test_edge_limit_of_derivative(self, eq_gue):
        assert abs(g_prime(eq_gue, 2.0 + 1e-6) - 1.0) < 2e-3

    def test_quadrature_matches_closed_form(self, eq_gue):
        # independent value oracle: g(z) = log z - int_z^inf (1/t - g'(t)) dt,
        # with the closed-form derivative; the integrand decays like t^-3
        z = 3.0
        tail, _ = quad(lambda t: 1.0 / t - gue_g_prime(t), z, np.inf)
        oracle = math.log(z) + tail
        assert abs(g_function(eq_gue, z) - oracle) < 1e-9

    def test_concavity_right_of_edge(self, eq_gue):
        for z in np.linspace(eq_gue.a1 + 1e-3, eq_gue.a1 + 10.0, 50):
            assert g_double_prime(eq_gue, z) < 0.0

    def test_higher_orders_match_finite_differences(self, eq_gue):
        z = 3.0
        h = 1e-3
        fd3 = (g_double_prime(eq_gue, z + h) - g_double_prime(eq_gue, z - h)) / (2 * h)
        assert abs(g_derivative(eq_gue, z, 3) - fd3) < 1e-6

    def test_inside_raises(self, eq_gue):
        with pytest.raises(ValueError):
            g_prime(eq_gue, 0.0)


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
            val = 2.0 * eq_gue._g0_interior(float(x)) - eq_gue.V.eval(float(x))
            assert abs(val - eq_gue.ell) < 1e-7

    def test_strict_inequality_outside(self, eq_gue):
        x = eq_gue.a1 + 0.5
        assert 2.0 * g_function(eq_gue, x) - eq_gue.V.eval(x) < eq_gue.ell


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
    def test_gue_passes(self, eq_gue):
        report = check_regular(eq_gue)
        assert report.passed
        assert report.h_min_inside > 0
        assert report.worst_margin_right < 0
        assert report.worst_margin_left < 0

    def test_eynard_margin_scaling(self, eq_eynard):
        report = check_regular(eq_eynard)
        assert report.passed
        # the effective potential at the secondary well nearly touches zero:
        # margin = -E(eps), E positive and O(eps)
        E_02 = -(2.0 * g_function(eq_eynard, 3.0) - eq_eynard.V.eval(3.0) - eq_eynard.ell)
        assert 0.0 < E_02 < 4.0 * 0.02
        eq_small = solve_support(eynard_potential(3.0, 0.005))
        E_005 = -(2.0 * g_function(eq_small, 3.0) - eq_small.V.eval(3.0) - eq_small.ell)
        assert 0.0 < E_005 < 4.0 * 0.005
        assert 1.5 < E_02 / E_005 < 8.0

    def test_json_export_fields(self, eq_gue):
        obj = to_json(eq_gue)
        assert set(obj) == {"b0", "a1", "ell", "beta", "h_coeffs", "potential"}
