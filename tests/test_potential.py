import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spectral_edge.potential import (
    GUE,
    QUARTIC,
    Potential,
    eynard_companion_root,
    eynard_potential,
    horner,
    load_potential,
)


class TestEval:
    def test_quadratic_first_derivative(self):
        assert GUE.eval(3.0, 1) == 3.0

    def test_quadratic_second_derivative(self):
        assert GUE.eval(2.0, 2) == 1.0

    def test_quartic_first_derivative(self):
        assert QUARTIC.eval(2.0, 1) == 8.0

    def test_matches_monomial_sum(self):
        rng = np.random.default_rng(11)
        coeffs = (0.3, -1.2, 0.0, 0.7, 0.05, 0.0, 0.25)
        V = Potential(coeffs)
        for x in rng.uniform(-3, 3, size=100):
            direct = sum(c * x ** i for i, c in enumerate(coeffs))
            assert abs(V.eval(float(x)) - direct) < 1e-12 * max(1.0, abs(direct))

    def test_derivative_order_bounds(self):
        with pytest.raises(ValueError):
            GUE.eval(1.0, 3)
        with pytest.raises(ValueError):
            GUE.eval(1.0, -1)


    @pytest.mark.parametrize("V", [GUE, QUARTIC, eynard_potential(3.0, 0.02)],
                             ids=["gue", "quartic", "eynard"])
    def test_cached_derivatives_bit_identical(self, V):
        # the cached coefficient arrays evaluate exactly as a fresh numpy
        # Polynomial differentiated k times, on arrays and on scalars
        x = np.random.default_rng(7).uniform(-6.0, 6.0, 20001)
        for k in range(V.degree + 1):
            ref = np.polynomial.Polynomial(V.coefficients).deriv(k)
            assert np.array_equal(V.eval(x, k), ref(x))
            for xi in x[:50].tolist():
                val = V.eval(xi, k)
                assert type(val) is float and val == ref(xi)


class TestHorner:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=17),
           st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=1, max_size=20))
    def test_bit_identical_to_polyval(self, coeffs, xs):
        # every derivative order, on Python floats, 0-d arrays and arrays
        polyval = np.polynomial.polynomial.polyval
        c = np.array(coeffs)
        for k in range(len(coeffs)):
            ck = np.polynomial.polynomial.polyder(c, k) if k else c
            tup = tuple(ck.tolist())
            arr = np.array(xs)
            assert np.array_equal(horner(tup, arr), polyval(arr, ck), equal_nan=True)
            for x in xs:
                val = horner(tup, x)
                assert type(val) is float
                assert np.array_equal(val, polyval(x, ck), equal_nan=True)
                assert np.array_equal(horner(tup, np.array(x)), polyval(np.array(x), ck),
                                      equal_nan=True)

    def test_potential_and_field_use_it(self, eq_shelf):
        # Potential.eval and g' / g'' give the same bits on floats and arrays
        xs = np.linspace(eq_shelf.a1 + 1e-3, 9.0, 301)
        for k in (1, 2):
            arr_v, arr_g = eq_shelf.V.eval(xs, k), eq_shelf.g_deriv(xs, k)
            assert [eq_shelf.V.eval(x, k) for x in xs.tolist()] == arr_v.tolist()
            assert [eq_shelf.g_deriv(x, k) for x in xs.tolist()] == arr_g.tolist()


class TestAdmissibility:
    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            Potential((0.0, 0.0, 0.0, 1.0))

    def test_negative_leading_rejected(self):
        with pytest.raises(ValueError):
            Potential((0.0, 0.0, -1.0))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            Potential(tuple([0.0] * 18 + [1.0]))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            Potential((1.0,))

    @pytest.mark.parametrize("coeffs", [(0.0, math.nan, 1.0), (0.0, math.inf, 1.0),
                                        (0.0, 0.0, 1.0, math.nan)],
                             ids=["nan", "inf", "trailing-nan"])
    def test_non_finite_coefficient_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            Potential(coeffs)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=0, max_size=5),
           st.floats(min_value=0.01, max_value=3.0))
    def test_even_degree_positive_leading_accepted(self, low, lead):
        coeffs = tuple(low) + (0.0,) * ((len(low) + 1) % 2) + (lead,)
        if len(coeffs) % 2 == 0:
            coeffs = coeffs[:-1] + (0.0, lead)
        V = Potential(coeffs)
        assert V.degree % 2 == 0
        assert V.coefficients[-1] > 0


class TestEynard:
    def test_companion_root_oracle(self):
        # independent route: the condition is linear in the root, so the
        # ratio of two adaptive-quadrature moments gives it directly
        e_bar = 3.0
        num, _ = quad(lambda x: (x - e_bar) * x * np.sqrt(x * x - 4.0), 2.0, e_bar)
        den, _ = quad(lambda x: (x - e_bar) * np.sqrt(x * x - 4.0), 2.0, e_bar)
        oracle = num / den
        assert abs(eynard_companion_root(3.0) - oracle) < 1e-10

    @pytest.mark.parametrize("e_bar", ["2.0001", "2.001", "2.05", "2.5", "3", "4", "6"])
    def test_companion_root_against_40_digits(self, e_bar):
        # the same moment ratio by mpmath's quadrature at 40 digits; near
        # e_bar = 2 both moments vanish like (e_bar - 2)^(5/2)
        with mpmath.workdps(40):
            e = mpmath.mpf(e_bar)
            num = mpmath.quad(lambda x: (x - e) * x * mpmath.sqrt(x * x - 4), [2, e])
            den = mpmath.quad(lambda x: (x - e) * mpmath.sqrt(x * x - 4), [2, e])
            oracle = float(num / den)
        assert abs(eynard_companion_root(float(e_bar)) - oracle) < 1e-12

    def test_leading_coefficient_at_zero_eps(self):
        et = eynard_companion_root(3.0)
        V = eynard_potential(3.0, 0.0)
        assert abs(V.coefficients[4] - 0.25 / (1.0 + 3.0 * et)) < 1e-15

    def test_admissible(self):
        V = eynard_potential(3.0, 0.02)
        assert V.degree == 4
        assert V.coefficients[-1] > 0

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            eynard_potential(2.0, 0.02)
        with pytest.raises(ValueError):
            eynard_potential(3.0, 0.2)


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        V = Potential((0.0, 0.5, 0.25, 0.0, 0.125), label="demo")
        path = tmp_path / "pot.json"
        with open(path, "w") as fh:
            json.dump(V.to_json(), fh)
        back = load_potential(str(path))
        assert back == V

    def test_builtin_names(self):
        assert load_potential("gue") == GUE
        assert load_potential("quartic") == QUARTIC

    def test_eynard_spec_string(self):
        V = load_potential("eynard(3,0.02)")
        assert V.degree == 4

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"label": "x", "coefficients": "oops"}')
        with pytest.raises(ValueError):
            load_potential(str(path))

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            load_potential("nonexistent-potential")
