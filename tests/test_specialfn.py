import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_edge.specialfn import (
    AiryDomainError,
    QuadratureRule,
    airy_ai,
    airy_ai_pair,
    airy_ai_prime,
    gauss_legendre,
    gen_gauss_cdf,
    legendre_reference,
    normal_cdf,
)
from spectral_edge import specialfn
from spectral_edge.finitemodel import build_ortho
from spectral_edge.potential import GUE

from conftest import simpson_adaptive

mp.mp.dps = 25

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


class TestAiry:
    def test_value_at_zero(self):
        # oracle: 3^(-2/3)/Gamma(2/3), summed independently of the implementation
        oracle = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert abs(oracle - 0.3550280538878172) < 1e-15
        assert abs(airy_ai(0.0) - oracle) < 1e-14

    def test_prime_at_zero(self):
        oracle = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        assert abs(oracle - (-0.2588194037928068)) < 1e-15
        assert abs(airy_ai_prime(0.0) - oracle) < 1e-14

    def test_relative_accuracy_envelope(self):
        zs = np.linspace(-10.0, 10.0, 201)
        for z in zs:
            ref = float(mp.airyai(float(z)))
            refp = float(mp.airyai(float(z), 1))
            assert abs(airy_ai(z) - ref) <= 1e-10 * abs(ref)
            assert abs(airy_ai_prime(z) - refp) <= 1e-10 * abs(refp)

    def test_rotation_identity_fixed_points(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(*rng.uniform(-3.5, 3.5, size=2))
            if abs(z) > 5.0:
                continue
            resid = airy_ai(z) + OMEGA * airy_ai(OMEGA * z) + OMEGA ** 2 * airy_ai(OMEGA ** 2 * z)
            assert abs(resid) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    def test_rotation_identity_property(self, z):
        resid = airy_ai(z) + OMEGA * airy_ai(OMEGA * z) + OMEGA ** 2 * airy_ai(OMEGA ** 2 * z)
        assert abs(resid) < 1e-10

    def test_half_line_integral(self):
        # truncation at 20: the tail is below 1e-14 there
        rule = gauss_legendre(200, 0.0, 20.0)
        ai, _ = airy_ai_pair(rule.nodes)
        assert abs(rule.integrate(ai) - 1.0 / 3.0) < 1e-8

    def test_ode_residual_grid(self):
        # Richardson-extrapolated second differences: a single-step h cannot
        # reach 1e-8 over [-8, 8] (its h^2 truncation alone is ~2e-8 at the
        # endpoints), the extrapolated stencil can.
        h = 2e-3
        for z in np.linspace(-8.0, 8.0, 100):
            d1 = (airy_ai(z + h) - 2.0 * airy_ai(z) + airy_ai(z - h)) / (h * h)
            d2 = (airy_ai(z + h / 2) - 2.0 * airy_ai(z) + airy_ai(z - h / 2)) / (h * h / 4.0)
            assert abs((4.0 * d2 - d1) / 3.0 - z * airy_ai(z)) < 1e-8

    def test_prime_finite_difference(self):
        h = 1e-5
        fd = (airy_ai(h) - airy_ai(-h)) / (2.0 * h)
        assert abs(fd - airy_ai_prime(0.0)) < 1e-6

    def test_second_difference_at_one(self):
        h = 1e-4
        second = (airy_ai(1.0 + h) - 2.0 * airy_ai(1.0) + airy_ai(1.0 - h)) / (h * h)
        assert abs(second - airy_ai(1.0)) < 1e-5

    def test_envelope_raises(self):
        with pytest.raises(AiryDomainError):
            airy_ai(60.0j)
        with pytest.raises(AiryDomainError):
            airy_ai(-75.0)
        with pytest.raises(AiryDomainError, match="below the accuracy envelope"):
            airy_ai_pair(np.array([-60.0]))

    def test_positive_axis_extension(self):
        # the envelope does not bind on the positive real axis
        assert airy_ai(60.0) > 0
        ai, _ = airy_ai_pair(np.array([130.0]))
        assert ai[0] == 0.0

    def test_pair_matches_scalar(self):
        # the seams at +-8 (scipy inside, recessive expansion outside) and
        # at 120 (exact zero beyond) are checked from both sides
        xs = np.array([-12.0, -9.0, -8.0 - 1e-9, -8.0, -8.0 + 1e-9, -6.1, -3.0, 0.0, 2.2,
                       5.1, 7.9, 8.0 - 1e-9, 8.0, 8.0 + 1e-9, 9.5, 40.0, 120.0])
        ai, aip = airy_ai_pair(xs)
        for i, x in enumerate(xs):
            ref = float(mp.airyai(float(x)))
            refp = float(mp.airyai(float(x), 1))
            assert abs(ai[i] - ref) <= 1e-12 * max(1.0, abs(ref))
            assert abs(aip[i] - refp) <= 1e-12 * max(1.0, abs(refp))
            assert abs(ai[i] - airy_ai(x)) <= 1e-12 * max(1.0, abs(ai[i]))
            assert abs(aip[i] - airy_ai_prime(x)) <= 1e-12 * max(1.0, abs(aip[i]))


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_normalization(self):
        assert abs(normal_cdf(40.0) - 1.0) < 1e-15

    def test_quadrature_oracle(self):
        dens = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        oracle = 0.5 + simpson_adaptive(dens, 0.0, 1.0)
        assert abs(oracle - 0.8413447460685429) < 1e-12
        assert abs(normal_cdf(1.0) - oracle) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_reflection(self, t):
        assert abs(normal_cdf(t) + normal_cdf(-t) - 1.0) < 1e-14

    def test_monotone(self):
        ts = np.linspace(-8.0, 8.0, 101)
        vals = [normal_cdf(t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestGenGaussCdf:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_even_integrand_midpoint(self, k):
        assert gen_gauss_cdf(0.0, k) == 0.5

    def test_reduces_to_gaussian(self):
        assert abs(gen_gauss_cdf(1.0 / math.sqrt(2.0), 1) - 0.8413447460685429) < 1e-12

    def test_quartic_weight_oracle(self):
        dens = lambda x: math.exp(-x ** 4)
        total = 2.0 * simpson_adaptive(dens, 0.0, 8.0)
        oracle = (0.5 * total + simpson_adaptive(dens, 0.0, 1.0)) / total
        assert abs(gen_gauss_cdf(1.0, 2) - oracle) < 1e-10

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gen_gauss_cdf(0.3, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=6.0), st.integers(min_value=1, max_value=6))
    def test_reflection(self, t, k):
        assert abs(gen_gauss_cdf(t, k) + gen_gauss_cdf(-t, k) - 1.0) < 1e-13

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_monotone(self, k):
        ts = np.linspace(-3.0, 3.0, 61)
        vals = [gen_gauss_cdf(t, k) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestGaussLegendre:
    def test_degree_three_exactness(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert abs(rule.integrate(rule.nodes ** 2) - 2.0 / 3.0) < 1e-15

    def test_degree_nine_exactness(self):
        rule = gauss_legendre(5, 0.0, 1.0)
        assert abs(rule.integrate(rule.nodes ** 9) - 0.1) < 1e-14

    def test_exponential_closed_form(self):
        rule = gauss_legendre(40, -1.0, 1.0)
        assert abs(rule.integrate(np.exp(rule.nodes)) - (math.e - 1.0 / math.e)) < 1e-14

    def test_invalid_interval(self):
        # the checks run before the cached reference rule is built
        misses = legendre_reference.cache_info().misses
        for m, lo, hi in ((8, 1.0, 1.0), (8, 2.0, 1.0), (1, 0.0, 1.0), (0, 0.0, 1.0), (-3, 0.0, 1.0)):
            with pytest.raises(ValueError):
                gauss_legendre(m, lo, hi)
        assert legendre_reference.cache_info().misses == misses

    def test_invariants_all_sizes(self):
        for m in range(2, 201):
            rule = gauss_legendre(m, -2.5, 3.5)
            rule.validate()

    def test_rule_validation_catches_bad_weights(self):
        rule = gauss_legendre(6, 0.0, 2.0)
        bad = QuadratureRule(rule.nodes, -rule.weights, rule.interval)
        with pytest.raises(ValueError):
            bad.validate()


LEGGAUSS_SIZES = sorted(set(range(2, 301)) | {480, 512, 528, 1024, 1040, 1536, 1552, 2048, 2064})


class TestLegendreReference:
    @pytest.mark.parametrize("m", LEGGAUSS_SIZES)
    def test_bit_identical_to_leggauss(self, m):
        x, w = legendre_reference(m)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert x.tobytes() == ref_x.tobytes()
        assert w.tobytes() == ref_w.tobytes()

    def test_large_rule_without_leggauss(self):
        # m = 4128, twice the largest grid of build_ortho, checked against
        # closed forms rather than the O(m^3) leggauss
        x, w = legendre_reference(4128)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) < 1e-13
        assert abs(np.dot(w, np.cos(50.0 * x)) - 2.0 * math.sin(50.0) / 50.0) <= 1e-12
        gauss_legendre(4128, -1.0, 1.0).validate()

    def test_read_only(self):
        x, w = legendre_reference(12)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[:] = 1.0

    def test_one_build_per_size(self, monkeypatch):
        calls = []
        real = specialfn.dsterf

        def counting_dsterf(d, e):
            calls.append(d.size)
            return real(d, e)

        monkeypatch.setattr(specialfn, "dsterf", counting_dsterf)
        legendre_reference.cache_clear()
        try:
            first = build_ortho(GUE, 16, 17)
            second = build_ortho(GUE, 16, 17)
        finally:
            legendre_reference.cache_clear()
        assert calls == [first.grid.nodes.size]
        assert np.array_equal(first.psi_values, second.psi_values)
