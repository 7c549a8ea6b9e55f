import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_edge.specialfn import (
    AiryDomainError,
    QuadratureRule,
    airy_ai_pair,
    fredholm_det,
    gauss_legendre,
    gen_gauss_cdf,
    legendre_reference,
    normal_cdf,
)
from spectral_edge import equilibrium, finitemodel, limitlaws, specialfn
from spectral_edge.potential import GUE

from conftest import simpson_adaptive
from oracles import airy_pair_scipy, complex_ai, ndtr

mp.mp.dps = 25

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


class TestAiry:
    def test_value_at_zero(self):
        # oracle: 3^(-2/3)/Gamma(2/3), summed independently of the implementation
        oracle = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert abs(oracle - 0.3550280538878172) < 1e-15
        assert abs(airy_ai_pair(0.0)[0] - oracle) < 1e-14

    def test_prime_at_zero(self):
        oracle = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        assert abs(oracle - (-0.2588194037928068)) < 1e-15
        assert abs(airy_ai_pair(0.0)[1] - oracle) < 1e-14

    def test_relative_accuracy_envelope(self):
        zs = np.linspace(-10.0, 10.0, 201)
        ai, aip = airy_ai_pair(zs)
        for z, a, ap in zip(zs, ai, aip):
            ref = float(mp.airyai(float(z)))
            refp = float(mp.airyai(float(z), 1))
            assert abs(a - ref) <= 1e-10 * abs(ref)
            assert abs(ap - refp) <= 1e-10 * abs(refp)

    def test_rotation_identity_fixed_points(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(*rng.uniform(-3.5, 3.5, size=2))
            if abs(z) > 5.0:
                continue
            resid = complex_ai(z) + OMEGA * complex_ai(OMEGA * z) + OMEGA ** 2 * complex_ai(OMEGA ** 2 * z)
            assert abs(resid) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    @example(complex(-2.0, -0.0))
    def test_rotation_identity_property(self, z):
        resid = complex_ai(z) + OMEGA * complex_ai(OMEGA * z) + OMEGA ** 2 * complex_ai(OMEGA ** 2 * z)
        assert abs(resid) < 1e-10

    @pytest.mark.parametrize("x", [-4.9, -2.0, -0.5, 0.0, 2.0])
    def test_complex_reference_at_signed_zero(self, x):
        # scipy's complex Ai is wrong at -2 - 0j and -4.9 - 0j; the reference
        # gives Ai(x) from either signed zero
        for z in (complex(x, 0.0), complex(x, -0.0)):
            assert abs(complex_ai(z) - complex(mp.airyai(x))) < 1e-14

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
        ai = lambda x: airy_ai_pair(x)[0]
        for z in np.linspace(-8.0, 8.0, 100):
            d1 = (ai(z + h) - 2.0 * ai(z) + ai(z - h)) / (h * h)
            d2 = (ai(z + h / 2) - 2.0 * ai(z) + ai(z - h / 2)) / (h * h / 4.0)
            assert abs((4.0 * d2 - d1) / 3.0 - z * ai(z)) < 1e-8

    def test_prime_finite_difference(self):
        h = 1e-5
        fd = (airy_ai_pair(h)[0] - airy_ai_pair(-h)[0]) / (2.0 * h)
        assert abs(fd - airy_ai_pair(0.0)[1]) < 1e-6

    def test_second_difference_at_one(self):
        h = 1e-4
        ai = lambda x: airy_ai_pair(x)[0]
        second = (ai(1.0 + h) - 2.0 * ai(1.0) + ai(1.0 - h)) / (h * h)
        assert abs(second - ai(1.0)) < 1e-5

    def test_envelope_raises(self):
        with pytest.raises(AiryDomainError, match="below the accuracy envelope"):
            airy_ai_pair(np.array([-60.0]))

    def test_positive_axis_extension(self):
        # no envelope binds on the positive real axis: Ai stays positive,
        # and the pair reads an exact zero beyond 120
        assert airy_ai_pair(60.0)[0] > 0
        ai, _ = airy_ai_pair(np.array([130.0]))
        assert ai[0] == 0.0

    def test_pair_matches_scalar(self):
        # the seams at +-8 (Taylor table inside, recessive expansion outside)
        # and at 120 (exact zero beyond) are checked from both sides, and the
        # table at every anchor 8 - k/4 and every midpoint between two anchors
        anchors = 8.0 - 0.25 * np.arange(1, 64)
        midpoints = 8.0 - 0.25 * (np.arange(64) + 0.5)
        xs = np.concatenate([
            [-12.0, -9.0, -8.0 - 1e-9, -8.0, -8.0 + 1e-9, -6.1, -3.0, 0.0, 2.2,
             5.1, 7.9, 8.0 - 1e-9, 8.0, 8.0 + 1e-9, 9.5, 40.0, 120.0],
            anchors, midpoints])
        ai, aip = airy_ai_pair(xs)
        scipy_ai, scipy_aip = airy_pair_scipy(xs)
        for x, a, ap, sa, sap in zip(xs, ai, aip, scipy_ai, scipy_aip):
            ref = float(mp.airyai(float(x)))
            refp = float(mp.airyai(float(x), 1))
            assert abs(a - ref) <= 1e-12 * max(1.0, abs(ref))
            assert abs(ap - refp) <= 1e-12 * max(1.0, abs(refp))
            assert abs(a - sa) <= 1e-12 * max(1.0, abs(a))
            assert abs(ap - sap) <= 1e-12 * max(1.0, abs(ap))
            if abs(x) < 8.0:
                assert abs(a - ref) <= 1e-15, x
                assert abs(ap - refp) <= 2e-15, x
            if 0.0 < x < 8.0:
                assert abs(a - ref) <= 5e-15 * ref, x
                assert abs(ap - refp) <= 5e-15 * abs(refp), x

    def test_table_built_once(self):
        table = specialfn._taylor_table()
        airy_ai_pair(np.linspace(-7.0, 7.0, 9))
        assert specialfn._taylor_table() is table
        assert table.shape == (18, 65) and not table.flags.writeable


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

    def test_matches_ndtr(self):
        # in the far left tail both lose ~2 t^2 ulp to the rounding of t / sqrt(2)
        ts = np.linspace(-30.0, 9.0, 391)
        vals, ref = normal_cdf(ts), ndtr(ts)
        assert np.max(np.abs(vals - ref)) <= 2.3e-16
        assert np.all(np.abs(vals - ref) <= 3e-13 * ref)


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


class TestFredholmDet:
    def test_stack_and_border(self):
        # a stack of 3 x 2 kernels of size 6, each with its own border
        rng = np.random.default_rng(4)
        M = 0.3 * rng.standard_normal((3, 2, 6, 6))
        left, right = rng.standard_normal((2, 3, 2, 6))
        plain, bordered = fredholm_det(M), fredholm_det(M, left, right)
        assert plain.shape == bordered.shape == (3, 2)
        for i, k in np.ndindex(3, 2):
            system = np.eye(6) - M[i, k]
            det = np.linalg.det(system)
            assert plain[i, k] == det
            resolvent = right[i, k] @ np.linalg.solve(system, left[i, k])
            assert abs(bordered[i, k] - det * (1.0 - resolvent)) < 1e-13 * max(1.0, abs(det))

    def test_singular_system_needs_no_solve(self):
        # I - M = diag(0, 1, 1): the border alone carries the determinant,
        # -left[0] * right[0]
        M = np.diag([1.0, 0.0, 0.0])
        assert fredholm_det(M) == 0.0
        assert fredholm_det(M, np.array([2.0, 5.0, 7.0]), np.array([3.0, 11.0, 13.0])) == -6.0


LEGGAUSS_SIZES = sorted(set(range(2, 301)) | {480, 512, 528, 1024, 1040, 1536, 1552, 2048, 2064})


class TestLegendreReference:
    @pytest.mark.parametrize("m", LEGGAUSS_SIZES)
    def test_bit_identical_to_leggauss(self, m):
        x, w = legendre_reference(m)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert x.tobytes() == ref_x.tobytes()
        assert w.tobytes() == ref_w.tobytes()

    def test_read_only(self):
        x, w = legendre_reference(12)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[:] = 1.0

    def test_built_once_per_size_from_leggauss(self, monkeypatch):
        # the sizes the package's rules take, each from numpy's leggauss,
        # once, read-only; an orthonormal build, a gap determinant, a
        # support solve and an F1 value build no other
        sizes = sorted({limitlaws._PANEL_NODES, limitlaws.DEFAULT_NODES, finitemodel._PANEL,
                        finitemodel._GAP_NODES, equilibrium._THETA_NODES})
        calls = []
        real = specialfn.leggauss

        def counting_leggauss(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(specialfn, "leggauss", counting_leggauss)
        legendre_reference.cache_clear()
        try:
            sk = finitemodel.build_spiked(finitemodel.build_ortho(GUE, 128, 129, a_hint=1.5), 1.5, 1)
            finitemodel.gap_probability_raw(sk, [(2.0, np.inf)])
            equilibrium.solve_support(GUE)
            limitlaws.f1(0.0, 0.5)
            for m in sizes:
                x, w = legendre_reference(m)
                ref_x, ref_w = np.polynomial.legendre.leggauss(m)
                assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
                assert not x.flags.writeable and not w.flags.writeable
        finally:
            legendre_reference.cache_clear()
        assert sorted(calls) == sizes
        assert max(sizes) == 480
