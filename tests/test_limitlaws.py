import cmath
import math

import numpy as np
import pytest

from spectral_edge.limitlaws import (
    CDF_FLOOR,
    AiryDiscretization,
    LimitLaw,
    c_alpha,
    c_alpha_contour,
    f0,
    f1,
    mixture_weights,
    predict_law,
)
from spectral_edge.specialfn import airy_ai_pair, gauss_legendre, normal_cdf
from spectral_edge.transition import TransitionProfile, build_profile, critical_a

OMEGA = cmath.exp(2j * math.pi / 3.0)


class TestSoftEdgeDeterminant:
    def test_upper_tail(self):
        assert abs(f0(10.0) - 1.0) < 1e-12

    def test_lower_tail(self):
        assert abs(f0(-12.0)) < 1e-6

    def test_two_resolution_stability(self):
        for T in (-4.0, -2.0, 0.0, 2.0):
            assert abs(f0(T, 40) - f0(T, 80)) < 1e-8

    def test_reference_value(self):
        # frozen two-resolution Nystrom reference for this project
        v40, v80 = f0(0.0, 40), f0(0.0, 80)
        assert abs(v40 - v80) < 1e-8
        assert abs(v40 - 0.9693728283552) < 1e-10

    def test_monotone_cdf(self):
        ts = np.linspace(-10.0, 4.0, 40)
        vals = [f0(float(t)) for t in ts]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_discretization_invariants(self):
        disc = AiryDiscretization(-2.0, 48)
        assert np.max(np.abs(disc.kernel - disc.kernel.T)) < 1e-12
        assert disc.nodes[0] > disc.T

    def test_left_window_guard(self):
        with pytest.raises(ValueError):
            f0(-13.0)


class TestDeformationProfile:
    def test_exponential_cubic_identity(self):
        # sum of the three rotated exponential moments of Ai equals
        # exp(alpha^3/3)
        rule = gauss_legendre(400, 0.0, 40.0)
        ai, _ = airy_ai_pair(rule.nodes)
        for alpha in (-1.0, 0.3, 0.7, 1.0):
            w = (np.exp(alpha * rule.nodes)
                 + np.exp(OMEGA * alpha * rule.nodes)
                 + np.exp(OMEGA ** 2 * alpha * rule.nodes))
            val = np.dot(rule.weights, ai * w)
            assert abs(val - math.exp(alpha ** 3 / 3.0)) < 1e-8

    def test_zero_deformation_closed_value(self):
        # C_0(0) = 1 - int_0^inf Ai = 2/3
        assert abs(c_alpha(0.0, 0.0) - 2.0 / 3.0) < 1e-9

    def test_two_route_agreement_grid(self):
        worst = 0.0
        for alpha in (-4.0, -1.0, 0.0, 0.5, 4.0):
            for xi in (-2.0, -1.0, 0.0, 1.0, 3.0):
                a = c_alpha(xi, alpha)
                b = c_alpha_contour(xi, alpha)
                worst = max(worst, abs(a - b))
        assert worst < 1e-5

    def test_cross_check_flag(self):
        assert c_alpha(0.5, 0.7, cross_check=True) == pytest.approx(c_alpha(0.5, 0.7))

    def test_deformation_decays_at_large_alpha(self):
        xs = np.linspace(0.0, 5.0, 21)
        sup = {a: max(abs(c_alpha(float(x), a)) for x in xs) for a in (0.0, 1.0, 4.0)}
        assert sup[4.0] < sup[1.0] < sup[0.0]
        assert 1.0 - f1(0.0, 4.0) / f0(0.0) < 0.05

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            c_alpha(0.0, 5.0)
        with pytest.raises(ValueError):
            c_alpha(-13.0, 0.0)


class TestDeformedLaw:
    def test_upper_tail(self):
        # for alpha < 0 the deformed mass sits near alpha^2, so the window
        # must clear it before the tail saturates
        for alpha, T in ((-4.0, 34.0), (0.0, 10.0), (4.0, 10.0)):
            assert abs(f1(T, alpha) - 1.0) < 1e-6

    def test_two_resolution_stability(self):
        for alpha in (-1.0, 0.0, 1.0):
            for T in (-4.0, -2.0, 0.0, 2.0):
                assert abs(f1(T, alpha, 40) - f1(T, alpha, 80)) < 1e-7

    def test_approaches_undeformed_law(self):
        # oracle: the truncation trend at s in {3, 4, 5} is monotone; the
        # gap at s = 4 computed by it is 0.0209
        ref = f0(0.0)
        gaps = [abs(f1(0.0, s) - ref) for s in (2.5, 3.25, 4.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.022

    def test_stochastic_ordering_sanity(self):
        for T in (-2.0, -1.0, 0.0, 1.0):
            assert f1(T, 0.0) <= f0(T) + 1e-12

    def test_monotone_cdf(self):
        # below T ~ -9 the spec's own conditioning guard trips (the
        # restricted determinant is ~1e-40 there), so the grid starts at -8
        ts = np.linspace(-8.0, 4.0, 40)
        for alpha in (-1.0, 1.0):
            vals = [f1(float(t), alpha) for t in ts]
            assert all(-1e-10 <= v <= 1.0 + 1e-10 for v in vals)
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_escape_side_vanishes(self):
        assert f1(0.0, -4.0, 120) < 1e-3

    def test_law_cdf_answers_left_of_the_floor(self):
        # f1's resolvent solve breaks down from T ~ -9.5; the law-level CDF
        # must still answer there, and its cutoff must be where the
        # determinant is already 0 to double precision
        for alpha in (-1.5, -0.5, 0.0, 0.5, 1.5):
            law = LimitLaw("F1", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0, alpha=alpha)
            assert law.cdf_standard(-10.0) == 0.0
            assert abs(law.cdf_standard(CDF_FLOOR + 0.01)) < 1e-20
        assert LimitLaw("F0").cdf_standard(-10.0) == 0.0
        assert abs(LimitLaw("F0").cdf_standard(CDF_FLOOR + 0.01)) < 1e-20

    def test_determinants_answer_left_of_the_floor(self):
        # direct callers get the same 0 the law-level CDF returns, and the
        # argument checks still reject points left of the window, too few
        # nodes and |alpha| > 4
        assert f0(-11.0) == 0.0
        for alpha in (-1.0, 0.0, 1.0):
            assert f1(-9.5, alpha) == 0.0
        for call in (lambda: f1(-13.0, 0.0), lambda: f1(-10.0, 5.0),
                     lambda: f0(-10.0, 5), lambda: f1(-10.0, 0.0, 5)):
            with pytest.raises(ValueError):
                call()


def _synthetic_profile(eq, regime, maximizers, a=2.0, a_c=1.0):
    return TransitionProfile(eq=eq, a=a, a_c=a_c, half_vp_edge=0.5 * eq.V.eval(eq.a1, 1),
                             c_a=eq.a1, G_max=0.0, maximizers=maximizers, regime=regime)


class TestMixtureWeights:
    def _profiles(self, eq_gue, eq_eynard, eq_shelf):
        from spectral_edge.transition import secondary_criticals
        out = {}
        ace = critical_a(eq_eynard)
        out["critical"] = build_profile(eq_eynard, ace, a_c=ace)
        a0 = secondary_criticals(eq_shelf, 1.35, 1.95, grid=25)[0]
        prof = build_profile(eq_shelf, a0, a_c=critical_a(eq_shelf))
        if len(prof.maximizers) < 2:
            from spectral_edge.transition import maximizer_set
            prof = _synthetic_profile(eq_shelf, "secondary-critical",
                                      tuple(maximizer_set(eq_shelf, a0, tie_tol=1e-4)),
                                      a=a0)
        out["secondary-critical"] = prof
        out["flat-secondary"] = _synthetic_profile(eq_gue, "flat-secondary",
                                                   ((2.5, 1), (3.2, 2)))
        out["transit-critical"] = _synthetic_profile(eq_gue, "transit-critical",
                                                     ((2.5, 1),))
        return out

    def test_all_regimes_properties(self, eq_gue, eq_eynard, eq_shelf):
        for regime, prof in self._profiles(eq_gue, eq_eynard, eq_shelf).items():
            first = []
            for alpha in np.linspace(-5.0, 5.0, 11):
                w = mixture_weights(prof, float(alpha), regime=regime)
                assert all(wi > 0 for wi in w)
                assert abs(sum(w) - 1.0) < 1e-12
                first.append(w[0])
            assert all(b < a for a, b in zip(first, first[1:])), regime
            assert mixture_weights(prof, -30.0, regime=regime)[0] > 1.0 - 1e-6
            assert mixture_weights(prof, 30.0, regime=regime)[0] < 1e-6

    def test_symmetric_two_point_tie(self, eq_gue):
        # equal curvatures and outer factors at alpha = 0 must split evenly;
        # realized by two copies of the same maximizer location
        prof = _synthetic_profile(eq_gue, "secondary-critical", ((2.5, 1), (2.5, 1)))
        w = mixture_weights(prof, 0.0)
        assert abs(w[0] - 0.5) < 1e-12 and abs(w[1] - 0.5) < 1e-12

    def test_offset_dependence(self, eq_gue, eq_eynard):
        ace = critical_a(eq_eynard)
        prof = build_profile(eq_eynard, ace, a_c=ace)
        w1 = mixture_weights(prof, 1.0, j=1)
        w2 = mixture_weights(prof, 1.0, j=2)
        assert abs(w1[0] - w2[0]) > 1e-6

    def test_convex_critical_rejected(self, eq_gue):
        prof = build_profile(eq_gue, 1.0, a_c=1.0)
        with pytest.raises(ValueError):
            mixture_weights(prof, 0.0, regime="critical")


class TestPredictLaw:
    def test_subcritical_dispatch(self, eq_gue):
        law = predict_law(eq_gue, 0.5, 100, a_c=1.0)
        assert law.kind == "F0"
        assert law.center == 2.0
        assert abs(law.scale_const - 1.0) < 1e-8
        assert abs(law.scale_exponent - 2.0 / 3.0) < 1e-15

    def test_supercritical_dispatch(self, eq_gue):
        law = predict_law(eq_gue, 2.0, 100, a_c=1.0)
        assert law.kind == "Gauss"
        assert abs(law.center - 2.5) < 1e-8
        assert abs(law.scale_const - math.sqrt(4.0 / 3.0)) < 1e-6
        assert law.scale_exponent == 0.5

    def test_critical_dispatch_inverts_scaling(self, eq_gue):
        n = 100
        law = predict_law(eq_gue, 1.0 + 0.5 / n ** (1.0 / 3.0), n, a_c=1.0)
        assert law.kind == "F1"
        assert abs(law.alpha - 0.5) < 1e-10

    def test_near_critical_mixture_eynard(self, eq_eynard):
        ace = critical_a(eq_eynard)
        n = 200
        law = predict_law(eq_eynard, ace + 1.0 / n, n, a_c=ace)
        assert law.kind == "Mixture"
        kinds = [comp.kind for _, comp in law.components]
        assert kinds == ["F0", "Gauss"]
        prof = build_profile(eq_eynard, ace, a_c=ace)
        expected = mixture_weights(prof, 1.0, regime="critical")
        for (w, _), e in zip(law.components, expected):
            assert abs(w - e) < 1e-9

    def test_secondary_mixture_dispatch(self, eq_shelf):
        from spectral_edge.transition import secondary_criticals
        a_c = critical_a(eq_shelf)
        a0 = secondary_criticals(eq_shelf, 1.35, 1.95, grid=25)[0]
        n = 400
        law = predict_law(eq_shelf, a0 + 0.5 / n, n, a_c=a_c)
        assert law.kind == "Mixture"
        assert all(comp.kind == "Gauss" for _, comp in law.components)
        centers = [comp.center for _, comp in law.components]
        assert centers[0] < 6.0 < centers[1]

    def test_law_cdf_monotone(self, eq_eynard):
        ace = critical_a(eq_eynard)
        law = predict_law(eq_eynard, ace, 100, a_c=ace)
        lam = np.linspace(1.5, 4.0, 30)
        vals = law.cdf_lambda(lam, 100)
        assert np.all(np.diff(vals) >= -1e-10)
        assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))

    def test_mixture_invariants_enforced(self):
        good = LimitLaw("Gauss", center=0.0, scale_const=1.0, scale_exponent=0.5)
        with pytest.raises(ValueError):
            LimitLaw("Mixture", components=((0.4, good), (0.4, good)))

    def test_descriptor_round_trip(self, eq_gue):
        law = predict_law(eq_gue, 2.0, 100, a_c=1.0)
        obj = law.to_json()
        assert obj["kind"] == "Gauss"
        assert "components" not in obj
