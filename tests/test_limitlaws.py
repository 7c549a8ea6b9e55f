import cmath
import json
import math
import warnings

import numpy as np
import pytest

from spectral_edge import limitlaws
from spectral_edge.limitlaws import (
    CDF_CEILING,
    CDF_FLOOR,
    AiryDiscretization,
    LimitLaw,
    c_alpha,
    f0,
    f1,
    mixture_weights,
    predict_law,
)
from spectral_edge.specialfn import airy_ai_pair, gauss_legendre, normal_cdf
from spectral_edge.transition import c_of_a, critical_a, maximizer_set

from oracles import airy_pair_scipy, c_alpha_contour, f0_closed_form, f1_closed_form_alpha0

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

    def test_contour_cross_check(self):
        assert abs(c_alpha(0.5, 0.7) - c_alpha_contour(0.5, 0.7)) < 1e-5

    @pytest.mark.parametrize("alpha", [-0.7, -0.55, -0.45, -0.3, -0.1])
    def test_contour_residue_only_below_the_vertex(self, alpha):
        # the pole z = i alpha crosses the contour (vertex -0.5i) only for
        # alpha < -0.5; above that the residue must not be added
        for xi in (-3.0, 0.0, 2.0):
            assert abs(c_alpha(xi, alpha) - c_alpha_contour(xi, alpha)) < 1e-10

    def test_left_route_below_the_old_clamp(self):
        # at alpha in (1, 1.136) the left integral starts below -50; it is
        # clamped there, where Ai(u) e^{alpha u} < 1e-22
        for xi in (-6.0, -3.0, 0.0, 2.0):
            assert abs(c_alpha(xi, 1.05) - c_alpha_contour(xi, 1.05)) < 1e-12

    def test_table_equals_pointwise(self):
        # one cumulative sum over many xi gives what each xi gives alone, up
        # to the cancellation in e^{alpha^3/3 - alpha xi} minus the right integral
        xi = np.array([[3.0, -11.5, 0.25], [7.0, 0.25, -2.0]])
        for alpha in (-2.0, 0.5, 2.0):
            table = c_alpha(xi, alpha)
            assert table.shape == xi.shape
            alone = np.array([[c_alpha(float(x), alpha) for x in row] for row in xi])
            assert np.max(np.abs(table - alone) / np.maximum(1.0, np.abs(alone))) < 1e-12

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
        # below T ~ -9 I - K is singular to working precision (the
        # restricted determinant is ~1e-40 there), so the grid starts at -8
        ts = np.linspace(-8.0, 4.0, 40)
        for alpha in (-1.0, 1.0):
            vals = [f1(float(t), alpha) for t in ts]
            assert all(-1e-10 <= v <= 1.0 + 1e-10 for v in vals)
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_closed_forms(self):
        # Ferrari-Spohn: F2 = det(1 - B) det(1 + B) and, at alpha = 0, the
        # critical law F_GOE^2 = det(1 - B)^2, with B the Airy Hankel operator;
        # near the floor I - K is nearly singular, and no other check reaches it
        for T in np.linspace(-8.9, 3.0, 24):
            assert abs(f0(T) - f0_closed_form(T)) < 1e-13
            assert abs(f1(T, 0.0) - f1_closed_form_alpha0(T)) < 1e-13

    @pytest.mark.parametrize("alpha", [-4.0, -1.5, 0.0, 1.5, 4.0])
    def test_vanishes_at_the_floor(self, alpha):
        assert abs(f1(CDF_FLOOR + 0.01, alpha)) < 1e-20

    def test_escape_side_vanishes(self):
        assert f1(0.0, -4.0, 120) < 1e-3

    def test_law_cdf_answers_left_of_the_floor(self):
        # f1's bordered determinant is rounding noise from T ~ -9.5; the
        # law-level CDF must still answer there, and its cutoff must be where
        # the determinant is already 0 to double precision
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


# f0 and f1(T; alpha) at T = -6, -4, ..., 4 from the per-point Nystrom
# solves and per-xi c_alpha routes these tables replaced.  F0_PIN holds the
# bits of the Airy Taylor table; with scipy's Airy values they differed by
# at most 5e-16 (4e-19 at T = -6), each route as close as the other to a
# 30-digit Nystrom determinant.
PIN_T = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0)
F0_PIN = (1.0622546742099701e-08, 0.0035445535955092745, 0.4132241425051119,
          0.9693728283552613, 0.9998875536983093, 0.9999999504208783)
F1_PIN = {
    -1.5: (6.7930614879156568e-12, 2.3284739224077879e-07, 0.0017570057932852,
           0.092191906172023899, 0.46749548036929095, 0.84172259570457453),
    -1.0: (1.8880196976359023e-13, 2.6049884578570046e-06, 0.010508751827446969,
           0.27539424097256815, 0.76850750822435732, 0.96954538296844239),
    0.0: (7.3295813555226353e-12, 5.726975937555969e-05, 0.075251570981044347,
          0.69207103061354547, 0.97930335269698865, 0.99955935957682696),
    0.5: (2.8805876220758343e-11, 0.00014375486431950706, 0.12350268117111993,
          0.80636906209844983, 0.99394783444295376, 0.99994926403052065),
    1.0: (8.1050847855182316e-11, 0.00027746420881021868, 0.16964797712401239,
          0.86864844488661241, 0.99781865750738841, 0.99999234898994904),
    1.5: (1.7806189554890464e-10, 0.00044601676313609721, 0.20871365964760169,
          0.90213818409582158, 0.99896446431576047, 0.99999820315941246),
    4.0: (1.3049293796144651e-09, 0.0013238826137108061, 0.31119161645243631,
          0.94845308689844221, 0.99973645404588518, 0.99999984334298686),
}


class TestBatchedTables:
    def test_f0_pin_exact(self):
        assert tuple(f0(T) for T in PIN_T) == F0_PIN
        assert tuple(f0(np.array(PIN_T)).tolist()) == F0_PIN

    def test_f1_pin(self):
        for alpha, pin in F1_PIN.items():
            assert np.max(np.abs(f1(np.array(PIN_T), alpha) - pin)) < 5e-12
            assert max(abs(f1(T, alpha) - v) for T, v in zip(PIN_T, pin)) < 5e-12

    def test_tables_match_the_scipy_airy_route(self, monkeypatch):
        # the 41-point tables and the profile, with Ai on (-8, 8) from the
        # Taylor table and from scipy.special.airy
        ts, xi = np.linspace(-6.0, 4.0, 41), np.linspace(-8.0, 10.0, 41)

        def tables():
            return np.array([f0(ts), *(f1(ts, alpha) for alpha in (-1.0, 0.0, 1.0)),
                             *(c_alpha(xi, alpha) for alpha in (-1.0, 0.0, 2.0))])

        table_route = tables()
        monkeypatch.setattr(limitlaws, "airy_ai_pair", airy_pair_scipy)
        assert np.max(np.abs(table_route - tables())) < 1e-14

    def test_scalar_calls_return_float(self):
        assert type(f0(0.0)) is float and type(f1(0.0, 0.5)) is float
        assert type(c_alpha(0.0, 0.5)) is float
        assert type(LimitLaw("F1", alpha=0.3).cdf_standard(0.0)) is float

    def test_blocks_and_floor_per_element(self):
        # more T than one stacked block, with the floor inside the table
        ts = np.linspace(-10.0, 5.0, 150)
        vals = f0(ts)
        assert vals.shape == ts.shape
        assert np.all(vals[ts <= CDF_FLOOR] == 0.0)
        assert vals[-1] == f0(float(ts[-1]))
        deformed = f1(ts.reshape(10, 15), 1.5)
        assert deformed.shape == (10, 15)
        assert np.all(np.diff(deformed.ravel()) >= -1e-10)
        with pytest.raises(ValueError):
            f0(np.array([0.0, -12.5]))
        with pytest.raises(ValueError):
            f1(np.array([0.0, 1.0]), -4.5)

    @pytest.mark.parametrize("alpha", [-1.05, -1.12])
    def test_f1_low_band_answers(self, alpha):
        vals = LimitLaw("F1", alpha=alpha).cdf_standard(np.linspace(-6.0, 4.0, 41))
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-9)

    @pytest.mark.parametrize("alpha", [-4.0, -1.0, 0.0, 1.0, 4.0])
    def test_right_tail_is_one(self, alpha):
        # without the ceiling f1's profile overflowed there (from T = 155 at
        # alpha = 4) and the CDF read NaN
        ts = np.array([50.0, 100.0, 300.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law in (LimitLaw("F1", alpha=alpha), LimitLaw("F0")):
                assert law.cdf_standard(ts).tolist() == [1.0] * 4
                assert [law.cdf_standard(float(t)) for t in ts] == [1.0] * 4

    def test_ceiling_moves_no_value(self):
        # at and just below the ceiling every F1 of |alpha| <= 4 already
        # computes to exactly 1 (the last value below 1 is at T = 41.8);
        # further left values still differ from 1
        assert f0(CDF_CEILING) == 1.0
        for alpha in (-4.0, -1.0, 0.0, 1.0, 4.0):
            assert f1(np.array([CDF_CEILING - 1.0, CDF_CEILING]), alpha).tolist() == [1.0, 1.0]
        assert f1(30.0, -4.0) < 1.0

    def test_gaussian_tables(self):
        ts = np.linspace(-4.0, 4.0, 9)
        gauss = LimitLaw("Gauss").cdf_standard(ts)
        assert np.max(np.abs(gauss - [0.5 * math.erfc(-t / math.sqrt(2.0)) for t in ts])) < 1e-15
        flat = LimitLaw("GenGauss", order=2).cdf_standard(ts)
        assert flat[4] == 0.5 and np.all(np.diff(flat) >= 0)
        assert np.max(np.abs(flat + flat[::-1] - 1.0)) < 1e-15


def _critical_parts(eq, a_c):
    """The bulk part at c(a_c) and the first maximizer of G at a_c."""
    return [(c_of_a(eq, a_c), 0), maximizer_set(eq, a_c)[0]]


class TestMixtureWeights:
    def _parts(self, eq_gue, eq_eynard, eq_shelf):
        from spectral_edge.transition import secondary_criticals
        out = {}
        out["critical"] = (eq_eynard, _critical_parts(eq_eynard, critical_a(eq_eynard)))
        a0 = secondary_criticals(eq_shelf, 1.35, 1.95)[0]
        tied = maximizer_set(eq_shelf, a0)
        if len(tied) < 2:
            tied = maximizer_set(eq_shelf, a0, tie_tol=1e-4)
        out["secondary"] = (eq_shelf, tied)
        out["flat secondary"] = (eq_gue, [(2.5, 1), (3.2, 2)])
        out["transit"] = (eq_gue, [(eq_gue.a1, 0), (2.5, 1)])
        return out

    def test_all_regimes_properties(self, eq_gue, eq_eynard, eq_shelf):
        for label, (eq, parts) in self._parts(eq_gue, eq_eynard, eq_shelf).items():
            first = []
            for alpha in np.linspace(-5.0, 5.0, 11):
                w = mixture_weights(eq, parts, float(alpha))
                assert all(wi > 0 for wi in w)
                assert abs(sum(w) - 1.0) < 1e-12
                first.append(w[0])
            assert all(b < a for a, b in zip(first, first[1:])), label
            assert mixture_weights(eq, parts, -30.0)[0] > 1.0 - 1e-6
            assert mixture_weights(eq, parts, 30.0)[0] < 1e-6

    def test_symmetric_two_point_tie(self, eq_gue):
        # equal curvatures and outer factors at alpha = 0 must split evenly;
        # realized by two copies of the same maximizer location
        w = mixture_weights(eq_gue, [(2.5, 1), (2.5, 1)], 0.0)
        assert abs(w[0] - 0.5) < 1e-12 and abs(w[1] - 0.5) < 1e-12

    def test_offset_dependence(self, eq_gue, eq_eynard):
        parts = _critical_parts(eq_eynard, critical_a(eq_eynard))
        w1 = mixture_weights(eq_eynard, parts, 1.0, j=1)
        w2 = mixture_weights(eq_eynard, parts, 1.0, j=2)
        assert abs(w1[0] - w2[0]) > 1e-6

    def test_convex_critical_rejected(self, eq_gue):
        # at a convex-type critical value the maximizer of G is the edge
        # itself, which has no Gaussian part to weigh
        with pytest.raises(ValueError):
            mixture_weights(eq_gue, [(c_of_a(eq_gue, 1.0), 0), (eq_gue.a1, 1)], 0.0)


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
        assert law.components[1][1].center > eq_eynard.a1 + 0.5
        expected = mixture_weights(eq_eynard, _critical_parts(eq_eynard, ace), 1.0)
        for (w, _), e in zip(law.components, expected):
            assert abs(w - e) < 1e-9

    def test_saturated_mixture_keeps_both_components(self, eq_shelf):
        # 28/n from a_c the weights round to 1 and ~1e-38; the law still
        # answers with both components inside the 30/n window
        a_c = critical_a(eq_shelf)
        n = 400
        for a in (a_c - 28.0 / n, a_c + 28.0 / n):
            law = predict_law(eq_shelf, a, n, a_c=a_c)
            assert [comp.kind for _, comp in law.components] == ["F0", "Gauss"]
            weights = sorted(w for w, _ in law.components)
            assert weights[1] == 1.0 and 0.0 <= weights[0] < 1e-12
            vals = law.cdf_lambda(np.linspace(eq_shelf.a1 - 0.5, 9.0, 12), n)
            assert np.all(np.diff(vals) >= -1e-10) and abs(vals[-1] - 1.0) < 1e-9

    def test_secondary_mixture_dispatch(self, eq_shelf):
        from spectral_edge.transition import secondary_criticals
        a_c = critical_a(eq_shelf)
        a0 = secondary_criticals(eq_shelf, 1.35, 1.95)[0]
        n = 400
        law = predict_law(eq_shelf, a0 + 0.5 / n, n, a_c=a_c)
        assert law.kind == "Mixture"
        assert all(comp.kind == "Gauss" for _, comp in law.components)
        centers = [comp.center for _, comp in law.components]
        assert centers[0] < 6.0 < centers[1]

    def test_secondary_query_scans_each_tilt_once(self, shelf_pot, monkeypatch):
        # On a freshly solved equilibrium the phase diagram scans no tilt
        # twice.  After it, a query scans at most its own tilt or a_c: a Gauss
        # query exactly once, a critical mixture at most once and a
        # secondary-critical mixture not at all.
        from spectral_edge import limitlaws, transition
        from spectral_edge.equilibrium import solve_support
        eq = solve_support(shelf_pot, seeds=[(-2.0, 2.0)])
        seen = []
        real_scan = transition.scan

        def counting_scan(eq, a):
            seen.append(a)
            return real_scan(eq, a)

        monkeypatch.setattr(transition, "scan", counting_scan)
        monkeypatch.setattr(limitlaws, "scan", counting_scan)
        diagram = transition.phase_diagram(eq)
        assert len(seen) > 0 and len(set(seen)) == len(seen)
        (a0, _), = diagram.switches
        n = 400
        for a, kinds, scans in ((a0 + 2.0 / n, ["Gauss", "Gauss"], [0]),
                                (diagram.a_c + 2.0 / n, ["F0", "Gauss"], [0, 1]),
                                (a0 + 0.5, ["Gauss"], [1])):
            seen.clear()
            law = predict_law(eq, a, n, a_c=diagram.a_c)
            comps = [c for _, c in law.components] if law.kind == "Mixture" else [law]
            assert [c.kind for c in comps] == kinds
            assert len(seen) in scans

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
        with pytest.raises(ValueError):
            LimitLaw("Mixture", components=((1.25, good), (-0.25, good)))

    def test_json_round_trip_every_kind(self):
        gauss = LimitLaw("Gauss", center=2.5, scale_const=1.2, scale_exponent=0.5)
        laws = [
            LimitLaw("F0", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0),
            LimitLaw("F1", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0, alpha=-0.7),
            gauss,
            LimitLaw("GenGauss", center=3.1, scale_const=0.4, scale_exponent=0.25, order=2),
            LimitLaw("Mixture", components=((1.0, LimitLaw("F0", center=2.0)), (1e-38, gauss))),
        ]
        for law in laws:
            assert LimitLaw.from_json(json.loads(json.dumps(law.to_json()))) == law

    def test_descriptor_round_trip(self, eq_gue):
        law = predict_law(eq_gue, 2.0, 100, a_c=1.0)
        obj = law.to_json()
        assert obj["kind"] == "Gauss"
        assert "components" not in obj
