import math

import numpy as np
import pytest
from scipy.optimize import brentq

from spectral_edge.transition import (
    G_fn,
    H_fn,
    build_profile,
    c_of_a,
    critical_a,
    fluct_scale,
    in_A_V,
    maximizer_set,
    scan,
    scan_upper_bound,
    secondary_criticals,
    x0_of,
)

from conftest import gue_g_prime


def gue_g_second(x: float) -> float:
    return 0.5 * (1.0 - x / math.sqrt(x * x - 4.0))


class TestCofA:
    def test_closed_form_subcritical(self, eq_gue):
        assert abs(c_of_a(eq_gue, 0.5) - 2.5) < 1e-10

    def test_edge_branch(self, eq_gue):
        assert c_of_a(eq_gue, 1.2) == 2.0

    def test_strictly_decreasing(self, eq_gue):
        assert c_of_a(eq_gue, 0.3) > c_of_a(eq_gue, 0.5) > c_of_a(eq_gue, 0.9)

    def test_rejects_nonpositive(self, eq_gue):
        with pytest.raises(ValueError):
            c_of_a(eq_gue, 0.0)


class TestComparisonFunctions:
    def test_equal_at_edge(self, eq_gue):
        for a in (0.3, 1.0, 2.0):
            assert abs(G_fn(eq_gue, a, 2.0) - H_fn(eq_gue, a, 2.0)) < 1e-10

    def test_one_sided_derivative_at_edge(self, eq_gue):
        # the one-sided difference carries a sqrt(h) term from the edge
        # density (coefficient 2/3 for this potential, i.e. 6.7e-3 at
        # h = 1e-4 alone); the h, h/4 pair eliminates it
        h = 1e-4
        for a in (0.5, 2.0):
            g0 = G_fn(eq_gue, a, 2.0)
            s1 = (G_fn(eq_gue, a, 2.0 + h) - g0) / h
            s2 = (G_fn(eq_gue, a, 2.0 + h / 4.0) - g0) / (h / 4.0)
            slope = 2.0 * s2 - s1
            assert abs(slope - (a - 0.5 * eq_gue.V.eval(2.0, 1))) < 5e-3

    def test_stationary_point_closed_form(self, eq_gue):
        assert abs(x0_of(eq_gue, 2.0) - 2.5) < 1e-8

    @pytest.mark.parametrize("frac", [0.3, 1.0, 2.0])
    def test_h_dominates_g(self, eq_gue, frac):
        a = frac * 0.5 * eq_gue.V.eval(2.0, 1)
        xs = np.linspace(2.0 + 1e-4, 12.0, 200)
        assert np.all(H_fn(eq_gue, a, xs) - G_fn(eq_gue, a, xs) > 0)

    def test_h_convex(self, eq_gue):
        for a in (0.3, 1.0, 2.0):
            xs = np.linspace(2.0 + 1e-3, 12.0, 120)
            vals = H_fn(eq_gue, a, xs)
            assert np.all(np.diff(vals, 2) > 0)

    def test_gue_closed_forms(self, eq_gue):
        # semicircle log-potential right of the edge:
        # g(x) = x^2/4 - x r/4 + log((x + r)/2) - 1/2, r = sqrt(x^2 - 4);
        # ell = 2 g(2) - V(2) = -1
        xs = 2.0 + np.concatenate([[0.0], np.logspace(-8, 1, 200)])
        r = np.sqrt(xs * xs - 4.0)
        g = xs ** 2 / 4.0 - xs * r / 4.0 + np.log(0.5 * (xs + r)) - 0.5
        for a in (0.5, 1.0, 2.0):
            assert np.max(np.abs(G_fn(eq_gue, a, xs) - (g - 0.5 * xs ** 2 + a * xs))) < 1e-12
            assert np.max(np.abs(H_fn(eq_gue, a, xs) - (-g + a * xs - 1.0))) < 1e-12
        assert isinstance(G_fn(eq_gue, 2.0, 2.5), float)

    def test_domain_guard(self, eq_gue):
        with pytest.raises(ValueError):
            G_fn(eq_gue, 1.0, 1.0)


class TestDetachmentSet:
    def test_gue_supercritical_in(self, eq_gue):
        assert in_A_V(eq_gue, 1.5)

    def test_gue_subcritical_out(self, eq_gue):
        assert not in_A_V(eq_gue, 0.5)

    def test_edge_slope_always_in(self, eq_gue, eq_eynard):
        assert in_A_V(eq_gue, eq_gue.V.eval(2.0, 1))
        assert in_A_V(eq_eynard, eq_eynard.V.eval(eq_eynard.a1, 1))

    def test_below_critical_gap_negative(self, eq_gue):
        a = 0.7
        c = c_of_a(eq_gue, a)
        xs = np.linspace(c + 1e-6, scan_upper_bound(eq_gue, a), 300)
        assert np.max(G_fn(eq_gue, a, xs) - H_fn(eq_gue, a, c)) < 0


class TestScan:
    def test_gue_supercritical(self, eq_gue):
        s = scan(eq_gue, 2.0)
        assert s.c == 2.0
        assert s.h_c == H_fn(eq_gue, 2.0, 2.0)
        assert len(s.maxima) == 1
        x, v = s.best()
        assert abs(x - 2.5) < 1e-8
        assert abs(v - G_fn(eq_gue, 2.0, x)) < 1e-14

    def test_gue_subcritical(self, eq_gue):
        # c(a) = a + 1/a and G falls right of it: no interior maximum
        s = scan(eq_gue, 0.5)
        assert abs(s.c - 2.5) < 1e-10
        assert s.maxima == ()
        with pytest.raises(ValueError):
            s.best()

    def test_readers_agree(self, eq_shelf):
        for a in (1.5, 1.8):
            s = scan(eq_shelf, a)
            assert len(s.maxima) >= 2
            assert x0_of(eq_shelf, a) == s.best()[0]
            assert maximizer_set(eq_shelf, a)[0][0] == s.best()[0]
            assert in_A_V(eq_shelf, a) == (s.best()[1] > s.h_c + 1e-12)

    def test_quartic_maximizer_next_to_the_edge(self, eq_quartic):
        # just above a_c = V'(e)/2 the maximizer sits ~1e-9 right of the
        # edge, closer than the scan grid's first interior point; the root
        # of G'(e + t) = a - (V' + h sqrt((e + t - b0) t)) / 2 locates it
        e, b0 = eq_quartic.a1, eq_quartic.b0
        a = critical_a(eq_quartic) + 1e-4
        h = np.polynomial.Polynomial(eq_quartic.h_coeffs)

        def dG(t):
            return a - 0.5 * (eq_quartic.V.eval(e + t, 1) + h(e + t) * math.sqrt((e + t - b0) * t))

        t_star = brentq(dG, 1e-15, 1e-6, xtol=1e-22)
        assert abs(t_star - 1.097e-9) < 0.01 * 1.097e-9
        assert abs((x0_of(eq_quartic, a) - e) - t_star) < 0.01 * t_star


class TestCriticalValue:
    def test_gue(self, eq_gue):
        assert abs(critical_a(eq_gue) - 1.0) < 1e-6

    def test_quartic_convex_branch(self, eq_quartic):
        expected = 0.5 * eq_quartic.a1 ** 3
        assert abs(critical_a(eq_quartic) - expected) < 1e-6

    def test_eynard_strictly_below_edge_slope(self, eq_eynard):
        a_c = critical_a(eq_eynard)
        half = 0.5 * eq_eynard.V.eval(eq_eynard.a1, 1)
        assert a_c < half
        assert half - a_c > 0.05

    def test_lower_bracket_guard(self, eq_gue):
        with pytest.raises(ValueError):
            critical_a(eq_gue, a_lo=1.5)


class TestMaximizers:
    def test_gue_single_simple_maximizer(self, eq_gue):
        out = maximizer_set(eq_gue, 2.0)
        assert len(out) == 1
        x0, k = out[0]
        assert abs(x0 - 2.5) < 1e-8
        assert k == 1

    def test_curvature_closed_form(self, eq_gue):
        # -G''(x0) = V'' - g'' = a^2/(a^2-1) at a = 2
        x0 = x0_of(eq_gue, 2.0)
        curv = eq_gue.V.eval(x0, 2) - gue_g_second(x0)
        assert abs(curv - 4.0 / 3.0) < 1e-10
        assert abs(fluct_scale(eq_gue, 2.0, x0, 1) - math.sqrt(4.0 / 3.0)) < 1e-6

    def test_scale_finite_difference_cross_check(self, eq_gue):
        a = 2.0
        x0 = x0_of(eq_gue, a)
        h = 1e-4
        fd = -(G_fn(eq_gue, a, x0 + h) - 2.0 * G_fn(eq_gue, a, x0) + G_fn(eq_gue, a, x0 - h)) / (h * h)
        assert abs(math.sqrt(fd) - fluct_scale(eq_gue, a, x0, 1)) < 1e-5

    def test_fluctuation_width_collapses_at_criticality(self, eq_gue):
        widths = []
        for m in range(0, 4):
            a = 1.0 + 10.0 ** (-m)
            widths.append(1.0 / fluct_scale(eq_gue, a, x0_of(eq_gue, a), 1))
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 0.2

    def test_argmax_monotone_convex(self, eq_gue):
        avals = np.linspace(1.05, 5.0, 9)
        xs = [x0_of(eq_gue, a) for a in avals]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestSecondaryCriticals:
    def test_convex_has_none(self, eq_gue):
        assert secondary_criticals(eq_gue, 1.05, 5.0, grid=40) == []

    def test_quartic_range_from_critical(self, eq_quartic):
        # the critical subcommand's range, starting next to the edge
        a_c = critical_a(eq_quartic)
        half = 0.5 * eq_quartic.V.eval(eq_quartic.a1, 1)
        assert secondary_criticals(eq_quartic, a_c + 1e-4, 3.0 * half) == []

    def test_shelf_potential_roundtrip(self, eq_shelf):
        # the two-shelf potential is built from a prescribed measure on [-2, 2]
        assert abs(eq_shelf.b0 + 2.0) < 1e-8
        assert abs(eq_shelf.a1 - 2.0) < 1e-8
        assert critical_a(eq_shelf) < 0.5 * eq_shelf.V.eval(2.0, 1)

    def test_shelf_jump_detected(self, eq_shelf):
        a_c = critical_a(eq_shelf)
        jumps = secondary_criticals(eq_shelf, 1.35, 1.95, grid=25)
        assert len(jumps) == 1
        a0 = jumps[0]
        assert a0 > a_c
        # the global maximizer genuinely jumps across a0
        assert x0_of(eq_shelf, a0 - 1e-4) < 6.0 < x0_of(eq_shelf, a0 + 1e-4)

    def test_tie_search_reports_both(self, eq_shelf):
        # tune the tilt until the top two maxima agree to below the tie
        # tolerance, then the maximizer set must contain both
        jumps = secondary_criticals(eq_shelf, 1.35, 1.95, grid=25)
        a0 = jumps[0]

        def value_gap(a):
            cands = maximizer_set(eq_shelf, a, tie_tol=10.0)
            top = sorted(cands, key=lambda t: -G_fn(eq_shelf, a, t[0]))[:2]
            near, far = sorted(x for x, _ in top)
            return G_fn(eq_shelf, a, far) - G_fn(eq_shelf, a, near)

        a_tie = brentq(value_gap, a0 - 1e-4, a0 + 1e-4, xtol=1e-13)
        tied = maximizer_set(eq_shelf, a_tie)
        assert len(tied) == 2
        assert all(k == 1 for _, k in tied)
        x1, x2 = tied[0][0], tied[1][0]
        assert x1 < x2
        assert abs(G_fn(eq_shelf, a_tie, x1) - G_fn(eq_shelf, a_tie, x2)) < 1e-9


class TestProfiles:
    def test_gue_regimes(self, eq_gue):
        assert build_profile(eq_gue, 0.5, a_c=1.0).regime == "subcritical"
        assert build_profile(eq_gue, 1.0, a_c=1.0).regime == "critical"
        assert build_profile(eq_gue, 2.0, a_c=1.0).regime == "supercritical-generic"

    def test_eynard_critical_profile(self, eq_eynard):
        a_c = critical_a(eq_eynard)
        prof = build_profile(eq_eynard, a_c, a_c=a_c)
        assert prof.regime == "critical"
        assert len(prof.maximizers) == 1
        assert prof.maximizers[0][0] > eq_eynard.a1 + 0.5

    def test_shelf_secondary_profile(self, eq_shelf):
        jumps = secondary_criticals(eq_shelf, 1.35, 1.95, grid=25)
        prof = build_profile(eq_shelf, jumps[0], a_c=critical_a(eq_shelf))
        assert prof.regime in ("secondary-critical", "supercritical-generic")

    def test_json_round_trip(self, eq_gue):
        prof = build_profile(eq_gue, 2.0, a_c=1.0)
        obj = prof.to_json()
        assert obj["regime"] == "supercritical-generic"
        assert obj["maximizers"][0][1] == 1
